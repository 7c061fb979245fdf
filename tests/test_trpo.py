"""Trust-region step: CG solver, Fisher products, KL budget, restore paths."""

import warnings

import numpy as np
import pytest

from drltrade.agents import conjugate_gradient, fisher_vector_product, gaussian_kl, trpo_step
from drltrade.agents.ppo import log_std_mask
from drltrade.agents.trpo import surrogate
from drltrade.errors import ShapeMismatch
from drltrade.neural import GaussianPolicy


def test_cg_diagonal_exact():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = conjugate_gradient(lambda v: a @ v, np.array([2.0, 4.0]), iters=10)
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_cg_matches_dense_solve(rng):
    for _ in range(5):
        b_mat = rng.normal(size=(6, 6))
        a = b_mat @ b_mat.T + 6 * np.eye(6)  # SPD, well conditioned
        rhs = rng.normal(size=6)
        x = conjugate_gradient(lambda v: a @ v, rhs, iters=50)
        assert np.allclose(x, np.linalg.solve(a, rhs), atol=1e-8)


def test_gaussian_kl_closed_forms():
    one = np.ones((1, 1))
    zero = np.zeros((1, 1))
    assert gaussian_kl(zero, one, zero, one) == pytest.approx(0.0, abs=1e-15)
    assert gaussian_kl(zero, one, one, one) == pytest.approx(0.5, abs=1e-12)
    # widening sigma from 1 to 2: log 2 + 1/8 - 1/2
    assert gaussian_kl(zero, one, zero, 2 * one) == pytest.approx(
        np.log(2.0) - 0.375, abs=1e-12
    )
    # sums over action dims before averaging over the batch
    assert gaussian_kl(
        np.zeros((2, 2)), np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2))
    ) == pytest.approx(1.0, abs=1e-12)


def brute_fisher(policy, obs, cache, damping):
    """Dense (F + damping I): Gauss-Newton mean block plus 2I for log_std."""
    mean = policy.mean_net.forward(obs)
    n, act_dim = mean.shape
    var = policy.std() ** 2
    net_size = policy.mean_net.params().size
    total = net_size + act_dim
    fisher = np.zeros((total, total))
    for i in range(n):
        for k in range(act_dim):
            grad_out = np.zeros_like(mean)
            grad_out[i, k] = 1.0
            row = policy.mean_net.backward(cache, grad_out)
            fisher[:net_size, :net_size] += np.outer(row, row) / var[k] / n
    mask = log_std_mask(policy)
    for k in range(act_dim):
        fisher[net_size + k, net_size + k] = 2.0 * mask[k]
    return fisher + damping * np.eye(total)


def test_fisher_vector_product_matches_dense(rng):
    policy = GaussianPolicy(2, 2, (3,), rng)
    policy.log_std[:] = rng.uniform(-0.4, 0.4, size=2)
    obs = rng.normal(size=(4, 2))
    _, cache = policy.mean_net.forward_cached(obs)
    dense = brute_fisher(policy, obs, cache, damping=0.1)
    for _ in range(5):
        vec = rng.normal(size=dense.shape[0])
        got = fisher_vector_product(policy, obs, cache, vec, damping=0.1)
        want = dense @ vec
        assert np.allclose(got, want, atol=1e-10)


def test_fisher_product_is_positive_definite_with_damping(rng):
    policy = GaussianPolicy(3, 1, (4,), rng)
    obs = rng.normal(size=(6, 3))
    _, cache = policy.mean_net.forward_cached(obs)
    for _ in range(5):
        vec = rng.normal(size=policy.params().size)
        assert vec @ fisher_vector_product(policy, obs, cache, vec, 0.1) > 0.0


def make_batch(seed, n=16, obs_dim=3, act_dim=1):
    rng = np.random.default_rng(seed)
    policy = GaussianPolicy(obs_dim, act_dim, (4,), rng)
    obs = rng.normal(size=(n, obs_dim))
    _, pre, log_probs = policy.sample(obs, rng)
    advantages = rng.normal(size=n)
    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    return policy, obs, pre, advantages, log_probs


def test_accepted_steps_respect_kl_budget():
    max_kl = 0.01
    accepted = 0
    for seed in range(20):
        policy, obs, pre, advantages, log_probs = make_batch(seed)
        before = policy.copy()
        stats = trpo_step(policy, obs, pre, advantages, log_probs, max_kl=max_kl)
        if not stats.accepted:
            assert np.array_equal(policy.params(), before.params())
            continue
        accepted += 1
        mean_old = before.mean_net.forward(obs)
        mean_new = policy.mean_net.forward(obs)
        kl = gaussian_kl(
            mean_old,
            np.broadcast_to(before.std(), mean_old.shape),
            mean_new,
            np.broadcast_to(policy.std(), mean_new.shape),
        )
        assert kl <= max_kl + 1e-12
        assert stats.kl == pytest.approx(kl, abs=1e-12)
        gain = surrogate(policy, obs, pre, advantages, log_probs, 0.0) - surrogate(
            before, obs, pre, advantages, log_probs, 0.0
        )
        assert gain > 0.0
        assert stats.improvement == pytest.approx(gain, abs=1e-12)
        assert stats.step_fraction in {0.5**k for k in range(10)}
    assert accepted >= 10  # the budget check must actually exercise accepts


def test_pre_actions_must_match_the_mean_shape():
    # A (1, act_dim) batch would broadcast against the means without an error.
    policy, obs, pre, advantages, log_probs = make_batch(0)
    before = policy.params().copy()
    for bad in (pre[:1], pre.ravel()):
        with pytest.raises(ShapeMismatch, match="pre_actions shape"):
            trpo_step(policy, obs, bad, advantages, log_probs)
        assert np.array_equal(policy.params(), before)


def test_zero_budget_restores_bit_identical():
    policy, obs, pre, advantages, log_probs = make_batch(seed=3)
    before = policy.params().copy()
    stats = trpo_step(policy, obs, pre, advantages, log_probs, max_kl=0.0)
    # beta = 0 makes every candidate the old point; improvement 0 rejects all
    assert not stats.accepted
    assert stats.step_fraction == 0.0
    assert np.array_equal(policy.params(), before)


def test_non_finite_advantages_noop():
    """A skipped step is recorded in ``accepted`` alone, without a warning."""
    policy, obs, pre, advantages, log_probs = make_batch(seed=4)
    advantages = advantages.copy()
    advantages[0] = np.inf
    before = policy.params().copy()
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("error")
        stats = trpo_step(policy, obs, pre, advantages, log_probs)
    assert not stats.accepted
    assert (stats.step_fraction, stats.kl, stats.improvement) == (0.0, 0.0, 0.0)
    assert np.array_equal(policy.params(), before)


def test_zero_gradient_degenerate_direction_noops():
    policy, obs, pre, _, log_probs = make_batch(seed=5)
    before = policy.params().copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats = trpo_step(policy, obs, pre, np.zeros(len(obs)), log_probs)
    assert not stats.accepted
    assert np.array_equal(policy.params(), before)


def test_entropy_coefficient_raises_log_std():
    policy, obs, pre, _, log_probs = make_batch(seed=6)
    log_std_before = policy.log_std.copy()
    stats = trpo_step(
        policy, obs, pre, np.zeros(len(obs)), log_probs, ent_coef=1.0
    )
    # with zero advantages the only pressure is entropy, which widens sigma
    assert stats.accepted
    assert np.all(policy.log_std > log_std_before)
    assert stats.improvement > 0.0
