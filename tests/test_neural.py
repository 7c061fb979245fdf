"""MLP gradients vs finite differences, Adam, the squashed policy, checkpoints."""

import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drltrade.errors import DimensionMismatch, ShapeMismatch
from drltrade.neural import (
    ActorCritic,
    Adam,
    GaussianPolicy,
    Mlp,
    flatten_params,
    load_checkpoint,
    save_checkpoint,
    softplus,
    tanh_log_det_jacobian,
    unflatten_params,
)
from oracles import (
    AllocatingAdam,
    allocating_backward,
    allocating_forward_cached,
    allocating_input_grad,
    allocating_jvp,
    clip_log_prob_from_mean,
    clip_sample,
    fd_gradient,
    recomputing_jvp,
    vector_rel_error,
)

FD_TOL = 1e-4


def weighted_output_loss(net, x, weights):
    return float(np.sum(net.forward(x) * weights))


def param_loss_fn(net, x, weights):
    def f(flat):
        clone = net.copy()
        clone.set_params(flat)
        return weighted_output_loss(clone, x, weights)

    return f


@pytest.mark.parametrize("sizes", [(3, 1), (4, 8, 1), (5, 6, 6, 2)])
def test_backward_param_grads_match_fd(rng, sizes):
    for _ in range(3):
        net = Mlp(sizes, rng)
        x = rng.normal(size=(4, sizes[0]))
        weights = rng.normal(size=(4, sizes[-1]))
        out, cache = net.forward_cached(x)
        grads = net.backward(cache, weights)
        fd = fd_gradient(param_loss_fn(net, x, weights), net.params())
        assert vector_rel_error(grads, fd) < FD_TOL


def test_backward_input_grads_match_fd(rng):
    net = Mlp((4, 6, 2), rng)
    x0 = rng.normal(size=(3, 4))
    weights = rng.normal(size=(3, 2))
    _, cache = net.forward_cached(x0)
    grad_x = net.input_grad(cache, weights)

    def f(flat):
        return weighted_output_loss(net, flat.reshape(3, 4), weights)

    fd = fd_gradient(f, x0.reshape(-1))
    assert vector_rel_error(grad_x.reshape(-1), fd) < FD_TOL


def test_jvp_matches_directional_fd(rng):
    net = Mlp((3, 5, 2), rng)
    x = rng.normal(size=(4, 3))
    tangent = rng.normal(size=net.params().shape)
    _, cache = net.forward_cached(x)
    got = net.jvp(cache, tangent)
    h = 1e-6
    flat = net.params()
    up, down = net.copy(), net.copy()
    up.set_params(flat + h * tangent)
    down.set_params(flat - h * tangent)
    fd = (up.forward(x) - down.forward(x)) / (2.0 * h)
    assert vector_rel_error(got.reshape(-1), fd.reshape(-1)) < FD_TOL


def test_jvp_backward_adjoint_identity(rng):
    """<g, J v> == <J^T g, v> ties forward and reverse mode together."""
    net = Mlp((4, 7, 3), rng)
    x = rng.normal(size=(6, 4))
    tangent = rng.normal(size=net.params().shape)
    g = rng.normal(size=(6, 3))
    _, cache = net.forward_cached(x)
    vjp = net.backward(cache, g)
    lhs = float(np.sum(g * net.jvp(cache, tangent)))
    rhs = float(vjp @ tangent)
    assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("sizes", [(3, 1), (26, 64, 64, 1), (5, 6, 6, 2)])
@pytest.mark.parametrize("batch", [1, 7, 512])
def test_jvp_from_cache_is_bit_identical_to_recomputing_jvp(rng, sizes, batch):
    for _ in range(3):
        net = Mlp(sizes, rng)
        x = rng.normal(size=(batch, sizes[0]))
        tangent = rng.normal(size=net.params().shape)
        _, cache = net.forward_cached(x)
        got = net.jvp(cache, tangent)
        assert got.tobytes() == recomputing_jvp(net, x, tangent).tobytes()


@pytest.mark.parametrize("sizes", [(3, 1), (27, 64, 64, 1), (1082, 64, 64, 1), (5, 4, 3)])
@pytest.mark.parametrize("batch", [1, 7])
def test_stacked_forward_members_equal_mlp_forward(rng, sizes, batch):
    nets = [Mlp(sizes, rng) for _ in range(3)]
    x = rng.normal(size=(batch, sizes[0]))
    out = Mlp.stack(nets).forward(x)
    assert out.shape == (3, batch, sizes[-1])
    for k, net in enumerate(nets):
        assert out[k].tobytes() == net.forward(x).tobytes()


def test_stacked_forward_keeps_the_parameters_it_was_built_with(rng):
    nets = [Mlp((4, 5, 1), rng) for _ in range(2)]
    x = rng.normal(size=(1, 4))
    forward = Mlp.stack(nets).forward
    before = forward(x).tobytes()
    nets[0].params()[:] += 1.0
    assert forward(x).tobytes() == before


@pytest.mark.parametrize("other", [(4, 5, 2), (4, 6, 1), (3, 5, 1), (4, 5, 5, 1)])
def test_stacked_forward_refuses_unequal_sizes(rng, other):
    with pytest.raises(ShapeMismatch):
        Mlp.stack([Mlp((4, 5, 1), rng), Mlp(other, rng)])


@pytest.mark.parametrize("value_hidden,act_dim", [((5,), 1), ((4,), 2)],
                         ids=["value_hidden", "vector_action"])
def test_actor_critic_refuses_nets_of_unequal_sizes(rng, value_hidden, act_dim):
    """A value net of other hidden sizes, or a vector action, and the stack
    of the mean net and the value net cannot be built; neither net moves."""
    policy = GaussianPolicy(3, act_dim, (4,), rng)
    value_net = Mlp((3,) + value_hidden + (1,), rng)
    policy_theta, value_theta = policy.theta, value_net.theta
    with pytest.raises(ShapeMismatch, match="equal sizes"):
        ActorCritic.of(policy, value_net)
    assert policy.theta is policy_theta and value_net.theta is value_theta


@pytest.mark.parametrize("sizes", [(3, 1), (27, 64, 64, 1), (5, 6, 6, 2)])
@pytest.mark.parametrize("batch", [1, 7, 256])
def test_stack_gradients_equal_member_gradients(rng, sizes, batch):
    """backward, input_grad and jvp of a stack, member by member, bit for bit."""
    nets = [Mlp(sizes, rng) for _ in range(2)]
    stack = Mlp.stack(nets)
    x = rng.normal(size=(batch, sizes[0]))
    g = rng.normal(size=(2, batch, sizes[-1]))
    tangent = rng.normal(size=stack.params().shape)
    _, cache = stack.forward_cached(x)
    grads = stack.backward(cache, g)
    input_grads = stack.input_grad(cache, g)
    jvps = stack.jvp(cache, tangent)
    assert grads.shape == stack.params().shape
    for k, net in enumerate(nets):
        _, member_cache = net.forward_cached(x)
        assert grads[k].tobytes() == net.backward(member_cache, g[k]).tobytes()
        assert input_grads[k].tobytes() == net.input_grad(member_cache, g[k]).tobytes()
        assert jvps[k].tobytes() == net.jvp(member_cache, tangent[k]).tobytes()


def test_adam_on_a_stack_equals_adam_per_member(rng):
    nets = [Mlp((5, 8, 1), rng) for _ in range(2)]
    stack = Mlp.stack(nets)
    stack_opt = Adam(stack.params(), lr=0.01)
    member_opts = [Adam(net.params(), lr=0.01) for net in nets]
    for _ in range(5):
        grads = rng.normal(size=stack.params().shape)
        stack_opt.step(stack.params(), grads)
        for k, (net, opt) in enumerate(zip(nets, member_opts)):
            opt.step(net.params(), grads[k])
    for k, (net, opt) in enumerate(zip(nets, member_opts)):
        assert stack.params()[k].tobytes() == net.params().tobytes()
        assert stack_opt.m[k].tobytes() == opt.m.tobytes()
        assert stack_opt.v[k].tobytes() == opt.v.tobytes()
        assert stack_opt.t == opt.t


PAPER_WIDTH = (1082, 64, 64, 1)


# (sizes, stacked K or None for one net, rows, rows of the buffers passed in)
PASS_CASES = {
    "batch1": ((26, 64, 64, 1), None, 1, 1),
    "batch": ((27, 64, 64, 1), None, 256, 256),
    "row_views": ((27, 64, 64, 1), None, 200, 256),
    "no_hidden": ((3, 2), None, 7, 9),
    "uneven": ((5, 6, 4, 2), None, 7, 7),
    "stack_batch1": ((26, 64, 64, 1), 2, 1, 1),
    "stack_row_views": ((5, 6, 4, 2), 2, 30, 33),
    "paper_width": (PAPER_WIDTH, None, 32, 40),
}


@pytest.mark.parametrize("case", PASS_CASES)
def test_mlp_passes_are_bit_identical_to_the_allocating_forms(rng, case):
    """forward_cached, backward and input_grad, with and without the buffers
    they can write into, against the allocating forms, by bytes."""
    sizes, k, rows, buffer_rows = PASS_CASES[case]
    net = Mlp(sizes, rng) if k is None else Mlp.stack([Mlp(sizes, rng) for _ in range(k)])
    lead = net.params().shape[:-1]
    x = rng.normal(size=(rows, sizes[0]))
    g = rng.normal(size=lead + (rows, sizes[-1]))
    want_out, want_cache = allocating_forward_cached(net, x)
    want_grad = allocating_backward(net, want_cache, g)
    want_input = allocating_input_grad(net, want_cache, g)

    out, cache = net.forward_cached(x)
    assert [a.tobytes() for a in cache] == [a.tobytes() for a in want_cache]
    assert net.backward(cache, g).tobytes() == want_grad.tobytes()
    assert net.input_grad(cache, g).tobytes() == want_input.tobytes()

    # NaN-filled buffers, larger than needed, written twice through row views.
    full = net.new_cache(buffer_rows)
    for a in full[1:]:
        a.fill(np.nan)
    width = max(sizes[1:-1], default=0)
    assert net.new_scratch(buffer_rows).shape == (2, math.prod(lead) * buffer_rows * width)
    scratch = np.full((2, math.prod(lead) * buffer_rows * width + 3), np.nan)
    grads = np.full((2,) + net.params().shape, np.nan)
    for _ in range(2):
        view = [None] + [a[..., :rows, :] for a in full[1:]]
        out, cache = net.forward_cached(x, view)
        assert cache is view and cache[0] is x and out is cache[-1]
        assert all(np.shares_memory(a, b) for a, b in zip(cache[1:], full[1:]))
        assert [a.tobytes() for a in cache] == [a.tobytes() for a in want_cache]
        into = grads[1]
        assert net.backward(cache, g, out=into, scratch=scratch) is into
        assert into.tobytes() == want_grad.tobytes()
        input_grad = net.input_grad(cache, g, scratch)
        assert input_grad.tobytes() == want_input.tobytes()
        assert not np.shares_memory(input_grad, scratch)
    assert np.isnan(grads[0]).all()


# (sizes, stacked K or None for one net, rows, rows of the buffers passed in)
JVP_CASES = {
    "batch1": ((26, 64, 64, 1), None, 1, 1),
    "batch512": ((26, 64, 64, 1), None, 512, 512),
    "row_views": ((26, 64, 64, 1), None, 200, 256),
    "no_hidden": ((3, 2), None, 7, 9),
    "uneven": ((5, 6, 4, 2), None, 7, 7),
    "output_wider_than_hidden": ((3, 2, 5), None, 6, 8),
    "stack": ((5, 6, 4, 2), 2, 30, 33),
    "paper_width": (PAPER_WIDTH, None, 32, 40),
}


@pytest.mark.parametrize("case", JVP_CASES)
def test_jvp_into_caller_arrays_is_bit_identical_to_the_allocating_form(rng, case):
    """jvp with and without an out array and a scratch pair, against the
    allocating form, by bytes; the buffers are NaN-filled, larger than
    needed and written twice through row views."""
    sizes, k, rows, buffer_rows = JVP_CASES[case]
    net = Mlp(sizes, rng) if k is None else Mlp.stack([Mlp(sizes, rng) for _ in range(k)])
    lead = net.params().shape[:-1]
    _, cache = net.forward_cached(rng.normal(size=(rows, sizes[0])))
    tangent = rng.normal(size=net.params().shape)
    want = allocating_jvp(net, cache, tangent)
    assert net.jvp(cache, tangent).tobytes() == want.tobytes()

    outs = np.full((2,) + lead + (buffer_rows, sizes[-1]), np.nan)
    scratch = np.full(net.new_scratch(buffer_rows).shape, np.nan)
    for _ in range(2):
        into = outs[1][..., :rows, :]
        assert net.jvp(cache, tangent, into, scratch) is into
        assert into.tobytes() == want.tobytes()
    assert np.isnan(outs[0]).all() and np.isnan(outs[1][..., rows:, :]).all()


def test_jvp_refuses_an_out_of_another_shape(rng):
    net = Mlp((3, 4, 1), rng)
    _, cache = net.forward_cached(np.zeros((2, 3)))
    with pytest.raises(ShapeMismatch):
        net.jvp(cache, np.zeros(net.params().size), out=np.empty((3, 1)))


def test_input_grad_results_survive_the_next_pass_through_the_same_scratch(rng):
    q1, q2 = Mlp((27, 64, 64, 1), rng), Mlp((27, 64, 64, 1), rng)
    x = rng.normal(size=(16, 27))
    ones = np.ones((16, 1))
    scratch = np.empty((2, 16 * 64))
    first = q1.input_grad(q1.forward_cached(x)[1], ones, scratch)
    kept = first.copy()
    q2.input_grad(q2.forward_cached(x)[1], ones, scratch)
    assert first.tobytes() == kept.tobytes()


def test_backward_refuses_an_out_of_another_shape(rng):
    net = Mlp((3, 4, 1), rng)
    _, cache = net.forward_cached(np.zeros((2, 3)))
    with pytest.raises(ShapeMismatch):
        net.backward(cache, np.zeros((2, 1)), out=np.empty(net.params().size + 1))


def adam_params(rng, shape):
    if shape == "paper_width":
        return Mlp(PAPER_WIDTH, rng).params().copy()
    if shape == "stack":
        return Mlp.stack([Mlp((27, 64, 64, 1), rng) for _ in range(2)]).params().copy()
    return rng.normal(size=shape)


@pytest.mark.parametrize("shape", [(1,), (7,), (3, 2), "stack", "paper_width"])
@pytest.mark.parametrize("hyper", [{}, {"beta1": 0.5, "beta2": 0.9, "eps": 1e-3}])
def test_adam_is_bit_identical_to_the_allocating_form(rng, shape, hyper):
    """Parameters, moments and step count after each of 25 steps, by bytes;
    the moments are updated in place and the gradients are left alone."""
    params = adam_params(rng, shape)
    want_params = params.copy()
    opt, want = Adam(params, lr=0.01, **hyper), AllocatingAdam(want_params, lr=0.01, **hyper)
    m, v = opt.m, opt.v
    for step in range(25):
        scale = (1e-9, 1.0, 1e4)[step % 3]
        grads = scale * rng.normal(size=params.shape)
        grads[..., ::5] = 0.0
        given = grads.copy()
        opt.step(params, grads)
        want.step(want_params, grads)
        assert grads.tobytes() == given.tobytes()
        assert params.tobytes() == want_params.tobytes()
        assert (opt.m.tobytes(), opt.v.tobytes(), opt.t) == (
            want.m.tobytes(), want.v.tobytes(), want.t)
    assert opt.m is m and opt.v is v


def test_adam_step_allocates_no_parameter_sized_array(rng):
    params = adam_params(rng, "paper_width")
    opt = Adam(params, lr=0.01)
    grads = rng.normal(size=params.shape)
    opt.step(params, grads)
    tracemalloc.start()
    try:
        opt.step(params, grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params.nbytes // 10


def test_members_are_views_of_the_stack(rng):
    stack = Mlp.stack([Mlp((3, 4, 2), rng) for _ in range(3)])
    assert stack.weights[0].shape == (3, 3, 4)
    assert stack.biases[1].shape == (3, 1, 2)
    members = stack.members()
    assert len(members) == 3
    for k, member in enumerate(members):
        assert member.sizes == stack.sizes
        assert np.shares_memory(member.params(), stack.params())
        assert np.array_equal(member.params(), stack.params()[k])
        assert np.shares_memory(member.weights[0], stack.weights[0])
    members[1].biases[0][:] = 7.0
    assert np.all(stack.biases[0][1] == 7.0)
    stack.params()[2] = 0.5
    assert np.all(members[2].weights[1] == 0.5)


def test_stack_copy_owns_its_parameters(rng):
    stack = Mlp.stack([Mlp((3, 4, 1), rng) for _ in range(2)])
    clone = stack.copy()
    assert clone.params().shape == (2, stack.params().shape[1])
    assert not np.shares_memory(clone.params(), stack.params())
    clone.params()[:] += 1.0
    assert not np.array_equal(clone.params(), stack.params())


def test_forward_shape_checks(rng):
    net = Mlp((3, 2), rng)
    with pytest.raises(DimensionMismatch):
        net.forward(np.zeros((1, 4)))
    with pytest.raises(ShapeMismatch):
        out, cache = net.forward_cached(np.zeros((2, 3)))
        net.backward(cache, np.zeros((3, 2)))
    with pytest.raises(ShapeMismatch):
        net.input_grad(cache, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        Mlp((3,), rng)


def test_set_params_shape_checks(rng):
    net = Mlp((3, 2), rng)  # 3*2 weights + 2 biases
    with pytest.raises(ShapeMismatch):
        net.set_params(np.zeros(6))
    with pytest.raises(ShapeMismatch):
        net.set_params(np.zeros((2, 4)))
    _, cache = net.forward_cached(np.zeros((1, 3)))
    with pytest.raises(ShapeMismatch):
        net.jvp(cache, np.zeros(9))


def test_flatten_unflatten_round_trip(rng):
    net = Mlp((3, 4, 2), rng)
    arrays = [net.weights[0], net.biases[0], net.weights[1], net.biases[1]]
    shapes = [a.shape for a in arrays]
    flat = flatten_params(arrays)
    assert np.array_equal(flat, net.params())
    back = unflatten_params(flat, shapes)
    for a, b in zip(arrays, back):
        assert np.array_equal(a, b)
        assert np.shares_memory(b, flat)
    with pytest.raises(ShapeMismatch):
        unflatten_params(flat[:-1], shapes)


def test_adam_first_step_closed_form(rng):
    p = rng.normal(size=(3, 2))
    g = rng.normal(size=(3, 2))
    expected = p - 0.1 * g / (np.abs(g) + 1e-8)
    opt = Adam(p, lr=0.1)
    opt.step(p, g)
    assert np.allclose(p, expected, atol=1e-12)


def test_adam_matches_scalar_reference():
    p = np.array([1.0])
    opt = Adam(p, lr=0.05)
    m = v = 0.0
    ref = 1.0
    for t in range(1, 6):
        g = 0.3 * ref  # gradient of 0.15*x^2
        opt.step(p, np.array([g]))
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= 0.05 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert p[0] == pytest.approx(ref, rel=1e-12)


def test_adam_grad_count_check(rng):
    p = rng.normal(size=2)
    opt = Adam(p, lr=0.1)
    with pytest.raises(ShapeMismatch):
        opt.step(p, np.zeros(4))


def test_adam_step_on_policy_vector_moves_every_view(rng):
    policy = GaussianPolicy(obs_dim=3, act_dim=2, hidden=(4,), rng=rng)
    theta = policy.params()
    views = policy.mean_net.weights + policy.mean_net.biases + [policy.log_std]
    for view in views + [policy.mean_net.params()]:
        assert np.shares_memory(view, theta)
    w0, log_std = policy.mean_net.weights[0].copy(), policy.log_std.copy()
    opt = Adam(theta, lr=0.1)
    opt.step(theta, np.ones_like(theta))
    assert np.allclose(policy.mean_net.weights[0], w0 - 0.1)
    assert np.allclose(policy.log_std, log_std - 0.1)
    assert policy.params() is theta


def test_softplus_and_tanh_log_det():
    assert softplus(0.0) == pytest.approx(np.log(2.0))
    u = np.linspace(-3, 3, 13)
    naive = np.log(1.0 - np.tanh(u) ** 2)
    assert np.allclose(tanh_log_det_jacobian(u), naive, atol=1e-12)
    # the naive form underflows to log(0) here; the safe form stays finite
    assert np.isfinite(tanh_log_det_jacobian(np.array([50.0, -50.0]))).all()


def test_policy_log_prob_matches_manual_density(rng):
    policy = GaussianPolicy(obs_dim=3, act_dim=2, hidden=(8,), rng=rng)
    policy.log_std[:] = [0.3, -0.2]
    obs = rng.normal(size=(5, 3))
    action, pre, logp = policy.sample(obs, rng)
    assert np.array_equal(action, np.tanh(pre))
    mean = policy.mean_net.forward(obs)
    std = np.exp(policy.log_std)
    gaussian = -0.5 * np.log(2 * np.pi) - np.log(std) - 0.5 * ((pre - mean) / std) ** 2
    manual = gaussian.sum(axis=1) - np.log(1.0 - np.tanh(pre) ** 2).sum(axis=1)
    assert np.allclose(logp, manual, atol=1e-9)
    assert np.allclose(policy.log_prob(obs, pre), logp)


def test_policy_density_integrates_to_one(rng):
    policy = GaussianPolicy(obs_dim=2, act_dim=1, hidden=(4,), rng=rng)
    obs = np.array([[0.3, -0.7]])
    a = np.linspace(-1.0 + 1e-7, 1.0 - 1e-7, 8001)
    pre = np.arctanh(a)
    log_p = np.array([policy.log_prob(obs, np.array([[u]]))[0] for u in pre])
    mass = np.trapezoid(np.exp(log_p), a)
    assert mass == pytest.approx(1.0, abs=1e-3)


def test_policy_entropy_unit_sigma():
    rng = np.random.default_rng(1)
    policy = GaussianPolicy(obs_dim=2, act_dim=1, hidden=(4,), rng=rng)
    assert policy.entropy() == pytest.approx(1.4189385332046727, abs=1e-6)
    policy2 = GaussianPolicy(obs_dim=2, act_dim=3, hidden=(4,), rng=rng)
    assert policy2.entropy() == pytest.approx(3 * 1.4189385332046727, abs=1e-6)


def test_policy_log_std_clamp(rng):
    policy = GaussianPolicy(obs_dim=2, act_dim=1, hidden=(4,), rng=rng)
    policy.log_std[:] = 5.0
    assert policy.clamped_log_std()[0] == 2.0
    assert policy.std()[0] == pytest.approx(np.exp(2.0))
    policy.log_std[:] = -30.0
    assert policy.clamped_log_std()[0] == -20.0


@pytest.mark.parametrize("log_std", [[0.3, -0.2], [-25.0, -20.0], [2.0, 7.5], [np.nan, 0.1]])
@pytest.mark.parametrize("batch", [1, 256])
def test_sample_is_bit_identical_to_clip_form(rng, log_std, batch):
    """Inside, at and beyond both ends of the clamp, and a NaN log_std."""
    policy = GaussianPolicy(obs_dim=5, act_dim=2, hidden=(16, 16), rng=rng)
    policy.log_std[:] = log_std
    obs = rng.normal(size=(batch, 5))
    seed = int(rng.integers(2**32))
    with np.errstate(invalid="ignore"):  # a NaN log_std makes every pre NaN
        got = policy.sample(obs, np.random.default_rng(seed))
        want = clip_sample(policy, obs, np.random.default_rng(seed))
        mean = policy.mean_net.forward(obs)
        lp = policy.log_prob_from_mean(mean, got[1])
        lp_want = clip_log_prob_from_mean(policy, mean, got[1])
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    assert lp.tobytes() == lp_want.tobytes()


def test_forward_converts_lists_vectors_and_float32(rng):
    net = Mlp((3, 2), rng)
    row = [0.5, -1.0, 2.0]
    want = net.forward(np.array([row])).tobytes()
    for x in (row, np.array(row), np.array([row], dtype=np.float32), [[0.5, -1, 2]]):
        assert net.forward(x).tobytes() == want


def test_policy_out_scale_shrinks_final_layer(rng):
    policy = GaussianPolicy(obs_dim=4, act_dim=1, hidden=(8,), rng=rng, out_scale=0.01)
    bound = 0.01 / np.sqrt(8)
    assert np.max(np.abs(policy.mean_net.weights[-1])) <= bound + 1e-15
    assert np.max(np.abs(policy.mean_net.weights[0])) > bound


def test_policy_log_prob_shape_mismatch(rng):
    policy = GaussianPolicy(obs_dim=2, act_dim=2, hidden=(4,), rng=rng)
    with pytest.raises(ShapeMismatch):
        policy.log_prob(np.zeros((3, 2)), np.zeros((3, 1)))


def test_policy_copy_is_independent(rng):
    policy = GaussianPolicy(obs_dim=2, act_dim=1, hidden=(4,), rng=rng)
    clone = policy.copy()
    clone.log_std += 1.0
    clone.mean_net.weights[0] += 1.0
    assert policy.log_std[0] != clone.log_std[0]
    assert not np.array_equal(policy.mean_net.weights[0], clone.mean_net.weights[0])


def test_mlp_json_round_trip_exact(rng):
    net = Mlp((3, 5, 2), rng)
    back = Mlp.from_json(net.to_json())
    assert np.array_equal(net.params(), back.params())


def test_checkpoint_round_trip_and_determinism(rng, tmp_path):
    policy = GaussianPolicy(obs_dim=3, act_dim=1, hidden=(4,), rng=rng)
    payload = {"policy": policy.to_json(), "note": 1}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_checkpoint(p1, "ppo", payload)
    save_checkpoint(p2, "ppo", payload)
    assert p1.read_bytes() == p2.read_bytes()
    doc = load_checkpoint(p1)
    assert doc["kind"] == "ppo"
    restored = GaussianPolicy.from_json(doc["policy"])
    x = rng.normal(size=(2, 3))
    assert np.array_equal(restored.mean_net.forward(x), policy.mean_net.forward(x))


# Bit patterns: quiet and signalling NaNs with payloads and either sign, the
# infinities, both zeros, subnormals and the extremes, or any 64 bits at all.
EDGE_BITS = [struct.unpack("<Q", struct.pack("<d", x))[0]
             for x in (float("inf"), float("-inf"), -0.0, 0.0, 5e-324, -5e-324, 2.2e-308,
                       1.7976931348623157e308)]
EDGE_BITS += [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
              0x7FF4000000000000, 0xFFF0000000000ABC, 0x7FFFFFFFFFFFFFFF, 0x000FFFFFFFFFFFFF]
BITS = st.sampled_from(EDGE_BITS) | st.integers(0, 2**64 - 1)


def float_bits(values: np.ndarray) -> bytes:
    return np.asarray(values, dtype="<f8").tobytes()


@settings(max_examples=80, deadline=None)
@given(sizes=st.lists(st.integers(1, 4), min_size=2, max_size=4), k=st.integers(1, 3),
       data=st.data())
def test_checkpoint_round_trip_is_bit_exact(tmp_path_factory, sizes, k, data):
    """Mlp, stack members and GaussianPolicy come back with every bit of every parameter."""
    rng = np.random.default_rng(0)

    def vector(n):
        bits = data.draw(st.lists(BITS, min_size=n, max_size=n))
        return np.array(bits, dtype="<u8").view("<f8").astype(float)

    net = Mlp(sizes, rng)
    net.params()[:] = vector(net.params().size)
    stack = Mlp.stack([Mlp(sizes, rng) for _ in range(k)])
    stack.params()[:] = vector(stack.params().size).reshape(stack.params().shape)
    policy = GaussianPolicy(sizes[0], sizes[-1], sizes[1:-1], rng)
    policy.params()[:] = vector(policy.params().size)
    nets = {"net": net, "policy": policy,
            **{f"member{i}": member for i, member in enumerate(stack.members())}}
    path = tmp_path_factory.getbasetemp() / "round_trip.json"
    save_checkpoint(path, "sac", {name: item.to_json() for name, item in nets.items()})
    doc = load_checkpoint(path)
    for name, item in nets.items():
        back = (GaussianPolicy if name == "policy" else Mlp).from_json(doc[name])
        assert float_bits(back.params()) == float_bits(item.params()), name
        assert back.params().flags.writeable and back.params().dtype == np.float64
    back = GaussianPolicy.from_json(doc["policy"])
    assert float_bits(back.log_std) == float_bits(policy.log_std)
    assert float_bits(back.mean_net.params()) == float_bits(policy.mean_net.params())
    assert np.shares_memory(back.log_std, back.params())


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format_version": 99, "kind": "ppo"}))
    with pytest.raises(ValueError):
        load_checkpoint(path)
