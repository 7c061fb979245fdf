"""Trust-region policy step: natural gradient by conjugate gradient plus
a backtracking line search under a KL budget.

The Fisher matrix of the tanh-free Gaussian head is block diagonal: a
Gauss-Newton block J^T diag(1/sigma^2) J for the mean network (J the Jacobian
of means w.r.t. parameters, applied matrix-free through jvp/backward) and the
constant 2*I for log_std. Candidate steps are accepted only if the linearized
surrogate actually improves and the empirical KL stays within max_kl;
otherwise parameters are restored bit for bit. A step writes its passes into
arrays its caller can allocate once (``TrpoBuffers``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatch
from ..neural import GaussianPolicy
from .ppo import policy_param_grads


def conjugate_gradient(matvec, b: np.ndarray, iters: int, tol: float = 1e-10) -> np.ndarray:
    """Solve A x = b for SPD A given only v -> A v.

    The iterates are updated in place through one scratch vector, so the
    loop allocates nothing; ``matvec`` may return the same array each call.
    """
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    scaled = np.empty_like(b)
    rs = float(r @ r)
    for _ in range(iters):
        if rs < tol:
            break
        ap = matvec(p)
        alpha = rs / float(p @ ap)
        x += np.multiply(alpha, p, out=scaled)
        r -= np.multiply(alpha, ap, out=scaled)
        rs_new = float(r @ r)
        np.add(r, np.multiply(rs_new / rs, p, out=p), out=p)  # p = r + beta * p
        rs = rs_new
    return x


@dataclass
class TrpoBuffers:
    """The arrays one trust-region step writes into, for ``rows`` samples.

    ``cache`` holds the mean net's pass at the current parameters: every
    Fisher product reads it, and its output is the old mean, so the line
    search writes into ``trial``. Each ``jvp`` and backward pass goes through
    ``scratch``; ``dmean`` carries a product's mean tangent. ``vectors``
    holds the surrogate gradient, the Fisher product and its damping term.
    """

    cache: list
    trial: list
    scratch: np.ndarray
    dmean: np.ndarray  # (rows, act_dim)
    vectors: np.ndarray  # (3, policy parameters)

    @classmethod
    def allocate(cls, policy: GaussianPolicy, rows: int) -> "TrpoBuffers":
        net = policy.mean_net
        return cls(cache=net.new_cache(rows), trial=net.new_cache(rows),
                   scratch=net.new_scratch(rows), dmean=np.empty((rows, policy.act_dim)),
                   vectors=np.empty((3, policy.theta.size)))


def fisher_vector_product(
    policy: GaussianPolicy,
    obs: np.ndarray,
    cache,
    vec: np.ndarray,
    damping: float,
    buffers: TrpoBuffers | None = None,
) -> np.ndarray:
    """(F + damping*I) v for the KL Fisher at the current parameters.

    ``cache`` is the mean network's ``forward_cached`` cache on ``obs`` at
    those parameters. The product is ``buffers.vectors[1]``, which the next
    call overwrites; without ``buffers``, new ones are allocated for ``obs``'s
    rows.
    """
    if buffers is None:
        buffers = TrpoBuffers.allocate(policy, len(obs))
    n_net = policy.mean_net.theta.size
    n = len(obs)
    var = policy.std() ** 2
    dmean = policy.mean_net.jvp(cache, vec[:n_net], buffers.dmean, buffers.scratch)
    np.divide(np.divide(dmean, var, out=dmean), n, out=dmean)
    _, product, term = buffers.vectors
    policy.mean_net.backward(cache, dmean, out=product[:n_net], scratch=buffers.scratch)
    np.multiply(2.0 * vec[n_net:], policy.log_std_mask(), out=product[n_net:])
    return np.add(product, np.multiply(damping, vec, out=term), out=product)


def gaussian_kl(mean0, std0, mean1, std1) -> float:
    """KL(N(mean0, std0) || N(mean1, std1)), summed over dims, batch mean."""
    per_dim = (
        np.log(std1 / std0)
        + (std0**2 + (mean0 - mean1) ** 2) / (2.0 * std1**2)
        - 0.5
    )
    return float(np.mean(per_dim.sum(axis=1)))


def _surrogate(policy, ratio, advantages, ent_coef) -> float:
    return float(np.mean(ratio * advantages)) + ent_coef * policy.entropy()


def surrogate(policy, obs, pre_actions, advantages, old_log_probs, ent_coef) -> float:
    ratio = np.exp(policy.log_prob(obs, pre_actions) - old_log_probs)
    return _surrogate(policy, ratio, advantages, ent_coef)


@dataclass
class TrpoStats:
    accepted: bool
    step_fraction: float
    kl: float
    improvement: float
    surrogate: float


def _noop(value: float) -> TrpoStats:
    """A skipped step: ``accepted`` False records it, and the parameters stay."""
    return TrpoStats(accepted=False, step_fraction=0.0, kl=0.0, improvement=0.0,
                     surrogate=value)


def trpo_step(
    policy: GaussianPolicy,
    obs: np.ndarray,
    pre_actions: np.ndarray,
    advantages: np.ndarray,
    old_log_probs: np.ndarray,
    max_kl: float = 0.01,
    cg_iters: int = 10,
    backtracks: int = 10,
    damping: float = 0.1,
    ent_coef: float = 0.0,
    buffers: TrpoBuffers | None = None,
) -> TrpoStats:
    """Maximize mean(ratio * advantage) + ent_coef * entropy under a KL cap.

    The passes write into ``buffers``, for ``len(obs)`` rows; without them,
    new ones are allocated.
    """
    n = len(obs)
    if buffers is None:
        buffers = TrpoBuffers.allocate(policy, n)
    theta_old = policy.params().copy()
    mean_old, cache = policy.mean_net.forward_cached(obs, buffers.cache)
    if np.shape(pre_actions) != mean_old.shape:
        raise ShapeMismatch(f"pre_actions shape {np.shape(pre_actions)} "
                            f"!= mean shape {mean_old.shape}")
    std_old = np.broadcast_to(policy.std(), mean_old.shape)
    # The surrogate and its gradient at the current parameters (ratio = 1 here
    # whenever old_log_probs came from these parameters).
    ratio_now = np.exp(policy.log_prob_from_mean(mean_old, pre_actions) - old_log_probs)
    surr_old = _surrogate(policy, ratio_now, advantages, ent_coef)
    dsurr_dlogp = ratio_now * advantages / n
    ent_grad = ent_coef * np.ones(policy.act_dim)
    g = policy_param_grads(policy, cache, mean_old, pre_actions, dsurr_dlogp, ent_grad,
                           out=buffers.vectors[0], scratch=buffers.scratch)
    if not np.all(np.isfinite(g)):
        return _noop(surr_old)  # a non-finite surrogate gradient

    def matvec(v):
        return fisher_vector_product(policy, obs, cache, v, damping, buffers)

    direction = conjugate_gradient(matvec, g, cg_iters)
    quad = float(direction @ matvec(direction))
    if not np.all(np.isfinite(direction)) or quad <= 0.0 or not np.isfinite(quad):
        return _noop(surr_old)  # a non-finite or degenerate search direction
    beta = np.sqrt(2.0 * max_kl / quad)
    full_step = beta * direction

    for k in range(backtracks):
        frac = 0.5**k
        policy.set_params(theta_old + frac * full_step)
        mean_new, _ = policy.mean_net.forward_cached(obs, buffers.trial)
        std_new = np.broadcast_to(policy.std(), mean_new.shape)
        kl = gaussian_kl(mean_old, std_old, mean_new, std_new)
        ratio_new = np.exp(policy.log_prob_from_mean(mean_new, pre_actions) - old_log_probs)
        surr_new = _surrogate(policy, ratio_new, advantages, ent_coef)
        improvement = surr_new - surr_old
        if np.isfinite(kl) and np.isfinite(surr_new) and improvement > 0.0 and kl <= max_kl:
            return TrpoStats(accepted=True, step_fraction=frac, kl=kl,
                             improvement=improvement, surrogate=surr_new)
    policy.set_params(theta_old)
    return _noop(surr_old)
