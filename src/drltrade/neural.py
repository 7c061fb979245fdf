"""Small dense networks with explicit gradients, in float64 numpy.

Everything the agents need is built from one primitive: an MLP with tanh
hidden layers and a linear output, supporting reverse-mode gradients
(``backward``) and forward-mode directional derivatives (``jvp``). On top of
it sits a tanh-squashed Gaussian policy with a state-independent log standard
deviation, plus Adam and JSON checkpoint helpers.

Each network keeps its parameters in one contiguous float64 vector,
``theta``, laid out as [W0, b0, W1, b1, ...] for an MLP and as
[mean-net theta, log_std] for the policy. ``weights``, ``biases``,
``mean_net`` and ``log_std`` are views into it, so they must be written in
place, never rebound. Gradients, tangents and optimizer state use the same
layout, which makes Adam, Polyak averaging and the trust-region line search
plain vector operations. A stack of K equal-sized MLPs (``Mlp.stack``)
keeps one such vector per row of a ``(K, P)`` block; ``ActorCritic`` keeps
a policy and a value net on one, as both on-policy trainers roll them out.

The passes allocate their results unless given arrays to write into: a
forward cache, a gradient vector and a scratch pair (``new_cache`` and
``new_scratch`` make them; see ``forward_cached``, ``backward`` and
``jvp``). Adam updates its moments in place. A training loop that owns those
arrays, as SAC's update, PPO's epochs and GAIL's update do, allocates no
activation, gradient or optimizer temporaries.

Checkpoints are JSON with sorted keys. Each network is stored as its sizes
and its parameter vector, the base64 of ``params()`` as little-endian float64
bytes, so reloading reproduces every bit (NaN payloads, infinities and -0.0
included) and identical runs produce identical files. ``write_json`` writes
every JSON artifact of the package.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DivergenceDetected, ShapeMismatch

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
LOG_2 = np.log(2.0)
CHECKPOINT_FORMAT_VERSION = 2


def softplus(x):
    return np.logaddexp(0.0, x)


class Mlp:
    """tanh hidden layers, linear output, uniform +-1/sqrt(fan_in) init.

    A stack of K nets has a ``(K, P)`` ``theta``, ``(K, fan_in, fan_out)``
    weights and ``(K, 1, fan_out)`` biases; it maps ``(B, in_dim)`` inputs to
    ``(K, B, out_dim)`` outputs and ``(K, P)`` gradients whose member k equals
    ``members()[k]``'s bit for bit, as each slice of a stacked matmul does.
    """

    def __init__(self, sizes, rng: np.random.Generator, out_scale: float = 1.0):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = tuple(int(s) for s in sizes)
        params = []
        for i, (fan_in, fan_out) in enumerate(zip(self.sizes[:-1], self.sizes[1:])):
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            b = rng.uniform(-bound, bound, size=fan_out)
            if i == len(self.sizes) - 2:
                w *= out_scale
                b *= out_scale
            params += [w, b]
        self._bind(flatten_params(params))

    @classmethod
    def stack(cls, nets) -> "Mlp":
        """A new stack holding a copy of each net's parameters, in order."""
        sizes = {net.sizes for net in nets}
        if len(sizes) != 1:
            raise ShapeMismatch(f"stacked nets need equal sizes, got {sorted(sizes)}")
        return cls._view(sizes.pop(), np.stack([net.theta for net in nets]))

    @classmethod
    def _view(cls, sizes: tuple[int, ...], theta: np.ndarray) -> "Mlp":
        net = cls.__new__(cls)
        net.sizes = sizes
        net._bind(theta)
        return net

    def members(self) -> tuple["Mlp", ...]:
        """One view per row of a stack, built once: writes go through both ways."""
        if self._members is None:
            self._members = tuple(Mlp._view(self.sizes, row) for row in self.theta)
        return self._members

    def _shapes(self) -> list[tuple[int, ...]]:
        """Shapes of W0, b0, W1, b1, ... in the order of ``params()``."""
        shapes = []
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            shapes += [(fan_in, fan_out), (1, fan_out)]
        return shapes

    def _bind(self, theta: np.ndarray) -> None:
        """Make ``theta`` the parameter storage; weights and biases view into it."""
        views = unflatten_params(theta, self._shapes())
        self.theta = theta
        self.weights = views[0::2]
        self.biases = views[1::2]
        self._members = None

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        if not (type(x) is np.ndarray and x.ndim == 2 and x.dtype == np.float64):
            x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_dim:
            raise DimensionMismatch(f"input has {x.shape[1]} features, net expects {self.in_dim}")
        return x

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, _ = self.forward_cached(x)
        return out

    def new_cache(self, rows: int) -> list:
        """An uninitialized cache for ``forward_cached`` on ``rows`` input rows."""
        lead = self.theta.shape[:-1] + (rows,)
        return [None] + [np.empty(lead + (fan_out,)) for fan_out in self.sizes[1:]]

    def new_scratch(self, rows: int) -> np.ndarray:
        """An uninitialized ``(2, K * rows * widest hidden)`` scratch pair for
        ``backward`` and ``input_grad`` on ``rows`` rows (K is 1 for one net)."""
        k = math.prod(self.theta.shape[:-1])
        return np.empty((2, k * rows * max(self.sizes[1:-1], default=0)))

    def forward_cached(self, x: np.ndarray, cache=None):
        """Returns (output, cache); cache holds activations for backward.

        The cache is the list [x, a1, ..., aL] of the input and each layer's
        output. A ``cache`` passed in (one returned before, or row views of
        one) is overwritten: x takes its first entry and each layer writes
        into its array, so the output aliases the cache. Without one, a new
        cache is allocated for ``x``'s rows.
        """
        if cache is None:
            cache = [None] * len(self.sizes)  # matmul allocates each layer's output
        cache[0] = a = self._check_input(x)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out = cache[i + 1]
            a = np.matmul(a, w, out=out)
            if i < last:
                a += b
                np.tanh(a, out=a)
            else:
                # Into a new array without a cache: numpy's in-place add on a
                # one-element array (a batch-1 output) costs about 0.5 us more.
                a = np.add(a, b, out=out)
            cache[i + 1] = a
        return a, cache

    @staticmethod
    def _check_grad_out(activations, grad_out: np.ndarray) -> np.ndarray:
        g = np.asarray(grad_out, dtype=float)
        if g.shape != activations[-1].shape:
            raise ShapeMismatch(
                f"grad_out shape {g.shape} != output shape {activations[-1].shape}"
            )
        return g

    def _scratch(self, g: np.ndarray, scratch) -> np.ndarray:
        """``scratch``, or a new pair of the size ``backward`` asks for."""
        if scratch is None:
            scratch = self.new_scratch(g.shape[-2])
        return scratch

    def _through_hidden(self, i: int, g: np.ndarray, activations, scratch, step: int):
        """(g @ W_i^T) * (1 - a_i^2): g, the gradient at layer i's pre-activation,
        taken back through W_i and the tanh that made a_i.

        It is written into ``scratch[step % 2]``; the other row holds the
        ``1 - a_i^2`` factor, which may overwrite ``g`` when g is the previous
        step's result there.
        """
        shape = g.shape[:-1] + (self.sizes[i],)
        count = g.size // g.shape[-1] * self.sizes[i]
        out = scratch[step % 2, :count].reshape(shape)
        factor = scratch[1 - step % 2, :count].reshape(shape)
        np.matmul(g, self.weights[i].swapaxes(-1, -2), out=out)
        np.square(activations[i], out=factor)
        np.subtract(1.0, factor, out=factor)
        return np.multiply(out, factor, out=out)

    def backward(self, cache, grad_out: np.ndarray, out=None, scratch=None) -> np.ndarray:
        """Given d(loss)/d(output), return d(loss)/d(params).

        The gradient is laid out as ``params()``; it is written into ``out``
        when given (an array shaped like ``params()``, or a view of one), else
        into a new array. The hidden layers' gradients pass through
        ``scratch``, a ``(2, size)`` float64 array with ``size`` at least the
        rows of ``grad_out`` (times K for a stack) times the widest hidden
        layer; without one, one is allocated. The input gradient is not
        computed; ``input_grad`` returns it.
        """
        activations = cache
        g = self._check_grad_out(activations, grad_out)
        if out is None:
            out = np.empty_like(self.theta)
        elif out.shape != self.theta.shape:
            raise ShapeMismatch(f"out has shape {out.shape}, parameters {self.theta.shape}")
        scratch = self._scratch(g, scratch)
        lead = out.shape[:-1]
        end = out.shape[-1]  # [W0, b0, ..., W_i, b_i] fill out[..., :end]
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            fan_in, fan_out = self.sizes[i], self.sizes[i + 1]
            np.add.reduce(g, axis=-2, out=out[..., end - fan_out:end])  # db
            end -= fan_out + fan_in * fan_out
            dw = out[..., end:end + fan_in * fan_out].reshape(lead + (fan_in, fan_out))
            np.matmul(activations[i].swapaxes(-1, -2), g, out=dw)
            if i > 0:
                g = self._through_hidden(i, g, activations, scratch, last - i)
        return out

    def input_grad(self, cache, grad_out: np.ndarray, scratch=None) -> np.ndarray:
        """Given d(loss)/d(output), return d(loss)/d(input) and no parameter gradient.

        The intermediate layers go through ``scratch`` (see ``backward``);
        the array returned is always new.
        """
        activations = cache
        g = self._check_grad_out(activations, grad_out)
        scratch = self._scratch(g, scratch)
        last = len(self.weights) - 1
        for i in range(last, 0, -1):
            g = self._through_hidden(i, g, activations, scratch, last - i)
        return g @ self.weights[0].swapaxes(-1, -2)

    def jvp(self, cache, tangent: np.ndarray, out=None, scratch=None) -> np.ndarray:
        """Directional derivative of the output along a parameter tangent vector.

        ``cache`` is the one ``forward_cached`` returned at the current
        parameters; its activations are reused, so no forward pass runs here.
        The derivative is written into ``out`` when given (an array shaped
        like the output, or a view of one), else into a new array. The hidden
        layers' tangents and each layer's temporaries pass through
        ``scratch``, a pair as ``backward`` takes; without one, one is
        allocated. An output layer wider than every hidden layer allocates
        its one temporary.
        """
        activations = cache
        if out is None:
            out = np.empty_like(activations[-1])
        elif out.shape != activations[-1].shape:
            raise ShapeMismatch(f"out has shape {out.shape}, output {activations[-1].shape}")
        scratch = self._scratch(activations[-1], scratch)
        tangents = unflatten_params(tangent, self._shapes())
        last = len(self.weights) - 1
        for i, w in enumerate(self.weights):
            a = activations[i]
            dw = tangents[2 * i]
            db = tangents[2 * i + 1]
            shape = activations[i + 1].shape
            # The previous layer's tangent da sits in the other row until
            # da @ w has read it; then that row takes a @ dw and the factor.
            dz = out if i == last else _scratch_view(scratch, i % 2, shape)
            other = _scratch_view(scratch, 1 - i % 2, shape)
            if i == 0:
                # The input does not depend on the parameters: no da @ w.
                np.matmul(a, dw, out=dz)
            else:
                np.matmul(da, w, out=dz)
                np.add(dz, np.matmul(a, dw, out=other), out=dz)
            da = np.add(dz, db, out=dz)
            if i < last:
                factor = np.square(activations[i + 1], out=other)
                da = np.multiply(np.subtract(1.0, factor, out=factor), dz, out=dz)
        return da

    def params(self) -> np.ndarray:
        """The live parameter vector; writing into it changes the network."""
        return self.theta

    def set_params(self, theta: np.ndarray) -> None:
        _assign(self.theta, theta)

    def copy(self) -> "Mlp":
        return Mlp._view(self.sizes, self.theta.copy())

    def to_json(self) -> dict:
        """One net's sizes and parameters; a stack is written through ``members()``."""
        return _theta_json(self.sizes, self.theta)

    @classmethod
    def from_json(cls, payload: dict) -> "Mlp":
        return cls._view(*_theta_from_json(payload, log_std=False))


def _theta_json(sizes: tuple[int, ...], theta: np.ndarray) -> dict:
    """``sizes`` and the base64 of ``theta``'s little-endian float64 bytes."""
    raw = theta.astype("<f8", copy=False).tobytes()
    return {"sizes": list(sizes), "theta": base64.b64encode(raw).decode("ascii")}


def _theta_from_json(payload: dict, log_std: bool) -> tuple[tuple[int, ...], np.ndarray]:
    """The sizes and a new parameter vector of a ``_theta_json`` payload.

    With ``log_std`` the vector also holds one log_std per output. Raises
    ValueError for sizes that are not two or more positive ints, text that is
    not base64 and a byte count the sizes do not give, and TypeError for a
    ``theta`` that is not a string.
    """
    sizes = payload["sizes"]
    if not (type(sizes) is list and len(sizes) >= 2
            and all(type(s) is int and s > 0 for s in sizes)):
        raise ValueError(f"sizes must be a list of two or more positive ints, got {sizes!r}")
    raw = base64.b64decode(payload["theta"], validate=True)
    count = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
    count += sizes[-1] if log_std else 0
    if len(raw) != 8 * count:
        raise ValueError(f"theta holds {len(raw)} bytes, sizes {sizes} need {8 * count}")
    return tuple(sizes), np.frombuffer(raw, dtype="<f8").astype(float)


def flatten_params(params: list[np.ndarray]) -> np.ndarray:
    """Concatenate arrays, each raveled, into one new float64 vector."""
    return np.concatenate([np.asarray(p, dtype=float).reshape(-1) for p in params])


def unflatten_params(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views into consecutive slices of ``flat``'s last axis, one per shape.

    A ``(K, P)`` block gives ``(K,) + shape`` views, one member per row.
    """
    sizes = [math.prod(shape) for shape in shapes]
    if flat.shape[-1:] != (sum(sizes),):
        raise ShapeMismatch(f"vector has shape {flat.shape}, shapes need {sum(sizes)} entries")
    lead = flat.shape[:-1]
    out = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        out.append(flat[..., offset:offset + size].reshape(lead + shape))
        offset += size
    return out


def _scratch_view(scratch: np.ndarray, row: int, shape: tuple[int, ...]):
    """The first ``prod(shape)`` entries of ``scratch[row]`` viewed as ``shape``,
    or None (so a ufunc allocates) when the row is too short."""
    count = math.prod(shape)
    return scratch[row, :count].reshape(shape) if count <= scratch.shape[1] else None


def cache_rows(cache, n: int) -> list:
    """Row views of a ``forward_cached`` cache: each activation cut to its
    first ``n`` rows, the input entry left for the pass to fill."""
    return [None] + [a[..., :n, :] for a in cache[1:]]


def _assign(theta: np.ndarray, values: np.ndarray) -> None:
    """Copy ``values`` into the parameter vector in place, keeping every view."""
    values = np.asarray(values, dtype=float)
    if values.shape != theta.shape:
        raise ShapeMismatch(f"expected {theta.size} parameters, got shape {values.shape}")
    theta[:] = values


@dataclass
class TrainResult:
    """What training returns: the networks a checkpoint stores and the log rows.

    ``nets`` maps each checkpoint name to a network, or to a bare parameter
    array such as SAC's ``log_alpha``, in checkpoint order; its entries are
    the live objects training updates.
    """

    nets: dict
    history: list[dict] = field(default_factory=list)

    @property
    def policy(self) -> GaussianPolicy:
        return self.nets["policy"]

    def networks_json(self) -> dict:
        """The trained networks a checkpoint stores, keyed by name."""
        return {name: net.tolist() if isinstance(net, np.ndarray) else net.to_json()
                for name, net in self.nets.items()}


def check_finite(step: int, stats: dict, result: TrainResult) -> None:
    """Raise DivergenceDetected if an update left a NaN or an inf behind.

    Every value in ``stats`` is looked at, then every entry of
    ``result.nets`` in order; the first non-finite one is named. The
    exception carries ``result.networks_json()`` and ``step``.
    """
    params = {name: net if isinstance(net, np.ndarray) else net.params()
              for name, net in result.nets.items()}
    for name, value in {**stats, **params}.items():
        if not np.isfinite(value).all():
            raise DivergenceDetected(f"non-finite {name} at step {step}",
                                     **result.networks_json(), step=step)


class Adam:
    """Adam with bias correction; first step reduces to -lr * g / (|g| + eps).

    ``step`` updates ``m``, ``v`` and the parameters in place, through two
    parameter-sized scratch arrays allocated here, so it allocates nothing.
    """

    def __init__(self, params: np.ndarray, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = np.empty((2,) + self.m.shape)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Descend in place along grads (gradients of a loss to minimize).

        The arithmetic is, operand for operand:
          m = beta1 * m + (1 - beta1) * grads
          v = beta2 * v + (1 - beta2) * grads**2
          params -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)
        """
        if grads.shape != self.m.shape:
            raise ShapeMismatch(f"grad has shape {grads.shape}, expected {self.m.shape}")
        self.t += 1
        m, v = self.m, self.v
        update, denom = self._scratch
        np.add(np.multiply(self.beta1, m, out=m),
               np.multiply(1.0 - self.beta1, grads, out=update), out=m)
        np.square(grads, out=denom)
        np.add(np.multiply(self.beta2, v, out=v),
               np.multiply(1.0 - self.beta2, denom, out=denom), out=v)
        np.divide(m, 1.0 - self.beta1**self.t, out=update)  # m_hat
        np.divide(v, 1.0 - self.beta2**self.t, out=denom)  # v_hat
        np.add(np.sqrt(denom, out=denom), self.eps, out=denom)
        np.multiply(self.lr, update, out=update)
        np.subtract(params, np.divide(update, denom, out=update), out=params)


def tanh_log_det_jacobian(pre: np.ndarray) -> np.ndarray:
    """log(1 - tanh(u)^2) per element, in the overflow-safe form."""
    return 2.0 * (LOG_2 - pre - softplus(-2.0 * pre))


def squashed_log_density(z: np.ndarray, log_std: np.ndarray,
                         log_det: np.ndarray) -> np.ndarray:
    """Log density of tanh(pre) under tanh(Normal(mean, std)), summed per row,
    from z = (pre - mean) / std and log_det = tanh_log_det_jacobian(pre)."""
    gaussian = -HALF_LOG_2PI - log_std - 0.5 * z**2
    return (gaussian - log_det).sum(axis=1)


def _log_density(mean: np.ndarray, pre: np.ndarray, log_std: np.ndarray,
                 std: np.ndarray) -> np.ndarray:
    """Log density of tanh(pre) under tanh(Normal(mean, std)), summed per row."""
    return squashed_log_density((pre - mean) / std, log_std, tanh_log_det_jacobian(pre))


class GaussianPolicy:
    """tanh(Normal(mu(s), exp(log_std))) with a shared, learned log_std."""

    def __init__(self, obs_dim: int, act_dim: int, hidden, rng: np.random.Generator,
                 out_scale: float = 0.01):
        mean_net = Mlp((obs_dim,) + tuple(hidden) + (act_dim,), rng, out_scale=out_scale)
        self._bind(mean_net.sizes, flatten_params([mean_net.theta, np.zeros(act_dim)]))

    def _bind(self, sizes: tuple[int, ...], theta: np.ndarray) -> None:
        """Make ``theta`` = [mean-net params, log_std] the parameter storage;
        the mean net of ``sizes`` and ``log_std`` become views into it."""
        n = theta.size - sizes[-1]
        self.theta = theta
        self.mean_net = Mlp._view(sizes, theta[:n])
        self.log_std = theta[n:]

    @property
    def obs_dim(self) -> int:
        return self.mean_net.in_dim

    @property
    def act_dim(self) -> int:
        return self.mean_net.out_dim

    def clamped_log_std(self) -> np.ndarray:
        # np.clip's values, NaN included, without its dispatch cost.
        return np.minimum(np.maximum(self.log_std, LOG_STD_MIN), LOG_STD_MAX)

    def log_std_mask(self) -> np.ndarray:
        """1 where log_std is inside the clamp range (gradient passes), else 0."""
        return ((self.log_std > LOG_STD_MIN) & (self.log_std < LOG_STD_MAX)).astype(float)

    def std(self) -> np.ndarray:
        return np.exp(self.clamped_log_std())

    def sample(self, obs: np.ndarray, rng: np.random.Generator, cache=None):
        """Returns (action, pre_squash, log_prob); all batched.

        The mean net's activations go into ``cache`` when one is given (see
        ``Mlp.forward_cached``); the arrays returned are new.
        """
        mean, _ = self.mean_net.forward_cached(obs, cache)
        log_std = self.clamped_log_std()
        std = np.exp(log_std)
        noise = rng.standard_normal(mean.shape)
        pre = mean + std * noise
        action = np.tanh(pre)
        return action, pre, _log_density(mean, pre, log_std, std)

    def mean_action(self, obs: np.ndarray) -> np.ndarray:
        return np.tanh(self.mean_net.forward(obs))

    def log_prob_from_mean(self, mean: np.ndarray, pre: np.ndarray) -> np.ndarray:
        log_std = self.clamped_log_std()
        return _log_density(mean, pre, log_std, np.exp(log_std))

    def log_prob(self, obs: np.ndarray, pre_actions: np.ndarray) -> np.ndarray:
        """Log density of tanh(pre_actions) given obs; expects pre-squash values."""
        pre = np.atleast_2d(np.asarray(pre_actions, dtype=float))
        mean = self.mean_net.forward(obs)
        if pre.shape != mean.shape:
            raise ShapeMismatch(f"pre_actions shape {pre.shape} != mean shape {mean.shape}")
        return self.log_prob_from_mean(mean, pre)

    def entropy(self) -> float:
        """Entropy of the pre-squash Gaussian, summed over action dims."""
        log_std = self.clamped_log_std()
        return float(np.sum(log_std + 0.5 * np.log(2.0 * np.pi * np.e)))

    def params(self) -> np.ndarray:
        """The live parameter vector; writing into it changes the network."""
        return self.theta

    def set_params(self, theta: np.ndarray) -> None:
        _assign(self.theta, theta)

    def copy(self) -> "GaussianPolicy":
        clone = GaussianPolicy.__new__(GaussianPolicy)
        clone._bind(self.mean_net.sizes, self.theta.copy())
        return clone

    def to_json(self) -> dict:
        """The mean net's sizes and the one vector [mean-net params, log_std]."""
        return _theta_json(self.mean_net.sizes, self.theta)

    @classmethod
    def from_json(cls, payload: dict) -> "GaussianPolicy":
        policy = cls.__new__(cls)
        policy._bind(*_theta_from_json(payload, log_std=True))
        return policy


@dataclass
class ActorCritic:
    """A policy and a value net on one ``(2, P + act_dim)`` parameter block.

    Row 0 is ``policy.theta``, [mean-net params, log_std]; row 1 is the value
    net's params followed by ``act_dim`` pad entries. ``stack`` views
    ``block[:, :P]`` as a stack of the mean net and the value net, so one
    forward or backward pass serves both nets. An optimizer over the block
    steps both at once; the pad's gradient is always 0, so it stays 0.
    """

    block: np.ndarray
    policy: GaussianPolicy
    value_net: Mlp
    stack: Mlp

    @classmethod
    def of(cls, policy: GaussianPolicy, value_net: Mlp) -> "ActorCritic":
        """Moves both nets' parameters onto a new block; the stack needs equal
        sizes, so the action is scalar."""
        if policy.mean_net.sizes != value_net.sizes:
            raise ShapeMismatch(f"the policy's mean net {policy.mean_net.sizes} and the value "
                                f"net {value_net.sizes} must have equal sizes")
        n = value_net.theta.size
        block = np.zeros((2, policy.theta.size))
        block[0] = policy.theta
        block[1, :n] = value_net.theta
        policy._bind(policy.mean_net.sizes, block[0])
        value_net._bind(block[1, :n])
        return cls(block, policy, value_net, Mlp._view(value_net.sizes, block[:, :n]))

    @classmethod
    def draw(cls, obs_dim: int, act_dim: int, hidden,
             rng: np.random.Generator) -> "ActorCritic":
        """A policy and a value net of ``hidden``, drawn from ``rng`` in that order."""
        policy = GaussianPolicy(obs_dim, act_dim, hidden, rng)
        return cls.of(policy, Mlp((obs_dim,) + tuple(hidden) + (1,), rng))


def save_checkpoint(path, kind: str, payload: dict) -> None:
    """Write a sorted-keys JSON checkpoint; identical state -> identical bytes."""
    write_json(path, {"format_version": CHECKPOINT_FORMAT_VERSION, "kind": kind, **payload})


def load_checkpoint(path, keys=None) -> dict:
    """A checkpoint's top-level object; with ``keys``, just those entries.

    Raises ValueError, naming the file, for text that is not JSON, a top
    level that is not an object, another ``format_version`` or a missing key.
    A format 1 checkpoint, which stored each weight as JSON text, is refused
    too: no reader of it is kept, so it is trained again.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"checkpoint {path} is not valid JSON: {err}") from None
    if type(doc) is not dict:
        raise ValueError(f"checkpoint {path} is not a JSON object")
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version!r} in {path}; this "
                         f"version reads format {CHECKPOINT_FORMAT_VERSION}: train again")
    if keys is None:
        return doc
    try:
        return {key: doc[key] for key in keys}
    except KeyError as err:
        raise ValueError(f"checkpoint {path} has no {err.args[0]!r} entry") from None


def write_json(path, doc) -> None:
    """Write ``doc`` as ``json.dumps(doc, sort_keys=True, indent=1)`` and a newline.

    ``json.dump`` writes it piece by piece, so the document is never held as
    one more string: a checkpoint at observation width 1 082 would be 1.6 MB.
    """
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
