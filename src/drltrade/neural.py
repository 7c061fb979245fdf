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
keeps one such vector per row of a ``(K, P)`` block.

Checkpoints are plain JSON with sorted keys; Python's shortest-repr float
serialization round-trips exactly, so reloading reproduces parameters bit for
bit and identical runs produce identical files. ``write_json`` writes every
JSON artifact of the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DivergenceDetected, ShapeMismatch

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
LOG_2 = np.log(2.0)
CHECKPOINT_FORMAT_VERSION = 1


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

    def forward_cached(self, x: np.ndarray):
        """Returns (output, cache); cache holds activations for backward."""
        x = self._check_input(x)
        activations = [x]
        a = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            a = z if i == last else np.tanh(z)
            activations.append(a)
        return a, activations

    @staticmethod
    def _check_grad_out(activations, grad_out: np.ndarray) -> np.ndarray:
        g = np.asarray(grad_out, dtype=float)
        if g.shape != activations[-1].shape:
            raise ShapeMismatch(
                f"grad_out shape {g.shape} != output shape {activations[-1].shape}"
            )
        return g

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Given d(loss)/d(output), return d(loss)/d(params).

        The gradient is laid out as ``params()``. The input gradient is not
        computed; ``input_grad`` returns it.
        """
        activations = cache
        g = self._check_grad_out(activations, grad_out)
        grads: list[np.ndarray] = []
        for i in range(len(self.weights) - 1, -1, -1):
            grads.append(g.sum(axis=-2))  # db
            grads.append(activations[i].swapaxes(-1, -2) @ g)  # dW
            if i > 0:
                g = (g @ self.weights[i].swapaxes(-1, -2)) * (1.0 - activations[i] ** 2)
        grads.reverse()
        lead = self.theta.shape[:-1]
        return np.concatenate([grad.reshape(lead + (-1,)) for grad in grads], axis=-1)

    def input_grad(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Given d(loss)/d(output), return d(loss)/d(input) and no parameter gradient."""
        activations = cache
        g = self._check_grad_out(activations, grad_out)
        for i in range(len(self.weights) - 1, -1, -1):
            g = g @ self.weights[i].swapaxes(-1, -2)
            if i > 0:
                g = g * (1.0 - activations[i] ** 2)  # through tanh
        return g

    def jvp(self, cache, tangent: np.ndarray) -> np.ndarray:
        """Directional derivative of the output along a parameter tangent vector.

        ``cache`` is the one ``forward_cached`` returned at the current
        parameters; its activations are reused, so no forward pass runs here.
        """
        activations = cache
        tangents = unflatten_params(tangent, self._shapes())
        last = len(self.weights) - 1
        for i, w in enumerate(self.weights):
            a = activations[i]
            dw = tangents[2 * i]
            db = tangents[2 * i + 1]
            # The input does not depend on the parameters: layer 0 has no da @ w.
            dz = a @ dw + db if i == 0 else (da @ w + a @ dw) + db
            da = dz if i == last else (1.0 - activations[i + 1] ** 2) * dz
        return da

    def params(self) -> np.ndarray:
        """The live parameter vector; writing into it changes the network."""
        return self.theta

    def set_params(self, theta: np.ndarray) -> None:
        _assign(self.theta, theta)

    def copy(self) -> "Mlp":
        return Mlp._view(self.sizes, self.theta.copy())

    def to_json(self) -> dict:
        """One net's parameters; a stack is written through ``members()``."""
        return {
            "sizes": list(self.sizes),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b[0].tolist() for b in self.biases],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Mlp":
        layers = zip(payload["weights"], payload["biases"])
        return cls._view(tuple(payload["sizes"]), flatten_params([p for wb in layers for p in wb]))


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


def _assign(theta: np.ndarray, values: np.ndarray) -> None:
    """Copy ``values`` into the parameter vector in place, keeping every view."""
    values = np.asarray(values, dtype=float)
    if values.shape != theta.shape:
        raise ShapeMismatch(f"expected {theta.size} parameters, got shape {values.shape}")
    theta[:] = values


class TrainResult:
    """What training returns; its ``named_nets()`` lists what a checkpoint stores.

    That dict maps each checkpoint name to a network, or to a bare parameter
    array such as SAC's ``log_alpha``, in checkpoint order.
    """

    def networks_json(self) -> dict:
        """The trained networks a checkpoint stores, keyed by name."""
        return {name: net.tolist() if isinstance(net, np.ndarray) else net.to_json()
                for name, net in self.named_nets().items()}


def check_finite(step: int, stats: dict, result: TrainResult) -> None:
    """Raise DivergenceDetected if an update left a NaN or an inf behind.

    Every value in ``stats`` is looked at, then every entry of
    ``result.named_nets()`` in order; the first non-finite one is named. The
    exception carries ``result.networks_json()`` and ``step``.
    """
    params = {name: net if isinstance(net, np.ndarray) else net.params()
              for name, net in result.named_nets().items()}
    for name, value in {**stats, **params}.items():
        if not np.isfinite(value).all():
            raise DivergenceDetected(f"non-finite {name} at step {step}",
                                     **result.networks_json(), step=step)


class Adam:
    """Adam with bias correction; first step reduces to -lr * g / (|g| + eps)."""

    def __init__(self, params: np.ndarray, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Descend in place along grads (gradients of a loss to minimize)."""
        if grads.shape != self.m.shape:
            raise ShapeMismatch(f"grad has shape {grads.shape}, expected {self.m.shape}")
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grads
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grads**2
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        params -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def tanh_log_det_jacobian(pre: np.ndarray) -> np.ndarray:
    """log(1 - tanh(u)^2) per element, in the overflow-safe form."""
    return 2.0 * (LOG_2 - pre - softplus(-2.0 * pre))


def _log_density(mean: np.ndarray, pre: np.ndarray, log_std: np.ndarray,
                 std: np.ndarray) -> np.ndarray:
    """Log density of tanh(pre) under tanh(Normal(mean, std)), summed per row."""
    z = (pre - mean) / std
    gaussian = -HALF_LOG_2PI - log_std - 0.5 * z**2
    return (gaussian - tanh_log_det_jacobian(pre)).sum(axis=1)


class GaussianPolicy:
    """tanh(Normal(mu(s), exp(log_std))) with a shared, learned log_std."""

    def __init__(self, obs_dim: int, act_dim: int, hidden, rng: np.random.Generator,
                 out_scale: float = 0.01):
        mean_net = Mlp((obs_dim,) + tuple(hidden) + (act_dim,), rng, out_scale=out_scale)
        self._attach(mean_net, np.zeros(act_dim))

    def _attach(self, mean_net: Mlp, log_std: np.ndarray) -> None:
        """One vector [mean_net params, log_std]; both parts become views into it."""
        self.theta = flatten_params([mean_net.theta, log_std])
        n = mean_net.theta.size
        mean_net._bind(self.theta[:n])
        self.mean_net = mean_net
        self.log_std = self.theta[n:]

    @property
    def obs_dim(self) -> int:
        return self.mean_net.in_dim

    @property
    def act_dim(self) -> int:
        return self.mean_net.out_dim

    def clamped_log_std(self) -> np.ndarray:
        # np.clip's values, NaN included, without its dispatch cost.
        return np.minimum(np.maximum(self.log_std, LOG_STD_MIN), LOG_STD_MAX)

    def std(self) -> np.ndarray:
        return np.exp(self.clamped_log_std())

    def sample(self, obs: np.ndarray, rng: np.random.Generator):
        """Returns (action, pre_squash, log_prob); all batched."""
        mean = self.mean_net.forward(obs)
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
        clone._attach(self.mean_net.copy(), self.log_std)
        return clone

    def to_json(self) -> dict:
        return {"mean_net": self.mean_net.to_json(), "log_std": self.log_std.tolist()}

    @classmethod
    def from_json(cls, payload: dict) -> "GaussianPolicy":
        policy = cls.__new__(cls)
        log_std = np.array(payload["log_std"], dtype=float)
        policy._attach(Mlp.from_json(payload["mean_net"]), log_std)
        return policy


def save_checkpoint(path, kind: str, payload: dict) -> None:
    """Write a sorted-keys JSON checkpoint; identical state -> identical bytes."""
    write_json(path, {"format_version": CHECKPOINT_FORMAT_VERSION, "kind": kind, **payload})


def load_checkpoint(path, keys=None) -> dict:
    """A checkpoint's top-level object; with ``keys``, just those entries.

    The whole file is parsed either way, so it is accepted or refused as
    ``json.load`` would: a bad number, a truncated file or trailing data in
    any block raises. Only the values of ``keys`` (and ``format_version``)
    are decoded, though; every other value goes through a scanner that checks
    each float's grammar but hands its text to ``len`` instead of converting
    it, which is most of the cost of reading networks the caller never uses.
    Raises ValueError, naming the file, for text that is not JSON, a top
    level that is not an object, another ``format_version`` or a missing key.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        doc = _read_object(text, None if keys is None else {"format_version", *keys})
    except json.JSONDecodeError as err:
        raise ValueError(f"checkpoint {path} is not valid JSON: {err}") from None
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version!r}")
    if keys is None:
        return doc
    try:
        return {key: doc[key] for key in keys}
    except KeyError as err:
        raise ValueError(f"checkpoint {path} has no {err.args[0]!r} entry") from None


_skip_ws = json.decoder.WHITESPACE.match
_read_value = json.JSONDecoder().scan_once
_check_value = json.JSONDecoder(parse_float=len).scan_once


def _read_object(s: str, wanted) -> dict:
    """The JSON object that is all of ``s``, holding the values of ``wanted`` keys.

    This is json's own object rule, walked here so that each value can go to
    ``_read_value`` or ``_check_value``; ``wanted=None`` keeps every value.
    As in ``json.loads``, the last of two equal keys wins.
    """
    end = _skip_ws(s, 0).end()
    if s[end:end + 1] != "{":
        raise json.JSONDecodeError("Expecting a JSON object", s, end)
    doc = {}
    end = _skip_ws(s, end + 1).end()
    if s[end:end + 1] == "}":
        end += 1
    else:
        while True:
            if s[end:end + 1] != '"':
                raise json.JSONDecodeError("Expecting property name enclosed in double quotes",
                                           s, end)
            key, end = json.decoder.scanstring(s, end + 1)
            end = _skip_ws(s, end).end()
            if s[end:end + 1] != ":":
                raise json.JSONDecodeError("Expecting ':' delimiter", s, end)
            end = _skip_ws(s, end + 1).end()
            keep = wanted is None or key in wanted
            try:
                value, end = (_read_value if keep else _check_value)(s, end)
            except StopIteration as err:
                raise json.JSONDecodeError("Expecting value", s, err.value) from None
            if keep:
                doc[key] = value
            end = _skip_ws(s, end).end()
            sep = s[end:end + 1]
            end += 1
            if sep == "}":
                break
            if sep != ",":
                raise json.JSONDecodeError("Expecting ',' delimiter", s, end - 1)
            end = _skip_ws(s, end).end()
    end = _skip_ws(s, end).end()
    if end != len(s):
        raise json.JSONDecodeError("Extra data", s, end)
    return doc


_encode = json.JSONEncoder().encode  # the C encoder: no indent, allow_nan, ASCII


def write_json(path, doc) -> None:
    """Write ``doc`` as JSON with sorted keys and indent 1, then a newline.

    The bytes equal ``json.dumps(doc, sort_keys=True, indent=1) + "\\n"``, at
    about the cost of an unindented dump: an indent switches the stdlib to
    its pure-Python encoder, one generator frame per value. Dicts (with str
    keys) and lists are walked here, and each list of plain floats is encoded
    in one call to the C encoder and re-indented, which is safe because no
    float repr contains ", ". The document is written piece by piece, one
    ``write`` per key or float row, so it is never held as one string.
    """
    with open(path, "w") as fh:
        _write_value(fh.write, doc, 1)
        fh.write("\n")


def _write_value(write, value, level: int) -> None:
    """Write one value whose items sit ``level`` spaces deep."""
    if not isinstance(value, (dict, list, tuple)) or not value:
        write(_encode(value))
        return
    inner = "\n" + " " * level
    close = "\n" + " " * (level - 1)
    if isinstance(value, dict):
        sep = "{" + inner
        for key in sorted(value):
            write(sep + json.encoder.encode_basestring_ascii(key) + ": ")
            _write_value(write, value[key], level + 1)
            sep = "," + inner
        write(close + "}")
    elif set(map(type, value)) == {float}:
        write("[" + inner + _encode(value)[1:-1].replace(", ", "," + inner) + close + "]")
    else:
        sep = "[" + inner
        for item in value:
            write(sep)
            _write_value(write, item, level + 1)
            sep = "," + inner
        write(close + "]")
