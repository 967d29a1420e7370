"""Minimal float64 neural-network primitives with hand-written gradients.

Layers keep their parameters in ``self.params`` and accumulate gradients into
``self.grads``. ``forward`` returns ``(output, cache)`` and ``backward`` takes
``(grad_output, cache)`` and returns the gradient with respect to the input,
so a model is just an explicit chain of calls. Everything runs in float64;
analytic gradients are expected to agree with central finite differences to
high precision, and ``finite_difference_gradient`` below is the checker the
test-suite uses for that.
"""

from __future__ import annotations

import collections
import hashlib

import numpy as np

from .errors import FormatError, ShapeError, TrainingDivergedError


class Layer:
    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def add_param(self, name: str, value: np.ndarray) -> None:
        self.params[name] = np.asarray(value, dtype=np.float64)
        self.grads[name] = np.zeros_like(self.params[name])

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0


class Dense(Layer):
    """Affine map on the last axis: ``y = x @ weight + bias``."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        scale = np.sqrt(2.0 / in_dim)
        self.add_param("weight", rng.normal(0.0, scale, size=(in_dim, out_dim)))
        self.add_param("bias", np.zeros(out_dim))

    @classmethod
    def from_arrays(cls, weight, bias) -> "Dense":
        """A layer holding copies of an (in_dim, out_dim) weight and an (out_dim,) bias."""
        layer = cls.__new__(cls)
        Layer.__init__(layer)
        layer.add_param("weight", np.array(weight, dtype=np.float64, order="C"))
        layer.add_param("bias", np.array(bias, dtype=np.float64))
        return layer

    def forward(self, x):
        return x @ self.params["weight"] + self.params["bias"], x

    def backward(self, grad_out, cache):
        x = cache
        self.grads["weight"] += x.T @ grad_out
        self.grads["bias"] += grad_out.sum(axis=0)
        return grad_out @ self.params["weight"].T


class ReLU(Layer):
    def forward(self, x):
        mask = x > 0
        return x * mask, mask

    def backward(self, grad_out, cache):
        return grad_out * cache


class Conv2d(Layer):
    """3x3-style same-padding convolution on (B, C, H, W), stride 1."""

    def __init__(self, in_channels, out_channels, kernel_size, rng):
        super().__init__()
        if kernel_size % 2 != 1:
            raise ShapeError(f"kernel_size must be odd, got {kernel_size}")
        self.kernel_size = kernel_size
        self.pad = kernel_size // 2
        fan_in = in_channels * kernel_size * kernel_size
        scale = np.sqrt(2.0 / fan_in)
        self.add_param(
            "weight",
            rng.normal(0.0, scale, size=(out_channels, in_channels, kernel_size, kernel_size)),
        )
        self.add_param("bias", np.zeros(out_channels))

    def forward(self, x):
        p = self.pad
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        windows = np.lib.stride_tricks.sliding_window_view(
            xp, (self.kernel_size, self.kernel_size), axis=(2, 3)
        )
        y = np.einsum("bchwij,ocij->bohw", windows, self.params["weight"], optimize=True)
        y += self.params["bias"][None, :, None, None]
        return y, xp

    def backward(self, grad_out, cache):
        xp = cache
        k, p = self.kernel_size, self.pad
        H, W = grad_out.shape[2], grad_out.shape[3]
        windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
        self.grads["weight"] += np.einsum("bchwij,bohw->ocij", windows, grad_out, optimize=True)
        self.grads["bias"] += grad_out.sum(axis=(0, 2, 3))
        gxp = np.zeros_like(xp)
        weight = self.params["weight"]
        for i in range(k):
            for j in range(k):
                gxp[:, :, i : i + H, j : j + W] += np.einsum(
                    "bohw,oc->bchw", grad_out, weight[:, :, i, j], optimize=True
                )
        return gxp[:, :, p : p + H, p : p + W]


class AvgPool2d(Layer):
    """Non-overlapping average pooling on (B, C, H, W)."""

    def __init__(self, factor: int):
        super().__init__()
        self.factor = factor

    def forward(self, x):
        f = self.factor
        B, C, H, W = x.shape
        if H % f or W % f:
            raise ShapeError(f"spatial dims {(H, W)} not divisible by pool factor {f}")
        y = x.reshape(B, C, H // f, f, W // f, f).mean(axis=(3, 5))
        return y, x.shape

    def backward(self, grad_out, cache):
        f = self.factor
        g = np.repeat(np.repeat(grad_out, f, axis=2), f, axis=3)
        return g / (f * f)


class GlobalAvgPool(Layer):
    """Mean over all axes after the channel axis: (B, C, ...) -> (B, C)."""

    def forward(self, x):
        axes = tuple(range(2, x.ndim))
        return x.mean(axis=axes), x.shape

    def backward(self, grad_out, cache):
        shape = cache
        count = int(np.prod(shape[2:]))
        expanded = grad_out.reshape(shape[:2] + (1,) * (len(shape) - 2))
        return np.broadcast_to(expanded, shape) / count


class SpatialGraphConv(Layer):
    """Graph convolution over joint partitions on (B, C, T, V).

    ``out[v] = sum_p sum_w A_p[v, w] x[w] @ W_p`` with one channel-mixing
    matrix per partition, matching the partitioned-adjacency formulation.
    Both steps are plain batched GEMMs: the joint aggregation
    ``(B, 1, C*T, V) @ (P, V, V)`` lands directly in the ``(B, P*C, T*V)``
    layout that the channel mix ``(O, P*C) @ (B, P*C, T*V)`` reads.
    """

    def __init__(self, partitions: np.ndarray, in_channels, out_channels, rng):
        super().__init__()
        self.partitions = np.asarray(partitions, dtype=np.float64)
        if self.partitions.ndim != 3 or self.partitions.shape[1] != self.partitions.shape[2]:
            raise ShapeError(f"partitions must be (P, V, V), got {self.partitions.shape}")
        P = self.partitions.shape[0]
        scale = np.sqrt(2.0 / (in_channels * P))
        self.add_param("weight", rng.normal(0.0, scale, size=(P, in_channels, out_channels)))
        self.add_param("bias", np.zeros(out_channels))

    def _mix(self) -> np.ndarray:
        """The (O, P*C) channel-mixing matrix: mix[o, p*C + c] = weight[p, c, o]."""
        P, C, O = self.params["weight"].shape
        return self.params["weight"].reshape(P * C, O).T

    def forward(self, x):
        B, C, T, V = x.shape
        P = self.partitions.shape[0]
        # A C-ordered copy of the transposed partitions: matmul runs about
        # twice as fast on it as on the strided view.
        partitions_t = np.ascontiguousarray(self.partitions.transpose(0, 2, 1))
        agg = np.matmul(x.reshape(B, 1, C * T, V), partitions_t).reshape(B, P * C, T * V)
        y = np.matmul(self._mix(), agg)
        y += self.params["bias"][None, :, None]
        return y.reshape(B, -1, T, V), agg

    def backward(self, grad_out, cache):
        agg = cache
        B, O, T, V = grad_out.shape
        P, C, _ = self.params["weight"].shape
        g = grad_out.reshape(B, O, T * V)
        grad_mix = np.matmul(g, agg.transpose(0, 2, 1)).sum(axis=0)
        self.grads["weight"] += grad_mix.T.reshape(P, C, O)
        self.grads["bias"] += g.sum(axis=(0, 2))
        grad_agg = np.matmul(self._mix().T, g).reshape(B, P, C * T, V)
        grad_x = np.matmul(grad_agg[:, 0], self.partitions[0])
        for p in range(1, P):
            grad_x += np.matmul(grad_agg[:, p], self.partitions[p])
        return grad_x.reshape(B, C, T, V)


def _time_shifts(kernel_size: int, dilation: int, T: int):
    """``(tap, s, lo, hi)`` for each tap of a same-padded window along T frames.

    Output frames ``lo:hi`` of tap ``tap`` read input frames ``lo+s:hi+s``;
    a tap whose reach ``|s|`` is T or more reads only padding and is left out.
    """
    shifts = []
    for tap in range(kernel_size):
        s = (tap - kernel_size // 2) * dilation
        if abs(s) < T:
            shifts.append((tap, s, max(0, -s), T - max(0, s)))
    return shifts


class TemporalConv(Layer):
    """1-D convolution along the time axis of (B, C, T, V), same padding.

    The K taps are stacked on the output side into one (K*O, C) matrix, so
    the forward pass is one batched GEMM over ``(B, C, T*V)`` followed by
    time-shifted slice-adds of the K tap outputs; the backward pass scatters
    the output gradient into K shifted copies and runs one GEMM for the
    input gradient and one for the weight gradient.
    """

    def __init__(self, in_channels, out_channels, kernel_size, dilation, rng):
        super().__init__()
        if kernel_size % 2 != 1:
            raise ShapeError(f"kernel_size must be odd, got {kernel_size}")
        if dilation < 1:
            raise ShapeError(f"dilation must be >= 1, got {dilation}")
        self.kernel_size = kernel_size
        self.dilation = dilation
        fan_in = in_channels * kernel_size
        scale = np.sqrt(2.0 / fan_in)
        self.add_param("weight", rng.normal(0.0, scale, size=(kernel_size, in_channels, out_channels)))
        self.add_param("bias", np.zeros(out_channels))

    def _stacked(self) -> np.ndarray:
        """The (K*O, C) tap matrix: stacked[k*O + o, c] = weight[k, c, o]."""
        K, C, O = self.params["weight"].shape
        return self.params["weight"].transpose(0, 2, 1).reshape(K * O, C)

    def forward(self, x):
        B, C, T, V = x.shape
        K, _, O = self.params["weight"].shape
        taps = np.matmul(self._stacked(), x.reshape(B, C, T * V)).reshape(B, K, O, T, V)
        y = taps[:, K // 2] + self.params["bias"][None, :, None, None]
        for tap, s, lo, hi in _time_shifts(K, self.dilation, T):
            if s:
                y[:, :, lo:hi] += taps[:, tap, :, lo + s : hi + s]
        return y, x

    def backward(self, grad_out, cache):
        x = cache
        B, C, T, V = x.shape
        K, _, O = self.params["weight"].shape
        if K == 1:
            grad_taps = grad_out.reshape(B, O, T * V)
        else:
            grad_taps = np.zeros((B, K, O, T, V))
            for tap, s, lo, hi in _time_shifts(K, self.dilation, T):
                grad_taps[:, tap, :, lo + s : hi + s] = grad_out[:, :, lo:hi]
            grad_taps = grad_taps.reshape(B, K * O, T * V)
        x_flat = x.reshape(B, C, T * V)
        grad_stacked = np.matmul(grad_taps, x_flat.transpose(0, 2, 1)).sum(axis=0)
        self.grads["weight"] += grad_stacked.reshape(K, O, C).transpose(0, 2, 1)
        self.grads["bias"] += grad_out.sum(axis=(0, 2, 3))
        return np.matmul(self._stacked().T, grad_taps).reshape(B, C, T, V)


class TemporalMaxPool(Layer):
    """Sliding max along time on (B, C, T, V), stride 1, same padding.

    The forward pass is a running ``maximum`` over the window's shifted
    views. Ties route the gradient to the earliest maximal position, which
    keeps the backward pass deterministic: view ``i`` receives it where it
    equals the maximum and no earlier view did.
    """

    def __init__(self, window: int):
        super().__init__()
        if window % 2 != 1:
            raise ShapeError(f"window must be odd, got {window}")
        self.window = window
        self.pad = window // 2

    def forward(self, x):
        T = x.shape[2]
        p = self.pad
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (0, 0)), constant_values=-np.inf)
        y = xp[:, :, 0:T].copy()
        for i in range(1, self.window):
            np.maximum(y, xp[:, :, i : i + T], out=y)
        return y, (xp, y)

    def backward(self, grad_out, cache):
        xp, y = cache
        T = y.shape[2]
        p = self.pad
        gxp = np.zeros(xp.shape)
        taken = np.zeros(y.shape, dtype=bool)
        routed = np.empty(y.shape)
        for i in range(self.window):
            first = (xp[:, :, i : i + T] == y) & ~taken
            taken |= first
            np.multiply(grad_out, first, out=routed)
            gxp[:, :, i : i + T] += routed
        return gxp[:, :, p : p + T]


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over the batch; returns (loss, grad_logits)."""
    n = logits.shape[0]
    z = logits - logits.max(axis=-1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    loss = -log_probs[np.arange(n), labels].mean()
    grad = softmax(logits)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


class Adam:
    """Standard Adam over a list of (layer, param_name) entries."""

    def __init__(self, entries, learning_rate=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.entries = list(entries)
        self.lr = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(layer.params[name]) for layer, name in self.entries]
        self.v = [np.zeros_like(layer.params[name]) for layer, name in self.entries]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, (layer, name) in enumerate(self.entries):
            g = layer.grads[name]
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1**self.t)
            v_hat = self.v[i] / (1 - b2**self.t)
            layer.params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def zero_all_grads(layers) -> None:
    for layer in layers:
        layer.zero_grads()


def fit(layers, n, forward, epochs, batch_size, learning_rate, rng) -> dict:
    """Adam on softmax cross-entropy over shuffled minibatches of ``n`` examples.

    ``forward(idx)`` runs the model on the examples ``idx`` and returns
    ``(logits, labels, backward)``, where ``backward(grad_logits)``
    accumulates gradients into the parameters of ``layers``. Each epoch
    draws one permutation from ``rng``. Returns the per-epoch mean loss and
    accuracy as ``{"loss": [...], "accuracy": [...]}``; raises
    TrainingDivergedError, before the update, on a non-finite batch loss.
    """
    optimizer = Adam([(layer, name) for layer in layers for name in layer.params], learning_rate)
    trace = {"loss": [], "accuracy": []}
    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        correct = 0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            zero_all_grads(layers)
            logits, labels, backward = forward(idx)
            loss, grad_logits = cross_entropy(logits, labels)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss {loss} at epoch {epoch}, batch {start // batch_size}"
                )
            backward(grad_logits)
            optimizer.step()
            epoch_loss += loss * len(idx)
            correct += int((logits.argmax(axis=1) == labels).sum())
        trace["loss"].append(epoch_loss / n)
        trace["accuracy"].append(correct / n)
    return trace


LBFGS_MEMORY = 10


def minimize(fg, x0, max_iter, gtol, first_step):
    """L-BFGS (Liu & Nocedal 1989) with Armijo backtracking: ``(x, loss_trace, converged)``.

    ``fg(x)`` returns ``(loss, grad)``. The first step tries length ``first_step`` along
    ``-grad``, later ones the two-loop recursion over the last ``LBFGS_MEMORY`` pairs with
    ``s.y > 0``. A non-finite trial loss is backtracked; each accepted step lowers the loss
    and adds it to ``loss_trace``. Stops at ``||grad|| <= gtol`` (``converged``, and nothing
    else is), after ``max_iter`` accepted steps, or when 60 halvings cannot lower the loss.
    """
    x = np.array(x0, dtype=np.float64)
    loss, g = fg(x)
    trace = [loss]
    pairs = collections.deque(maxlen=LBFGS_MEMORY)  # (s, y, 1 / s.y), oldest first
    while len(trace) <= max_iter and np.linalg.norm(g) > gtol:
        if pairs:
            q, alphas = g.copy(), []
            for s, y, rho in reversed(pairs):
                alphas.append(rho * (s @ q))
                q -= alphas[-1] * y
            q /= pairs[-1][2] * (pairs[-1][1] @ pairs[-1][1])  # initial Hessian s.y / y.y
            for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
                q += (alpha - rho * (y @ q)) * s
            direction, t = -q, 1.0
        else:
            direction, t = -g / np.linalg.norm(g), first_step
        slope = g @ direction
        for _ in range(60):
            new_loss, new_g = fg(x + t * direction)
            if np.isfinite(new_loss) and new_loss < loss + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        s, y = t * direction, new_g - g
        if s @ y > 0:
            pairs.append((s, y, 1.0 / (s @ y)))
        x, loss, g = x + s, new_loss, new_g
        trace.append(loss)
    return x, np.asarray(trace), bool(np.linalg.norm(g) <= gtol)


def state_dict(named_layers: dict) -> dict[str, np.ndarray]:
    """Every parameter of ``named_layers`` (name -> layer), keyed ``"<name>.<param>"``."""
    return {
        f"{prefix}.{name}": value
        for prefix, layer in named_layers.items()
        for name, value in layer.params.items()
    }


def load_state_dict(named_layers: dict, state: dict[str, np.ndarray]) -> None:
    """Copy ``state`` into the parameters of ``named_layers`` in place.

    Raises FormatError, before any parameter changes, on a missing key, an
    unexpected key or a shape that differs from the parameter's.
    """
    target = state_dict(named_layers)
    missing = sorted(target.keys() - state.keys())
    unexpected = sorted(state.keys() - target.keys())
    if missing or unexpected:
        raise FormatError(f"state does not fit the model: missing {missing}, unexpected {unexpected}")
    for key, value in target.items():
        if np.shape(state[key]) != value.shape:
            raise FormatError(f"state {key}: shape {np.shape(state[key])}, expected {value.shape}")
    for key, value in target.items():
        value[...] = state[key]


def params_checksum(state: dict[str, np.ndarray]) -> str:
    """SHA-256 over parameter names and exact bytes, for frozen-weights checks."""
    h = hashlib.sha256()
    for name in sorted(state):
        h.update(name.encode())
        arr = np.ascontiguousarray(state[name], dtype=np.float64)
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def finite_difference_gradient(loss_fn, array: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of ``loss_fn()`` with respect to ``array``.

    ``array`` (a view of any memory layout) is perturbed in place entry by
    entry and restored, so ``loss_fn`` must read it afresh on every call.
    """
    grad = np.zeros(array.shape, dtype=array.dtype)
    for idx in np.ndindex(array.shape):
        orig = array[idx]
        array[idx] = orig + h
        lo_plus = loss_fn()
        array[idx] = orig - h
        lo_minus = loss_fn()
        array[idx] = orig
        grad[idx] = (lo_plus - lo_minus) / (2.0 * h)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm of the difference over the sum of norms, guarded near zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.linalg.norm(a) + np.linalg.norm(b) + 1e-8
    return float(np.linalg.norm(a - b) / denom)
