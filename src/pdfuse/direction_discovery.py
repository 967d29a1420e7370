"""Semantic direction discovery between two latent clusters.

Fits a logistic separator between latent samples of a source class A and a
target class B, then normalizes and orients its weight vector so that moving
along the returned direction increases the B-ness of a latent.

Two fitting modes are provided. ``standard`` is conventional logistic
regression with B as the positive class on ``f = a . x + b``, and is the
recommended default. ``paper_faithful`` reproduces a published variant
verbatim: the logit is sign-flipped per sample by its label,
``f = (1 - 2 y) * (a . x) + b``, and the per-sample loss is accumulated as
``-(y * log(1 - P) + (1 - y) * log(P))``. Under that objective both classes
push their projections the same way, so the recovered direction is not a
class separator in general; the mode exists for comparison, not for use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDirectionError, ShapeError

MODES = ("standard", "paper_faithful")

_PROB_EPS = 1e-12
_ZERO_NORM_TOL = 1e-12
_SEPARATION_TOL = 1e-9


@dataclass(frozen=True)
class FitHyper:
    """Full-batch gradient-descent settings.

    The learning rate is an initial step size; any epoch whose step would
    increase the loss is rolled back and the step size halved, which keeps
    the recorded loss history non-increasing.
    """

    learning_rate: float = 0.01
    max_epochs: int = 2000
    tolerance: float = 1e-8
    l2: float = 0.0
    seed: int = 0


@dataclass
class FitState:
    """Fitted separator: weights ``a``, intercept ``b``, and the fit record."""

    a: np.ndarray
    b: float
    mode: str
    loss_history: np.ndarray
    converged: bool

    @property
    def epochs_run(self) -> int:
        return len(self.loss_history)


@dataclass(frozen=True)
class FitDiagnostics:
    mode: str
    epochs_run: int
    initial_loss: float
    final_loss: float
    converged: bool
    degenerate: bool
    separation: float


@dataclass(frozen=True)
class DirectionVector:
    """Unit-norm latent direction from a source class toward a target class."""

    values: np.ndarray
    source: str
    target: str
    diagnostics: FitDiagnostics | None = None

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1:
            raise ShapeError(f"direction must be 1-D, got shape {arr.shape}")
        norm = np.linalg.norm(arr)
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-9:
            raise ShapeError(f"direction must have unit norm, got {norm!r}")
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def _sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _loss_and_grads(a, b, x, y, mode, l2):
    """Loss, grad_a, grad_b for the chosen mode.

    standard: mean binary cross-entropy of P = sigmoid(a.x + b) against y.
    paper_faithful: summed accumulation of -(y log(1-P) + (1-y) log P) with
    P = sigmoid((1-2y) * (a.x) + b).
    """
    if mode == "standard":
        z = x @ a + b
        # log(1 + exp(-z)) and friends via logaddexp for stability
        loss_vec = np.logaddexp(0.0, z) - y * z
        n = x.shape[0]
        loss = float(loss_vec.mean())
        p = _sigmoid(z)
        resid = (p - y) / n
        grad_a = x.T @ resid
        grad_b = float(resid.sum())
    else:
        s = 1.0 - 2.0 * y
        z = s * (x @ a) + b
        # y = 0 contributes -log P = log(1 + exp(-z)); y = 1 contributes
        # -log(1 - P) = log(1 + exp(z))
        loss_vec = np.where(y == 0, np.logaddexp(0.0, -z), np.logaddexp(0.0, z))
        loss = float(loss_vec.sum())
        p = _sigmoid(z)
        dz = np.where(y == 0, p - 1.0, p)
        grad_a = x.T @ (dz * s)
        grad_b = float(dz.sum())
    if l2 > 0.0:
        loss += 0.5 * l2 * float(a @ a)
        grad_a = grad_a + l2 * a
    return loss, grad_a, grad_b


def fit_logistic(latents_a, latents_b, mode: str = "standard", hyper: FitHyper = FitHyper()) -> FitState:
    """Fit the separator on two latent sample sets (A first, B second).

    Full-batch gradient descent from a small random initialization; class A
    is labeled 0 and class B is labeled 1. Stops when the epoch-to-epoch
    loss change falls below ``hyper.tolerance`` or at ``hyper.max_epochs``.
    """
    if mode not in MODES:
        raise ShapeError(f"mode must be one of {MODES}, got {mode!r}")
    xa = np.asarray(latents_a, dtype=np.float64)
    xb = np.asarray(latents_b, dtype=np.float64)
    if xa.ndim != 2 or xb.ndim != 2:
        raise ShapeError(f"latent sets must be 2-D, got {xa.shape} and {xb.shape}")
    if xa.shape[1] != xb.shape[1]:
        raise ShapeError(f"latent dims differ: {xa.shape[1]} vs {xb.shape[1]}")
    if xa.shape[0] == 0 or xb.shape[0] == 0:
        raise ShapeError("each class needs at least one sample")
    x = np.concatenate([xa, xb], axis=0)
    if not np.all(np.isfinite(x)):
        raise ShapeError("latent samples contain non-finite values")
    y = np.concatenate([np.zeros(xa.shape[0]), np.ones(xb.shape[0])])

    rng = np.random.default_rng(hyper.seed)
    a = rng.normal(0.0, 0.01, size=x.shape[1])
    b = float(rng.normal(0.0, 0.01))

    lr = hyper.learning_rate
    loss, grad_a, grad_b = _loss_and_grads(a, b, x, y, mode, hyper.l2)
    history = [loss]
    converged = False
    for _ in range(hyper.max_epochs):
        new_a = a - lr * grad_a
        new_b = b - lr * grad_b
        new_loss, new_grad_a, new_grad_b = _loss_and_grads(new_a, new_b, x, y, mode, hyper.l2)
        if np.isfinite(new_loss) and new_loss <= loss:
            a, b = new_a, new_b
            grad_a, grad_b = new_grad_a, new_grad_b
            delta = loss - new_loss
            loss = new_loss
        else:
            lr *= 0.5
            delta = 0.0
        history.append(loss)
        if delta < hyper.tolerance and len(history) > 2:
            converged = True
            break
        if lr < 1e-15:
            converged = True
            break
    return FitState(a=a, b=b, mode=mode, loss_history=np.asarray(history), converged=converged)


def predict_prob(latent, label: int, state: FitState) -> float:
    """P = sigmoid((1 - 2 label) * (a . latent) + b), clipped to (0, 1)."""
    values = latent.values if hasattr(latent, "values") else np.asarray(latent, dtype=np.float64)
    if values.shape != state.a.shape:
        raise ShapeError(f"latent shape {values.shape} vs weights {state.a.shape}")
    if label not in (0, 1):
        raise ShapeError(f"label must be 0 or 1, got {label!r}")
    z = (1.0 - 2.0 * label) * float(values @ state.a) + state.b
    p = float(_sigmoid(np.asarray([z]))[0])
    return float(np.clip(p, _PROB_EPS, 1.0 - _PROB_EPS))


def orient_and_normalize(a: np.ndarray, latents_a, latents_b) -> np.ndarray:
    """Unit-normalize ``a`` and flip its sign so B projects above A.

    Raises DegenerateDirectionError when ``a`` has (near-)zero norm or the
    two classes have identical mean projections, leaving nothing to orient.
    """
    a = np.asarray(a, dtype=np.float64)
    norm = np.linalg.norm(a)
    if not np.isfinite(norm) or norm < _ZERO_NORM_TOL:
        raise DegenerateDirectionError(f"direction norm {norm!r} is effectively zero")
    unit = a / norm
    mean_a = float(np.mean(np.asarray(latents_a, dtype=np.float64) @ unit))
    mean_b = float(np.mean(np.asarray(latents_b, dtype=np.float64) @ unit))
    if mean_b > mean_a:
        return unit
    if mean_b < mean_a:
        return -unit
    raise DegenerateDirectionError("class mean projections are identical; cannot orient")


def fit_direction(
    latents_a,
    latents_b,
    source: str,
    target: str,
    mode: str = "standard",
    hyper: FitHyper = FitHyper(),
) -> DirectionVector:
    """Fit, orient, and package a unit direction from ``source`` to ``target``.

    The intercept of the underlying fit is used only for orientation-time
    probability calibration and is then discarded. When the classes are not
    separable in the mean (identical sets, say) the result carries
    ``diagnostics.degenerate = True`` instead of failing, so callers can
    refuse to edit along noise.
    """
    state = fit_logistic(latents_a, latents_b, mode=mode, hyper=hyper)
    degenerate = False
    try:
        unit = orient_and_normalize(state.a, latents_a, latents_b)
    except DegenerateDirectionError:
        norm = np.linalg.norm(state.a)
        if norm < _ZERO_NORM_TOL:
            raise
        unit = state.a / norm
        degenerate = True
    mean_a = float(np.mean(np.asarray(latents_a, dtype=np.float64) @ unit))
    mean_b = float(np.mean(np.asarray(latents_b, dtype=np.float64) @ unit))
    separation = mean_b - mean_a
    if abs(separation) <= _SEPARATION_TOL:
        degenerate = True
    diagnostics = FitDiagnostics(
        mode=mode,
        epochs_run=state.epochs_run,
        initial_loss=float(state.loss_history[0]),
        final_loss=float(state.loss_history[-1]),
        converged=state.converged,
        degenerate=degenerate,
        separation=separation,
    )
    return DirectionVector(values=unit, source=source, target=target, diagnostics=diagnostics)


def cosine(u, v) -> float:
    """Cosine similarity between two vectors."""
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ShapeError("cosine undefined for zero vectors")
    return float(u @ v / (nu * nv))
