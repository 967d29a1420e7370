"""Gradient and numeric checks for the minimal network primitives.

Every layer's analytic backward pass is compared against central finite
differences of a scalar probe loss ``sum(output * fixed_random_weights)``.
Agreement is expected near float64 precision for these smooth ops.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdfuse import ndnn
from pdfuse.errors import ShapeError, TrainingDivergedError
from pdfuse.gait_features import build_adjacency

RNG = np.random.default_rng(20240229)
GRAD_TOL = 1e-6


def check_layer_gradients(layer, x, tol=GRAD_TOL):
    """Compare analytic parameter and input gradients with finite differences."""
    probe = np.random.default_rng(5).normal(size=layer.forward(x)[0].shape)

    layer.zero_grads()
    out, cache = layer.forward(x)
    grad_in = layer.backward(probe, cache)

    def loss_fn():
        return float(np.sum(layer.forward(x)[0] * probe))

    for name, value in layer.params.items():
        fd = ndnn.finite_difference_gradient(loss_fn, value)
        err = ndnn.relative_error(layer.grads[name], fd)
        assert err <= tol, f"param {name}: relative error {err:.3e}"

    fd_in = ndnn.finite_difference_gradient(loss_fn, x)
    err = ndnn.relative_error(grad_in, fd_in)
    assert err <= tol, f"input gradient: relative error {err:.3e}"


def test_dense_gradients():
    layer = ndnn.Dense(6, 4, np.random.default_rng(0))
    check_layer_gradients(layer, RNG.normal(size=(5, 6)))


def test_relu_input_gradient_away_from_kink():
    layer = ndnn.ReLU()
    x = RNG.normal(size=(4, 7))
    x[np.abs(x) < 0.05] = 0.1  # keep finite differences off the kink
    check_layer_gradients(layer, x)


def test_conv2d_gradients():
    layer = ndnn.Conv2d(2, 3, 3, np.random.default_rng(1))
    check_layer_gradients(layer, RNG.normal(size=(2, 2, 5, 5)))


def test_conv2d_rejects_even_kernel():
    with pytest.raises(Exception, match="odd"):
        ndnn.Conv2d(2, 3, 4, np.random.default_rng(1))


def test_avgpool_gradients_and_shape():
    layer = ndnn.AvgPool2d(2)
    x = RNG.normal(size=(2, 3, 4, 6))
    out, _ = layer.forward(x)
    assert out.shape == (2, 3, 2, 3)
    check_layer_gradients(layer, x)


def test_global_avg_pool_matches_mean():
    layer = ndnn.GlobalAvgPool()
    x = RNG.normal(size=(3, 4, 5, 6))
    out, _ = layer.forward(x)
    npt.assert_allclose(out, x.mean(axis=(2, 3)), rtol=0, atol=1e-15)
    check_layer_gradients(layer, x)


def test_spatial_graph_conv_gradients():
    # Tiny 4-joint graph with 2 partitions.
    parts = np.zeros((2, 4, 4))
    parts[0] = np.eye(4)
    ring = np.roll(np.eye(4), 1, axis=1) + np.roll(np.eye(4), -1, axis=1)
    parts[1] = ring / ring.sum(axis=1, keepdims=True)
    layer = ndnn.SpatialGraphConv(parts, 3, 5, np.random.default_rng(2))
    check_layer_gradients(layer, RNG.normal(size=(2, 3, 6, 4)))


def test_temporal_conv_gradients():
    layer = ndnn.TemporalConv(3, 4, kernel_size=3, dilation=2, rng=np.random.default_rng(3))
    check_layer_gradients(layer, RNG.normal(size=(2, 3, 9, 4)))


def test_temporal_max_pool_gradients():
    layer = ndnn.TemporalMaxPool(3)
    # Spread values out so the max is unique in every pooling window.
    x = RNG.permutation(np.arange(2 * 2 * 9 * 4, dtype=np.float64)).reshape(2, 2, 9, 4)
    check_layer_gradients(layer, x)


@pytest.mark.parametrize(
    "kernel_size, dilation, frames",
    [(1, 1, 9), (3, 5, 4), (5, 2, 3)],
    ids=["pointwise", "reach-beyond-T", "some-taps-beyond-T"],
)
def test_temporal_conv_gradients_pointwise_and_long_reach(kernel_size, dilation, frames):
    layer = ndnn.TemporalConv(3, 4, kernel_size, dilation, np.random.default_rng(3))
    check_layer_gradients(layer, RNG.normal(size=(2, 3, frames, 4)))


def test_temporal_max_pool_window_5_gradients():
    layer = ndnn.TemporalMaxPool(5)
    x = RNG.permutation(np.arange(2 * 2 * 9 * 4, dtype=np.float64)).reshape(2, 2, 9, 4)
    check_layer_gradients(layer, x)


def test_spatial_graph_conv_single_partition_gradients():
    ring = np.roll(np.eye(4), 1, axis=1) + np.roll(np.eye(4), -1, axis=1) + np.eye(4)
    layer = ndnn.SpatialGraphConv((ring / 3.0)[None], 3, 5, np.random.default_rng(2))
    check_layer_gradients(layer, RNG.normal(size=(2, 3, 6, 4)))


@pytest.mark.parametrize("dilation", [0, -1])
def test_temporal_conv_rejects_dilation_below_one(dilation):
    with pytest.raises(ShapeError, match="dilation"):
        ndnn.TemporalConv(3, 4, 3, dilation, np.random.default_rng(3))


# Reference formulations of the three gait layers, as einsum contractions and
# an argmax over stacked shifted copies. The layers compute the same sums as
# batched GEMMs and mask routing; the differential tests below hold them to
# these references.


def reference_spatial(partitions, weight, x, grad_out):
    """(output, input gradient, weight gradient) of a SpatialGraphConv, without the bias."""
    agg = np.einsum("pvw,bctw->pbctv", partitions, x, optimize=True)
    y = np.einsum("pbctv,pco->botv", agg, weight, optimize=True)
    grad_weight = np.einsum("pbctv,botv->pco", agg, grad_out, optimize=True)
    gz = np.einsum("botv,pco->pbctv", grad_out, weight, optimize=True)
    grad_x = np.einsum("pvw,pbctv->bctw", partitions, gz, optimize=True)
    return y, grad_x, grad_weight


def reference_temporal_conv(weight, dilation, x, grad_out):
    """(output, input gradient, weight gradient) of a TemporalConv, without the bias."""
    K = weight.shape[0]
    T = x.shape[2]
    p = (K // 2) * dilation
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (0, 0)))
    y = 0.0
    grad_weight = np.zeros_like(weight)
    gxp = np.zeros_like(xp)
    for i in range(K):
        sl = xp[:, :, i * dilation : i * dilation + T, :]
        y = y + np.einsum("bctv,co->botv", sl, weight[i], optimize=True)
        grad_weight[i] = np.einsum("bctv,botv->co", sl, grad_out, optimize=True)
        gxp[:, :, i * dilation : i * dilation + T, :] += np.einsum(
            "botv,co->bctv", grad_out, weight[i], optimize=True
        )
    return y, gxp[:, :, p : p + T, :], grad_weight


def reference_max_pool(window, x, grad_out):
    """(output, input gradient) of a TemporalMaxPool; ties go to the earliest position."""
    T = x.shape[2]
    p = window // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (0, 0)), constant_values=-np.inf)
    stacked = np.stack([xp[:, :, i : i + T, :] for i in range(window)])
    argmax = np.argmax(stacked, axis=0)
    y = np.take_along_axis(stacked, argmax[None], axis=0)[0]
    gxp = np.zeros(xp.shape)
    for i in range(window):
        mask = argmax == i
        target = gxp[:, :, i : i + T, :]
        target[mask] += grad_out[mask]
    return y, gxp[:, :, p : p + T, :]


def run_layer(layer, x, grad_out):
    """(output, input gradient, parameter gradients) of one forward and backward pass."""
    layer.zero_grads()
    y, cache = layer.forward(x)
    grad_x = layer.backward(grad_out, cache)
    return y, grad_x, {name: g.copy() for name, g in layer.grads.items()}


DIFF_TOL = 1e-12
# The gait-training shapes: batch 16, 64-frame windows, 17 COCO joints.
B, T, V = 16, 64, 17


def branch_gradient(channels, frames):
    """An output gradient laid out as a gait block passes it to a branch: a channel slice."""
    return RNG.normal(size=(B, 2 * channels, frames, V))[:, channels // 2 : channels // 2 + channels]


def assert_close(actual, expected, what):
    err = ndnn.relative_error(actual, expected)
    assert err <= DIFF_TOL, f"{what}: relative error {err:.3e}"


@pytest.mark.parametrize("channels", [3, 8, 16])
@pytest.mark.parametrize("strategy", ["uniform", "distance"], ids=["P1", "P3"])
def test_spatial_graph_conv_matches_reference(channels, strategy):
    partitions = build_adjacency(strategy).partitions
    layer = ndnn.SpatialGraphConv(partitions, channels, 16, np.random.default_rng(channels))
    layer.params["bias"][...] = RNG.normal(size=16)
    x = RNG.normal(size=(B, channels, T, V))
    grad_out = RNG.normal(size=(B, 16, T, V))
    y, grad_x, grads = run_layer(layer, x, grad_out)
    ref_y, ref_grad_x, ref_grad_weight = reference_spatial(partitions, layer.params["weight"], x, grad_out)
    assert_close(y, ref_y + layer.params["bias"][None, :, None, None], "output")
    assert_close(grad_x, ref_grad_x, "input gradient")
    assert_close(grads["weight"], ref_grad_weight, "weight gradient")
    assert_close(grads["bias"], grad_out.sum(axis=(0, 2, 3)), "bias gradient")


@pytest.mark.parametrize(
    "channels, kernel_size, dilation, frames",
    [(c, k, d, T) for c in (3, 8, 16) for k in (1, 3) for d in (1, 2)] + [(8, 3, 64, T), (8, 5, 3, 5)],
)
def test_temporal_conv_matches_reference(channels, kernel_size, dilation, frames):
    layer = ndnn.TemporalConv(channels, 4, kernel_size, dilation, np.random.default_rng(channels))
    layer.params["bias"][...] = RNG.normal(size=4)
    x = RNG.normal(size=(B, channels, frames, V))
    grad_out = branch_gradient(4, frames)
    y, grad_x, grads = run_layer(layer, x, grad_out)
    ref_y, ref_grad_x, ref_grad_weight = reference_temporal_conv(layer.params["weight"], dilation, x, grad_out)
    assert_close(y, ref_y + layer.params["bias"][None, :, None, None], "output")
    assert_close(grad_x, ref_grad_x, "input gradient")
    assert_close(grads["weight"], ref_grad_weight, "weight gradient")
    assert_close(grads["bias"], grad_out.sum(axis=(0, 2, 3)), "bias gradient")


@pytest.mark.parametrize("window", [3, 5])
@pytest.mark.parametrize("values", ["distinct", "ties"])
def test_temporal_max_pool_is_bit_identical_to_reference(window, values):
    shape = (B, 4, T, V)
    if values == "ties":
        x = RNG.integers(0, 3, size=shape).astype(np.float64)
    else:
        x = RNG.normal(size=shape)
    grad_out = branch_gradient(4, T)
    y, grad_x, _ = run_layer(ndnn.TemporalMaxPool(window), x, grad_out)
    ref_y, ref_grad_x = reference_max_pool(window, x, grad_out)
    assert np.array_equal(y, ref_y)
    assert np.array_equal(grad_x, ref_grad_x)


def test_softmax_rows_sum_to_one():
    logits = RNG.normal(size=(10, 7)) * 5
    probs = ndnn.softmax(logits)
    npt.assert_allclose(probs.sum(axis=1), np.ones(10), atol=1e-9)
    assert (probs > 0).all()


def test_softmax_argmax_shift_invariant():
    logits = RNG.normal(size=(10, 2))
    shifted = ndnn.softmax(logits + 123.4)
    npt.assert_array_equal(shifted.argmax(axis=1), ndnn.softmax(logits).argmax(axis=1))


def test_cross_entropy_value_and_gradient():
    logits = RNG.normal(size=(6, 3))
    labels = np.array([0, 1, 2, 1, 0, 2])
    loss, grad = ndnn.cross_entropy(logits, labels)

    probs = ndnn.softmax(logits)
    manual = -np.mean(np.log(probs[np.arange(6), labels]))
    npt.assert_allclose(loss, manual, atol=1e-12)

    fd = ndnn.finite_difference_gradient(lambda: ndnn.cross_entropy(logits, labels)[0], logits)
    assert ndnn.relative_error(grad, fd) <= GRAD_TOL


def test_finite_differences_on_a_transposed_view():
    base = np.arange(6.0).reshape(2, 3)
    view = base.T
    weights = np.random.default_rng(7).normal(size=view.shape)
    fd = ndnn.finite_difference_gradient(lambda: float(np.sum(view**2 * weights)), view)
    assert ndnn.relative_error(2.0 * view * weights, fd) <= GRAD_TOL
    npt.assert_array_equal(base, np.arange(6.0).reshape(2, 3))


def test_adam_minimizes_quadratic():
    layer = ndnn.Layer()
    layer.add_param("w", np.array([5.0, -3.0]))
    target = np.array([1.0, 2.0])
    opt = ndnn.Adam([(layer, "w")], learning_rate=0.05)
    for _ in range(500):
        layer.zero_grads()
        layer.grads["w"] += 2 * (layer.params["w"] - target)
        opt.step()
    npt.assert_allclose(layer.params["w"], target, atol=1e-3)


def test_fit_matches_a_hand_written_loop():
    features = np.random.default_rng(0).normal(size=(10, 3))
    labels = np.array([0, 1] * 5)
    model, reference = (ndnn.Dense(3, 2, np.random.default_rng(1)) for _ in range(2))

    def forward(idx):
        logits, cache = model.forward(features[idx])
        return logits, labels[idx], lambda grad: model.backward(grad, cache)

    trace = ndnn.fit([model], 10, forward, 3, 4, 0.01, np.random.default_rng(2))

    opt = ndnn.Adam([(reference, "weight"), (reference, "bias")], learning_rate=0.01)
    order_rng = np.random.default_rng(2)
    expected = {"loss": [], "accuracy": []}
    for _ in range(3):
        order = order_rng.permutation(10)
        total, correct = 0.0, 0
        for start in range(0, 10, 4):
            idx = order[start : start + 4]
            reference.zero_grads()
            logits, cache = reference.forward(features[idx])
            loss, grad = ndnn.cross_entropy(logits, labels[idx])
            reference.backward(grad, cache)
            opt.step()
            total += loss * len(idx)
            correct += int((logits.argmax(axis=1) == labels[idx]).sum())
        expected["loss"].append(total / 10)
        expected["accuracy"].append(correct / 10)
    assert trace == expected
    for name in reference.params:
        npt.assert_array_equal(model.params[name], reference.params[name])


def test_fit_raises_on_a_non_finite_loss_before_updating():
    layer = ndnn.Dense(2, 2, np.random.default_rng(0))
    before = {name: value.copy() for name, value in layer.params.items()}

    def forward(idx):
        logits = np.array([[np.nan, 0.0]] * len(idx))
        return logits, np.zeros(len(idx), dtype=int), lambda grad: None

    with pytest.raises(TrainingDivergedError, match="epoch 0, batch 0"):
        ndnn.fit([layer], 4, forward, 2, 2, 0.1, np.random.default_rng(0))
    for name, value in layer.params.items():
        npt.assert_array_equal(value, before[name])


def test_params_checksum_stable_and_sensitive():
    state = {"a": np.arange(6, dtype=np.float64).reshape(2, 3), "b": np.zeros(2)}
    same = {"a": np.arange(6, dtype=np.float64).reshape(2, 3), "b": np.zeros(2)}
    assert ndnn.params_checksum(state) == ndnn.params_checksum(same)

    perturbed = {"a": state["a"].copy(), "b": state["b"].copy()}
    perturbed["a"][0, 0] += 1e-12
    assert ndnn.params_checksum(state) != ndnn.params_checksum(perturbed)


def test_params_checksum_ignores_insertion_order():
    a = np.ones(3)
    b = np.full(2, 7.0)
    assert ndnn.params_checksum({"a": a, "b": b}) == ndnn.params_checksum({"b": b, "a": a})


def test_relative_error_zero_for_identical():
    x = RNG.normal(size=(4, 4))
    assert ndnn.relative_error(x, x.copy()) == 0.0


def _spd_quadratic(n, seed):
    """fg of ``0.5 (x - c).A (x - c)`` with a random SPD ``A``, and its minimizer ``c``.

    The minimum is 0, so the loss resolves gradients far below any ``gtol`` used here.
    """
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    a = m @ m.T + 0.5 * np.eye(n)
    c = rng.normal(size=n)
    return (lambda x: (0.5 * (x - c) @ a @ (x - c), a @ (x - c))), c


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000), st.sampled_from([1e-3, 0.05, 1.0, 100.0]))
def test_minimize_solves_spd_quadratics(n, seed, first_step):
    fg, solution = _spd_quadratic(n, seed)
    x, trace, converged = ndnn.minimize(fg, np.zeros(n), 200, 1e-9, first_step)
    assert converged
    assert np.linalg.norm(fg(x)[1]) <= 1e-9
    npt.assert_allclose(x, solution, atol=1e-6 * (1 + np.linalg.norm(solution)))
    assert np.all(np.diff(trace) <= 0.0)
    assert trace[-1] == fg(x)[0]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000))
def test_minimize_backtracks_from_non_finite_losses(n, seed):
    """Beyond radius 1 the loss is inf, and the minimizer lies outside it."""
    rng = np.random.default_rng(seed)
    center = rng.normal(size=n)
    center *= 3.0 / np.linalg.norm(center)

    def fg(x):
        loss = np.inf if np.linalg.norm(x) > 1.0 else float(np.sum((x - center) ** 2))
        return loss, 2.0 * (x - center)

    x, trace, converged = ndnn.minimize(fg, np.zeros(n), 50, 1e-10, 10.0)
    assert np.all(np.isfinite(trace)) and np.all(np.diff(trace) <= 0.0)
    assert np.linalg.norm(x) <= 1.0
    assert trace[-1] < trace[0]
    assert not converged


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10_000), st.integers(1, 3))
def test_minimize_iteration_cap_is_not_convergence(n, seed, max_iter):
    fg, _ = _spd_quadratic(n, seed)
    x, trace, converged = ndnn.minimize(fg, np.full(n, 5.0), max_iter, 1e-12, 1e-3)
    assert len(trace) == max_iter + 1
    assert np.linalg.norm(fg(x)[1]) > 1e-12
    assert not converged


def test_minimize_stops_when_the_loss_stops_falling():
    """An offset of 1e6 hides loss changes below about 1e-10, so gtol = 0
    is out of reach: the line search gives up long before the cap."""
    quadratic, solution = _spd_quadratic(4, 3)

    def fg(x):
        loss, grad = quadratic(x)
        return 1e6 + loss, grad

    x, trace, converged = ndnn.minimize(fg, np.zeros(4), 1000, 0.0, 0.05)
    assert not converged and len(trace) < 100
    assert np.all(np.diff(trace) < 0.0)
    npt.assert_allclose(x, solution, atol=1e-3)


def test_minimize_returns_at_once_on_a_zero_gradient():
    x0 = np.array([1.0, -2.0])
    x, trace, converged = ndnn.minimize(lambda x: (0.0, np.zeros(2)), x0, 10, 0.0, 1.0)
    npt.assert_array_equal(x, x0)
    assert trace.tolist() == [0.0] and converged
