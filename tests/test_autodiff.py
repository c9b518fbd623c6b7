import math
import sys
import weakref

import numpy as np
import pytest
from scipy.special import erf, expit

from opcert import autodiff as ad
from opcert import core
from opcert import wavelet as wv
from opcert.core import ShapeError

from grad_check import grad_check
import wavelet_oracle as wo


def fd_gradient(closure, param, eps=1e-5):
    flat = param.value.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = float(closure().value)
        flat[i] = keep - eps
        dn = float(closure().value)
        flat[i] = keep
        grad[i] = (up - dn) / (2 * eps)
    return grad.reshape(param.value.shape)


class TestBasicOps:
    def test_gelu_zero_is_zero(self):
        node = ad.gelu(ad.constant(np.zeros(4)))
        assert np.array_equal(node.value, np.zeros(4))

    def test_add_mul_shape_mismatch(self):
        a, b = ad.constant(np.zeros(3)), ad.constant(np.zeros(4))
        with pytest.raises(ShapeError):
            ad.add(a, b)
        with pytest.raises(ShapeError):
            ad.mul(a, b)

    def test_gelu_backward_is_value_grad_derivative(self):
        # the derivative is formed in the backward, bit for bit as before
        gen = np.random.default_rng(13)
        x = ad.Parameter(gen.standard_normal((4, 7)) * 3.0, "x")
        g = gen.standard_normal((4, 7))
        ad.backward(ad.sum_all(ad.mul(ad.gelu(x), ad.constant(g))))
        val, dval = ad.gelu_value_grad(x.value)
        assert np.array_equal(ad.gelu(x).value, val)
        assert np.array_equal(x.grad, dval * g)

    def test_quadratic_gradient_is_identity(self):
        # loss = ||x||^2 / 2  ->  grad = x
        x = ad.Parameter(np.array([1.0, -2.0, 3.5]), "x")
        loss = ad.scale(ad.sum_all(ad.mul(x, x)), 0.5)
        ad.backward(loss)
        assert np.allclose(x.grad, x.value)

    def test_affine_gelu_chain_matches_fd(self):
        gen = np.random.default_rng(0)
        w = ad.Parameter(gen.standard_normal((3, 2)), "w")
        b = ad.Parameter(gen.standard_normal(2), "b")
        x = gen.standard_normal((5, 3))

        def closure():
            return ad.mean_all(ad.gelu(ad.affine(ad.constant(x), w, b)))

        for p in (w, b):
            p.zero_grad()
        ad.backward(closure())
        for p in (w, b):
            fd = fd_gradient(closure, p)
            rel = np.abs(p.grad - fd) / (np.abs(p.grad) + np.abs(fd) + 1e-12)
            assert rel.max() < 1e-6

    def test_non_scalar_loss_rejected(self):
        x = ad.Parameter(np.ones(3), "x")
        with pytest.raises(ad.GraphError):
            ad.backward(ad.mul(x, x))

    def test_backward_consumes_graph(self):
        x = ad.Parameter(np.ones(3), "x")
        loss = ad.sum_all(x)
        ad.backward(loss)
        with pytest.raises(ad.GraphError):
            ad.backward(loss)

    def test_backward_frees_the_graph_it_used(self):
        # the arrays the closures kept go during the backward, though the
        # caller still holds the loss
        gen = np.random.default_rng(7)
        w = ad.Parameter(gen.standard_normal((3, 4)), "w")
        b = ad.Parameter(gen.standard_normal(4), "b")
        h = ad.affine(ad.constant(gen.standard_normal((2, 5, 3))), w, b)
        kept = weakref.ref(h.value)
        loss = ad.mean_all(ad.mul(ad.gelu(h), ad.constant(gen.standard_normal((2, 5, 4)))))
        value = float(loss.value)
        del h
        ad.backward(loss)
        assert kept() is None
        assert float(loss.value) == value
        with pytest.raises(ad.GraphError):
            ad.backward(loss)

    def test_backward_through_a_used_node_raises(self):
        # its parents are gone, so a second loss on it would get no gradient
        x = ad.Parameter(np.array([1.0, -2.0, 3.0]), "x")
        h = ad.mul(x, x)
        ad.backward(ad.sum_all(h))
        with pytest.raises(ad.GraphError):
            ad.backward(ad.mean_all(h))
        x.zero_grad()
        ad.backward(ad.sum_all(ad.mul(x, x)))
        assert np.array_equal(x.grad, 2.0 * x.value)

    def test_gelu_gradient_runs_once(self):
        # it is written over the kept cdf, so a second call has nothing to use
        x, g = np.linspace(-3.0, 3.0, 7), np.full(7, 2.0)
        node = ad.gelu(ad.constant(x))
        assert np.array_equal(node.grad_fns[0](g), g * ad.gelu_value_grad(x)[1])
        with pytest.raises(ad.GraphError):
            node.grad_fns[0](g)

    def test_released_value_raises_and_gradients_flow(self):
        x = ad.Parameter(np.array([1.0, -2.0, 3.0]), "x")
        h = ad.mul(x, x)
        loss = ad.sum_all(h)
        ad.release(h)
        with pytest.raises(ad.GraphError):
            h.value
        with pytest.raises(ad.GraphError):
            ad.mean_all(h)
        ad.backward(loss)
        assert np.array_equal(x.grad, 2.0 * x.value)

    def test_kept_input_freed_before_the_input_gradient(self):
        # last parent first: the weight gradient drops the input it kept
        # before the input gradient allocates its own array
        gen = np.random.default_rng(8)
        x = ad.affine(ad.constant(gen.standard_normal((2, 5, 3))),
                      ad.constant(np.ones((3, 4))), ad.constant(np.zeros(4)))
        out = ad.affine(x, ad.Parameter(gen.standard_normal((4, 2)), "w"),
                        ad.Parameter(np.zeros(2), "b"))
        kept = weakref.ref(x.value)
        ad.release(x)
        freed = []
        input_grad = out.grad_fns[0]
        out.grad_fns = (lambda g: (freed.append(kept() is None), input_grad(g))[1],
                        *out.grad_fns[1:])
        ad.backward(ad.sum_all(out))
        assert freed == [True]

    def test_sum_per_sample_and_dot(self):
        x = ad.Parameter(np.arange(6.0).reshape(2, 3), "x")
        per = ad.sum_per_sample(x)
        assert np.array_equal(per.value, np.array([3.0, 12.0]))
        loss = ad.dot_const(per, np.array([2.0, -1.0]))
        ad.backward(loss)
        assert np.array_equal(x.grad[0], np.full(3, 2.0))
        assert np.array_equal(x.grad[1], np.full(3, -1.0))


class TestWaveletOps:
    def test_synthesis_then_analysis_is_identity(self):
        # A A^T = I: the rows of the approximation analysis are orthonormal
        f = wv.get_filter("db6")
        c = np.random.default_rng(1).standard_normal((2, 8, 3))
        node = ad.dwt1d(ad.idwt1d(ad.constant(c), f, 3, 64), f, 3)
        assert node.value.shape == c.shape
        assert np.max(np.abs(node.value - c)) < 1e-12

    def test_projection_is_idempotent(self):
        # A^T A projects onto the approximation space V_L
        f = wv.get_filter("db4")
        x = np.random.default_rng(10).standard_normal((2, 64, 3))

        def project(v):
            return ad.idwt1d(ad.dwt1d(ad.constant(v), f, 3), f, 3, 64).value

        once = project(x)
        assert np.max(np.abs(project(once) - once)) < 1e-12
        assert np.max(np.abs(once - x)) > 0.1  # and not the identity

    def test_composite_gradient_is_identity(self):
        # the composite c -> A A^T c is the identity, so is its gradient
        f = wv.get_filter("db6")
        c = ad.Parameter(np.random.default_rng(2).standard_normal((1, 8, 2)), "c")
        out = ad.dwt1d(ad.idwt1d(c, f, 2, 32), f, 2)
        weights = np.random.default_rng(3).standard_normal(out.value.shape)
        ad.backward(ad.sum_all(ad.mul(out, ad.constant(weights))))
        assert np.max(np.abs(c.grad - weights)) < 1e-12

    def test_dwt_gradient_is_inverse_transform(self):
        # orthonormal adjoint rule: the upstream gradient flows through the
        # packed inverse transform with every detail band zero
        f = wv.get_filter("db4")
        x = ad.Parameter(np.random.default_rng(4).standard_normal((1, 64, 1)), "x")
        node = ad.dwt1d(x, f, 2)
        assert node.value.shape == (1, 16, 1)
        g = np.random.default_rng(5).standard_normal(node.value.shape)
        ad.backward(ad.sum_all(ad.mul(node, ad.constant(g))))
        packed = np.zeros((1, 1, 64))
        packed[..., :16] = np.swapaxes(g, -1, -2)
        expected = np.swapaxes(wo.idwt_packed(packed, f, 2), -1, -2)
        assert np.max(np.abs(x.grad - expected)) < 1e-12

    @pytest.mark.parametrize("n,hw", [(64, None), (85, None), (None, (16, 12)), (None, (18, 13))])
    def test_lowpass_ops_match_fd(self, n, hw):
        # padded lengths (85, 18, 13) make analysis and synthesis non-adjoint
        f = wv.get_filter("db4")
        gen = np.random.default_rng(11)
        if hw is None:
            x = ad.Parameter(gen.standard_normal((2, n, 2)), "x")
            c = ad.Parameter(gen.standard_normal((2, -(-n // 4), 2)), "c")
            dwt = lambda: ad.dwt1d(x, f, 2)  # noqa: E731
            idwt = lambda: ad.idwt1d(c, f, 2, n)  # noqa: E731
        else:
            x = ad.Parameter(gen.standard_normal((2, hw[0] * hw[1], 2)), "x")
            coarse = -(-hw[0] // 4) * -(-hw[1] // 4)
            c = ad.Parameter(gen.standard_normal((2, coarse, 2)), "c")
            dwt = lambda: ad.dwt2d(x, f, 2, hw)  # noqa: E731
            idwt = lambda: ad.idwt2d(c, f, 2, hw)  # noqa: E731
        for op, p in ((dwt, x), (idwt, c)):
            def closure():
                out = op()
                return ad.mean_all(ad.mul(out, out))

            errors = grad_check(closure, [p], eps=1e-5, samples=20)
            assert max(errors.values()) < 1e-6

    def test_lowpass_ops_reject_off_grid_fields(self):
        f = wv.get_filter("db4")
        with pytest.raises(ShapeError):
            ad.dwt2d(ad.constant(np.zeros((1, 30, 2))), f, 2, (8, 4))
        with pytest.raises(ShapeError):
            ad.idwt1d(ad.constant(np.zeros((1, 5, 2))), f, 2, 16)

    def test_wavelet_scale_all_ones_single_channel_identity(self):
        # r = 1 leaves the approximation unchanged, so the layer is v itself
        f = wv.get_filter("db6")
        v = ad.constant(np.random.default_rng(6).standard_normal((2, 16, 1)))
        r = ad.Parameter(np.ones((1, 1)), "r")
        change = ad.wavelet_scale(ad.dwt1d(v, f, 2), r)
        assert np.array_equal(change.value, np.zeros((2, 4, 1)))
        layer = ad.add(v, ad.idwt1d(change, f, 2, 16))
        assert np.array_equal(layer.value, v.value)

    def test_wavelet_scale_identity_matrix(self):
        width = 3
        f = wv.get_filter("db6")
        v = ad.constant(np.random.default_rng(7).standard_normal((2, 16, width)))
        r = ad.Parameter(np.eye(width), "r")
        change = ad.wavelet_scale(ad.dwt1d(v, f, 2), r)
        layer = ad.add(v, ad.idwt1d(change, f, 2, 16))
        assert np.allclose(layer.value, v.value)

    def test_wavelet_scale_gradients_match_fd(self):
        gen = np.random.default_rng(12)
        a = ad.Parameter(gen.standard_normal((2, 4, 3)), "a")
        r = ad.Parameter(gen.standard_normal((3, 3)) * 0.4, "r")

        def closure():
            return ad.mean_all(ad.mul(ad.wavelet_scale(a, r), ad.wavelet_scale(a, r)))

        errors = grad_check(closure, [a, r], eps=1e-5, samples=20)
        assert max(errors.values()) < 1e-6


class TestVsnOp:
    def test_hard_forward_binary_gate(self):
        x = ad.constant(np.array([[0.2, 2.0, -1.0]]))
        th = ad.Parameter(np.full(3, 1.0), "th")
        out, gate = ad.vsn(x, th)
        assert np.array_equal(gate.value, [[0.0, 1.0, 0.0]])
        assert out.value[0, 0] == 0.0 and out.value[0, 2] == 0.0
        gelu2, _ = ad.gelu_value_grad(np.array(2.0))
        assert abs(out.value[0, 1] - gelu2) < 1e-15

    def test_smooth_mode_matches_fd(self):
        gen = np.random.default_rng(9)
        x = ad.Parameter(gen.standard_normal((4, 5)), "x")
        th = ad.Parameter(gen.uniform(-0.5, 0.5, 5), "th")

        def closure():
            out, gate = ad.vsn(x, th, slope=10.0, smooth=True)
            return ad.add(ad.mean_all(out), ad.scale(ad.mean_all(gate), 0.3))

        errors = grad_check(closure, [x, th], eps=1e-5, samples=20)
        assert max(errors.values()) < 1e-4

    def test_surrogate_derivative_values(self):
        # the gate's gradient is the logistic surrogate k s (1 - s), s = expit(k(m - th))
        m = np.array([[1.0, 10.0, 0.1]])
        _, gate = ad.vsn(ad.constant(m), ad.constant(np.array([1.0, 0.0, 0.0])), slope=10.0)
        surr = gate.grad_fns[0](np.ones_like(m))[0]
        # logistic derivative peak k/4 at the threshold
        assert abs(surr[0] - 2.5) < 1e-12
        # saturation far from the threshold
        assert surr[1] < 1e-10
        # k=10 at distance 0.1: 10 * s(1) * (1 - s(1))
        s1 = expit(1.0)
        assert abs(surr[2] - 10.0 * s1 * (1 - s1)) < 1e-12
        assert abs(surr[2] - 1.9661) < 1e-3


class TestGradCheck:
    def test_zero_parameter_closure_empty(self):
        assert grad_check(lambda: ad.constant(np.float64(1.0)), []) == {}

    def test_eps_bounds(self):
        x = ad.Parameter(np.ones(2), "x")
        with pytest.raises(ValueError):
            grad_check(lambda: ad.sum_all(x), [x], eps=1e-2)


# --- in-place kernels against the one-shot formulas ------------------------

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def one_shot_gelu(x):
    """Reference gelu value and derivative as one-shot expressions."""
    cdf = 0.5 * (1.0 + erf(x / _SQRT2))
    return x * cdf, cdf + x * (_INV_SQRT_2PI * np.exp(-0.5 * x * x))


def kernel_inputs(name):
    """x and g arrays: 0-d, size 1, large, a batch of fields, or strided views."""
    gen = np.random.default_rng(21)
    if name == "0d":
        return np.array(1.3), np.array(-0.7)
    if name == "transposed":
        x = gen.standard_normal((257, 65)).T * 3.0
        return x, gen.standard_normal((x.shape[1], x.shape[0])).T
    if name == "strided":
        return gen.standard_normal(2 * 4099)[::2] * 3.0, gen.standard_normal(3 * 4099)[::3]
    shape = {"one": (1,), "large": (3 * 2**16 + 1,), "fields": (4, 1024, 16)}[name]
    return gen.standard_normal(shape) * 3.0, gen.standard_normal(shape)


KERNEL_CASES = ["0d", "one", "large", "fields", "transposed", "strided"]


class TestInPlaceKernels:
    """Bitwise equality with the one-shot formulas."""

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_gelu_value_and_backward(self, case):
        x, g = kernel_inputs(case)
        value, slope = one_shot_gelu(x)
        node = ad.gelu(ad.constant(x))
        assert np.array_equal(node.value, value)
        assert np.array_equal(node.grad_fns[0](g), g * slope)

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_gelu_value_grad(self, case):
        x, _ = kernel_inputs(case)
        value, slope = one_shot_gelu(x)
        got_value, got_slope = ad.gelu_value_grad(x)
        assert got_value.shape == got_slope.shape == np.shape(x)
        assert np.array_equal(got_value, value)
        assert np.array_equal(got_slope, slope)

    @pytest.mark.parametrize("rows", [1, 4095, 8195])
    def test_affine(self, rows):
        gen = np.random.default_rng(22)
        x = gen.standard_normal((rows, 16))
        w, b = gen.standard_normal((16, 16)), gen.standard_normal(16)
        for xv in (x, np.asfortranarray(x)):
            out = ad.affine(ad.constant(xv), ad.constant(w), ad.constant(b)).value
            assert np.array_equal(out, xv @ w + b)

    @pytest.mark.parametrize("smooth", [False, True])
    def test_vsn_matches_one_shot_derivatives(self, smooth):
        gen = np.random.default_rng(23)
        xv = gen.standard_normal((4, 1025, 3)) * 2.0
        th = gen.uniform(-0.5, 1.0, 3)
        g = gen.standard_normal(xv.shape)
        slope = 10.0
        sig = expit(slope * (xv - th))
        surr = slope * sig * (1.0 - sig)
        gate = sig if smooth else (xv >= th).astype(np.float64)
        act, dact = one_shot_gelu(gate * xv)
        out, gate_node = ad.vsn(ad.constant(xv), ad.constant(th), slope, smooth)
        assert np.array_equal(out.value, act)
        assert np.array_equal(gate_node.value, gate)
        dx, dth = (fn(g) for fn in out.grad_fns)
        assert np.array_equal(dx, g * dact * (gate + xv * surr))
        assert np.array_equal(dth, (g * dact * xv * (-surr)).sum(axis=(0, 1)))
        dx, dth = (fn(g) for fn in gate_node.grad_fns)
        assert np.array_equal(dx, g * surr)
        assert np.array_equal(dth, (g * (-surr)).sum(axis=(0, 1)))


def bias_add_oracle(x, b):
    """The former per-channel bias node, applied after ad.add."""
    lead = tuple(range(x.value.ndim - 1))
    return ad.Node(x.value + b.value, (x, b), (lambda g: g, lambda g: g.sum(axis=lead)))


class TestLayerSum:
    @pytest.mark.parametrize("shape", [(3, 16, 4), (2, 1024, 16), (1, 7)])
    def test_matches_add_then_bias(self, shape):
        gen = np.random.default_rng(40)
        vals = [gen.standard_normal(shape), gen.standard_normal(shape),
                gen.standard_normal(shape[-1])]
        weights = gen.standard_normal(shape)
        results = []
        for build in (lambda a, b, c: ad.layer_sum(a, b, c),
                      lambda a, b, c: bias_add_oracle(ad.add(a, b), c)):
            params = [ad.Parameter(v.copy(), n) for v, n in zip(vals, "abc")]
            out = build(*params)
            ad.backward(ad.sum_all(ad.mul(out, ad.constant(weights))))
            results.append([out.value] + [p.grad for p in params])
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    def test_shape_checks(self):
        a, b = ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            ad.layer_sum(a, ad.constant(np.zeros((3, 3))), ad.constant(np.zeros(3)))
        with pytest.raises(ShapeError):
            ad.layer_sum(a, b, ad.constant(np.zeros(2)))


# --- per-sample work on two cores -------------------------------------------


def split_equals_whole(on_cpus, fn, splits=True):
    """fn() on two cores equals fn() on one, bit for bit, and splits when expected."""
    whole, none = on_cpus(1, fn)
    halved, count = on_cpus(2, fn)
    assert none == 0 and (count > 0) == splits
    for a, b in zip(whole, halved):
        assert a.shape == b.shape and np.array_equal(a, b)


def lowpass_mats(shape, synthesis=False):
    pairs = [wv.lowpass_pair("db6", n, 3) for n in shape]
    return [s if synthesis else a for a, s in pairs], tuple(a.shape[0] for a, _ in pairs)


class TestTwoCoreKernels:
    """halves() splits give the single call's bits."""

    MIN = core.SPLIT_MIN

    @pytest.mark.parametrize("shape, splits", [
        ((1,), False), ((MIN - 1,), False), ((MIN + 1,), True), ((7, 1024, 16), True),
        ((1, 1024, 128), True), ((3, 32 * 32, 16), False), ((21, 32 * 32, 16), True),
    ])
    def test_gelu_forward_backward_and_value_grad(self, on_cpus, shape, splits):
        gen = np.random.default_rng(50)
        x, g = gen.standard_normal(shape) * 3.0, gen.standard_normal(shape)

        def run():
            node = ad.gelu(ad.constant(x))
            return (node.value, node.grad_fns[0](g), *ad.gelu_value_grad(x))

        split_equals_whole(on_cpus, run, splits)

    @pytest.mark.parametrize("batch, n, c_in, c_out, splits", [
        (1, 1024, 16, 128, False), (7, 1024, 16, 16, True), (21, 1024, 16, 128, True),
        (5, 1024, 128, 1, True), (2, 2047, 16, 16, False), (2, 2048, 16, 16, True),
        (21, 32 * 32, 16, 16, True),
    ])
    def test_affine_and_conv1x1(self, on_cpus, batch, n, c_in, c_out, splits):
        gen = np.random.default_rng(51)
        x = gen.standard_normal((batch, n, c_in))
        w, b = gen.standard_normal((c_in, c_out)), gen.standard_normal(c_out)
        g = gen.standard_normal((batch, n, c_out))

        def run():
            aff = ad.affine(ad.constant(x), ad.constant(w), ad.constant(b))
            conv = ad.conv1x1(ad.constant(x), ad.constant(w))
            return (aff.value, aff.grad_fns[0](g), conv.value, conv.grad_fns[0](g))

        split_equals_whole(on_cpus, run, splits)

    @pytest.mark.parametrize("batch, shape, splits", [
        (1, (1024,), False), (5, (1024,), True), (20, (1024,), True),
        (3, (32, 32), False), (21, (32, 32), True),
    ])
    def test_separable_analysis_and_synthesis(self, on_cpus, batch, shape, splits):
        gen = np.random.default_rng(52)
        grid = gen.standard_normal((batch, math.prod(shape), 16))
        analysis, coarse = lowpass_mats(shape)
        synthesis, _ = lowpass_mats(shape, synthesis=True)
        coeffs = gen.standard_normal((batch, math.prod(coarse), 16))

        def run():
            return (ad._separable(grid, analysis, shape), ad._separable(coeffs, synthesis, coarse),
                    ad._separable(grid, [m.T for m in synthesis], shape))

        split_equals_whole(on_cpus, run, splits)


    def test_frequent_switches_match_whole(self, on_cpus):
        # the two halves write one output while the interpreter switches threads often
        gen = np.random.default_rng(54)
        x, w = gen.standard_normal((9, 1024, 16)), gen.standard_normal((16, 16))

        def run():
            return [ad.gelu(ad.affine(ad.constant(x), ad.constant(w), ad.constant(w[0]))).value
                    for _ in range(20)]

        whole, _ = on_cpus(1, run)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            halved, splits = on_cpus(2, run)
        finally:
            sys.setswitchinterval(interval)
        assert splits == 40
        assert all(np.array_equal(a, b) for a, b in zip(whole, halved))


class TestBlasThreads:
    """Training pins OpenBLAS to one thread; the workloads' products must not move."""

    def products(self):
        gen = np.random.default_rng(53)
        x16, x128 = gen.standard_normal((20, 1024, 16)), gen.standard_normal((20, 1024, 128))
        out = [ad._matmul(x16, gen.standard_normal((16, 16))),
               ad._matmul(x16, gen.standard_normal((16, 128))),
               ad._matmul(x128, gen.standard_normal((128, 1)))]
        for shape in ((1024,), (32, 32)):
            fields = gen.standard_normal((20, math.prod(shape), 16))
            analysis, coarse = lowpass_mats(shape)
            synthesis, _ = lowpass_mats(shape, synthesis=True)
            coarse_fields = ad._separable(fields, analysis, shape)
            out += [coarse_fields, ad._separable(coarse_fields, synthesis, coarse)]
        return out

    def test_one_thread_equals_two(self, blas_at_two, monkeypatch):
        monkeypatch.setattr(core, "_available_cpus", lambda: 1)
        at_two = self.products()
        for cpus in (1, 2):
            monkeypatch.setattr(core, "_available_cpus", lambda cpus=cpus: cpus)
            with core.one_blas_thread():
                pinned = self.products()
            for a, b in zip(at_two, pinned):
                assert np.array_equal(a, b)
