import math
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


class TestBasicOps:
    def test_gelu_zero_is_zero(self):
        node = ad.gelu(ad.constant(np.zeros(4)))
        assert np.array_equal(node.value, np.zeros(4))

    def test_add_shape_mismatch(self):
        a, b = ad.constant(np.zeros(3)), ad.constant(np.zeros(4))
        with pytest.raises(ShapeError):
            ad.add(a, b)

    def test_gelu_backward_is_value_grad_derivative(self):
        # the derivative is formed in the backward, bit for bit as before
        gen = np.random.default_rng(13)
        x = ad.Parameter(gen.standard_normal((4, 7)) * 3.0, "x")
        g = gen.standard_normal((4, 7))
        ad.backward([ad.gelu(x)], [g])
        val, dval = one_shot_gelu(x.value)
        assert np.array_equal(ad.gelu(x).value, val)
        assert np.array_equal(x.grad, dval * g)

    def test_quadratic_gradient_is_identity(self):
        # loss = ||out||^2 / 2 of out = x + 0: seeding out with d loss / d out
        # = out gives grad = x
        x = ad.Parameter(np.array([1.0, -2.0, 3.5]), "x")
        out = ad.add(x, ad.constant(np.zeros(3)))
        ad.backward([out], [out.value])
        assert np.array_equal(x.grad, x.value)

    def test_outputs_sum_their_pullbacks(self):
        # two outputs over one input, and one output passed twice
        gen = np.random.default_rng(14)
        x = ad.Parameter(gen.standard_normal((2, 5)), "x")
        g1, g2, g3 = gen.standard_normal((3, 2, 5))
        twice = ad.add(x, x)
        ad.backward([ad.gelu(x), twice, twice], [g1, g2, g3])
        assert np.allclose(x.grad, g1 * one_shot_gelu(x.value)[1] + 2.0 * (g2 + g3),
                           rtol=1e-14, atol=0.0)

    def test_affine_gelu_chain_matches_fd(self):
        gen = np.random.default_rng(0)
        w = ad.Parameter(gen.standard_normal((3, 2)), "w")
        b = ad.Parameter(gen.standard_normal(2), "b")
        x = gen.standard_normal((5, 3))

        def closure():
            return ad.gelu(ad.affine(ad.constant(x), w, b))

        errors = grad_check(closure, [w, b])  # every coordinate of both
        assert max(errors.values()) < 1e-6

    def test_cotangent_of_wrong_shape_rejected(self):
        x = ad.Parameter(np.ones(3), "x")
        for cotangent in (np.ones(()), np.ones(4), np.ones((3, 1))):
            with pytest.raises(ad.GraphError):
                ad.backward([ad.add(x, x)], [cotangent])
        with pytest.raises(ad.GraphError):
            ad.backward([ad.add(x, x)], [])
        assert np.array_equal(x.grad, np.zeros(3))

    def test_backward_consumes_graph(self):
        x = ad.Parameter(np.ones(3), "x")
        out = ad.add(x, x)
        ad.backward([out], [np.ones(3)])
        with pytest.raises(ad.GraphError):
            ad.backward([out], [np.ones(3)])

    def test_backward_frees_the_graph_it_used(self):
        # the arrays the closures kept go during the backward, though the
        # caller still holds the output
        gen = np.random.default_rng(7)
        w = ad.Parameter(gen.standard_normal((3, 4)), "w")
        b = ad.Parameter(gen.standard_normal(4), "b")
        h = ad.affine(ad.constant(gen.standard_normal((2, 5, 3))), w, b)
        kept = weakref.ref(h.value)
        out = ad.gelu(h)
        value, g = out.value.copy(), gen.standard_normal((2, 5, 4))
        del h
        ad.backward([out], [g])
        assert kept() is None
        assert np.array_equal(out.value, value)
        with pytest.raises(ad.GraphError):
            ad.backward([out], [g])

    def test_backward_through_a_used_node_raises(self):
        # its parents are gone, so a second loss on it would get no gradient
        x = ad.Parameter(np.array([1.0, -2.0, 3.0]), "x")
        g = np.array([0.5, 2.0, -1.0])
        h = ad.add(x, x)
        ad.backward([h], [g])
        with pytest.raises(ad.GraphError):
            ad.backward([ad.add(h, h)], [g])
        x.zero_grad()
        ad.backward([ad.add(x, x)], [g])
        assert np.array_equal(x.grad, 2.0 * g)

    def test_gelu_gradient_runs_once(self):
        # it is written over the kept cdf, so a second call has nothing to use
        x, g = np.linspace(-3.0, 3.0, 7), np.full(7, 2.0)
        node = ad.gelu(ad.constant(x))
        assert np.array_equal(node.grad_fns[0](g), g * one_shot_gelu(x)[1])
        with pytest.raises(ad.GraphError):
            node.grad_fns[0](g)

    def test_released_value_raises_and_gradients_flow(self):
        x = ad.Parameter(np.array([1.0, -2.0, 3.0]), "x")
        g = np.array([0.5, 2.0, -1.0])
        h = ad.add(x, x)
        out = ad.add(h, h)
        ad.release(h)
        with pytest.raises(ad.GraphError):
            h.value
        with pytest.raises(ad.GraphError):
            ad.gelu(h)
        ad.backward([out], [g])
        assert np.array_equal(x.grad, 4.0 * g)

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
        ad.backward([out], [np.ones(out.value.shape)])
        assert freed == [True]


class TestWaveletOps:
    def test_synthesis_then_analysis_is_identity(self):
        # A A^T = I: the rows of the approximation analysis are orthonormal
        a, s = wv.lowpass_pair("db6", 64, 3)
        c = np.random.default_rng(1).standard_normal((2, 8, 3))
        node = ad.dwt1d(ad.idwt1d(ad.constant(c), s), a)
        assert node.value.shape == c.shape
        assert np.max(np.abs(node.value - c)) < 1e-12

    def test_projection_is_idempotent(self):
        # A^T A projects onto the approximation space V_L
        a, s = wv.lowpass_pair("db4", 64, 3)
        x = np.random.default_rng(10).standard_normal((2, 64, 3))

        def project(v):
            return ad.idwt1d(ad.dwt1d(ad.constant(v), a), s).value

        once = project(x)
        assert np.max(np.abs(project(once) - once)) < 1e-12
        assert np.max(np.abs(once - x)) > 0.1  # and not the identity

    def test_composite_gradient_is_identity(self):
        # the composite c -> A A^T c is the identity, so is its gradient
        a, s = wv.lowpass_pair("db6", 32, 2)
        c = ad.Parameter(np.random.default_rng(2).standard_normal((1, 8, 2)), "c")
        out = ad.dwt1d(ad.idwt1d(c, s), a)
        weights = np.random.default_rng(3).standard_normal(out.value.shape)
        ad.backward([out], [weights])
        assert np.max(np.abs(c.grad - weights)) < 1e-12

    def test_dwt_gradient_is_inverse_transform(self):
        # orthonormal adjoint rule: the upstream gradient flows through the
        # packed inverse transform with every detail band zero, shifted
        # back from the pair's row start
        x = ad.Parameter(np.random.default_rng(4).standard_normal((1, 64, 1)), "x")
        node = ad.dwt1d(x, wv.lowpass_pair("db4", 64, 2)[0])
        assert node.value.shape == (1, 16, 1)
        g = np.random.default_rng(5).standard_normal(node.value.shape)
        ad.backward([node], [g])
        packed = np.zeros((1, 1, 64))
        packed[..., :16] = np.swapaxes(g, -1, -2)
        expected = np.roll(np.swapaxes(wo.idwt_packed(packed, "db4", 2), -1, -2),
                           wo.ROW_START["db4"], axis=1)
        assert np.max(np.abs(x.grad - expected)) < 1e-12

    @pytest.mark.parametrize("n,hw", [(64, None), (85, None), (None, (16, 12)), (None, (18, 13))])
    def test_lowpass_ops_match_fd(self, n, hw):
        # padded lengths (85, 18, 13) make analysis and synthesis non-adjoint
        gen = np.random.default_rng(11)
        if hw is None:
            a, s = wv.lowpass_pair("db4", n, 2)
            x = ad.Parameter(gen.standard_normal((2, n, 2)), "x")
            c = ad.Parameter(gen.standard_normal((2, -(-n // 4), 2)), "c")
            dwt = lambda: ad.dwt1d(x, a)  # noqa: E731
            idwt = lambda: ad.idwt1d(c, s)  # noqa: E731
        else:
            analyses, syntheses = zip(*(wv.lowpass_pair("db4", m, 2) for m in hw))
            x = ad.Parameter(gen.standard_normal((2, hw[0] * hw[1], 2)), "x")
            coarse = -(-hw[0] // 4) * -(-hw[1] // 4)
            c = ad.Parameter(gen.standard_normal((2, coarse, 2)), "c")
            dwt = lambda: ad.dwt2d(x, analyses)  # noqa: E731
            idwt = lambda: ad.idwt2d(c, syntheses)  # noqa: E731
        for op, p in ((dwt, x), (idwt, c)):
            errors = grad_check(op, [p], eps=1e-5, samples=20)
            assert max(errors.values()) < 1e-6

    def test_lowpass_ops_reject_off_grid_fields(self):
        analyses = [wv.lowpass_pair("db4", m, 2)[0] for m in (8, 4)]
        with pytest.raises(ShapeError):
            ad.dwt2d(ad.constant(np.zeros((1, 30, 2))), analyses)
        with pytest.raises(ShapeError):
            ad.idwt1d(ad.constant(np.zeros((1, 5, 2))), wv.lowpass_pair("db4", 16, 2)[1])

    def test_wavelet_scale_all_ones_single_channel_identity(self):
        # r = 1 leaves the approximation unchanged, so the layer is v itself
        a, s = wv.lowpass_pair("db6", 16, 2)
        v = ad.constant(np.random.default_rng(6).standard_normal((2, 16, 1)))
        r = ad.Parameter(np.ones((4, 1, 1)), "r")
        change = ad.wavelet_scale(ad.dwt1d(v, a), r)
        assert np.array_equal(change.value, np.zeros((2, 4, 1)))
        layer = ad.add(v, ad.idwt1d(change, s))
        assert np.array_equal(layer.value, v.value)

    def test_wavelet_scale_identity_matrix(self):
        width = 3
        a, s = wv.lowpass_pair("db6", 16, 2)
        v = ad.constant(np.random.default_rng(7).standard_normal((2, 16, width)))
        r = ad.Parameter(np.tile(np.eye(width), (4, 1, 1)), "r")
        change = ad.wavelet_scale(ad.dwt1d(v, a), r)
        layer = ad.add(v, ad.idwt1d(change, s))
        assert np.allclose(layer.value, v.value)

    def test_wavelet_scale_gradients_match_fd(self):
        # one distinct (3, 3) mix per position, over one or two leading axes
        gen = np.random.default_rng(12)
        for lead in ((2,), (2, 3)):
            a = ad.Parameter(gen.standard_normal(lead + (4, 3)), "a")
            r = ad.Parameter(gen.standard_normal((4, 3, 3)) * 0.4, "r")
            errors = grad_check(lambda: ad.wavelet_scale(a, r), [a, r], eps=1e-5, samples=48)
            assert set(errors) == {"a", "r"} and max(errors.values()) < 1e-6

    def test_wavelet_scale_mixes_each_position_by_its_own_matrix(self):
        gen = np.random.default_rng(13)
        a = gen.standard_normal((2, 4, 3))
        r = gen.standard_normal((4, 3, 3))
        got = ad.wavelet_scale(ad.constant(a), ad.constant(r)).value
        want = [[a[b, p] @ r[p] - a[b, p] for p in range(4)] for b in range(2)]
        assert np.allclose(got, want, rtol=0.0, atol=1e-14)
        with pytest.raises(ShapeError, match=r"\(3, 3\), expected \(4, 3, 3\)"):
            ad.wavelet_scale(ad.constant(a), ad.constant(r[0]))


class TestVsnOp:
    def test_hard_forward_binary_gate(self):
        x = ad.constant(np.array([[0.2, 2.0, -1.0]]))
        th = ad.Parameter(np.full(3, 1.0), "th")
        out, gate = ad.vsn(x, th)
        assert np.array_equal(gate.value, [[0.0, 1.0, 0.0]])
        assert out.value[0, 0] == 0.0 and out.value[0, 2] == 0.0
        gelu2, _ = one_shot_gelu(np.array(2.0))
        assert abs(out.value[0, 1] - gelu2) < 1e-15

    def test_smooth_mode_matches_fd(self):
        gen = np.random.default_rng(9)
        x = ad.Parameter(gen.standard_normal((4, 5)), "x")
        th = ad.Parameter(gen.uniform(-0.5, 0.5, 5), "th")

        for k in (0, 1):  # the output, then the gate
            errors = grad_check(lambda: ad.vsn(x, th, smooth=True)[k], [x, th], eps=1e-5,
                                samples=20)
            assert max(errors.values()) < 1e-4

    def test_surrogate_derivative_values(self):
        # the gate's gradient is the logistic surrogate k s (1 - s), s = expit(k(m - th))
        m = np.array([[1.0, 10.0, 0.1]])
        _, gate = ad.vsn(ad.constant(m), ad.constant(np.array([1.0, 0.0, 0.0])))
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
            grad_check(lambda: ad.add(x, x), [x], eps=1e-2)


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
        # the array kernels vsn calls: gelu's cdf and value, then g * gelu'
        # written over that cdf
        x, g = kernel_inputs(case)
        value, slope = one_shot_gelu(x)
        cdf, got_value = ad._gelu_cdf_value(x)
        got_slope = ad._gelu_slope(x, cdf, g)
        assert got_slope is cdf
        assert got_value.shape == got_slope.shape == np.shape(x)
        assert np.array_equal(got_value, value)
        assert np.array_equal(got_slope, g * slope)

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
        slope = 10.0  # ad.SURROGATE_SLOPE
        sig = expit(slope * (xv - th))
        surr = slope * sig * (1.0 - sig)
        gate = sig if smooth else (xv >= th).astype(np.float64)
        act, dact = one_shot_gelu(gate * xv)
        out, gate_node = ad.vsn(ad.constant(xv), ad.constant(th), smooth=smooth)
        assert np.array_equal(out.value, act)
        assert np.array_equal(gate_node.value, gate)
        dx, dth = (fn(g) for fn in out.grad_fns)
        assert np.array_equal(dx, g * dact * (gate + xv * surr))
        assert np.array_equal(dth, (g * dact * xv * (-surr)).sum(axis=(0, 1)))
        dx, dth = (fn(g) for fn in gate_node.grad_fns)
        assert np.array_equal(dx, g * surr)
        assert np.array_equal(dth, (g * (-surr)).sum(axis=(0, 1)))

    def test_vsn_forms_its_slope_once(self, monkeypatch):
        # the first closure writes g * gelu' over the kept cdf, the other reuses it
        calls = []
        slope = ad._gelu_slope
        monkeypatch.setattr(ad, "_gelu_slope", lambda *a: (calls.append(1), slope(*a))[1])
        gen = np.random.default_rng(24)
        x, g = gen.standard_normal((2, 9, 3)), gen.standard_normal((2, 9, 3))
        out, _ = ad.vsn(ad.constant(x), ad.constant(np.zeros(3)))
        for fn in reversed(out.grad_fns):  # the backward's order
            fn(g)
        assert len(calls) == 1
        for fn in out.grad_fns:
            with pytest.raises(ad.GraphError):
                fn(g)


HEAD_NAMES = ("x", "w1", "b1", "w2", "b2")


def unfused_head(x, w1, b1, w2, b2, gelu=True):
    h = ad.affine(x, w1, b1)
    return ad.affine(ad.gelu(h) if gelu else h, w2, b2)


def head_values(shape, hidden=128, out=1, seed=70):
    """Values for x, w1, b1, w2, b2 and a target of the output's shape."""
    gen = np.random.default_rng(seed)
    ch = shape[-1]
    values = [gen.standard_normal(shape) * 2.0, gen.standard_normal((ch, hidden)) * 0.5,
              gen.standard_normal(hidden), gen.standard_normal((hidden, out)) * 0.5,
              gen.standard_normal(out)]
    return values, gen.standard_normal(shape[:-1] + (out,))


def by_sample(g):
    """cotangent(i, out_i) of the head that hands out sample i's rows of g."""
    rows = g.reshape((-1,) + g.shape[-2:])
    return lambda i, out_i: rows[i : i + 1]


def head_node(params, **kw):
    """`ad.projection` as one graph node, for grad_check's backward.

    Its closures run the head again with the backward's cotangent and
    hand each parameter its seed.
    """
    value, _ = ad.projection(*params, **kw)
    seeds = []

    def seed(k):
        def fn(g):
            if not seeds:
                seeds.extend(c for _, c in ad.projection(*params, cotangent=by_sample(g),
                                                         **kw)[1])
            return seeds[k]

        return fn

    return ad.Node(value, params, [seed(k) for k in range(5)])


def l2_cotangent(out, target, size):
    """The gradient of sum((out - target)^2) / size, as `neuralop._cotangents` forms it."""
    g = 1.0 / size * (out - target)
    return g + g


def head_results(values, target, fused, gelu=True):
    """The head's value and the five gradients of its l2 loss against target.

    fused runs `ad.projection` with a per-sample cotangent and passes its
    seeds to `ad.backward`; otherwise affine -> gelu -> affine is
    differentiated through `ad.backward`.
    """
    params = [ad.Parameter(v.copy(), name) for v, name in zip(values, HEAD_NAMES)]
    if fused:
        rows = target.reshape((-1,) + target.shape[-2:])
        value, seeds = ad.projection(
            *params, gelu=gelu, cotangent=lambda i, p: l2_cotangent(p, rows[i : i + 1], target.size))
        ad.backward(*zip(*seeds))
    else:
        out = unfused_head(*params, gelu=gelu)
        value = out.value.copy()
        ad.backward([out], [l2_cotangent(value, target, target.size)])
    return [value] + [p.grad for p in params]


class TestProjection:
    """The fused head against affine -> gelu -> affine."""

    @pytest.mark.parametrize("shape, rows", [
        ((2, 24, 3), None), ((2, 24, 3), 5),  # 1D grid; five-row blocks
        ((2, 6 * 5, 3), None), ((2, 6 * 5, 3), 7),  # a 6-by-5 grid, flattened
    ])
    def test_matches_fd(self, monkeypatch, shape, rows):
        if rows is not None:
            monkeypatch.setattr(ad, "_PROJECTION_ROWS", rows)
        values, _ = head_values(shape, hidden=6, out=2)
        params = [ad.Parameter(v, name) for v, name in zip(values, HEAD_NAMES)]

        errors = grad_check(lambda: head_node(params), params, eps=1e-5, samples=20)
        assert set(errors) == set(HEAD_NAMES) and max(errors.values()) < 1e-6

    @pytest.mark.parametrize("shape, hidden, out", [
        ((3, 1024, 16), 128, 1), ((4, 85, 16), 128, 1), ((2, 32 * 32, 16), 128, 1),
        ((5, 77, 5), 13, 3), ((1, 600, 16), 128, 1), ((9, 16), 7, 1),
    ])
    def test_matches_unfused_chain(self, shape, hidden, out, gelu=True):
        # value and input gradient bit for bit; the weight and bias
        # gradients are summed per block, so only their order differs
        values, target = head_values(shape, hidden, out)
        fused = head_results(values, target, True, gelu)
        plain = head_results(values, target, False, gelu)
        for a, b in zip(fused[:2], plain[:2]):
            assert a.shape == b.shape and np.array_equal(a, b)
        for a, b in zip(fused[2:], plain[2:]):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    @pytest.mark.parametrize("shape, hidden, out", [
        ((3, 1024, 16), 128, 1), ((5, 77, 5), 13, 3), ((9, 16), 7, 1),
    ])
    def test_without_gelu_matches_affine_chain(self, shape, hidden, out):
        # an identity model's head
        self.test_matches_unfused_chain(shape, hidden, out, gelu=False)

    def test_takes_each_sample_cotangent_once_in_order(self, monkeypatch):
        # each sample's backward runs right after its forward, from its own
        # (1, N, O) output, so the head holds one sample's rows at a time
        monkeypatch.setattr(ad, "_PROJECTION_ROWS", 3)
        values, g = head_values((3, 8, 4), hidden=5, out=2)
        want, _ = ad.projection(*(ad.constant(v) for v in values))
        seen = []

        def cotangent(i, out_i):
            seen.append((i, out_i.copy()))
            return g[i : i + 1]

        params = [ad.constant(v) for v in values]
        value, seeds = ad.projection(*params, cotangent=cotangent)
        assert [i for i, _ in seen] == [0, 1, 2]
        assert all(np.array_equal(out_i, want[i : i + 1]) for i, out_i in seen)
        assert np.array_equal(value, want)
        assert [node for node, _ in seeds] == params
        assert [c.shape for _, c in seeds] == [v.shape for v in values]

    def test_shape_checks(self):
        values, _ = head_values((2, 8, 3), hidden=4, out=2)
        for i, bad in ((0, np.zeros((2, 8, 4))), (2, np.zeros(5)), (3, np.zeros((5, 2))),
                       (4, np.zeros(3)), (3, np.zeros(4))):
            args = [ad.constant(bad if j == i else v) for j, v in enumerate(values)]
            with pytest.raises(ShapeError):
                ad.projection(*args)


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
            ad.backward([out], [weights])
            results.append([out.value] + [p.grad for p in params])
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    def test_shape_checks(self):
        a, b = ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            ad.layer_sum(a, ad.constant(np.zeros((3, 3))), ad.constant(np.zeros(3)))
        with pytest.raises(ShapeError):
            ad.layer_sum(a, b, ad.constant(np.zeros(2)))


def lowpass_mats(shape, synthesis=False):
    pairs = [wv.lowpass_pair("db6", n, 3) for n in shape]
    return [s if synthesis else a for a, s in pairs], tuple(a.shape[0] for a, _ in pairs)


def every_op(x):
    """{name: node or nodes} of every op on a (2, 64, 4) field x."""
    gen = np.random.default_rng(80)
    w, b = ad.Parameter(gen.standard_normal((4, 4)), "w"), ad.Parameter(gen.standard_normal(4), "b")
    th = ad.Parameter(gen.uniform(-0.5, 0.5, 4), "th")
    (a,), _ = lowpass_mats((64,))
    (s,), _ = lowpass_mats((64,), synthesis=True)
    a2, _ = lowpass_mats((8, 8))
    s2, _ = lowpass_mats((8, 8), synthesis=True)
    coarse = ad.dwt1d(x, a)
    return {
        "add": ad.add(x, x), "affine": ad.affine(x, w, b), "conv1x1": ad.conv1x1(x, w),
        "layer_sum": ad.layer_sum(x, x, b), "gelu": ad.gelu(x),
        "dwt1d": coarse, "idwt1d": ad.idwt1d(coarse, s),
        "wavelet_scale": ad.wavelet_scale(
            coarse, ad.Parameter(gen.standard_normal(coarse.value.shape[1:] + (4,)), "r")),
        "dwt2d": ad.dwt2d(x, a2), "idwt2d": ad.idwt2d(ad.dwt2d(x, a2), s2),
        "vsn": ad.vsn(x, th), "vsn_smooth": ad.vsn(x, th, smooth=True),
    }


class TestNoGraph:
    """Inside `no_graph` ops record nothing and give the recorded values."""

    def test_every_op_unrecorded_and_bit_equal(self):
        x = ad.constant(np.random.default_rng(81).standard_normal((2, 64, 4)) * 2.0)
        recorded = every_op(x)
        with ad.no_graph():
            bare = every_op(x)
        for name, nodes in bare.items():
            pairs = zip(nodes, recorded[name]) if name.startswith("vsn") else [
                (nodes, recorded[name])]
            for node, want in pairs:
                assert not node.recorded and node.parents == () and node.grad_fns == (), name
                assert want.recorded and want.grad_fns, name
                assert np.array_equal(node.value, want.value), name

    def test_no_backward_only_arrays(self, monkeypatch):
        # no separate cdf for gelu and vsn, and no logistic in hard-mode vsn
        def unused(*args):
            raise AssertionError("formed an array only a backward reads")

        x = ad.constant(np.random.default_rng(82).standard_normal((3, 5)))
        th = ad.constant(np.zeros(5))
        monkeypatch.setattr(ad, "_gelu_cdf_value", unused)
        monkeypatch.setattr(ad, "expit", unused)
        with ad.no_graph():
            ad.gelu(x)
            out, gate = ad.vsn(x, th)
        assert np.array_equal(gate.value, (x.value >= 0.0).astype(np.float64))

    def test_backward_of_an_unrecorded_output_raises(self):
        # it would otherwise leave every gradient at zero without a word
        w, b = ad.Parameter(np.ones((3, 2)), "w"), ad.Parameter(np.zeros(2), "b")
        x = ad.constant(np.ones((4, 3)))
        with ad.no_graph():
            out = ad.affine(x, w, b)
        with pytest.raises(ad.GraphError, match="without recording"):
            ad.backward([out], [np.ones((4, 2))])
        with pytest.raises(ad.GraphError, match="without recording"):
            ad.backward([ad.gelu(out)], [np.ones((4, 2))])  # recorded on top of it
        assert not w.grad.any() and not b.grad.any()
        ad.backward([ad.affine(x, w, b)], [np.ones((4, 2))])
        assert np.array_equal(w.grad, np.full((3, 2), 4.0))

    def test_scope_restores_what_it_found(self):
        c = ad.constant(np.ones(3))

        def recording():
            return ad.add(c, c).recorded

        with ad.no_graph():
            with ad.no_graph():
                assert not recording()
            assert not recording()
            with pytest.raises(RuntimeError):
                with ad.no_graph():
                    raise RuntimeError("inside")
            assert not recording()
        assert recording()
        with pytest.raises(RuntimeError):
            with ad.no_graph():
                raise RuntimeError("inside")
        assert recording()


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

    def test_one_thread_equals_two(self, blas_at_two):
        at_two = self.products()
        with core.one_blas_thread():
            pinned = self.products()
        for a, b in zip(at_two, pinned):
            assert np.array_equal(a, b)
