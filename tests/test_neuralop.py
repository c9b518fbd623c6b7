import math
import threading
import tracemalloc

import numpy as np
import pytest

from opcert import autodiff as ad
from opcert import neuralop as no
from opcert import wavelet as wv
from opcert.core import GridError, GridSpec, SeededRng

import wavelet_oracle as wo
from grad_check import grad_check
from test_autodiff import one_shot_gelu


def small_config(**kwargs):
    defaults = dict(grid=GridSpec((64,)), width=8, layers=2, wavelet="db6")
    defaults.update(kwargs)
    return no.WnoConfig(**defaults)


def parameter_vector(model):
    return np.concatenate([model.params[k].value.ravel() for k in sorted(model.params)])


class TestForward:
    def test_zero_parameters_zero_output(self):
        model = no.WnoModel.initialize(small_config(), SeededRng(0))
        for p in model.parameters():
            p.value[...] = 0.0
        x = SeededRng(1).generator().standard_normal((3, 64))
        assert np.array_equal(model.predict(x), np.zeros((3, 64)))

    def test_random_init_bounded(self):
        model = no.WnoModel.initialize(small_config(), SeededRng(2))
        x = SeededRng(3).generator().standard_normal((4, 64))
        y = model.predict(x)
        assert np.all(np.isfinite(y))
        assert np.max(np.abs(y)) < 1e3

    def test_vsn_zero_params_zero_output(self):
        model = no.WnoModel.initialize(small_config(activation="vsn"), SeededRng(4))
        for p in model.parameters():
            p.value[...] = 0.0
        x = SeededRng(5).generator().standard_normal((2, 64))
        assert np.array_equal(model.predict(x), np.zeros((2, 64)))

    def test_linear_path_matches_dense_oracle(self):
        # identity activations and identity wavelet weights collapse the
        # network to a per-point affine composition
        cfg = no.WnoConfig(
            grid=GridSpec((16,)), width=4, layers=2,
            wavelet="db4", activation="identity", proj_hidden=5,
        )
        model = no.WnoModel.initialize(cfg, SeededRng(6))
        for i in range(cfg.layers):
            model.params[f"layer{i}.r"].value[...] = np.eye(4)  # at every position
        x = SeededRng(7).generator().standard_normal((2, 16))
        got = model.predict(x)
        coords = np.linspace(0, 1, 16)[:, None]
        p = model.params
        for b in range(2):
            feats = np.concatenate([x[b][:, None], coords], axis=1)
            v = feats @ p["uplift.w"].value + p["uplift.b"].value
            for i in range(cfg.layers):
                v = v + v @ p[f"layer{i}.k"].value + p[f"layer{i}.b"].value
            out = (v @ p["proj1.w"].value + p["proj1.b"].value) @ p["proj2.w"].value
            out = out + p["proj2.b"].value
            assert np.max(np.abs(got[b] - out[:, 0])) < 1e-10

    def test_grid_mismatch_rejected(self):
        # a 64-point model has a block of 4; 65 points give 5 and 96 give 6
        model = no.WnoModel.initialize(small_config(), SeededRng(8))
        with pytest.raises(GridError, match=r"blocks \(5,\).*blocks \(4,\)"):
            model.predict(np.zeros((1, 65)))
        with pytest.raises(GridError, match=r"blocks \(6,\).*blocks \(4,\)"):
            model.predict(np.zeros((1, 96)))  # 1.5x is not dyadic

    @pytest.mark.parametrize("trained, got", [(85, 90), (85, 41), (34, 40), (34, 33)])
    def test_same_block_without_a_dyadic_ratio_rejected(self, trained, got):
        # both grids have the same block, but padding fills a different
        # share of the domain, so each R_p would meet other physical points
        assert no.blocks((trained,)) == no.blocks((got,))
        model = no.WnoModel.initialize(small_config(grid=GridSpec((trained,))), SeededRng(8))
        with pytest.raises(GridError, match="not a dyadic refinement"):
            model.predict(np.zeros((1, got)))
        assert model.predict(np.zeros((1, 2 * trained))).shape == (1, 2 * trained)

    def test_dyadic_refinement_accepted(self):
        model = no.WnoModel.initialize(small_config(), SeededRng(9))
        for n in (32, 128, 256):
            assert model.predict(np.zeros((1, n))).shape == (1, n)

    def test_anisotropic_refinement_keeps_the_block(self):
        # (64, 128) has the blocks (4, 4) of a (64, 64) model, so it is accepted
        model = no.WnoModel.initialize(small_config(grid=GridSpec((64, 64))), SeededRng(9))
        assert model.predict(np.zeros((1, 64, 128))).shape == (1, 64, 128)
        with pytest.raises(GridError, match=r"blocks \(4, 6\)"):
            model.predict(np.zeros((1, 64, 96)))

    def test_resolution_consistency_after_training(self):
        # refined-grid output restricted to the coarse grid stays within
        # 10x the training error of the coarse-grid output
        cfg = small_config(width=8, layers=2)
        model = no.WnoModel.initialize(cfg, SeededRng(10))
        xs = np.arange(64) / 64
        u = np.sin(2 * np.pi * xs)[None, :]
        y = np.cos(2 * np.pi * xs)[None, :] * 0.3
        no.train(model, u, y, no.LossConfig("l2"), 300, 1, SeededRng(11), lr=2e-3)
        coarse = model.predict(u)[0]
        train_err = float(np.sqrt(np.mean((coarse - y[0]) ** 2)))
        fine_in = np.sin(2 * np.pi * np.arange(128) / 128)[None, :]
        fine = model.predict(fine_in)[0]
        drift = float(np.sqrt(np.mean((fine[::2] - coarse) ** 2)))
        assert drift < 10 * max(train_err, 1e-6)


class TestDepth:
    """The grid sets the wavelet depth: the largest L with n >= 4 * 2^L."""

    @pytest.mark.parametrize("n, depth, block", [
        (16, 2, 4), (32, 3, 4), (34, 3, 5), (68, 4, 5), (85, 4, 6), (128, 5, 4),
        (170, 5, 6), (256, 6, 4), (1024, 8, 4), (8, 1, 4), (5, 1, 3), (2, 1, 1),
    ])
    def test_depth_table(self, n, depth, block):
        assert no.depth(n) == depth and no.blocks((n,)) == (block,)

    def test_layer_weights_per_position_of_the_training_block(self):
        for spatial, positions in (((128,), 4), ((1024,), 4), ((32, 32), 16), ((85, 85), 36)):
            model = no.WnoModel.initialize(no.WnoConfig(grid=GridSpec(spatial), width=3,
                                                        layers=1), SeededRng(0))
            assert model.params["layer0.r"].value.shape == (positions, 3, 3)


class TestPerPositionMix:
    """Each approximation position has its own channel mix."""

    def test_learns_a_position_dependent_lowpass_weight(self):
        # y = A^T (s * A u0) with s non-constant over the 4 positions of a
        # 64-point grid. A shared mix r gives a linear model the fields
        # u0, P u0 (P = A^T A) and fixed coordinate terms only; per
        # position, one identity layer represents y exactly.
        n, s = 64, np.array([2.0, 0.0, 1.0, -1.0])
        a, _ = wv.lowpass_pair("db6", n, 4)
        u0 = SeededRng(80).generator().standard_normal((50, n))
        y = (u0 @ a.T * s) @ a
        x = np.linspace(0.0, 1.0, n)
        fields = [u0, u0 @ a.T @ a] + [np.broadcast_to(f, u0.shape) for f in
                                       (np.ones(n), x, a.T @ (a @ x))]
        basis = np.stack([f.ravel() for f in fields], axis=1)
        fit = basis @ np.linalg.lstsq(basis, y.ravel(), rcond=None)[0]
        floor = 100.0 * np.sum((fit - y.ravel()) ** 2) / np.sum(y**2)
        cfg = no.WnoConfig(grid=GridSpec((n,)), width=4, layers=1, activation="identity",
                           proj_hidden=4)
        model = no.WnoModel.initialize(cfg, SeededRng(81))
        no.train(model, u0, y, no.LossConfig("l2"), 100, 10, SeededRng(82), lr=1e-2)
        nmse = 100.0 * np.sum((model.predict(u0) - y) ** 2) / np.sum(y**2)
        assert floor > 50.0 and nmse < 1e-3, (floor, nmse)


def cascade_layer(v, r, name, levels, spatial):
    """Wavelet part of a layer by the full packed cascade (oracle).

    Symmetric-pad each axis of v (B, prod(spatial), C) to a multiple of
    2^levels, shift it to the pair's row start, transform, mix each
    approximation coefficient with its own (C, C) block of r, invert,
    shift back, crop.
    """
    b, _, ch = v.shape
    r = r.reshape(tuple(-(-s >> levels) for s in spatial) + (ch, ch))
    x = np.moveaxis(v.reshape((b,) + spatial + (ch,)), -1, 1)
    block = 1 << levels
    x = np.pad(x, [(0, 0), (0, 0)] + [(0, (-s) % block) for s in spatial], mode="symmetric")
    axes = tuple(range(2, x.ndim))
    x = np.roll(x, -wo.ROW_START[name], axis=axes)
    approx = (...,) + tuple(slice(0, s >> levels) for s in x.shape[2:])
    if len(spatial) == 1:
        c = wo.dwt_packed(x, name, levels)
        c[approx] = np.einsum("bck,kcd->bdk", c[approx], r)
        y = wo.idwt_packed(c, name, levels)
    else:
        c = wo.dwt2d_packed(x, name, levels)
        c[approx] = np.einsum("bchw,hwcd->bdhw", c[approx], r)
        y = wo.idwt2d_packed(c, name, levels)
    y = np.roll(y, wo.ROW_START[name], axis=axes)[(...,) + tuple(slice(0, s) for s in spatial)]
    return np.moveaxis(y, 1, -1).reshape(v.shape)


class TestWaveletKernel:
    """The projection form of the layer against the full cascade."""

    @pytest.mark.parametrize(
        "spatial,levels",
        [
            ((64,), 3), ((128,), 3), ((1024,), 3),  # dyadic
            ((85,), 3), ((100,), 3),  # padded
            ((128,), 4), ((170,), 4),  # levels + 1 on the 2n grid
            ((32, 32), 3), ((64, 64), 3), ((64, 64), 4),
            ((34, 34), 2), ((34, 20), 2), ((68, 68), 3),  # padded 2D
        ],
        ids=lambda p: "x".join(map(str, p)) if isinstance(p, tuple) else f"L{p}",
    )
    def test_matches_packed_cascade(self, spatial, levels):
        gen = SeededRng(40).generator()
        v = gen.standard_normal((2, int(np.prod(spatial)), 4))
        r = gen.standard_normal((math.prod(-(-n >> levels) for n in spatial), 4, 4))
        pairs = [wv.lowpass_pair("db6", n, levels) for n in spatial]
        got = no._wavelet_kernel(ad.constant(v), ad.constant(r), pairs)
        want = cascade_layer(v, r, "db6", levels, spatial)
        assert np.max(np.abs(got.value - want)) < 1e-12

    def test_non_dyadic_2d_grid_trains_and_transfers(self):
        cfg = no.WnoConfig(grid=GridSpec((34, 34)), width=4, layers=1)
        model = no.WnoModel.initialize(cfg, SeededRng(41))
        x = SeededRng(42).generator().standard_normal((2, 34, 34))
        no.train(model, x, x, no.LossConfig("l2"), 1, 2, SeededRng(43))
        assert model.predict(x).shape == (2, 34, 34)
        assert model.predict(np.zeros((1, 68, 68))).shape == (1, 68, 68)


class TestVsnForward:
    """The single-step spiking activation as the network applies it."""

    def test_immediate_spike(self):
        out, gate = ad.vsn(ad.constant(np.array([[2.0]])), ad.constant(np.array([1.0])))
        assert gate.value[0, 0] == 1.0
        expected, _ = one_shot_gelu(np.array(2.0))
        assert abs(out.value[0, 0] - expected) < 1e-15

    def test_zero_input_silent(self):
        out, gate = ad.vsn(ad.constant(np.zeros((4, 3))), ad.constant(np.full(3, 0.5)))
        assert np.array_equal(gate.value, np.zeros((4, 3)))
        assert np.array_equal(out.value, np.zeros((4, 3)))

    def test_matches_hand_stepped_oracle(self):
        gen = SeededRng(12).generator()
        for _ in range(50):
            batch = int(gen.integers(1, 6))
            width = int(gen.integers(1, 4))
            th = gen.uniform(-0.5, 1.5, width)
            z = gen.standard_normal((batch, width)) * 2.0
            out, gate = ad.vsn(ad.constant(z), ad.constant(th))
            # independent scalar re-implementation: the membrane starts at
            # zero, so after one step it equals the input
            for b in range(batch):
                for c in range(width):
                    fired = z[b, c] >= th[c]
                    ref = one_shot_gelu(np.array(z[b, c]))[0] if fired else 0.0
                    assert gate.value[b, c] == float(fired)
                    assert out.value[b, c] == pytest.approx(float(ref), abs=0.0)

    def test_surrogate_grad_contract(self):
        _, gate = ad.vsn(ad.constant(np.array([[1.0, 0.1]])), ad.constant(np.array([1.0, 0.0])))
        surr = gate.grad_fns[0](np.ones((1, 2)))[0]
        assert surr[0] == pytest.approx(2.5)
        assert surr[1] == pytest.approx(1.9661, abs=1e-3)


class TestSpikingActivity:
    def test_high_threshold_silences(self):
        model = no.WnoModel.initialize(small_config(activation="vsn"), SeededRng(13))
        for i in range(model.config.layers):
            model.params[f"layer{i}.th"].value[...] = 1e6
        x = SeededRng(14).generator().standard_normal((3, 64))
        assert np.array_equal(no.spiking_activity(model, x), np.zeros(2))

    def test_very_low_threshold_saturates(self):
        model = no.WnoModel.initialize(small_config(activation="vsn"), SeededRng(15))
        for i in range(model.config.layers):
            model.params[f"layer{i}.th"].value[...] = -1e6
        x = np.abs(SeededRng(16).generator().standard_normal((3, 64))) + 0.1
        assert np.array_equal(no.spiking_activity(model, x), np.full(2, 100.0))

    def test_matches_recount_oracle(self):
        model = no.WnoModel.initialize(small_config(activation="vsn"), SeededRng(17))
        x = SeededRng(18).generator().standard_normal((5, 64))
        reported = no.spiking_activity(model, x)
        gates = []
        model.forward_nodes(x, gates.append)
        recounted = [
            100.0 * np.count_nonzero(g.value) / g.value.size for g in gates
        ]
        assert np.allclose(reported, recounted, atol=1e-12)

    def test_runs_no_head(self, monkeypatch):
        # the rates need each layer's gate sums only, and do not move
        model = no.WnoModel.initialize(small_config(activation="vsn"), SeededRng(17))
        x = SeededRng(18).generator().standard_normal((5, 64))
        want = no.spiking_activity(model, x)

        def no_head(*args, **kwargs):
            raise AssertionError("spiking_activity ran the head")

        monkeypatch.setattr(ad, "projection", no_head)
        assert np.array_equal(no.spiking_activity(model, x), want)

    def test_rejects_non_spiking(self):
        model = no.WnoModel.initialize(small_config(), SeededRng(19))
        with pytest.raises(no.NonSpikingModelError):
            no.spiking_activity(model, np.zeros((1, 64)))


def pinball_oracle(pred, truth, eta):
    """Normwise quantile loss of one sample: eta-weighted when ||truth|| >= ||pred||."""
    w = eta if np.linalg.norm(truth) >= np.linalg.norm(pred) else 1.0 - eta
    return w * np.linalg.norm(truth - pred)


def pinball_loss(pred, truth, eta):
    """The training loss of (B, n) predictions: the batch mean of the per-sample loss."""
    return no._loss(pred[..., None], [], truth, no.LossConfig("pinball", eta), 1.0)[0]


def loss_node(pred, gates, target, cfg, share):
    """`no._loss` as a scalar node whose gradient closures return its cotangents.

    pred's cotangent stacks `no._cotangents`' per-sample ones; the gates'
    are `no._loss`'s seeds.
    """
    value, seeds = no._loss(pred.value, gates, target, cfg, share)
    cotangent = no._cotangents(target, cfg, share)
    pred_g = np.concatenate([cotangent(i, pred.value[i : i + 1]) for i in range(len(target))])
    nodes, cotangents = zip((pred, pred_g), *seeds)
    return ad.Node(value, nodes, [lambda g, c=c: g * c for c in cotangents])


class TestLosses:
    @pytest.mark.parametrize("cfg", [
        no.LossConfig("l2"), no.LossConfig("pinball", eta=0.8),
        no.LossConfig("slf", alpha_w=1.5, beta_w=0.3),
    ])
    def test_cotangents_match_central_differences(self, cfg):
        # at a chunk share of 3/8; the pinball batch has samples on both
        # sides of ||y|| = ||p||, and slf seeds the prediction and each gate
        gen = SeededRng(39).generator()
        pred = ad.Parameter(gen.standard_normal((4, 8, 1)), "pred")
        target = gen.standard_normal((4, 8)) * np.array([3.0, 3.0, 0.3, 0.3])[:, None]
        gates = [ad.Parameter(gen.uniform(size=(4, 8, 3)), f"gate{i}") for i in range(2)]
        above = np.linalg.norm(target, axis=1) >= np.linalg.norm(pred.value[..., 0], axis=1)
        assert above.any() and not above.all()
        params = [pred] + (gates if cfg.kind == "slf" else [])
        assert [node for node, _ in no._loss(pred.value, gates, target, cfg, 0.375)[1]] == (
            params[1:])
        errors = grad_check(lambda: loss_node(pred, gates, target, cfg, 0.375), params,
                            samples=96)
        assert set(errors) == {p.name for p in params} and max(errors.values()) < 1e-6

    def test_pinball_half_is_half_gap_norm(self):
        gen = SeededRng(20).generator()
        y, p = gen.standard_normal((2, 1, 32))
        expected = 0.5 * np.linalg.norm(y - p)
        assert pinball_loss(p, y, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_pinball_branches(self):
        y = np.array([[2.0]])  # \|y\| > \|p\|
        p = np.array([[1.0]])
        assert pinball_loss(p, y, 0.9) == pytest.approx(0.9)
        assert pinball_loss(y, p, 0.9) == pytest.approx(0.1)
        # a batch weights each sample by its own branch
        gen = SeededRng(22).generator()
        y, p = gen.standard_normal((2, 6, 16))
        expected = np.mean([pinball_oracle(a, b, 0.9) for a, b in zip(p, y)])
        assert pinball_loss(p, y, 0.9) == pytest.approx(expected, rel=1e-12)

    def test_pinball_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            no.LossConfig("pinball", eta=1.5)

    def test_slf_reduces_to_base(self):
        # the training objective: alpha * mse + beta * mean spike rate
        gen = SeededRng(38).generator()
        pred = gen.standard_normal((2, 8, 1))
        target = gen.standard_normal((2, 8))
        gate = ad.constant((gen.standard_normal((2, 8, 3)) > 0).astype(np.float64))
        mse = float(np.mean((pred[..., 0] - target) ** 2))
        rate = float(np.mean(gate.value))
        base, _ = no._loss(pred, [gate], target, no.LossConfig("slf", alpha_w=1.0), 1.0)
        assert base == pytest.approx(mse, rel=1e-12)
        mixed, _ = no._loss(
            pred, [gate], target, no.LossConfig("slf", alpha_w=2.0, beta_w=0.5), 0.25
        )
        assert mixed == pytest.approx(0.25 * (2.0 * mse + 0.5 * rate), rel=1e-12)

    def test_l2_is_mse(self):
        pred = np.zeros((1, 4, 1))
        loss, _ = no._loss(pred, [], np.full((1, 4), 2.0), no.LossConfig("l2"), 1.0)
        assert loss == pytest.approx(4.0)

    @pytest.mark.parametrize("eta", [0.025, 0.5, 0.975])
    def test_constant_pinball_minimizer_is_quantile(self, eta):
        # positive draws make the norm comparison equivalent to the usual
        # sign comparison, so the minimizer must be the empirical quantile
        gen = SeededRng(21).generator()
        draws = gen.uniform(1.0, 3.0, 1000)
        order = np.sort(draws)
        losses = [pinball_loss(np.full((1000, 1), c), draws[:, None], eta) for c in order]
        c_star = order[int(np.argmin(losses))]
        k = int(np.ceil(eta * 1000)) - 1
        k = min(max(k, 0), 999)
        lo = order[max(k - 1, 0)]
        hi = order[min(k + 1, 999)]
        assert lo <= c_star <= hi


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = ad.Parameter(np.array([1.0, 2.0]), "p")
        before = p.value.copy()
        no.adam_step([p], no.AdamState(), lr=0.1)
        assert np.array_equal(p.value, before)

    def test_first_step_magnitude_close_to_lr(self):
        p = ad.Parameter(np.array([1.0]), "p")
        p.grad[...] = 0.5
        no.adam_step([p], no.AdamState(), lr=0.01)
        assert abs((1.0 - p.value[0]) - 0.01) < 1e-6

    def test_quadratic_matches_reference_oracle(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p = ad.Parameter(np.array([0.0]), "p")
        state = no.AdamState()
        # independent scalar reimplementation
        x_ref, m_ref, v_ref = 0.0, 0.0, 0.0
        for t in range(1, 51):
            g = 2.0 * (p.value[0] - 3.0)
            p.zero_grad()
            p.grad[...] = g
            no.adam_step([p], state, lr=lr, beta1=b1, beta2=b2, eps=eps)
            g_ref = 2.0 * (x_ref - 3.0)
            m_ref = b1 * m_ref + (1 - b1) * g_ref
            v_ref = b2 * v_ref + (1 - b2) * g_ref * g_ref
            x_ref -= lr * (m_ref / (1 - b1**t)) / (np.sqrt(v_ref / (1 - b2**t)) + eps)
            assert p.value[0] == pytest.approx(x_ref, abs=1e-12)
        assert abs(p.value[0] - 3.0) < 0.5


class TestTraining:
    def test_overfit_single_sample(self):
        model = no.WnoModel.initialize(small_config(), SeededRng(22))
        x = SeededRng(23).generator().standard_normal((1, 64))
        y = np.cos(2 * np.pi * np.arange(64) / 64)[None, :] * 0.4
        trace = no.train(model, x, y, no.LossConfig("l2"), 500, 1, SeededRng(24), lr=2e-3)
        assert trace[-1] < 1e-4

    def test_zero_epochs_no_change(self):
        model = no.WnoModel.initialize(small_config(), SeededRng(25))
        before = parameter_vector(model)
        trace = no.train(
            model, np.zeros((2, 64)), np.zeros((2, 64)), no.LossConfig("l2"), 0, 2,
            SeededRng(26),
        )
        assert trace == []
        assert np.array_equal(parameter_vector(model), before)

    def test_deterministic_given_seed(self):
        def run():
            model = no.WnoModel.initialize(small_config(), SeededRng(27))
            x = SeededRng(28).generator().standard_normal((6, 64))
            y = SeededRng(29).generator().standard_normal((6, 64)) * 0.1
            trace = no.train(model, x, y, no.LossConfig("l2"), 5, 3, SeededRng(30))
            return trace, parameter_vector(model)

        t1, v1 = run()
        t2, v2 = run()
        assert t1 == t2
        assert np.array_equal(v1, v2)

    def test_empty_dataset_rejected(self):
        model = no.WnoModel.initialize(small_config(), SeededRng(31))
        with pytest.raises(ValueError):
            no.train(model, np.zeros((0, 64)), np.zeros((0, 64)),
                     no.LossConfig("l2"), 1, 1, SeededRng(32))

    def test_divergence_aborts_with_diagnostic(self):
        model = no.WnoModel.initialize(small_config(), SeededRng(33))
        x = SeededRng(34).generator().standard_normal((2, 64))
        y = np.full((2, 64), np.nan)
        with pytest.raises(no.TrainingDiverged, match="epoch 0"):
            no.train(model, x, y, no.LossConfig("l2"), 1, 2, SeededRng(35))

    def test_one_step_graph_live_at_a_time(self):
        # two steps peak no higher than one: the backward frees step i's
        # graph before step i + 1 builds its own
        cfg = no.WnoConfig(grid=GridSpec((1024,)))
        gen = SeededRng(42).generator()
        x = gen.standard_normal((16, 1024))
        y = 0.5 * x

        def peak(count):
            model = no.WnoModel.initialize(cfg, SeededRng(43))
            tracemalloc.start()
            try:
                no.train(model, x[:count], y[:count], no.LossConfig("l2"), 1, 8, SeededRng(44))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, two = peak(8), peak(16)
        assert two <= 1.05 * one, (one, two)


class TestChunkedStep:
    """A step runs on chunks of the batch and sums their gradients."""

    @pytest.mark.parametrize("activation, loss", [
        ("gelu", no.LossConfig("l2")),
        ("gelu", no.LossConfig("pinball", eta=0.1)),
        ("vsn", no.LossConfig("slf", alpha_w=1.0, beta_w=0.1)),
    ])
    def test_chunks_match_one_chunk(self, monkeypatch, activation, loss):
        # batches of 5 and 2 samples; chunks of 2 samples split them 2 + 2 + 1 and 2
        gen = SeededRng(70).generator()
        x = gen.standard_normal((7, 64))
        y = 0.5 * np.roll(x, 3, axis=1) + 0.1
        sizes = []
        forward = no.WnoModel.forward_nodes

        def counted(self, inputs, *args):
            sizes.append(len(inputs))
            return forward(self, inputs, *args)

        monkeypatch.setattr(no.WnoModel, "forward_nodes", counted)

        def run(points):
            monkeypatch.setattr(no, "CHUNK_POINTS", points)
            sizes.clear()
            model = no.WnoModel.initialize(small_config(activation=activation), SeededRng(71))
            trace = no.train(model, x, y, loss, 3, 5, SeededRng(72))
            return parameter_vector(model), np.array(trace), list(sizes)

        w1, t1, one = run(1 << 20)
        w2, t2, chunked = run(2 * 64)
        assert one == [5, 2] * 3 and chunked == [2, 2, 1, 2] * 3
        assert not np.array_equal(w1, w2)  # the sums' order did change
        assert np.max(np.abs(w2 - w1)) <= 1e-12 * np.max(np.abs(w1))
        assert np.max(np.abs(t2 - t1)) <= 1e-12 * np.max(np.abs(t1))

    def test_peak_does_not_grow_with_the_batch(self):
        # a 1024-point grid runs 4 samples per chunk; whole batches peaked
        # about four times higher at 32 samples than at 8
        cfg = no.WnoConfig(grid=GridSpec((1024,)))
        gen = SeededRng(73).generator()
        x = gen.standard_normal((32, 1024))
        y = 0.5 * x

        def peak(batch):
            model = no.WnoModel.initialize(cfg, SeededRng(74))
            tracemalloc.start()
            try:
                no.train(model, x[:batch], y[:batch], no.LossConfig("l2"), 1, batch,
                         SeededRng(75))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(8)  # builds the cached wavelet pair outside the comparison
        small, large = peak(8), peak(32)
        assert large <= 1.1 * small, (small, large)


class TestStepMemory:
    """A training step keeps only the arrays that its gradient closures read."""

    @pytest.mark.parametrize("spatial", [(32, 32), (1024,)])
    def test_step_peaks_below_three_hidden_arrays(self, spatial):
        # the head keeps one sample's (N, proj_hidden) cdf and works block
        # by block otherwise; the layers keep width-16 arrays. Keeping the
        # head's gelu input and gradient for the batch too read 4.4 arrays.
        model = no.WnoModel.initialize(no.WnoConfig(grid=GridSpec(spatial)), SeededRng(60))
        x, y = SeededRng(61).generator().standard_normal((2, 20) + spatial)

        def step():
            model.zero_grads()
            features = model.forward_nodes(x)
            _, seeds = model.head(features, no._cotangents(y, no.LossConfig("l2"), 1.0))
            ad.backward(*zip(*seeds))

        step()  # builds the cached wavelet pairs outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        hidden = x.size * model.config.proj_hidden * 8
        assert peak < 3 * hidden, peak / hidden

    def test_step_holds_no_chunk_hidden_array(self):
        # a 1024-point grid trains on chunks of 4 samples. What the peak
        # gains per extra head unit is the hidden rows held at once: one
        # sample's cdf and two block buffers, 1024 + 2 * 512 rows. Keeping
        # the chunk's cdf for a backward after the loss held 4 * 1024 rows
        # and more (the peak grew by 1.29 such arrays).
        gen = SeededRng(76).generator()
        x = gen.standard_normal((8, 1024))

        def peak(hidden):
            cfg = no.WnoConfig(grid=GridSpec((1024,)), proj_hidden=hidden)
            model = no.WnoModel.initialize(cfg, SeededRng(77))
            tracemalloc.start()
            try:
                no.train(model, x, 0.5 * x, no.LossConfig("l2"), 1, 8, SeededRng(78))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(128)  # builds the cached wavelet pair outside the comparison
        growth = peak(384) - peak(128)
        chunk_hidden = no.CHUNK_POINTS * (384 - 128) * 8
        assert growth < chunk_hidden, growth / chunk_hidden

    def test_outputs_stay_readable_and_interior_values_raise(self):
        # no node of the graph holds a readable (B, N, proj_hidden) value,
        # before or after the backward, and the layer sums' inputs raise
        model = no.WnoModel.initialize(small_config(activation="vsn"), SeededRng(62))
        x, y = SeededRng(63).generator().standard_normal((2, 3, 64))
        cfg, gates = no.LossConfig("slf", beta_w=0.1), []
        features = model.forward_nodes(x, gates.append)
        pred, seeds = model.head(features, no._cotangents(y, cfg, 1.0))
        seeds += no._loss(pred, gates, y, cfg, 1.0)[1]
        nodes, stack = {}, [features]
        while stack:  # the graph's nodes, parameters left out
            node = stack.pop()
            if id(node) not in nodes and not isinstance(node, ad.Parameter):
                nodes[id(node)] = node
                stack.extend(node.parents)
        biases = {model.params[f"layer{i}.b"] for i in range(model.config.layers)}
        released = [p for n in nodes.values() if n.parents and n.parents[-1] in biases
                    for p in n.parents[:2]]

        def hidden_values():
            count = 0
            for node in nodes.values():
                try:
                    count += node.value.shape[-1:] == (model.config.proj_hidden,)
                except ad.GraphError:
                    pass
            return count

        assert len(released) == 2 * model.config.layers and hidden_values() == 0
        want = [features.value.copy()] + [g.value.copy() for g in gates]
        ad.backward(*zip(*seeds))
        got = [features.value] + [g.value for g in gates]
        assert len(got) == 3 and all(np.array_equal(a, b) for a, b in zip(got, want))
        assert hidden_values() == 0
        for node in released:
            with pytest.raises(ad.GraphError):
                node.value


class TestTrainingBlasThreads:
    """train pins every OpenBLAS to one thread and puts the old counts back."""

    def test_pinned_while_training_and_restored(self, blas_at_two, monkeypatch):
        controls, before = blas_at_two
        seen = []
        step = no.adam_step
        monkeypatch.setattr(no, "adam_step", lambda *a, **k: (
            seen.append([get() for get, _ in controls]), step(*a, **k))[1])
        model = no.WnoModel.initialize(small_config(), SeededRng(36))
        x = SeededRng(37).generator().standard_normal((4, 64))
        no.train(model, x, 0.5 * x, no.LossConfig("l2"), 2, 2, SeededRng(38))
        assert len(seen) == 4 and all(s == [1] * len(controls) for s in seen)
        assert [get() for get, _ in controls] == before

    def test_restored_after_divergence(self, blas_at_two):
        controls, before = blas_at_two
        model = no.WnoModel.initialize(small_config(), SeededRng(39))
        x = SeededRng(40).generator().standard_normal((2, 64))
        with pytest.raises(no.TrainingDiverged):
            no.train(model, x, np.full((2, 64), np.nan), no.LossConfig("l2"), 1, 2,
                     SeededRng(41))
        assert [get() for get, _ in controls] == before


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = small_config(activation="vsn", width=6, proj_hidden=13, normalize=True)
        model = no.WnoModel.initialize(cfg, SeededRng(36))
        model.norm = no.NormStats(0.1, 2.0, -0.3, 1.7)
        path = tmp_path / "model.ckpt"
        no.save_model(model, path)
        loaded = no.load_model(path)
        assert loaded.config == cfg
        assert loaded.norm == model.norm
        assert np.array_equal(parameter_vector(loaded), parameter_vector(model))
        x = SeededRng(37).generator().standard_normal((2, 64))
        assert np.array_equal(loaded.predict(x), model.predict(x))

    @pytest.mark.parametrize("spatial", [(64,), (16, 16)])
    def test_config_roundtrips(self, tmp_path, spatial):
        # normalize is stored as whether the checkpoint holds statistics
        for normalize in (False, True):
            cfg = no.WnoConfig(grid=GridSpec(spatial), width=4, layers=1, normalize=normalize)
            model = no.WnoModel.initialize(cfg, SeededRng(38))
            if normalize:
                x = SeededRng(39).generator().standard_normal((2,) + spatial)
                model.set_normalization(x, 2.0 * x)
            no.save_model(model, tmp_path / "model.ckpt")
            assert no.load_model(tmp_path / "model.ckpt").config == cfg

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        from opcert.serialio import FormatError

        with pytest.raises(FormatError):
            no.load_model(path)


class TestChunkedPredict:
    """predict runs the forward on bounded sample chunks, bit-identical to one pass."""

    @pytest.mark.parametrize(
        "spatial,batch,normalize",
        [((128,), 50, False), ((1024,), 5, False), ((1024,), 21, False), ((32, 32), 21, True)],
    )
    def test_equals_one_shot_forward(self, monkeypatch, spatial, batch, normalize):
        cfg = no.WnoConfig(grid=GridSpec(spatial), normalize=normalize)
        model = no.WnoModel.initialize(cfg, SeededRng(50))
        gen = SeededRng(51).generator()
        for name, par in model.params.items():
            if name.endswith(".b"):  # biases start at zero
                par.value += 0.1 * gen.standard_normal(par.value.shape)
        x = gen.standard_normal((batch,) + spatial)
        if normalize:
            model.set_normalization(x, 2.0 * x + 1.0)
        out, _ = model.head(model.forward_nodes(x))
        want = out[..., 0].reshape(x.shape)
        if normalize:
            want = want * model.norm.out_std + model.norm.out_mean

        chunks = []
        forward = no.WnoModel.forward_nodes

        def counted(self, inputs, *args):
            chunks.append(len(inputs))
            return forward(self, inputs, *args)

        monkeypatch.setattr(no.WnoModel, "forward_nodes", counted)
        got = model.predict(x)
        step = max(1, no.CHUNK_POINTS // int(np.prod(spatial)))
        assert chunks == [min(step, batch - s) for s in range(0, batch, step)]
        assert len(chunks) > 1
        assert np.array_equal(got, want)

    def test_empty_batch_keeps_its_shape(self):
        model = no.WnoModel.initialize(small_config(), SeededRng(56))
        assert model.predict(np.empty((0, 64))).shape == (0, 64)

    def test_spiking_activity_runs_on_chunks(self, monkeypatch):
        # spike counts are exact, so the chunked percentages are the one-shot ones
        model = no.WnoModel.initialize(small_config(activation="vsn"), SeededRng(52))
        x = SeededRng(53).generator().standard_normal((150, 64))
        gates = []
        model.forward_nodes(x, gates.append)
        want = np.array([100.0 * float(np.mean(g.value)) for g in gates])
        assert np.all((want > 0.0) & (want < 100.0))
        chunks = []
        forward = no.WnoModel.forward_nodes

        def counted(self, inputs, *args):
            chunks.append(len(inputs))
            return forward(self, inputs, *args)

        monkeypatch.setattr(no.WnoModel, "forward_nodes", counted)
        got = no.spiking_activity(model, x)
        assert chunks == [64, 64, 22]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("activation,run", [("gelu", no.WnoModel.predict),
                                                ("vsn", no.spiking_activity)],
                             ids=["predict", "spiking_activity"])
    def test_peak_below_one_hidden_array(self, activation, run):
        # no graph is recorded, so no chunk keeps a (chunk, N, proj_hidden)
        # cdf or any closure's arrays; a recorded forward peaked at 9.5 MB
        # (gelu) and 12.4 MB (vsn) here
        cfg = no.WnoConfig(grid=GridSpec((64,)), activation=activation, proj_hidden=128)
        model = no.WnoModel.initialize(cfg, SeededRng(54))
        x = SeededRng(55).generator().standard_normal((3 * 64, 64))  # 3 chunks
        run(model, x[:1])  # builds the cached wavelet pair outside the measurement
        tracemalloc.start()
        try:
            run(model, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < no.CHUNK_POINTS * cfg.proj_hidden * 8, peak

    def test_vsn_peak_is_the_gelu_peak(self):
        # no gate outlives its layer, so a vsn predict holds the arrays of a
        # gelu one. Keeping every layer's (chunk, N, width) gate to the end
        # of the chunk peaked 1.0 MB higher here, two such arrays; the slack
        # is half of one, for vsn's boolean threshold compare and the like.
        def peak(activation):
            cfg = no.WnoConfig(grid=GridSpec((64,)), activation=activation)
            model = no.WnoModel.initialize(cfg, SeededRng(54))
            x = SeededRng(55).generator().standard_normal((3 * 64, 64))  # 3 chunks
            model.predict(x[:1])  # builds the cached wavelet pair outside the trace
            tracemalloc.start()
            try:
                model.predict(x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        slack = no.CHUNK_POINTS * 16 * 8 // 2
        assert peak("vsn") <= peak("gelu") + slack, (peak("vsn"), peak("gelu"))


class TestInferenceScope:
    """Inference's `ad.no_graph` scope holds for the thread that entered it."""

    def test_training_on_another_thread_still_records(self):
        # the scope is thread-local: while a second thread holds it open, a
        # forward and backward here fill every gradient as with no thread
        model = no.WnoModel.initialize(small_config(activation="vsn"), SeededRng(57))
        gen = SeededRng(58).generator()
        x = gen.standard_normal((3, 64))
        g = gen.standard_normal((3, 64, 1))

        def gradients():
            model.zero_grads()
            _, seeds = model.head(model.forward_nodes(x), lambda i, out_i: g[i : i + 1])
            ad.backward(*zip(*seeds))
            return {name: par.grad.copy() for name, par in model.params.items()}

        want = gradients()
        entered, leave = threading.Event(), threading.Event()

        def hold():
            with ad.no_graph():
                entered.set()
                leave.wait(10.0)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert entered.wait(10.0)
            got = gradients()
        finally:
            leave.set()
            holder.join()
        assert all(want[name].any() for name in want)
        assert all(np.array_equal(got[name], want[name]) for name in want)
