import tracemalloc

import numpy as np
import pytest

from opcert import autodiff as ad
from opcert import neuralop as no
from opcert import wavelet as wv
from opcert.core import GridError, GridSpec, SeededRng

import wavelet_oracle as wo


def small_config(**kwargs):
    defaults = dict(grid=GridSpec((64,)), width=8, layers=2, levels=2, wavelet="db6")
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
            grid=GridSpec((16,)), width=4, layers=2, levels=2,
            wavelet="db4", activation="identity", proj_hidden=5,
        )
        model = no.WnoModel.initialize(cfg, SeededRng(6))
        for i in range(cfg.layers):
            model.params[f"layer{i}.r"].value[...] = np.eye(4)
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
        model = no.WnoModel.initialize(small_config(), SeededRng(8))
        with pytest.raises(GridError):
            model.predict(np.zeros((1, 65)))
        with pytest.raises(GridError):
            model.predict(np.zeros((1, 96)))  # 1.5x is not dyadic

    def test_dyadic_refinement_accepted(self):
        model = no.WnoModel.initialize(small_config(), SeededRng(9))
        assert model.predict(np.zeros((1, 128))).shape == (1, 128)
        assert model.predict(np.zeros((1, 32))).shape == (1, 32)

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


def cascade_layer(v, r, filt, levels, spatial):
    """Wavelet part of a layer by the full packed cascade (oracle).

    Symmetric-pad each axis of v (B, prod(spatial), C) to a multiple of
    2^levels, transform, mix the approximation block with r, invert, crop.
    """
    b, _, ch = v.shape
    x = np.moveaxis(v.reshape((b,) + spatial + (ch,)), -1, 1)
    block = 1 << levels
    x = np.pad(x, [(0, 0), (0, 0)] + [(0, (-s) % block) for s in spatial], mode="symmetric")
    approx = (...,) + tuple(slice(0, s >> levels) for s in x.shape[2:])
    if len(spatial) == 1:
        c = wo.dwt_packed(x, filt, levels)
        c[approx] = np.einsum("bck,cd->bdk", c[approx], r)
        y = wo.idwt_packed(c, filt, levels)
    else:
        c = wo.dwt2d_packed(x, filt, levels)
        c[approx] = np.einsum("bchw,cd->bdhw", c[approx], r)
        y = wo.idwt2d_packed(c, filt, levels)
    y = y[(...,) + tuple(slice(0, s) for s in spatial)]
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
        filt = wv.get_filter("db6")
        v = gen.standard_normal((2, int(np.prod(spatial)), 4))
        r = gen.standard_normal((4, 4))
        got = no._wavelet_kernel(ad.constant(v), ad.constant(r), filt, levels, spatial)
        want = cascade_layer(v, r, filt, levels, spatial)
        assert np.max(np.abs(got.value - want)) < 1e-12

    def test_non_dyadic_2d_grid_trains_and_transfers(self):
        cfg = no.WnoConfig(grid=GridSpec((34, 34)), width=4, layers=1, levels=2)
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
        expected, _ = ad.gelu_value_grad(np.array(2.0))
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
                    ref = ad.gelu_value_grad(np.array(z[b, c]))[0] if fired else 0.0
                    assert gate.value[b, c] == float(fired)
                    assert out.value[b, c] == pytest.approx(float(ref), abs=0.0)

    def test_surrogate_grad_contract(self):
        _, gate = ad.vsn(ad.constant(np.array([[1.0, 0.1]])), ad.constant(np.array([1.0, 0.0])))
        surr = gate.grad_fns[0](np.ones((1, 2)))[0]
        assert surr[0] == pytest.approx(2.5)
        assert surr[1] == pytest.approx(1.9661, abs=1e-3)
        with pytest.raises(ValueError):
            small_config(activation="vsn", surrogate_slope=-1.0)


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
        _, gates = model.forward_nodes(x)
        recounted = [
            100.0 * np.count_nonzero(g.value) / g.value.size for g in gates
        ]
        assert np.allclose(reported, recounted, atol=1e-12)

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
    node = no._loss_node(ad.constant(pred[..., None]), [], truth, no.LossConfig("pinball", eta))
    return float(node.value)


class TestLosses:
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
        pred = ad.constant(gen.standard_normal((2, 8, 1)))
        target = gen.standard_normal((2, 8))
        gate = ad.constant((gen.standard_normal((2, 8, 3)) > 0).astype(np.float64))
        mse = float(np.mean((pred.value[..., 0] - target) ** 2))
        rate = float(np.mean(gate.value))
        base = no._loss_node(pred, [gate], target, no.LossConfig("slf", alpha_w=1.0))
        assert float(base.value) == pytest.approx(mse, rel=1e-12)
        mixed = no._loss_node(
            pred, [gate], target, no.LossConfig("slf", alpha_w=2.0, beta_w=0.5)
        )
        assert float(mixed.value) == pytest.approx(2.0 * mse + 0.5 * rate, rel=1e-12)

    def test_l2_is_mse(self):
        pred = ad.constant(np.zeros((1, 4, 1)))
        loss = no._loss_node(pred, [], np.full((1, 4), 2.0), no.LossConfig("l2"))
        assert float(loss.value) == pytest.approx(4.0)

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


class TestStepMemory:
    """A training step keeps only the arrays that its gradient closures read."""

    @pytest.mark.parametrize("spatial", [(32, 32), (1024,)])
    def test_step_peaks_below_five_hidden_arrays(self, spatial):
        # at the projection's gelu backward the step holds that gelu's input,
        # the cdf its gradient is written over and the incoming gradient
        model = no.WnoModel.initialize(no.WnoConfig(grid=GridSpec(spatial)), SeededRng(60))
        x, y = SeededRng(61).generator().standard_normal((2, 4) + spatial)

        def step():
            model.zero_grads()
            pred, gates = model.forward_nodes(x)
            ad.backward(no._loss_node(pred, gates, y, no.LossConfig("l2")))

        step()  # builds the cached wavelet pairs outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        hidden = x.size * model.config.proj_hidden * 8
        assert peak < 5 * hidden, peak / hidden

    def test_outputs_stay_readable_and_interior_values_raise(self):
        model = no.WnoModel.initialize(small_config(activation="vsn"), SeededRng(62))
        x, y = SeededRng(63).generator().standard_normal((2, 3, 64))
        pred, gates = model.forward_nodes(x)
        loss = no._loss_node(pred, gates, y, no.LossConfig("slf", beta_w=0.1))
        projection_gelu = pred.parents[0]
        proj1 = projection_gelu.parents[0]
        want = [pred.value.copy(), float(loss.value)] + [g.value.copy() for g in gates]
        ad.backward(loss)
        got = [pred.value, float(loss.value)] + [g.value for g in gates]
        assert len(got) == 4 and all(np.array_equal(a, b) for a, b in zip(got, want))
        for node in (projection_gelu, proj1):
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
        cfg = small_config(activation="vsn", width=6, proj_hidden=13)
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
        out, _ = model.forward_nodes(x)
        want = out.value[..., 0].reshape(x.shape)
        if normalize:
            want = want * model.norm.out_std + model.norm.out_mean

        chunks = []
        forward = no.WnoModel.forward_nodes

        def counted(self, inputs):
            chunks.append(len(inputs))
            return forward(self, inputs)

        monkeypatch.setattr(no.WnoModel, "forward_nodes", counted)
        got = model.predict(x)
        step = max(1, no.PREDICT_CHUNK_POINTS // int(np.prod(spatial)))
        assert chunks == [min(step, batch - s) for s in range(0, batch, step)]
        assert len(chunks) > 1
        assert np.array_equal(got, want)
