import hashlib
import sys
import threading
import time

import numpy as np
import pytest

from opcert import core
from opcert import ensemble as ens
from opcert import neuralop as no
from opcert import wavelet as wv
from opcert.core import GridSpec, SeededRng


def tiny_config(**kwargs):
    defaults = dict(grid=GridSpec((32,)), width=4, layers=2, wavelet="db4")
    defaults.update(kwargs)
    return no.WnoConfig(**defaults)


def param_hash(model):
    digest = hashlib.sha256()
    for name in sorted(model.params):
        digest.update(model.params[name].value.tobytes())
    return digest.hexdigest()


class FakeMember:
    """Member stand-in with a fixed prediction, for the statistics contract."""

    def __init__(self, value):
        self.value = value

    def predict(self, inputs, prior_weight):
        return np.full(np.asarray(inputs).shape, self.value)


def fake_ensemble(values):
    return ens.RpEnsemble([FakeMember(v) for v in values], 1.0)


class TestPredictStatistics:
    def test_two_point_population_std(self):
        mean, spread = ens.rp_predict(fake_ensemble([1.0, 3.0]), np.zeros((1, 4)))
        assert np.all(mean == 2.0)
        assert np.all(spread == 1.0)

    def test_identical_members_zero_spread(self):
        mean, spread = ens.rp_predict(fake_ensemble([2.5, 2.5, 2.5]), np.zeros((1, 4)))
        assert np.all(spread == 0.0)

    def test_matches_direct_formula(self):
        gen = SeededRng(0).generator()
        values = gen.standard_normal(10)
        mean, spread = ens.rp_predict(fake_ensemble(values), np.zeros((1, 1)))
        assert abs(mean[0, 0] - values.mean()) < 1e-12
        expected = np.sqrt(np.mean(values**2) - values.mean() ** 2)
        assert abs(spread[0, 0] - expected) < 1e-12

    def test_shared_offset_translation(self):
        gen = SeededRng(1).generator()
        values = gen.standard_normal(6)
        m0, s0 = ens.rp_predict(fake_ensemble(values), np.zeros((1, 2)))
        m1, s1 = ens.rp_predict(fake_ensemble(values + 5.0), np.zeros((1, 2)))
        assert np.allclose(m1 - m0, 5.0)
        assert np.allclose(s0, s1)


class TestInitialBand:
    def test_degenerate(self):
        band = ens.initial_band(np.ones(3), np.zeros(3))
        assert np.array_equal(band.lower, band.upper)

    def test_default_width(self):
        band = ens.initial_band(np.zeros(2), np.ones(2))
        assert np.allclose(band.lower, -1.96)
        assert np.allclose(band.upper, 1.96)

    def test_half_width_is_z_times_spread(self):
        gen = SeededRng(2).generator()
        mean = gen.standard_normal(16)
        spread = np.abs(gen.standard_normal(16))
        band = ens.initial_band(mean, spread, z=2.5)
        assert np.allclose(band.width, 2 * 2.5 * spread)

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError):
            ens.initial_band(np.zeros(2), np.array([1.0, -0.1]))


class TestTraining:
    @pytest.fixture(scope="class")
    def small_data(self):
        gen = SeededRng(3).generator()
        x = gen.standard_normal((6, 32))
        y = 0.5 * x + 0.1
        return x, y

    def test_zero_prior_weight_equals_trainable(self, small_data):
        x, y = small_data
        ensemble, _ = ens.rp_train(
            x, y, tiny_config(), n_c=2, prior_weight=0.0, rng=SeededRng(4),
            epochs=2, batch_size=3,
        )
        member = ensemble.members[0]
        assert np.array_equal(member.predict(x, 0.0), member.trainable.predict(x))

    def test_single_member_zero_spread(self, small_data):
        x, y = small_data
        ensemble, _ = ens.rp_train(
            x, y, tiny_config(), n_c=1, prior_weight=1.0, rng=SeededRng(5),
            epochs=1, batch_size=3,
        )
        _, spread = ens.rp_predict(ensemble, x)
        assert np.all(spread == 0.0)

    def test_priors_frozen_by_training(self, small_data):
        x, y = small_data
        rng = SeededRng(6)
        before = [
            param_hash(ens.build_member(tiny_config(), rng, k).prior)
            for k in range(2)
        ]
        ensemble, _ = ens.rp_train(
            x, y, tiny_config(), n_c=2, prior_weight=1.0, rng=rng,
            epochs=3, batch_size=3,
        )
        after = [param_hash(m.prior) for m in ensemble.members]
        assert before == after

    def test_member_independence_bit_exact(self, small_data):
        x, y = small_data
        solo, _ = ens.rp_train(
            x, y, tiny_config(), n_c=1, prior_weight=1.0, rng=SeededRng(7),
            epochs=3, batch_size=3,
        )
        duo, _ = ens.rp_train(
            x, y, tiny_config(), n_c=2, prior_weight=1.0, rng=SeededRng(7),
            epochs=3, batch_size=3,
        )
        assert param_hash(solo.members[0].trainable) == param_hash(duo.members[0].trainable)

    def test_overfit_two_members(self):
        gen = SeededRng(8).generator()
        x = gen.standard_normal((1, 32))
        y = np.sin(2 * np.pi * np.arange(32) / 32)[None, :] * 0.3
        ensemble, traces = ens.rp_train(
            x, y, tiny_config(width=8), n_c=2, prior_weight=1.0, rng=SeededRng(9),
            epochs=400, batch_size=1, lr=2e-3,
        )
        for member in ensemble.members:
            err = float(np.sqrt(np.mean((member.predict(x, 1.0) - y) ** 2)))
            assert err < 10 * np.sqrt(1e-4)

    def test_prior_architecture_is_shallow_continuous(self):
        cfg = tiny_config(layers=4, activation="vsn")
        pcfg = ens.prior_config(cfg)
        assert pcfg.layers == 2
        assert pcfg.activation == "gelu"

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            ens.rp_train(
                np.zeros((0, 32)), np.zeros((0, 32)), tiny_config(), 1, 1.0,
                SeededRng(10),
            )

    def test_bad_ensemble_size_rejected(self):
        with pytest.raises(ValueError):
            ens.rp_train(np.zeros((2, 32)), np.zeros((2, 32)), tiny_config(), 0,
                         1.0, SeededRng(11))

    def test_divergence_names_member(self, small_data):
        x, _ = small_data
        with pytest.raises(ens.EnsembleTrainingError, match="member 0"):
            ens.rp_train(
                x, np.full_like(x, np.nan), tiny_config(), n_c=2, prior_weight=1.0,
                rng=SeededRng(12), epochs=1, batch_size=3,
            )


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        gen = SeededRng(13).generator()
        x = gen.standard_normal((4, 32))
        y = 0.2 * x
        ensemble, _ = ens.rp_train(
            x, y, tiny_config(), n_c=2, prior_weight=0.7, rng=SeededRng(14),
            epochs=2, batch_size=2,
        )
        ens.save_ensemble(ensemble, tmp_path / "ens")
        loaded = ens.load_ensemble(tmp_path / "ens")
        assert loaded.size == 2
        assert loaded.prior_weight == 0.7
        mean0, spread0 = ens.rp_predict(ensemble, x)
        mean1, spread1 = ens.rp_predict(loaded, x)
        assert np.array_equal(mean0, mean1)
        assert np.array_equal(spread0, spread1)

    def test_the_ensemble_weight_is_the_one_applied_and_saved(self, tmp_path):
        # members carry no weight of their own, so an ensemble built from
        # members trained at 1.0 predicts, saves and reloads at its own 0.5
        gen = SeededRng(15).generator()
        x = gen.standard_normal((4, 32))
        trained, _ = ens.rp_train(x, 0.2 * x, tiny_config(), n_c=2, prior_weight=1.0,
                                  rng=SeededRng(16), epochs=1, batch_size=2)
        half = ens.RpEnsemble(trained.members, 0.5)
        assert all(m.prior.norm is None for m in half.members)
        preds = np.stack([m.trainable.predict(x) + 0.5 * m.prior.predict(x)
                          for m in half.members])
        mean, spread = ens.rp_predict(half, x)
        assert np.array_equal(mean, preds.mean(axis=0))
        assert not np.array_equal(mean, ens.rp_predict(trained, x)[0])
        ens.save_ensemble(half, tmp_path / "ens")
        loaded = ens.load_ensemble(tmp_path / "ens")
        assert loaded.prior_weight == 0.5
        for got, want in zip(ens.rp_predict(loaded, x), (mean, spread)):
            assert np.array_equal(got, want)


class TestMemberPool:
    """Members run one per core; the results must not depend on the worker count."""

    @pytest.mark.parametrize("normalize", [False, True])
    def test_train_and_predict_match_serial(self, monkeypatch, normalize):
        gen = SeededRng(15).generator()
        x = gen.standard_normal((6, 32))
        y = 0.5 * x + 0.1
        cfg = tiny_config(normalize=normalize)
        runs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(core, "_available_cpus", lambda cpus=cpus: cpus)
            ensemble, traces = ens.rp_train(
                x, y, cfg, n_c=3, prior_weight=1.0, rng=SeededRng(16),
                epochs=2, batch_size=3,
            )
            mean, spread = ens.rp_predict(ensemble, x)
            runs[cpus] = ([param_hash(m.trainable) for m in ensemble.members], traces,
                          mean, spread)
        (h1, t1, m1, s1), (h2, t2, m2, s2) = runs[1], runs[2]
        assert h1 == h2 and t1 == t2
        assert np.array_equal(m1, m2) and np.array_equal(s1, s2)

    def test_divergence_names_the_lowest_diverged_member(self, monkeypatch):
        # members 1 and 2 diverge on the pool, member 2 first; the error names 1
        train = no.train

        def diverging(model, inputs, targets, loss, epochs, batch, rng, lr):
            k = (rng.stream - ens._BATCH_OFF) // ens._MEMBER_BLOCK
            if k == 1:
                time.sleep(0.2)
            if k > 0:
                raise no.TrainingDiverged(f"non-finite loss at epoch 0, batch {k}")
            return train(model, inputs, targets, loss, epochs, batch, rng, lr=lr)

        monkeypatch.setattr(no, "train", diverging)
        monkeypatch.setattr(core, "_available_cpus", lambda: 3)
        x = SeededRng(19).generator().standard_normal((4, 32))
        with pytest.raises(ens.EnsembleTrainingError, match="member 1 diverged: .*batch 1"):
            ens.rp_train(x, 0.5 * x, tiny_config(), n_c=3, prior_weight=1.0,
                         rng=SeededRng(0), epochs=1, batch_size=2)

    def test_more_threads_than_cores_match_serial(self, monkeypatch):
        # six threads with frequent switches, filling the wavelet cache concurrently
        cfg = tiny_config(grid=GridSpec((64,)))
        ensemble = ens.RpEnsemble(
            [ens.build_member(cfg, SeededRng(17), k) for k in range(6)], 1.0
        )
        x = SeededRng(18).generator().standard_normal((5, 64))
        monkeypatch.setattr(core, "_available_cpus", lambda: 1)
        serial = ens.rp_predict(ensemble, x)
        monkeypatch.setattr(core, "_available_cpus", lambda: 6)
        wv.lowpass_pair.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = ens.rp_predict(ensemble, x)
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(serial, pooled))


class TestTwoCoreTraining:
    """Members train one per core, bit for bit as serially."""

    @staticmethod
    def data():
        gen = SeededRng(60).generator()
        x = gen.standard_normal((7, 1024))
        return x, 0.5 * np.roll(x, 3, axis=1) + 0.1

    @pytest.mark.parametrize("activation, loss", [
        ("gelu", no.LossConfig("l2")),
        ("vsn", no.LossConfig("slf", alpha_w=1.0, beta_w=0.1)),
    ])
    def test_rp_train_matches_one_cpu(self, on_cpus, monkeypatch, activation, loss):
        if not core._blas_thread_controls():
            pytest.skip("no OpenBLAS thread setter: members would train serially")
        x, y = self.data()
        cfg = tiny_config(grid=GridSpec((1024,)), width=16, layers=2,
                          wavelet="db6", activation=activation, normalize=True)
        on_main = []
        train = no.train
        monkeypatch.setattr(no, "train", lambda *a, **k: (
            on_main.append(threading.current_thread() is threading.main_thread()),
            train(*a, **k))[1])

        def run():
            on_main.clear()
            ensemble, traces = ens.rp_train(x, y, cfg, n_c=2, prior_weight=1.0,
                                            rng=SeededRng(61), loss_config=loss,
                                            epochs=2, batch_size=5)
            return [param_hash(m.trainable) for m in ensemble.members], traces, list(on_main)

        h1, t1, serial = on_cpus(1, run)
        h2, t2, pooled = on_cpus(2, run)
        # on two CPUs both members train on pool threads
        assert serial == [True, True] and pooled == [False, False]
        assert h1 == h2 and t1 == t2
