"""Gaussian timing model: densities, synthesis, and the transcription HMM."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import logsumexp

from rhythmscribe.core import RhythmScore
from rhythmscribe import forward
from rhythmscribe.models import (
    ModelConfig,
    build_state_space,
    random_params,
    uniform_params,
)
from rhythmscribe.timing import (
    Performance,
    PerformedCorpus,
    TimingParams,
    TranscriptionHmm,
    duration_log_density,
    synthesize,
)


class TestTimingParams:
    def test_bpm_conversion(self):
        tp = TimingParams.from_bpm(144.0, 0.02)
        assert tp.seconds_per_unit == pytest.approx(60.0 / (144.0 * 4.0))
        assert TimingParams.from_bpm(105.0, 0.02).seconds_per_unit == pytest.approx(
            0.1428571428571, abs=1e-10
        )
        assert tp.tempo_bpm == pytest.approx(144.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimingParams(seconds_per_unit=0.1, sigma_t=0.0)
        with pytest.raises(ValueError):
            TimingParams(seconds_per_unit=-0.1, sigma_t=0.02)
        with pytest.raises(ValueError):
            TimingParams.from_bpm(0.0, 0.02)
        TimingParams(seconds_per_unit=0.1, sigma_t=1e-9)  # tiny but positive is fine

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="seconds_per_unit"):
            TimingParams(seconds_per_unit=bad, sigma_t=0.02)
        with pytest.raises(ValueError, match="sigma_t"):
            TimingParams(seconds_per_unit=0.1, sigma_t=bad)
        with pytest.raises(ValueError, match="tempo_bpm must be positive and finite"):
            TimingParams.from_bpm(bad, 0.02)


class TestDensity:
    def test_peak_value(self):
        tp = TimingParams(seconds_per_unit=0.125, sigma_t=0.03)
        peak = duration_log_density(4, 4 * 0.125, tp)
        assert peak == pytest.approx(math.log(1.0 / (0.03 * math.sqrt(2 * math.pi))))

    def test_one_sigma_off_peak(self):
        tp = TimingParams(seconds_per_unit=0.125, sigma_t=0.03)
        peak = duration_log_density(4, 0.5, tp)
        assert duration_log_density(4, 0.5 + 0.03, tp) == pytest.approx(peak - 0.5)
        assert duration_log_density(4, 0.5 - 0.03, tp) == pytest.approx(peak - 0.5)

    def test_density_integrates_to_one(self):
        tp = TimingParams(seconds_per_unit=0.125, sigma_t=0.04)
        total, _ = quad(lambda d: math.exp(duration_log_density(3, d, tp)), -2.0, 3.0)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_vectorized_over_values_and_durations(self):
        tp = TimingParams(seconds_per_unit=0.1, sigma_t=0.02)
        grid = duration_log_density(
            np.arange(1, 9)[None, :], np.array([0.1, 0.4])[:, None], tp
        )
        assert grid.shape == (2, 8)
        assert grid[0, 0] == pytest.approx(duration_log_density(1, 0.1, tp))
        assert grid[1, 3] == pytest.approx(duration_log_density(4, 0.4, tp))


class TestSynthesize:
    def test_noiseless_limit(self):
        tp = TimingParams(seconds_per_unit=0.125, sigma_t=1e-9)
        score = RhythmScore((0, 2, 6, 8, 16))
        perf = synthesize(score, tp, np.random.default_rng(0))
        np.testing.assert_allclose(
            perf.durations, np.diff(score.onsets) * 0.125, atol=1e-6
        )
        assert perf.onsets[0] == 0.0
        assert perf.redraws == 0

    def test_seed_determinism(self):
        tp = TimingParams.from_bpm(120.0, 0.05)
        score = RhythmScore((0, 2, 4, 8, 12))
        a = synthesize(score, tp, np.random.default_rng(42))
        b = synthesize(score, tp, np.random.default_rng(42))
        c = synthesize(score, tp, np.random.default_rng(43))
        assert a.onsets == b.onsets
        assert a.onsets != c.onsets

    def test_durations_match_gaussian_mean(self):
        tp = TimingParams.from_bpm(144.0, 0.03)
        v = tp.seconds_per_unit
        score = RhythmScore(tuple(range(0, 4 * (10_000 + 1), 4)))  # 10^4 quarter notes
        perf = synthesize(score, tp, np.random.default_rng(1))
        mean = perf.durations.mean()
        # sample mean of 10^4 Gaussians within 3 standard errors of 4v
        assert abs(mean - 4 * v) < 3 * 0.03 / math.sqrt(10_000)

    def test_redraws_guard_minimum_duration(self):
        # sigma much larger than the mean forces rejected draws
        tp = TimingParams(seconds_per_unit=0.002, sigma_t=0.05)
        score = RhythmScore(tuple(range(0, 201)))
        perf = synthesize(score, tp, np.random.default_rng(3))
        assert perf.redraws > 0
        assert np.all(perf.durations > 1e-3)


class TestTranscriptionHmm:
    def test_emission_matrix_tabulates_density(self):
        cfg = ModelConfig.from_name("notemm1")
        tp = TimingParams(seconds_per_unit=0.1, sigma_t=0.02)
        hmm = TranscriptionHmm(build_state_space(cfg, uniform_params(cfg)), tp)
        em = hmm.emission_matrix([0.31, 0.08])
        assert em.shape == (2, 8)
        assert em[0, 2] == pytest.approx(duration_log_density(3, 0.31, tp))
        with pytest.raises(ValueError):
            hmm.emission_matrix([])

    def test_single_note_likelihood_is_gaussian_mixture(self, rng):
        cfg = ModelConfig.from_name("notemm1")
        params = random_params(cfg, rng)
        tp = TimingParams(seconds_per_unit=0.11, sigma_t=0.04)
        hmm = TranscriptionHmm(build_state_space(cfg, params), tp)
        d1 = 0.27
        expected = logsumexp(
            np.log(params.initial) + duration_log_density(np.arange(1, 9), d1, tp)
        )
        assert forward(hmm.space, hmm.emission_matrix([d1])) == pytest.approx(expected, abs=1e-12)

    def test_point_mass_modifications_keep_likelihood(self, rng):
        cfg = ModelConfig.from_name("metmm1", bar_length=4)
        params = random_params(cfg, rng)
        mod_cfg = ModelConfig.from_name("metmm1s", bar_length=4)
        mod_params = params.copy()
        xi = np.zeros(7)
        xi[3] = 1.0
        mod_params.shift_probs = xi
        tp = TimingParams(seconds_per_unit=0.12, sigma_t=0.05)
        plain = TranscriptionHmm(build_state_space(cfg, params), tp)
        modified = TranscriptionHmm(build_state_space(mod_cfg, mod_params), tp)
        for _ in range(5):
            durations = rng.uniform(0.05, 0.5, size=6)
            assert forward(modified.space, modified.emission_matrix(durations)) == (
                pytest.approx(forward(plain.space, plain.emission_matrix(durations)), abs=1e-9)
            )


class TestPerformanceTypes:
    def test_performance_validation(self):
        with pytest.raises(ValueError):
            Performance((0.0,))
        with pytest.raises(ValueError):
            Performance((0.0, 0.5, 0.5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_onsets_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Performance((0.0, bad, 1.0))
        with pytest.raises(ValueError, match="finite"):
            Performance((bad, 1.0))

    def test_missing_json_field_named(self):
        with pytest.raises(ValueError, match="'onsets_sec'"):
            PerformedCorpus.from_dict({"items": [{"id": "a"}]})
        with pytest.raises(ValueError, match="'items'"):
            PerformedCorpus.from_dict({"bar_length": 8})

    def test_non_integral_bar_length_rejected(self):
        data = {"bar_length": 8.5, "items": [{"id": "a", "onsets_sec": [0.0, 0.5]}]}
        with pytest.raises(ValueError, match="bar_length"):
            PerformedCorpus.from_dict(data)

    def test_corpus_round_trip(self, tmp_path):
        corpus = PerformedCorpus(
            performances=(Performance((0.0, 0.5, 1.2), redraws=1), Performance((0.0, 0.3))),
            ids=("a", "b"),
            sources=(RhythmScore((0, 4, 8)), None),
            tempo_bpm=120.0,
            sigma_t=0.02,
        )
        path = tmp_path / "perf.json"
        corpus.save(path)
        loaded = PerformedCorpus.load(path)
        assert loaded.ids == corpus.ids
        assert loaded.performances[0].onsets == (0.0, 0.5, 1.2)
        assert loaded.performances[0].redraws == 1
        assert loaded.sources[0].onsets == (0, 4, 8)
        assert loaded.sources[1] is None
        assert loaded.tempo_bpm == 120.0 and loaded.sigma_t == 0.02

    def test_mismatched_ids_rejected(self):
        with pytest.raises(ValueError):
            PerformedCorpus(performances=(Performance((0.0, 0.5)),), ids=("a", "b"))
