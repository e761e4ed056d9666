"""Evaluation analytics: entropies, cross entropy, error rates, benchmarks."""
import math

import numpy as np
import pytest

from rhythmscribe.core import Corpus, RhythmScore, to_note_values
from rhythmscribe.evaluation import (
    EvaluationError,
    benchmark,
    cross_entropy,
    distribution_entropy,
    entropy_rate,
    error_rate,
    sparseness_study,
    stationary_distribution,
)
from rhythmscribe.inference import GibbsConfig
from rhythmscribe.models import (
    ModelConfig,
    build_state_space,
    random_params,
    sample_corpus,
    sequence_log_prob,
    uniform_params,
)
from rhythmscribe.timing import TimingParams
from rhythmscribe.training import SmoothingConfig, assemble_hyperparams, estimate_params


class TestEntropies:
    def test_distribution_entropy(self):
        assert distribution_entropy(np.full(8, 0.125)) == pytest.approx(3.0)
        assert distribution_entropy([1.0, 0.0, 0.0]) == 0.0
        assert distribution_entropy([0.5, 0.5]) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            distribution_entropy([0.5, 0.6])

    def test_stationary_distribution(self):
        t = np.array([[0.9, 0.1], [0.1, 0.9]])
        np.testing.assert_allclose(stationary_distribution(t), [0.5, 0.5], atol=1e-10)
        t = np.array([[0.5, 0.5], [1.0, 0.0]])
        np.testing.assert_allclose(stationary_distribution(t), [2 / 3, 1 / 3], atol=1e-10)
        with pytest.raises(ValueError):
            stationary_distribution(np.ones((2, 3)))
        with pytest.raises(ValueError):
            stationary_distribution(np.full((2, 2), 0.3))

    def test_entropy_rate_symmetric_chain(self):
        t = np.array([[0.9, 0.1], [0.1, 0.9]])
        h = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        assert entropy_rate(t) == pytest.approx(h, abs=1e-12)
        assert entropy_rate(t) == pytest.approx(0.4690, abs=1e-4)

    def test_entropy_rate_iid_rows(self, rng):
        row = rng.dirichlet(np.ones(6))
        t = np.tile(row, (6, 1))
        assert entropy_rate(t) == pytest.approx(distribution_entropy(row), abs=1e-12)

    def test_entropy_rate_permutation_is_zero(self):
        t = np.zeros((4, 4))
        t[0, 2] = t[2, 1] = t[1, 3] = t[3, 0] = 1.0
        assert entropy_rate(t) == pytest.approx(0.0, abs=1e-12)


class TestErrorRate:
    def test_examples(self):
        assert error_rate([2, 2, 4], [2, 4, 2]) == pytest.approx(2 / 3)
        assert error_rate([1, 2, 3], [1, 2, 3]) == 0.0
        assert error_rate([1], [2]) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            error_rate([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            error_rate([], [])


class TestCrossEntropy:
    def test_pooling_convention(self, rng):
        cfg = ModelConfig.from_name("metmm1")
        params = random_params(cfg, rng)
        space = build_state_space(cfg, params)
        corpus = sample_corpus(space, 5, 6, rng)
        total = sum(sequence_log_prob(space, p) for p in corpus.pieces)
        n = sum(p.n_notes for p in corpus.pieces)
        assert cross_entropy(cfg, params, corpus) == pytest.approx(-total / n)
        assert cross_entropy(cfg, params, corpus, count_initial_symbol=True) == (
            pytest.approx(-total / (n + len(corpus.pieces)))
        )

    def test_note_models_ignore_initial_symbol_flag(self, rng):
        cfg = ModelConfig.from_name("notemm1")
        params = random_params(cfg, rng)
        corpus = sample_corpus(build_state_space(cfg, params), 4, 5, rng)
        assert cross_entropy(cfg, params, corpus) == cross_entropy(
            cfg, params, corpus, count_initial_symbol=True
        )

    def test_empty_corpus_is_rejected(self, rng):
        cfg = ModelConfig.from_name("metmm1")
        with pytest.raises(ValueError, match="empty corpus"):
            cross_entropy(cfg, random_params(cfg, rng), Corpus((), ()))

    def test_impossible_piece_gives_infinity(self):
        cfg = ModelConfig.from_name("notemm1")
        train = Corpus((RhythmScore((0, 2, 4, 6)),), ("a",))
        params = estimate_params(train, cfg, SmoothingConfig(epsilon=0.0))
        test = Corpus((RhythmScore((0, 3, 6)),), ("b",))
        assert cross_entropy(cfg, params, test) == float("inf")

    def test_true_generator_approaches_entropy_rate(self, rng):
        # AEP: per-symbol log-loss of the generator converges to its entropy
        # rate; the initial distribution adds H(init)/N per piece
        cfg = ModelConfig.from_name("metmm1", bar_length=4)
        params = random_params(cfg, rng)
        params.initial = stationary_distribution(params.transition)
        space = build_state_space(cfg, params)
        n_notes = 200
        corpus = sample_corpus(space, 100, n_notes, rng)
        rate = entropy_rate(params.transition)
        expected = rate + distribution_entropy(params.initial) / n_notes
        assert cross_entropy(cfg, params, corpus) == pytest.approx(expected, abs=0.05)

    def test_true_model_beats_mismatched_model(self, rng):
        cfg = ModelConfig.from_name("notemm1")
        true_params = random_params(cfg, rng)
        other = random_params(cfg, rng)
        corpus = sample_corpus(build_state_space(cfg, true_params), 40, 50, rng)
        assert cross_entropy(cfg, true_params, corpus) < cross_entropy(cfg, other, corpus)


# an explicit pattern vocabulary (bar length 8)
VOCABULARY = ((0,), (0, 2, 4, 6), (0, 4))


def repetitive_corpus(n_pieces=6, reps=8):
    # each piece loops one short bar-aligned cell, so its empirical
    # distributions are far sparser than any generic model
    cells = [(2, 2, 4), (4, 4), (1, 1, 2, 4), (2, 1, 1, 4), (8,), (2, 6)]
    pieces, ids = [], []
    for i in range(n_pieces):
        cell = cells[i % len(cells)]
        values = cell * reps
        onsets = np.concatenate([[0], np.cumsum(values)])
        pieces.append(RhythmScore(tuple(int(t) for t in onsets)))
        ids.append(f"loop-{i}")
    return Corpus(tuple(pieces), tuple(ids))


class TestSparsenessStudy:
    def test_piece_entropies_below_resampled(self, rng):
        corpus = repetitive_corpus()
        cfg = ModelConfig.from_name("notemm1")
        params = estimate_params(corpus, cfg)
        study = sparseness_study(cfg, params, corpus, alpha=10.0, n_samples=2000, rng=rng)
        assert study.piece_symbol_entropy.mean() < study.resampled_symbol_entropy.mean()
        assert study.piece_transition_entropy.mean() < study.resampled_transition_entropy.mean()
        assert study.generic_entropy_rate > 0
        d = study.to_dict()
        assert d["family"] == "note" and len(d["piece_symbol_entropy"]) == 6

    def test_dirichlet_entropy_decreases_with_alpha(self, rng):
        corpus = repetitive_corpus()
        cfg = ModelConfig.from_name("notemm1")
        params = estimate_params(corpus, cfg)
        means = []
        for alpha in (100.0, 1.0, 0.1):
            study = sparseness_study(
                cfg, params, corpus, alpha=alpha, n_samples=2000,
                rng=np.random.default_rng(7),
            )
            means.append(study.dirichlet_entropy.mean())
        assert means[0] > means[1] > means[2]

    @pytest.mark.parametrize("name", ["metmm1", "patmm1"])
    def test_metrical_and_pattern_families(self, name, rng):
        corpus = repetitive_corpus()
        cfg = ModelConfig.from_name(name)
        params = estimate_params(corpus, cfg)
        study = sparseness_study(cfg, params, corpus, alpha=10.0, n_samples=200, rng=rng)
        assert study.family == cfg.family
        assert study.piece_symbol_entropy.mean() < study.resampled_symbol_entropy.mean()
        assert np.isfinite(study.piece_transition_entropy).all()

    def test_pattern_model_with_its_own_vocabulary(self, rng):
        cfg = ModelConfig.from_name("patmm1")
        params = random_params(cfg, rng, patterns=VOCABULARY)
        corpus = sample_corpus(build_state_space(cfg, params), 5, 20, rng)
        study = sparseness_study(cfg, params, corpus, alpha=1.0, n_samples=50, rng=rng)
        assert len(study.piece_symbol_entropy) == len(study.resampled_symbol_entropy) == 5
        # three symbols: at most log2(3) bits each
        assert study.piece_symbol_entropy.max() <= np.log2(3) + 1e-12
        assert study.resampled_symbol_entropy.max() <= np.log2(3) + 1e-12

    def test_pattern_outside_the_vocabulary_is_rejected(self, rng):
        cfg = ModelConfig.from_name("patmm1")
        params = random_params(cfg, rng, patterns=VOCABULARY)
        # bar 1 plays positions 0 and 1, which no pattern has
        corpus = Corpus((RhythmScore((0, 4, 8, 9, 16)),), ("a",))
        with pytest.raises(ValueError, match=r"bar pattern \(0, 1\) is not in the "
                                              "model's 3-pattern vocabulary"):
            sparseness_study(cfg, params, corpus, 1.0, 10, rng)

    def test_modified_configs_rejected(self, rng):
        cfg = ModelConfig.from_name("notemm1s")
        params = random_params(cfg, rng)
        with pytest.raises(ValueError):
            sparseness_study(cfg, params, repetitive_corpus(), 1.0, 10, rng)


class TestBenchmark:
    def _setup(self, rng):
        cfg = ModelConfig.from_name("metmm1")
        params = random_params(cfg, rng)
        corpus = sample_corpus(build_state_space(cfg, params), 4, 12, rng)
        return cfg, params, corpus

    def test_noiseless_transcription_is_exact(self, rng):
        cfg, params, corpus = self._setup(rng)
        tp = TimingParams.from_bpm(144.0, 1e-6)
        reports = benchmark({"met": (cfg, params)}, corpus, tp, seeds=(0, 1))
        assert len(reports) == 1
        rep = reports[0]
        assert rep.error_mean == 0.0
        assert rep.error_sd == 0.0
        assert rep.n_transcriptions == 8
        assert rep.failures == ()

    def test_piece_order_invariance(self, rng):
        cfg, params, corpus = self._setup(rng)
        tp = TimingParams.from_bpm(144.0, 0.05)
        fwd = benchmark({"m": (cfg, params)}, corpus, tp, seeds=(3,))[0]
        perm = Corpus(tuple(reversed(corpus.pieces)), tuple(reversed(corpus.ids)))
        rev = benchmark({"m": (cfg, params)}, perm, tp, seeds=(3,))[0]
        assert fwd.error_mean == pytest.approx(rev.error_mean, abs=1e-15)
        assert fwd.per_piece_error == rev.per_piece_error

    def test_failures_isolated_per_model(self, rng):
        cfg, params, corpus = self._setup(rng)
        broken_params = random_params(ModelConfig.from_name("notemm1"), rng)
        tp = TimingParams.from_bpm(144.0, 0.02)
        reports = benchmark(
            {"ok": (cfg, params), "broken": (cfg, broken_params)},
            corpus,
            tp,
            seeds=(0,),
        )
        by_name = {r.model: r for r in reports}
        assert by_name["ok"].failures == ()
        assert len(by_name["broken"].failures) == 4
        assert math.isnan(by_name["broken"].error_mean)
        assert by_name["ok"].n_transcriptions == 4

    def test_bayesian_model_uses_gibbs(self, rng):
        cfg, params, corpus = self._setup(rng)
        small = Corpus(corpus.pieces[:2], corpus.ids[:2])
        hp = assemble_hyperparams(params, ModelConfig.from_name("metmm1b"))
        tp = TimingParams.from_bpm(144.0, 0.03)
        reports = benchmark(
            {"bayes": (ModelConfig.from_name("metmm1b"), hp)},
            small,
            tp,
            seeds=(0, 1),
            gibbs=GibbsConfig(iterations=3),
        )
        rep = reports[0]
        assert rep.n_transcriptions == 4
        assert 0.0 <= rep.error_mean <= 1.0

    def test_report_serializes(self, rng):
        cfg, params, corpus = self._setup(rng)
        tp = TimingParams.from_bpm(144.0, 0.02)
        rep = benchmark({"m": (cfg, params)}, corpus, tp, seeds=(0,))[0]
        d = rep.to_dict()
        assert d["model"] == "m"
        assert set(d["per_piece_error"]) == set(corpus.ids)
        assert d["runtime_seconds"] >= 0

    def test_empty_seeds_rejected(self, rng):
        cfg, params, corpus = self._setup(rng)
        with pytest.raises(ValueError):
            benchmark({"m": (cfg, params)}, corpus, TimingParams.from_bpm(144, 0.02), seeds=())
