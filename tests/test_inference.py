"""Decoding and Gibbs machinery against enumeration oracles."""
import math

import numpy as np
import pytest

from rhythmscribe import _dp, ffbs, ffbs_batch, forward, viterbi
from rhythmscribe.inference import (
    GibbsConfig,
    Hyperparams,
    InferenceError,
    PathCounts,
    gather_counts,
    gibbs_fit,
    sample_dirichlet,
    sample_posterior,
    transcribe,
)
from rhythmscribe.models import (
    ModelConfig,
    build_state_space,
    random_params,
    uniform_params,
)
from rhythmscribe.timing import TimingParams, TranscriptionHmm, synthesize
from rhythmscribe.core import RhythmScore

from conftest import (
    edge_id,
    enumerate_paths,
    oracle_argmax,
    oracle_forward,
    oracle_posterior,
    oracle_scores,
    tiny_instance,
    total_variation,
)

SPOT_CHECK_VARIANTS = ["notemm1", "metmm2", "patmm1", "notemm1sd", "metmm1s"]


class TestForward:
    @pytest.mark.parametrize("name", SPOT_CHECK_VARIANTS)
    def test_matches_enumeration(self, name, rng):
        for _ in range(3):
            _, _, space, tp, durations = tiny_instance(name, rng, n_notes=4)
            hmm = TranscriptionHmm(space, tp)
            got = forward(space, hmm.emission_matrix(durations))
            want = oracle_forward(space, hmm, durations)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_impossible_observation_raises(self, rng):
        # a model that emits only value 1 cannot explain two-unit durations
        cfg = ModelConfig.from_name("notemm1")
        params = uniform_params(cfg)
        params.initial = np.eye(8)[0]
        params.transition = np.tile(np.eye(8)[0], (8, 1))
        space = build_state_space(cfg, params)
        tp = TimingParams(seconds_per_unit=0.25, sigma_t=0.01)
        hmm = TranscriptionHmm(space, tp)
        loglik = forward(space, hmm.emission_matrix([0.25, 0.26]))
        assert math.isfinite(loglik)  # still finite: Gaussian tails


class TestViterbi:
    @pytest.mark.parametrize("name", SPOT_CHECK_VARIANTS)
    def test_matches_enumerated_argmax(self, name, rng):
        for _ in range(3):
            _, _, space, tp, durations = tiny_instance(name, rng, n_notes=4)
            hmm = TranscriptionHmm(space, tp)
            path = viterbi(space, hmm.emission_matrix(durations))
            score = path.log_prob
            best, tied = oracle_argmax(space, hmm, durations)
            key = (
                path.boundary_index if path.boundary_index is not None else 0,
                tuple(path.state_indices),
            )
            assert key in tied
            assert score == pytest.approx(best, rel=1e-12)

    def test_ties_resolve_to_lowest_indices(self):
        # uniform model, all-zero emissions: every path has equal score, so
        # the documented tie-break (lowest state index at every step, lowest
        # boundary index at the start) must produce the all-zeros path
        cfg = ModelConfig.from_name("metmm1", bar_length=4)
        space = build_state_space(cfg, uniform_params(cfg))
        em = np.zeros((3, 4))
        path = _dp.viterbi(space, em)
        assert path.boundary_index == 0
        assert list(path.state_indices) == [0, 0, 0]
        assert path.log_prob == pytest.approx(4 * math.log(0.25))

    def test_path_log_prob_recomputes(self, rng):
        _, _, space, tp, durations = tiny_instance("metmm1", rng, n_notes=4)
        hmm = TranscriptionHmm(space, tp)
        path = viterbi(space, hmm.emission_matrix(durations))
        score = path.log_prob
        boundary, states, _, scores = oracle_scores(space, hmm, durations)
        hit = (boundary == path.boundary_index) & np.all(
            states == np.asarray(path.state_indices)[None, :], axis=1
        )
        assert hit.sum() == 1
        assert score == pytest.approx(float(scores[hit][0]), rel=1e-12)


class TestBeam:
    def test_full_width_equals_exact(self, rng):
        for name in SPOT_CHECK_VARIANTS:
            _, _, space, tp, durations = tiny_instance(name, rng, n_notes=4)
            hmm = TranscriptionHmm(space, tp)
            em = hmm.emission_matrix(durations)
            exact_path = viterbi(space, em)
            beam_path = viterbi(space, em, beam_width=space.n_states)
            assert beam_path.log_prob == pytest.approx(exact_path.log_prob, rel=1e-12)
            assert list(beam_path.state_indices) == list(exact_path.state_indices)
            assert forward(space, em, beam_width=space.n_states) == (
                pytest.approx(forward(space, em), rel=1e-12)
            )

    def test_narrow_beam_lower_bounds_exact(self, rng):
        _, _, space, tp, durations = tiny_instance("metmm1s", rng, n_notes=5)
        hmm = TranscriptionHmm(space, tp)
        em = hmm.emission_matrix(durations)
        exact_score = viterbi(space, em).log_prob
        for width in (1, 2, 4):
            try:
                score = viterbi(space, em, beam_width=width).log_prob
            except InferenceError:
                continue  # beam can dead-end; that counts as -inf
            assert score <= exact_score + 1e-9

    def test_invalid_width_rejected(self, rng):
        _, _, space, tp, durations = tiny_instance("notemm1", rng, n_notes=3)
        hmm = TranscriptionHmm(space, tp)
        with pytest.raises(ValueError):
            viterbi(space, hmm.emission_matrix(durations), beam_width=0)

    def test_pattern_division_model_decodes_exactly(self, rng, monkeypatch):
        cfg = ModelConfig.from_name("patmm1d")
        patterns = ((0,), (0, 4), (0, 2, 4, 6), (0, 3, 6), (0, 2, 4), (0, 4, 6), (0, 6))
        params = random_params(cfg, rng, patterns=patterns)
        tp = TimingParams.from_bpm(144.0, 0.04)
        perf = synthesize(RhythmScore((0, 4, 6, 8, 11, 14, 16, 18, 20, 22)), tp, rng)
        widths = []
        for name in ("forward", "viterbi"):
            def spy(*args, _fn=getattr(_dp, name), **kwargs):
                widths.append(kwargs.get("beam_width"))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(_dp, name, spy)
        result = transcribe(cfg, params, perf, tp)
        monkeypatch.undo()
        assert widths == [None, None]
        space = build_state_space(cfg, params)
        em = TranscriptionHmm(space, tp).emission_matrix(perf.durations)
        assert space.n_states > 200
        assert result.path_log_prob == viterbi(space, em).log_prob
        assert result.log_likelihood == forward(space, em)


class TestFfbs:
    def test_single_draws_follow_posterior(self, rng):
        _, _, space, tp, durations = tiny_instance("metmm1", rng, n_notes=2)
        hmm = TranscriptionHmm(space, tp)
        posterior = oracle_posterior(space, hmm, durations)
        n = 4000
        freq = {}
        for _ in range(n):
            path = ffbs(space, hmm.emission_matrix(durations), rng)
            key = (path.boundary_index, tuple(path.state_indices))
            freq[key] = freq.get(key, 0) + 1
        empirical = {k: v / n for k, v in freq.items()}
        assert total_variation(posterior, empirical) < 0.05

    def test_batch_matches_single_draw_distribution(self, rng):
        _, _, space, tp, durations = tiny_instance("notemm1s", rng, n_notes=3)
        hmm = TranscriptionHmm(space, tp)
        posterior = oracle_posterior(space, hmm, durations)
        n = 80_000  # ~1200 reachable paths; TV noise floor ~0.04 at this size
        boundary, states, outputs = ffbs_batch(space, hmm.emission_matrix(durations), rng, size=n)
        assert states.shape == (n, 3) and outputs.shape == (n, 3)
        freq = {}
        for b, row in zip(boundary, states):
            key = (int(b), tuple(int(s) for s in row))
            freq[key] = freq.get(key, 0) + 1
        empirical = {k: v / n for k, v in freq.items()}
        assert total_variation(posterior, empirical) < 0.055

    def test_batch_outputs_match_edge_values(self, rng):
        _, _, space, tp, durations = tiny_instance("metmm1", rng, n_notes=4)
        hmm = TranscriptionHmm(space, tp)
        boundary, states, outputs = ffbs_batch(space, hmm.emission_matrix(durations), rng, size=50)
        for b, srow, orow in zip(boundary, states, outputs):
            tags = [space.state_tags[i] for i in srow]
            first = edge_id(space, space.boundary_tags[b], tags[0], first=True)
            assert first is not None and orow[0] == space.first.out[first]
            for i in range(1, len(tags)):
                e = edge_id(space, tags[i - 1], tags[i])
                assert e is not None and orow[i] == space.trans.out[e]


class TestDirichlet:
    def test_moments(self, rng):
        base = np.array([5.0, 3.0, 2.0])
        draws = sample_dirichlet(base, rng, size=20000)
        np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)
        se = np.sqrt(base / 10 * (1 - base / 10) / 11 / 20000)
        assert np.all(np.abs(draws.mean(axis=0) - base / 10) < 4 * se)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            sample_dirichlet([1.0, 0.0], rng)
        with pytest.raises(ValueError):
            sample_dirichlet([], rng)
        with pytest.raises(ValueError):
            sample_dirichlet(np.ones((2, 2)), rng)

    def test_seeded_draws_reproduce(self):
        a = sample_dirichlet([1.0, 2.0], np.random.default_rng(5), size=3)
        b = sample_dirichlet([1.0, 2.0], np.random.default_rng(5), size=3)
        np.testing.assert_array_equal(a, b)

    def test_tiny_parameters_give_finite_draws(self):
        # most draws of Gamma(1e-4) underflow to 0, whole rows of them often
        draws = sample_dirichlet(np.full(8, 1e-4), np.random.default_rng(0), size=200)
        assert np.isfinite(draws).all()
        np.testing.assert_allclose(draws.sum(axis=1), 1.0, atol=1e-12)


class TestGatherCounts:
    def test_met_first_order_counts(self, rng):
        cfg = ModelConfig.from_name("metmm1")
        space = build_state_space(cfg, uniform_params(cfg))
        tp = TimingParams(seconds_per_unit=0.25, sigma_t=0.05)
        hmm = TranscriptionHmm(space, tp)
        # positions 2 -> 4 -> 6: durations near two units each
        path = viterbi(space, hmm.emission_matrix([0.5, 0.5]))
        # force a known path via a synthetic score for clarity
        score = RhythmScore((2, 4, 6))
        durations = np.diff(score.onsets) * 0.25
        path = viterbi(space, hmm.emission_matrix(durations))
        counts = gather_counts(space, path)
        assert counts.initial.sum() == 1
        assert counts.transition.sum() == 2

    def test_note_counts_split_initial_and_pairs(self, rng):
        cfg = ModelConfig.from_name("notemm1")
        params = random_params(cfg, rng)
        space = build_state_space(cfg, params)
        tp = TimingParams(seconds_per_unit=0.25, sigma_t=1e-6)
        hmm = TranscriptionHmm(space, tp)
        durations = np.array([2, 2, 4, 2]) * 0.25
        path = viterbi(space, hmm.emission_matrix(durations))
        counts = gather_counts(space, path)
        assert counts.initial[1] == 1  # r=2 starts the piece
        assert counts.transition[1, 1] == 1
        assert counts.transition[1, 3] == 1
        assert counts.transition[3, 1] == 1
        assert counts.transition.sum() == 3

    def test_shift_and_division_counts(self, rng):
        _, _, space, tp, durations = tiny_instance("metmm1sd", rng, n_notes=4)
        hmm = TranscriptionHmm(space, tp)
        path = viterbi(space, hmm.emission_matrix(durations))
        counts = gather_counts(space, path)
        # one shift per emitted part plus the boundary shift
        assert counts.shift.sum() == len(path.state_indices) + 1
        # one division choice per note value
        assert sum(row.sum() for row in counts.division) >= 1

    def test_order2_triple_counts(self, rng):
        # hand-built path for positions 0 -> 2 -> 4 -> 0
        cfg = ModelConfig.from_name("metmm2")
        space = build_state_space(cfg, random_params(cfg, rng))
        states = [space.state_tags.index(t) for t in [(0, 2), (2, 4), (4, 0)]]
        path = _dp.PathSample(
            boundary_index=space.boundary_tags.index(0),
            state_indices=states,
            output_values=[2, 2, 4],
            log_prob=0.0,
        )
        counts = gather_counts(space, path)
        assert counts.initial[0] == 1
        assert counts.transition[0, 2] == 1
        assert counts.transition2[0, 2, 4] == 1
        assert counts.transition2[2, 4, 0] == 1
        assert counts.transition2.sum() == 2


class TestGibbs:
    def _setup(self, rng, name="metmm1b"):
        cfg = ModelConfig.from_name(name)
        base = random_params(cfg.plain(), rng)
        hp = Hyperparams(base=base)
        space = build_state_space(cfg.plain(), base)
        tp = TimingParams.from_bpm(144.0, 0.03)
        score = RhythmScore((0, 2, 4, 6, 8, 12, 16))
        perf = synthesize(score, tp, rng)
        return cfg, hp, perf, tp

    def test_seed_determinism(self, rng):
        cfg, hp, perf, tp = self._setup(rng)
        gc = GibbsConfig(iterations=10, seed=11)
        p1, r1 = gibbs_fit(cfg, hp, perf, tp, gc)
        p2, r2 = gibbs_fit(cfg, hp, perf, tp, gc)
        assert r1.trace == r2.trace
        assert r1.note_values == r2.note_values
        np.testing.assert_array_equal(p1.transition, p2.transition)

    def test_trace_starts_at_base_and_keeps_best(self, rng):
        cfg, hp, perf, tp = self._setup(rng)
        gc = GibbsConfig(iterations=15, seed=3)
        params, result = gibbs_fit(cfg, hp, perf, tp, gc)
        base_space = build_state_space(cfg.plain(), hp.base)
        base_ll = forward(
            base_space, TranscriptionHmm(base_space, tp).emission_matrix(perf.durations)
        )
        assert len(result.trace) == 16
        assert result.trace[0] == pytest.approx(base_ll, rel=1e-12)
        assert result.log_likelihood == pytest.approx(max(result.trace), rel=1e-12)
        params.validate()

    def test_sample_posterior_respects_zero_support(self, rng):
        cfg = ModelConfig.from_name("metmm1b")
        base = uniform_params(cfg.plain())
        base.initial = np.eye(8)[2]  # point mass at position 2
        hp = Hyperparams(base=base)
        space = build_state_space(cfg.plain(), base)
        tp = TimingParams.from_bpm(144.0, 0.03)
        perf = synthesize(RhythmScore((2, 4, 6)), tp, rng)
        hmm = TranscriptionHmm(space, tp)
        path = ffbs(space, hmm.emission_matrix(perf.durations), rng)
        counts = gather_counts(space, path)
        drawn = sample_posterior(hp, counts, rng)
        assert drawn.initial[2] == 1.0
        assert np.all(drawn.initial[np.arange(8) != 2] == 0.0)


def per_row_posterior(hp, counts, rng):
    """`sample_posterior` as one Gamma call per table row: the reference."""

    def draw(row):
        if np.any(row < 0):
            raise ValueError("negative posterior parameters")
        if not row.sum() > 0:
            raise InferenceError("posterior row with no support")
        g = rng.gamma(row)
        return g / g.sum()

    def table(t):
        rows = t.reshape(-1, t.shape[-1])
        return np.vstack([draw(r) for r in rows]).reshape(t.shape)

    base, out = hp.base, hp.base.copy()
    out.initial = table(hp.alpha_initial * base.initial + counts.initial)
    if base.transition is not None:
        out.transition = table(hp.alpha_transition * base.transition + counts.transition)
    if base.transition2 is not None:
        out.transition2 = table(hp.alpha_transition * base.transition2 + counts.transition2)
    if base.unigram is not None:
        out.unigram = table(hp.alpha_transition * base.unigram + counts.unigram)
    if base.shift_probs is not None:
        out.shift_probs = table(hp.alpha_shift * base.shift_probs + counts.shift)
    if base.division_probs is not None:
        out.division_probs = tuple(
            draw(hp.alpha_division * b + c) for b, c in zip(base.division_probs, counts.division)
        )
    return out


class TestSamplePosterior:
    @pytest.mark.parametrize("name", ["notemm0b", "notemm2b", "metmm1sdb", "patmm1sdb"])
    def test_matches_per_row_draws(self, name, rng):
        _, params, space, tp, durations = tiny_instance(name, rng, n_notes=8)
        cfg = space.config
        if params.transition is not None:
            params.transition[0, :] = np.eye(params.transition.shape[1])[0]  # zero entries
        hp = Hyperparams(base=params, alpha_transition=2.0, alpha_shift=0.5)
        space = build_state_space(cfg.plain(), params)
        path = ffbs(space, TranscriptionHmm(space, tp).emission_matrix(durations), rng)
        counts = gather_counts(space, path)
        for seed in range(3):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_posterior(hp, counts, got_rng)
            want = per_row_posterior(hp, counts, want_rng)
            for key in ("initial", "transition", "transition2", "unigram", "shift_probs"):
                if getattr(want, key) is not None:
                    np.testing.assert_array_equal(getattr(got, key), getattr(want, key))
            for a, b in zip(got.division_probs or (), want.division_probs or ()):
                np.testing.assert_array_equal(a, b)
            assert got_rng.random() == want_rng.random()  # same generator state

    def test_bad_rows_raise_the_first_rows_error(self, rng):
        cfg = ModelConfig.from_name("metmm1b")
        base = uniform_params(cfg.plain())
        hp = Hyperparams(base=base)
        counts = gather_counts(build_state_space(cfg.plain(), base),
                               _dp.PathSample(0, [1], [1], 0.0))
        counts.transition[2] = -1e9  # row 2: negative entries
        with pytest.raises(ValueError, match="negative posterior parameters"):
            sample_posterior(hp, counts, rng)
        counts.transition[1] = -hp.alpha_transition * base.transition[1]  # row 1: no support
        with pytest.raises(InferenceError, match="posterior row with no support"):
            sample_posterior(hp, counts, rng)


    def test_underflowed_rows_are_drawn_in_log_space(self):
        # with alpha 1e-3 about half the rows draw nothing but zeros
        cfg = ModelConfig.from_name("notemm2b", bar_length=8)
        base = random_params(cfg.plain(), np.random.default_rng(0))
        base.transition2[..., 0] = 0.0
        base.transition2 /= base.transition2.sum(axis=-1, keepdims=True)
        hp = Hyperparams(base=base, alpha_transition=1e-3)
        counts = PathCounts(initial=np.zeros(8), transition=np.zeros((8, 8)),
                            transition2=np.zeros((8, 8, 8)))
        rng = np.random.default_rng(1)
        for _ in range(5):
            drawn = sample_posterior(hp, counts, rng)
            assert np.isfinite(drawn.transition2).all()
            drawn.validate()
            assert np.all(drawn.transition2[..., 0] == 0.0)  # zero shapes stay 0


class TestTranscribe:
    def test_type_errors(self, rng):
        cfg = ModelConfig.from_name("metmm1")
        params = random_params(cfg, rng)
        tp = TimingParams.from_bpm(144.0, 0.02)
        perf = synthesize(RhythmScore((0, 2, 4)), tp, rng)
        with pytest.raises(TypeError):
            transcribe(ModelConfig.from_name("metmm1b"), params, perf, tp)
        with pytest.raises(TypeError):
            transcribe(cfg, Hyperparams(base=params), perf, tp)

    def test_noiseless_round_trip(self, rng):
        # durations pin the note values exactly; the starting position is
        # identifiable only through the prior, so favor the true one
        cfg = ModelConfig.from_name("metmm1")
        params = random_params(cfg, rng)
        params.initial = np.full(8, 0.01 / 7)
        params.initial[0] = 0.99
        tp = TimingParams.from_bpm(144.0, 1e-6)
        score = RhythmScore((0, 3, 4, 6, 8, 16))
        perf = synthesize(score, tp, rng)
        result = transcribe(cfg, params, perf, tp)
        assert result.note_values == tuple(int(v) for v in np.diff(score.onsets))
        assert result.onsets == score.onsets

    def test_result_serializes(self, rng):
        cfg = ModelConfig.from_name("metmm1sd")
        params = random_params(cfg, rng)
        tp = TimingParams.from_bpm(144.0, 0.02)
        perf = synthesize(RhythmScore((0, 2, 4, 8)), tp, rng)
        result = transcribe(cfg, params, perf, tp)
        data = result.to_dict()
        assert data["model"] == "metmm1sd"
        assert all(isinstance(v, int) for v in data["note_values"])
        assert isinstance(data["state_tags"][0], list)

    def test_gibbs_config_rejects_non_integral_values(self):
        for kwargs in ({"iterations": 2.5}, {"beam_width": 7.5}, {"seed": 0.5},
                       {"iterations": "3"}):
            with pytest.raises(ValueError, match="integer"):
                GibbsConfig(**kwargs)
        gc = GibbsConfig(iterations=3.0, beam_width=np.int64(8), seed=2.0)
        assert (gc.iterations, gc.beam_width, gc.seed) == (3, 8, 2)
        assert type(gc.iterations) is int and type(gc.beam_width) is int

    def test_negative_seed_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            GibbsConfig(seed=-1)
        assert GibbsConfig(seed=0).seed == 0

    @pytest.mark.parametrize("name", ["alpha_initial", "alpha_transition", "alpha_shift",
                                      "alpha_division"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0, -1.0])
    def test_concentrations_must_be_finite_and_positive(self, name, bad):
        base = uniform_params(ModelConfig.from_name("notemm1"))
        with pytest.raises(ValueError, match=f"{name} must be positive and finite, got"):
            Hyperparams(base=base, **{name: bad})

    def test_gibbs_config_validation(self):
        with pytest.raises(ValueError):
            GibbsConfig(iterations=0)
        with pytest.raises(ValueError):
            GibbsConfig(beam_width=0)
        with pytest.raises(ValueError):
            Hyperparams(base=uniform_params(ModelConfig.from_name("notemm1")), alpha_initial=0)
