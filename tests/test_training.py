"""Generic-model estimation and Dirichlet prior assembly."""
import numpy as np
import pytest

from rhythmscribe.core import Corpus, RhythmScore
from rhythmscribe.models import (
    ModelConfig,
    build_state_space,
    division_parts,
    pattern_index,
    pattern_vocabulary,
)
from rhythmscribe.training import (
    SmoothingConfig,
    _symbol_sequences,
    assemble_hyperparams,
    attach_modification_presets,
    build_modification_base,
    estimate_params,
    hyperparams_from_dict,
    hyperparams_to_dict,
)


def corpus_of(*onset_tuples):
    pieces = tuple(RhythmScore(t) for t in onset_tuples)
    return Corpus(pieces, tuple(str(i) for i in range(len(pieces))))


class TestEstimation:
    def test_first_order_note_counts_by_hand(self):
        # one piece, note values 2, 4, 2, 4: pairs 2->4 (x2), 4->2 (x1)
        corpus = corpus_of((0, 2, 6, 8, 12))
        params = estimate_params(corpus, ModelConfig.from_name("notemm1"))
        # additive 0.1 over 8 values: row for r=2 has counts (2 of 8 total)
        assert params.transition[1, 3] == pytest.approx((2 + 0.1) / (2 + 0.8))
        assert params.transition[3, 1] == pytest.approx((1 + 0.1) / (1 + 0.8))
        assert params.transition[0, 0] == pytest.approx(0.1 / 0.8)
        # initial: the first value is 2, once, over one piece
        assert params.initial[1] == pytest.approx((1 + 0.1) / (1 + 0.8))
        assert params.initial[0] == pytest.approx(0.1 / (1 + 0.8))

    def test_met_initial_counts_first_position(self):
        corpus = corpus_of((4, 6, 8), (0, 2, 4))
        params = estimate_params(corpus, ModelConfig.from_name("metmm1"))
        assert params.initial[4] == pytest.approx(1.1 / 2.8)
        assert params.initial[0] == pytest.approx(1.1 / 2.8)
        assert params.initial[1] == pytest.approx(0.1 / 2.8)
        # met symbols include the first onset: transitions 4->6->0 and 0->2->4
        assert params.transition[4, 6] == pytest.approx(1.1 / 1.8)
        assert params.transition[0, 2] == pytest.approx(1.1 / 1.8)

    def test_order0_unigram_excludes_piece_initial(self):
        corpus = corpus_of((0, 2, 6, 8))  # values 2, 4, 2
        params = estimate_params(corpus, ModelConfig.from_name("notemm0"))
        # unigram counts values after the first: one 4, one 2
        assert params.unigram[3] == pytest.approx(1.1 / 2.8)
        assert params.unigram[1] == pytest.approx(1.1 / 2.8)
        assert params.initial[1] == pytest.approx(1.1 / 1.8)

    def test_zero_epsilon_is_maximum_likelihood(self):
        corpus = corpus_of((0, 2, 4, 8), (0, 2, 4))
        params = estimate_params(
            corpus, ModelConfig.from_name("notemm1"), SmoothingConfig(epsilon=0.0)
        )
        assert params.transition[1, 1] == pytest.approx(2 / 3)
        assert params.transition[1, 3] == pytest.approx(1 / 3)
        # unseen contexts fall back to uniform so rows stay stochastic
        assert params.transition[6].tolist() == [0.125] * 8
        params.validate()

    def test_order2_uses_pairs_for_first_step(self):
        corpus = corpus_of((0, 2, 4, 8, 10))
        params = estimate_params(corpus, ModelConfig.from_name("metmm2"))
        # pair table: 0->2 seen once (first step of the piece counts pairs too)
        assert params.transition[0, 2] > params.transition[0, 3]
        # triple 0,2,4 seen once
        assert params.transition2[0, 2, 4] == pytest.approx(1.1 / 1.8)
        assert params.transition2[2, 4, 0] == pytest.approx(1.1 / 1.8)

    def test_pattern_rows_interpolate_with_unigram(self):
        corpus = corpus_of((0, 2, 4, 8, 10, 12, 16), (0, 4, 8))
        cfg = ModelConfig.from_name("patmm1")
        lam = 0.8
        full = estimate_params(corpus, cfg, SmoothingConfig(0.1, pattern_interpolation=lam))
        raw = estimate_params(corpus, cfg, SmoothingConfig(0.1, pattern_interpolation=0.0))
        uni = estimate_params(
            corpus, ModelConfig.from_name("patmm0"), SmoothingConfig(0.1)
        ).unigram
        np.testing.assert_allclose(
            full.transition, lam * uni[None, :] + (1 - lam) * raw.transition, atol=1e-12
        )
        full.validate()

    def test_pattern_vocabulary_is_full_by_default(self):
        corpus = corpus_of((0, 4, 8))
        params = estimate_params(corpus, ModelConfig.from_name("patmm1"))
        assert len(params.patterns) == 255
        k = pattern_index((0, 4), 8)
        assert params.patterns[k] == (0, 4)
        assert params.initial[k] > 1 / 255  # observed pattern outweighs smoothing

    def test_estimated_params_build_spaces(self):
        corpus = corpus_of((0, 2, 4, 8), (4, 6, 8, 12, 16))
        for name in ("notemm0", "notemm1", "notemm2", "metmm1", "patmm1", "metmm1sd"):
            cfg = ModelConfig.from_name(name)
            params = estimate_params(corpus, cfg)
            space = build_state_space(cfg, params)
            assert space.n_states > 0

    def test_float_bar_length_trains_as_an_int(self):
        # a float bar length made metrical positions floats, which then
        # failed as table indices
        onsets = ((0, 2, 4, 8), (4, 6, 8, 12, 16))
        floats = Corpus(tuple(RhythmScore(t, 8.0) for t in onsets), ("0", "1"), 8.0)
        cfg = ModelConfig.from_name("metmm1")
        want = estimate_params(corpus_of(*onsets), cfg)
        got = estimate_params(floats, cfg)
        np.testing.assert_array_equal(got.initial, want.initial)
        np.testing.assert_array_equal(got.transition, want.transition)

    def test_errors(self):
        with pytest.raises(ValueError, match="empty corpus"):
            estimate_params(Corpus((), ()), ModelConfig.from_name("notemm1"))
        # single-note pieces have no note-value pairs to estimate from
        corpus = corpus_of((0, 2), (4, 8))
        with pytest.raises(ValueError):
            estimate_params(corpus, ModelConfig.from_name("notemm1"), SmoothingConfig(0.0))
        with pytest.raises(ValueError):
            SmoothingConfig(epsilon=-0.1)
        with pytest.raises(ValueError):
            SmoothingConfig(pattern_interpolation=1.5)


class TestSymbolSequences:
    # bars (0, 2, 4, 6), (0, 4), (0,) and a last bar cut short at (0, 2)
    SCORE = RhythmScore((0, 2, 4, 6, 8, 12, 16, 24, 26))
    BARS = [(0, 2, 4, 6), (0, 4), (0,), (0, 2)]

    def test_note_and_metrical_symbols(self):
        (notes,), (onsets,) = (_symbol_sequences([self.SCORE], family)
                               for family in ("note", "met"))
        assert notes.tolist() == [1, 1, 1, 1, 3, 3, 7, 1]
        assert onsets.tolist() == [0, 2, 4, 6, 0, 4, 0, 0, 2]

    def test_canonical_vocabulary_indexes_every_bar(self):
        (seq,) = _symbol_sequences([self.SCORE], "pat", pattern_vocabulary(8))
        assert seq.tolist() == [pattern_index(bar) for bar in self.BARS]

    def test_last_bar_takes_the_first_pattern_it_begins(self):
        vocabulary = ((0,), (0, 4), (0, 2, 4, 6), (0, 2))
        (seq,) = _symbol_sequences([self.SCORE], "pat", vocabulary[:3])
        assert seq.tolist() == [2, 1, 0, 2]
        (seq,) = _symbol_sequences([self.SCORE], "pat", vocabulary)
        assert seq.tolist() == [2, 1, 0, 3]  # its own pattern when present

    def test_other_bar_outside_the_vocabulary_is_rejected(self):
        with pytest.raises(ValueError, match=r"bar pattern \(0, 4\) is not in the "
                                              "model's 2-pattern vocabulary"):
            _symbol_sequences([self.SCORE], "pat", ((0,), (0, 2, 4, 6)))


class TestModificationPresets:
    def test_shift_row_layout(self):
        _, shift = build_modification_base(8, no_shift_mass=0.9)
        assert len(shift) == 15
        assert shift[7] == pytest.approx(0.9)  # s = 0
        assert np.allclose(np.delete(shift, 7), 0.1 / 14)
        assert shift.sum() == pytest.approx(1.0)

    def test_division_rows_layout(self):
        division, _ = build_modification_base(8, identity_division_mass=0.9)
        parts = division_parts(8)
        assert len(division) == 8
        assert division[0].tolist() == [1.0]  # a value of 1 cannot divide
        for r in range(2, 9):
            row = division[r - 1]
            assert len(row) == len(parts[r - 1])
            assert row[0] == pytest.approx(0.9)  # the identity division
            assert np.allclose(row[1:], 0.1 / (len(parts[r - 1]) - 1))

    def test_point_mass_presets(self):
        division, shift = build_modification_base(
            8, no_shift_mass=1.0, identity_division_mass=1.0
        )
        assert shift[7] == 1.0 and shift.sum() == 1.0
        for row in division:
            assert row[0] == 1.0 and row.sum() == 1.0

    def test_mass_bounds(self):
        with pytest.raises(ValueError):
            build_modification_base(8, no_shift_mass=0.0)
        with pytest.raises(ValueError):
            build_modification_base(8, identity_division_mass=1.2)

    def test_attach_respects_config(self):
        corpus = corpus_of((0, 2, 4, 8))
        params = estimate_params(corpus, ModelConfig.from_name("metmm1"))
        with_shift = attach_modification_presets(params, ModelConfig.from_name("metmm1s"))
        assert with_shift.shift_probs is not None
        assert with_shift.division_probs is None
        assert params.shift_probs is None  # original untouched
        both = attach_modification_presets(params, ModelConfig.from_name("metmm1sd"))
        build_state_space(ModelConfig.from_name("metmm1sd"), both)


class TestHyperparams:
    def test_assembly_defaults(self):
        corpus = corpus_of((0, 2, 4, 8))
        cfg = ModelConfig.from_name("metmm1sb")
        params = estimate_params(corpus, ModelConfig.from_name("metmm1"))
        hp = assemble_hyperparams(params, cfg)
        assert hp.alpha_initial == 10.0
        assert hp.alpha_transition == 10.0
        assert hp.base.shift_probs is not None

    def test_per_table_overrides(self):
        corpus = corpus_of((0, 2, 4, 8))
        params = estimate_params(corpus, ModelConfig.from_name("metmm1"))
        hp = assemble_hyperparams(
            params, ModelConfig.from_name("metmm1b"), alpha=5.0, alpha_transition=2.0
        )
        assert hp.alpha_initial == 5.0
        assert hp.alpha_transition == 2.0

    def test_dict_round_trip(self):
        corpus = corpus_of((0, 2, 4, 8), (0, 4, 6, 8))
        params = estimate_params(corpus, ModelConfig.from_name("notemm1"))
        hp = assemble_hyperparams(params, ModelConfig.from_name("notemm1sdb"), alpha=3.0)
        again = hyperparams_from_dict(hyperparams_to_dict(hp))
        assert again.alpha_shift == 3.0
        np.testing.assert_allclose(again.base.transition, hp.base.transition, rtol=1e-15)
        np.testing.assert_allclose(again.base.shift_probs, hp.base.shift_probs, rtol=1e-15)
