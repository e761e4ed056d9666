"""Score-model state spaces: construction, probabilities, and collapse limits."""
import json
import math
import re

import numpy as np
import pytest
from scipy.special import logsumexp

from rhythmscribe import models
from rhythmscribe._dp import InferenceError, forward
from rhythmscribe.core import RhythmScore, interval
from rhythmscribe.models import (
    DEFAULT_BAR_LENGTH,
    ModelConfig,
    ModelParams,
    build_state_space,
    division_parts,
    load_params,
    params_from_dict,
    params_to_dict,
    pattern_index,
    pattern_table_bytes,
    pattern_vocabulary,
    random_params,
    sample_corpus,
    sample_score,
    save_params,
    sequence_log_prob,
    uniform_params,
)

from conftest import ALL_VARIANTS, edge_id, enumerate_paths, tiny_instance


def trans_prob(space, tag_from, tag_to) -> float:
    """Weight of the transition edge between two tagged states, 0 if none."""
    e = edge_id(space, tag_from, tag_to)
    return 0.0 if e is None else float(np.exp(space.trans.logp[e]))


def output_value(space, tag_from, tag_to):
    """Note value of the transition edge between two tagged states, None if none."""
    e = edge_id(space, tag_from, tag_to)
    return None if e is None else int(space.trans.out[e])


class TestConfig:
    def test_name_round_trip(self):
        for name in ALL_VARIANTS:
            assert ModelConfig.from_name(name).name == name

    def test_non_bayesian_modified_names_parse(self):
        cfg = ModelConfig.from_name("notemm1sd")
        assert (cfg.shift, cfg.division, cfg.bayesian) == (True, True, False)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig.from_name("patmm2")
        with pytest.raises(ValueError):
            ModelConfig.from_name("notemm0s")  # mods need an order-1 base
        with pytest.raises(ValueError):
            ModelConfig.from_name("drummm1")
        with pytest.raises(ValueError, match="bar_length must be an integer, got 8.5"):
            ModelConfig.from_name("metmm1", bar_length=8.5)
        uniform_params(ModelConfig.from_name("metmm1", bar_length=8.0)).validate()

    @pytest.mark.parametrize("flag", ["shift", "division", "bayesian"])
    @pytest.mark.parametrize("bad", ["false", "no", 1, 0, None])
    def test_flags_must_be_bools(self, flag, bad):
        with pytest.raises(ValueError, match=f"{flag} must be a bool, got {bad!r}"):
            ModelConfig("note", 1, **{flag: bad})

    def test_plain_strips_bayesian_flag(self):
        assert ModelConfig.from_name("metmm1sdb").plain().name == "metmm1sd"

    def test_pattern_table_size_guard(self):
        # arithmetic only: a pattern config allocates nothing
        assert pattern_table_bytes(16) == 8 * 65535**2  # about 34 GB
        with pytest.raises(ValueError, match=r"bar_length 16 .* 34\.4 GB, over the 1 GiB budget"):
            ModelConfig.from_name("patmm1", bar_length=16)
        with pytest.raises(ValueError, match="bar_length 14"):
            ModelConfig("pat", 0, bar_length=14)  # 2.1 GB
        with pytest.raises(ValueError, match="bar_length 1000 .* is over the 1 GiB budget"):
            ModelConfig("pat", 1, bar_length=1000)
        assert ModelConfig("pat", 1, bar_length=13).bar_length == 13  # 0.54 GB
        assert ModelConfig.from_name("patmm1sdb", bar_length=8).name == "patmm1sdb"
        assert ModelConfig.from_name("metmm1", bar_length=16).bar_length == 16


class TestVocabularyAndCatalog:
    def test_pattern_vocabulary_size(self):
        assert len(pattern_vocabulary(8)) == 255
        assert len(pattern_vocabulary(3)) == 7

    def test_pattern_index_inverts_vocabulary(self):
        vocab = pattern_vocabulary(8)
        for k in (0, 17, 101, 254):
            assert pattern_index(vocab[k], 8) == k

    def test_catalog_worked_examples(self):
        parts = division_parts(8)
        assert parts[0] == ((1,),)
        assert set(parts[3]) == {(4,), (1, 3), (2, 2), (3, 1)}
        assert len(parts[7]) == 8
        # identity division (the undivided value) is always entry 0
        for r in range(1, 9):
            assert parts[r - 1][0] == (r,)

    def test_catalog_parts_sum_to_base_value(self):
        for r, divisions in enumerate(division_parts(8), start=1):
            for pat in divisions:
                assert sum(pat) == r and all(q >= 1 for q in pat)


class TestStateSpaces:
    def test_met_first_order_has_one_state_per_position(self, rng):
        cfg = ModelConfig.from_name("metmm1")
        space = build_state_space(cfg, random_params(cfg, rng))
        assert space.n_states == 8
        assert space.state_tags == tuple(range(8))
        assert not space.virtual_boundary

    def test_pattern_state_count_is_total_note_slots(self, rng):
        cfg = ModelConfig.from_name("patmm1")
        patterns = ((0,), (0, 4))
        space = build_state_space(cfg, random_params(cfg, rng, patterns=patterns))
        assert space.n_states == 3
        assert space.state_tags == ((0, 1), (1, 1), (1, 2))
        # within-pattern steps are deterministic
        assert trans_prob(space, (1, 1), (1, 2)) == pytest.approx(1.0)
        assert output_value(space, (1, 1), (1, 2)) == 4

    def test_pattern_transition_closed_form(self, rng):
        # trans[(k',i'),(k,i)] = [k=k', i=i'+1] + [i'=len(k')] Gamma[k',k] [i=1]
        cfg = ModelConfig.from_name("patmm1", bar_length=3)
        patterns = pattern_vocabulary(3)
        params = random_params(cfg, rng, patterns=patterns)
        space = build_state_space(cfg, params)
        for kp, patp in enumerate(patterns):
            for ip in range(1, len(patp) + 1):
                for k, pat in enumerate(patterns):
                    for i in range(1, len(pat) + 1):
                        expected = 0.0
                        if k == kp and i == ip + 1:
                            expected = 1.0
                        elif ip == len(patp) and i == 1:
                            expected = params.transition[kp, k]
                        got = trans_prob(space, (kp, ip), (k, i))
                        assert got == pytest.approx(expected, abs=1e-12)

    def test_pattern_outputs_use_interval_to_next_onset(self, rng):
        cfg = ModelConfig.from_name("patmm1", bar_length=3)
        patterns = pattern_vocabulary(3)
        space = build_state_space(cfg, random_params(cfg, rng, patterns=patterns))
        for kp, patp in enumerate(patterns):
            for k, pat in enumerate(patterns):
                got = output_value(space, (kp, len(patp)), (k, 1))
                assert got == interval(patp[-1], pat[0], 3)

    def test_note_order0_rows_equal_unigram(self, rng):
        cfg = ModelConfig.from_name("notemm0")
        params = random_params(cfg, rng)
        space = build_state_space(cfg, params)
        for src in range(1, 9):
            for dst in range(1, 9):
                assert trans_prob(space, src, dst) == pytest.approx(params.unigram[dst - 1])

    def test_note_order2_state_count(self, rng):
        cfg = ModelConfig.from_name("notemm2")
        space = build_state_space(cfg, random_params(cfg, rng))
        assert space.n_states == 8 + 64  # (None, r) entry states plus (r', r) pairs

    def test_met_order2_tracks_position_pairs(self, rng):
        cfg = ModelConfig.from_name("metmm2")
        params = random_params(cfg, rng)
        space = build_state_space(cfg, params)
        assert space.n_states == 64
        assert len(space.boundary_tags) == 8
        assert trans_prob(space, (2, 5), (5, 1)) == pytest.approx(params.transition2[2, 5, 1])
        assert output_value(space, (2, 5), (5, 1)) == 4  # interval(5, 1) = 4


class TestShiftAugmentation:
    def test_output_shifts_base_value(self, rng):
        cfg = ModelConfig.from_name("notemm1s")
        params = random_params(cfg, rng)
        space = build_state_space(cfg, params)
        # base value 2 from state (4, 0) to (2, 1): output 2 + 1 - 0 = 3
        assert output_value(space, (4, 0), (2, 1)) == 3

    def test_unnormalized_edge_weight_is_product(self, rng):
        cfg = ModelConfig.from_name("notemm1s")
        params = random_params(cfg, rng)
        space = build_state_space(cfg, params)
        nb = 8
        # every edge out of (4, 0) enters some (r, s) with -r < s <= r and
        # produces r + s inside [1, nb]
        row_sum = sum(params.transition[3, r - 1] * params.shift_probs[s + (nb - 1)]
                      for r in range(1, nb + 1) for s in range(1 - r, r + 1)
                      if s < nb and 1 <= r + s <= nb)
        expected = params.transition[3, 1] * params.shift_probs[1 + (nb - 1)] / row_sum
        assert trans_prob(space, (4, 0), (2, 1)) == pytest.approx(expected)

    def test_shift_state_count(self, rng):
        # shift alphabet for value r is {s : -r < s <= r} within [-(nb-1), nb-1]
        cfg = ModelConfig.from_name("notemm1s")
        space = build_state_space(cfg, random_params(cfg, rng))
        expected = sum(
            len([s for s in range(-7, 8) if -r < s <= r]) for r in range(1, 9)
        )
        assert expected == 71
        assert space.n_states == expected

    def test_met_shift_state_count(self, rng):
        cfg = ModelConfig.from_name("metmm1s")
        space = build_state_space(cfg, random_params(cfg, rng))
        assert space.n_states == 8 * 15
        assert len(space.boundary_tags) == 8 * 15

    def test_infeasible_shifts_pruned(self, rng):
        cfg = ModelConfig.from_name("notemm1s")
        space = build_state_space(cfg, random_params(cfg, rng))
        tags = space.state_tags
        assert (1, 1) in tags and (1, 0) in tags
        assert (1, 2) not in tags  # s=2 needs value > 2
        assert (3, -3) not in tags  # s <= -r infeasible


class TestDivisionAugmentation:
    def test_mid_division_steps_deterministic(self, rng):
        cfg = ModelConfig.from_name("notemm1d")
        space = build_state_space(cfg, random_params(cfg, rng))
        h = division_parts(8)[3].index((2, 2))
        assert trans_prob(space, (4, h, 1), (4, h, 2)) == pytest.approx(1.0)
        assert output_value(space, (4, h, 1), (4, h, 2)) == 2

    def test_division_state_counts_match_catalog(self, rng):
        parts = division_parts(8)

        def alphabet(q):  # shift states available for an emitted part of size q
            return len([s for s in range(-7, 8) if -q < s <= q])

        per_value_sd = {
            r: sum(alphabet(q) for pat in parts[r - 1] for q in pat)
            for r in range(1, 9)
        }
        per_value_d = {r: sum(len(pat) for pat in parts[r - 1]) for r in range(1, 9)}

        cfg = ModelConfig.from_name("notemm1d")
        space = build_state_space(cfg, random_params(cfg, rng))
        assert space.n_states == sum(per_value_d.values())

        cfg = ModelConfig.from_name("notemm1sd")
        space = build_state_space(cfg, random_params(cfg, rng))
        assert space.n_states == sum(per_value_sd.values()) == 407

        cfg = ModelConfig.from_name("metmm1sd")
        space = build_state_space(cfg, random_params(cfg, rng))
        assert space.n_states == 8 * sum(per_value_sd.values()) == 3256

    def test_zero_support_divisions_absent(self, rng):
        cfg = ModelConfig.from_name("notemm1d")
        params = random_params(cfg, rng)
        rows = [row.copy() for row in params.division_probs]
        h = division_parts(8)[3].index((1, 3))
        rows[3][h] = 0.0
        rows[3] = rows[3] / rows[3].sum()
        params = params.copy()
        params.division_probs = tuple(rows)
        space = build_state_space(cfg, params)
        assert (4, h, 1) not in space.state_tags


class TestCollapseLimits:
    """Point-mass modification parameters reproduce the unmodified model."""

    @pytest.mark.parametrize("family", ["note", "met", "pat"])
    @pytest.mark.parametrize("mods", ["s", "d", "sd"])
    def test_point_mass_matches_plain_model(self, family, mods, rng):
        nb = 4
        plain_cfg = ModelConfig.from_name(f"{family}mm1", bar_length=nb)
        patterns = pattern_vocabulary(nb) if family == "pat" else None
        params = random_params(plain_cfg, rng, patterns=patterns)
        plain = build_state_space(plain_cfg, params)

        mod_cfg = ModelConfig.from_name(f"{family}mm1{mods}", bar_length=nb)
        mod_params = params.copy()
        if mod_cfg.shift:
            xi = np.zeros(2 * nb - 1)
            xi[nb - 1] = 1.0  # all mass on s=0
            mod_params.shift_probs = xi
        if mod_cfg.division:
            rows = []
            for divisions in division_parts(nb):
                row = np.zeros(len(divisions))
                row[0] = 1.0  # the identity division
                rows.append(row)
            mod_params.division_probs = tuple(rows)
        modified = build_state_space(mod_cfg, mod_params)

        scores = [sample_score(plain, int(rng.integers(2, 8)), rng) for _ in range(15)]
        for score in scores:
            assert sequence_log_prob(modified, score) == pytest.approx(
                sequence_log_prob(plain, score), abs=1e-9
            )

    def test_order0_equals_order1_with_tied_rows(self, rng):
        cfg0 = ModelConfig.from_name("metmm0")
        p0 = random_params(cfg0, rng)
        cfg1 = ModelConfig.from_name("metmm1")
        p1 = uniform_params(cfg1)
        p1.initial = p0.initial.copy()
        p1.transition = np.tile(p0.unigram, (8, 1))
        s0 = build_state_space(cfg0, p0)
        s1 = build_state_space(cfg1, p1)
        for _ in range(10):
            score = sample_score(s0, int(rng.integers(2, 10)), rng)
            assert sequence_log_prob(s1, score) == pytest.approx(
                sequence_log_prob(s0, score), abs=1e-12
            )


class TestSequenceLogProb:
    def test_note_model_is_markov_product(self, rng):
        cfg = ModelConfig.from_name("notemm1")
        params = random_params(cfg, rng)
        space = build_state_space(cfg, params)
        score = RhythmScore((4, 6, 8, 12))  # note values 2, 2, 4
        expected = math.log2(
            params.initial[1] * params.transition[1, 1] * params.transition[1, 3]
        )
        assert sequence_log_prob(space, score) == pytest.approx(expected, abs=1e-12)

    def test_met_model_scores_positions_and_initial(self, rng):
        cfg = ModelConfig.from_name("metmm1")
        params = random_params(cfg, rng)
        space = build_state_space(cfg, params)
        score = RhythmScore((4, 6, 8, 12))  # positions 4, 6, 0, 4
        expected = math.log2(
            params.initial[4]
            * params.transition[4, 6]
            * params.transition[6, 0]
            * params.transition[0, 4]
        )
        assert sequence_log_prob(space, score) == pytest.approx(expected, abs=1e-12)

    def test_deterministic_model_gives_zero_bits(self):
        cfg = ModelConfig.from_name("notemm1")
        params = uniform_params(cfg)
        params.initial = np.eye(8)[1]
        params.transition = np.tile(np.eye(8)[3], (8, 1))  # always continue with 4
        space = build_state_space(cfg, params)
        assert sequence_log_prob(space, RhythmScore((0, 2, 6, 10))) == pytest.approx(0.0)
        assert sequence_log_prob(space, RhythmScore((0, 3))) == -np.inf

    def test_marginalizes_division_paths(self, rng):
        # against explicit path enumeration, filtering on the emitted values
        config, params, space, _, _ = tiny_instance("notemm1d", rng, n_notes=4)
        score = sample_score(space, 4, rng)
        values = np.diff(score.onsets)
        boundary, states, outputs, log_prior = enumerate_paths(space, len(values))
        match = np.all(outputs == values[None, :], axis=1)
        assert match.any()
        expected = logsumexp(log_prior[match]) / np.log(2.0)
        assert sequence_log_prob(space, score) == pytest.approx(expected, abs=1e-9)

    def test_pattern_model_marginalizes_tie_ambiguity(self, rng):
        config, params, space, _, _ = tiny_instance("patmm1", rng, n_notes=3)
        score = sample_score(space, 3, rng)
        values = np.diff(score.onsets)
        b0 = score.onsets[0] % config.bar_length
        boundary, states, outputs, log_prior = enumerate_paths(space, len(values))
        starts = np.array(
            [space.initial_positions[b] for b in boundary]
        )
        match = np.all(outputs == values[None, :], axis=1) & (starts == b0)
        expected = logsumexp(log_prior[match]) / np.log(2.0)
        assert sequence_log_prob(space, score) == pytest.approx(expected, abs=1e-9)


class TestSampling:
    def test_sampled_scores_are_valid(self, rng):
        for name in ("notemm1", "metmm2", "patmm1", "metmm1sd"):
            _, _, space, _, _ = tiny_instance(name, rng, n_notes=5)
            for _ in range(5):
                score = sample_score(space, 6, rng)
                assert len(score.onsets) == 7
                assert sequence_log_prob(space, score) > -np.inf

    def test_sample_corpus_ids_and_determinism(self):
        cfg = ModelConfig.from_name("notemm1")
        params = uniform_params(cfg)
        space = build_state_space(cfg, params)
        a = sample_corpus(space, 3, 5, np.random.default_rng(7), id_prefix="x")
        b = sample_corpus(space, 3, 5, np.random.default_rng(7), id_prefix="x")
        assert a.ids == ("x-0000", "x-0001", "x-0002")
        assert [p.onsets for p in a.pieces] == [p.onsets for p in b.pieces]

    @pytest.mark.parametrize("n_notes, message", [
        (2.5, "n_notes must be an integer, got 2.5"),
        ("3", "n_notes must be an integer, got '3'"),
        (0, "n_notes must be >= 1, got 0"),
        (-2, "n_notes must be >= 1, got -2"),
    ])
    def test_note_count_is_checked_before_sampling(self, n_notes, message):
        space = build_state_space(ModelConfig.from_name("notemm1"),
                                  uniform_params(ModelConfig.from_name("notemm1")))
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match=message):
            sample_score(space, n_notes, rng)
        with pytest.raises(ValueError, match=message):
            sample_corpus(space, 2, n_notes, rng)
        assert rng.random() == np.random.default_rng(7).random()  # nothing drawn

    @pytest.mark.parametrize("n_pieces, message", [
        (1.5, "n_pieces must be an integer, got 1.5"),
        (0, "n_pieces must be >= 1, got 0"),
        (-1, "n_pieces must be >= 1, got -1"),
    ])
    def test_piece_count_is_checked(self, n_pieces, message):
        space = build_state_space(ModelConfig.from_name("notemm1"),
                                  uniform_params(ModelConfig.from_name("notemm1")))
        with pytest.raises(ValueError, match=message):
            sample_corpus(space, n_pieces, 5, np.random.default_rng(7))

    def test_integral_float_counts_stand_for_ints(self):
        space = build_state_space(ModelConfig.from_name("notemm1"),
                                  uniform_params(ModelConfig.from_name("notemm1")))
        a = sample_corpus(space, 2.0, 5.0, np.random.default_rng(7))
        b = sample_corpus(space, 2, 5, np.random.default_rng(7))
        assert a == b

    def test_outputs_always_positive(self, rng):
        for name in ALL_VARIANTS:
            _, _, space, _, _ = tiny_instance(name, rng, n_notes=3)
            for edges in (space.first, space.trans):
                if edges.n_edges:
                    assert edges.out.min() >= 1
                    assert edges.out.max() <= space.bar_length

    def test_rows_renormalized_after_masking(self, rng):
        for name in ("notemm1s", "metmm1sd", "patmm1d"):
            _, _, space, _, _ = tiny_instance(name, rng, n_notes=3)
            for edges in (space.first, space.trans):
                sums = np.zeros(edges.n_src)
                np.add.at(sums, edges.src, np.exp(edges.logp))
                used = sums > 0
                assert np.allclose(sums[used], 1.0, atol=1e-12)
            init = np.exp(space.log_initial)
            assert init.sum() == pytest.approx(1.0)


DEAD_END = "states with no out-edge leak the prior mass the tables send into them"


class TestDeadEndStates:
    """Records of a known fault: with both modifications, a build leaves states
    that no edge leaves (27 of the 407 of this random `notemm1sd` space), so
    the prior loses the mass that enters them.  Each test states what a
    normalized prior gives and fails until the fault is mended."""

    @staticmethod
    def space():
        cfg = ModelConfig.from_name("notemm1sd")
        return build_state_space(cfg, random_params(cfg, np.random.default_rng(0)))

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=DEAD_END)
    def test_every_state_has_an_out_edge(self):
        space = self.space()
        assert np.bincount(space.trans.src, minlength=space.n_states).min() > 0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=DEAD_END)
    @pytest.mark.parametrize("n_steps", [5, 20])  # -0.4750 and -2.0950 at the time of writing
    def test_all_zero_emissions_keep_the_prior_mass(self, n_steps):
        # an emission of 0 weighs every value 1, so a normalized prior sums to 1
        assert forward(self.space(), np.zeros((n_steps, 8))) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.xfail(strict=True, raises=InferenceError, reason=DEAD_END)
    def test_generative_sampling_never_stops(self):
        # raises "dead-end state during generative sampling"
        assert len(sample_score(self.space(), 10, np.random.default_rng(1)).onsets) == 11


# the tables each model's params must have
REQUIRED_TABLES = {
    "notemm0": ("initial", "unigram"),
    "notemm1": ("initial", "transition"),
    "notemm2": ("initial", "transition", "transition2"),
    "metmm1s": ("initial", "transition"),
    "metmm1d": ("initial", "transition"),
    "patmm1": ("initial", "transition"),
}


class TestTableChecks:
    """`validate` and `params_from_dict` check every table and name the bad one."""

    @staticmethod
    def params(name):
        cfg = ModelConfig.from_name(name, bar_length=4)
        params = random_params(cfg, np.random.default_rng(0))
        params.validate()
        return params

    @pytest.mark.parametrize("name", REQUIRED_TABLES)
    def test_missing_table_named(self, name):
        for table in REQUIRED_TABLES[name]:
            params = self.params(name)
            setattr(params, table, None)
            with pytest.raises(ValueError, match=f"params need table {table}$"):
                params.validate()

    @pytest.mark.parametrize("name", REQUIRED_TABLES)
    def test_mis_shaped_table_named(self, name):
        for table in REQUIRED_TABLES[name] + ("shift_probs",):
            params = self.params(name)
            good = getattr(params, table)
            if good is None:
                continue
            n = good.shape[-1] + 1  # rows one entry too long, still summing to 1
            setattr(params, table, np.full(good.shape[:-1] + (n,), 1.0 / n))
            with pytest.raises(ValueError, match=re.escape(f"{table} must have shape {good.shape}")):
                params.validate()

    @pytest.mark.parametrize("name", REQUIRED_TABLES)
    def test_division_row_of_wrong_length_named(self, name):
        params = self.params(name)
        rows = [np.full(r, 1.0 / r) for r in range(1, 5)]
        rows[2] = np.full(4, 0.25)  # base value 3 has 3 divisions
        params.division_probs = tuple(rows)
        with pytest.raises(ValueError, match=re.escape("division_probs[3] must have shape (3,)")):
            params.validate()
        params.division_probs = tuple(rows[:2])
        with pytest.raises(ValueError, match="division_probs needs one row per base value"):
            params.validate()

    @pytest.mark.parametrize("table, n_labels", [("transition", 3), ("transition2", 2)])
    @pytest.mark.parametrize("name", REQUIRED_TABLES)
    def test_key_with_wrong_label_count_named(self, name, table, n_labels):
        data = params_to_dict(self.params(name))
        key = "->".join(list(data["initial"])[:n_labels])
        data.setdefault(table, {})[key] = 0.5
        with pytest.raises(ValueError, match=f"{table} key {re.escape(repr(key))} needs"):
            params_from_dict(data)


class TestParamsSerialization:
    @pytest.mark.parametrize("name", ["notemm0", "metmm2", "patmm1", "notemm1sd"])
    def test_round_trip(self, name, rng, tmp_path):
        cfg = ModelConfig.from_name(name, bar_length=4)
        patterns = pattern_vocabulary(4) if cfg.family == "pat" else None
        params = random_params(cfg, rng, patterns=patterns)
        path = tmp_path / f"{name}.json"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.family == params.family and loaded.order == params.order
        np.testing.assert_allclose(loaded.initial, params.initial, rtol=1e-15)
        if params.transition is not None:
            np.testing.assert_allclose(loaded.transition, params.transition, rtol=1e-15)
        if params.transition2 is not None:
            np.testing.assert_allclose(loaded.transition2, params.transition2, rtol=1e-15)
        if params.shift_probs is not None:
            np.testing.assert_allclose(loaded.shift_probs, params.shift_probs, rtol=1e-15)
        if params.division_probs is not None:
            for a, b in zip(loaded.division_probs, params.division_probs):
                np.testing.assert_allclose(a, b, rtol=1e-15)
        if params.patterns is not None:
            assert loaded.patterns == params.patterns

    def test_json_uses_readable_labels(self, rng, tmp_path):
        cfg = ModelConfig.from_name("notemm1")
        params = random_params(cfg, rng)
        path = tmp_path / "p.json"
        save_params(params, path)
        data = json.loads(path.read_text())
        assert data["family"] == "note"
        assert isinstance(data["transition"], dict)
        assert any("r:" in key for key in data["transition"])

    def test_dict_round_trip_equals_identity(self, rng):
        cfg = ModelConfig.from_name("metmm1sd")
        params = random_params(cfg, rng)
        again = params_from_dict(params_to_dict(params))
        np.testing.assert_allclose(again.transition, params.transition, rtol=1e-15)
        np.testing.assert_allclose(again.shift_probs, params.shift_probs, rtol=1e-15)

    @pytest.mark.parametrize("key", ["bar_length", "order"])
    def test_non_integral_header_rejected(self, key, rng):
        data = params_to_dict(random_params(ModelConfig.from_name("metmm1"), rng))
        data[key] = 8.5
        with pytest.raises(ValueError, match=key):
            params_from_dict(data)

    def test_non_integral_pattern_position_rejected(self, rng):
        cfg = ModelConfig.from_name("patmm1", bar_length=4)
        data = params_to_dict(random_params(cfg, rng))
        data["patterns"][-1] = [0, 1.5]
        with pytest.raises(ValueError, match="pattern position must be an integer, got 1.5"):
            params_from_dict(data)
        data["patterns"][-1] = [0.0, 3.0]  # integral floats load as ints
        assert params_from_dict(data).patterns[-1] == (0, 3)

    def test_checked_vocabulary_is_not_checked_again(self, rng, monkeypatch):
        # params drawn or copied from checked params (each Gibbs sweep) hand
        # on a vocabulary whose positions were made ints once
        params = random_params(ModelConfig.from_name("patmm1", bar_length=4), rng)
        checked = []
        monkeypatch.setattr(models, "integral", lambda v, what: checked.append(what) or int(v))

        def rebuilt(patterns):
            return ModelParams("pat", 1, 4, params.initial, params.transition, patterns=patterns)

        assert rebuilt(params.patterns).patterns is params.patterns
        assert params.copy().patterns is params.patterns
        assert checked == []
        again = rebuilt(tuple(params.patterns))  # a plain tuple is checked
        assert again.patterns == params.patterns
        assert checked == ["pattern position"] * sum(map(len, params.patterns))

    @pytest.mark.parametrize("bad, message", [
        ((0, 4), r"pattern \(0, 4\) is not a strictly increasing"),
        ((-1, 2), r"pattern \(-1, 2\) is not a strictly increasing"),
        ((2, 1), r"pattern \(2, 1\) is not a strictly increasing"),
        ((1, 1), r"pattern \(1, 1\) is not a strictly increasing"),
        ((), r"pattern \(\) is not a strictly increasing, nonempty"),
        ((0, 1), "duplicate patterns"),
    ])
    def test_pattern_vocabulary_validated(self, bad, message, rng):
        cfg = ModelConfig.from_name("patmm1", bar_length=4)
        params = random_params(cfg, rng, patterns=[(0,), (0, 1), (1, 3), (2,)])
        params.validate()
        params.patterns = params.patterns[:-1] + (bad,)
        with pytest.raises(ValueError, match=message):
            params.validate()
        with pytest.raises(ValueError, match=message):
            params_from_dict(params_to_dict(params)).validate()

    def test_validation_rejects_bad_rows(self):
        cfg = ModelConfig.from_name("notemm1")
        params = uniform_params(cfg)
        params.transition = params.transition * 0.5
        with pytest.raises(ValueError):
            params.validate()
        with pytest.raises(ValueError):
            build_state_space(cfg, params)
        params = uniform_params(cfg)
        params.transition[3] = np.nan
        with pytest.raises(ValueError, match="transition has non-finite entries"):
            params.validate()

    def test_family_mismatch_rejected(self, rng):
        note_params = random_params(ModelConfig.from_name("notemm1"), rng)
        with pytest.raises(ValueError):
            build_state_space(ModelConfig.from_name("metmm1"), note_params)
