"""Rhythm encodings, pattern segmentation, and corpus normalization."""
import json
from dataclasses import dataclass

import numpy as np
import pytest

from rhythmscribe import core
from rhythmscribe.core import (
    INSERTED_ONSET_BUDGET,
    Corpus,
    NotePattern,
    RhythmScore,
    interval,
    jsonable,
    normalize_corpus,
    read_json,
    score_from_metrical,
    segment_patterns,
    to_metrical,
    to_note_values,
    write_json,
)


class TestInterval:
    def test_worked_examples(self):
        assert interval(4, 6, 8) == 2
        assert interval(6, 0, 8) == 2
        assert interval(0, 0, 8) == 8

    def test_range(self):
        for bp in range(8):
            for b in range(8):
                assert 1 <= interval(bp, b, 8) <= 8


class TestEncodings:
    def test_metrical_positions(self):
        assert to_metrical(RhythmScore((4, 6, 8, 12))).tolist() == [4, 6, 0, 4]
        assert to_metrical(RhythmScore((0, 8, 16))).tolist() == [0, 0, 0]

    def test_single_onset_rejected(self):
        with pytest.raises(ValueError):
            RhythmScore((0,))

    def test_note_values(self):
        assert to_note_values(RhythmScore((4, 6, 8, 12))).tolist() == [2, 2, 4]
        assert to_note_values(RhythmScore((0, 8))).tolist() == [8]

    def test_decreasing_onsets_rejected(self):
        with pytest.raises(ValueError):
            RhythmScore((4, 4, 8))

    def test_non_integral_onsets_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            RhythmScore((0, 1.7, 3))
        with pytest.raises(ValueError, match="integer"):
            RhythmScore((0, float("nan"), 3))
        with pytest.raises(ValueError, match="integer"):
            RhythmScore((0, float("inf")))
        # integral values of any numeric type keep working
        score = RhythmScore((0, 1.0, np.int64(3)))
        assert score.onsets == (0, 1, 3)
        assert all(type(t) is int for t in score.onsets)

    @pytest.mark.parametrize("bad", [8.5, "8", None, True])
    def test_non_integral_bar_length_rejected(self, bad):
        with pytest.raises(ValueError, match=f"bar_length must be an integer, got {bad!r}"):
            RhythmScore((0, 2, 4), bar_length=bad)

    def test_integral_bar_length_becomes_an_int(self):
        for nb in (8.0, np.int64(8)):
            score = RhythmScore((0, 2, 4), bar_length=nb)
            assert type(score.bar_length) is int
            assert to_metrical(score).dtype == np.int64  # an index, as training uses it

    def test_overlong_note_rejected(self):
        with pytest.raises(ValueError):
            RhythmScore((0, 9))

    def test_three_representations_agree(self, rng):
        # r_n == interval(b_{n-1}, b_n) for every consecutive onset pair
        for _ in range(50):
            n = int(rng.integers(1, 30))
            values = rng.integers(1, 9, size=n)
            tau0 = int(rng.integers(0, 8))
            onsets = tuple(np.concatenate([[tau0], tau0 + np.cumsum(values)]))
            score = RhythmScore(onsets)
            b = to_metrical(score)
            r = to_note_values(score)
            for i in range(n):
                assert interval(int(b[i]), int(b[i + 1]), 8) == r[i]

    def test_metrical_round_trip(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 20))
            values = rng.integers(1, 9, size=n)
            tau0 = int(rng.integers(0, 8))
            onsets = tuple(np.concatenate([[tau0], tau0 + np.cumsum(values)]))
            score = RhythmScore(onsets)
            b = to_metrical(score)
            rebuilt = score_from_metrical(int(b[0]), to_note_values(score))
            # tau recovered up to the bar-0 convention: tau_0 in [0, N_b)
            assert to_metrical(rebuilt).tolist() == b.tolist()
            assert to_note_values(rebuilt).tolist() == to_note_values(score).tolist()


class TestPatterns:
    def test_worked_example(self):
        pats = segment_patterns(RhythmScore((4, 6, 8, 12)))
        assert [p.positions for p in pats] == [(4, 6), (0, 4)]

    def test_terminal_onset_carries_last_bar(self):
        pats = segment_patterns(RhythmScore((0, 4, 8)))
        assert [p.positions for p in pats] == [(0, 4), (0,)]

    def test_tied_first_note_position_nonzero(self):
        pats = segment_patterns(RhythmScore((0, 6, 9, 16)))
        assert pats[1].positions[0] == 1  # bar 1 starts mid-note

    def test_note_pattern_validation(self):
        with pytest.raises(ValueError):
            NotePattern(positions=())
        with pytest.raises(ValueError):
            NotePattern(positions=(3, 3))
        with pytest.raises(ValueError):
            NotePattern(positions=(-1, 3))

    def test_segmentation_round_trip(self, rng):
        # concatenated pattern positions reproduce the note values via interval()
        for _ in range(40):
            n = int(rng.integers(2, 25))
            values = rng.integers(1, 9, size=n)
            tau0 = int(rng.integers(0, 8))
            onsets = tuple(np.concatenate([[tau0], tau0 + np.cumsum(values)]))
            score = RhythmScore(onsets)
            flat = [p for pat in segment_patterns(score) for p in pat.positions]
            assert flat == [int(t % 8) for t in onsets]
            rederived = [interval(flat[i], flat[i + 1], 8) for i in range(len(flat) - 1)]
            assert rederived == to_note_values(score).tolist()


class TestNormalize:
    def test_long_gap_inserts_segment_starts(self):
        corpus, report = normalize_corpus([{"id": "x", "onsets": [0, 20]}])
        assert corpus.pieces[0].onsets == (0, 8, 16, 20)
        assert report.inserted_onsets == 2

    def test_short_piece_unchanged(self):
        corpus, _ = normalize_corpus([{"id": "x", "onsets": [0, 2, 4]}])
        assert corpus.pieces[0].onsets == (0, 2, 4)

    def test_empty_piece_dropped(self):
        corpus, report = normalize_corpus([{"id": "x", "onsets": []}])
        assert len(corpus.pieces) == 0
        assert report.dropped[0][0] == "x"

    @pytest.mark.parametrize("bar_length, message", [
        (0, "bar_length must be >= 1, got 0"), (-8, "bar_length must be >= 1, got -8"),
        (2.5, "bar_length must be an integer, got 2.5"),
    ])
    def test_bad_bar_length_is_rejected(self, bar_length, message):
        with pytest.raises(ValueError, match=message):
            normalize_corpus([{"id": "x", "onsets": [0, 2, 4]}], bar_length=bar_length)

    @pytest.mark.parametrize("onsets, message", [
        (["x", 2, 4], "piece a onsets: expected finite numbers, got 'x'"),
        ([0, None, 4], "piece a onsets: expected finite numbers, got None"),
        ([0, 2, float("inf")], "piece a onsets: expected finite numbers, got inf"),
        ([0, float("nan")], "piece a onsets: expected finite numbers, got nan"),
        ([0, True], "piece a onsets: expected finite numbers, got True"),
        (None, "piece a onsets: expected a JSON list, got NoneType"),
        (5, "piece a onsets: expected a JSON list, got int"),
    ])
    def test_malformed_onsets_name_the_piece(self, onsets, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            normalize_corpus([{"id": "a", "onsets": onsets}])

    def test_inserts_up_to_the_budget(self, monkeypatch):
        monkeypatch.setattr(core, "INSERTED_ONSET_BUDGET", 4)
        # bar starts 8, 16, 24 and 32 lie inside the rest from 2 to 33
        corpus, report = normalize_corpus([{"id": "a", "onsets": [0, 2, 33]}])
        assert corpus.pieces[0].onsets == (0, 2, 8, 16, 24, 32, 33)
        assert report.inserted_onsets == 4
        with pytest.raises(ValueError, match="piece a: its long rests would insert over 4 "):
            normalize_corpus([{"id": "a", "onsets": [0, 2, 41]}])

    @pytest.mark.parametrize("last", [8 * (INSERTED_ONSET_BUDGET + 1) + 1, 1e300])
    def test_a_rest_over_the_budget_is_refused_before_any_insert(self, last):
        # the rest from 2 to `last` covers one bar start more than the budget;
        # 1e300 covers about 1e299, which used to run without bound
        with pytest.raises(ValueError, match="piece big: its long rests would insert over "
                                             f"{INSERTED_ONSET_BUDGET} bar-start onsets"):
            normalize_corpus([{"id": "big", "onsets": [0, 2, last]}])

    def test_non_quadruple_meter_dropped(self):
        corpus, report = normalize_corpus(
            [{"id": "w", "onsets": [0, 2, 4], "meter": "3/4"},
             {"id": "m", "onsets": [0, 2, 4], "meter": "4/4"}]
        )
        assert corpus.ids == ("m",)
        assert report.dropped == [("w", "meter 3/4 not 4/4-equivalent")]

    def test_sub_grid_positions_snapped_and_merged(self):
        corpus, report = normalize_corpus([{"id": "x", "onsets": [0, 1.2, 1.4, 3.9]}])
        assert corpus.pieces[0].onsets == (0, 1, 4)
        assert report.merged_onsets == 1

    def test_leading_silence_rebased(self):
        corpus, _ = normalize_corpus([{"id": "x", "onsets": [17, 19, 21]}])
        # leading empty bars removed; first onset keeps its within-bar position
        assert corpus.pieces[0].onsets == (1, 3, 5)

    def test_output_note_values_bounded(self, rng):
        raws = []
        for i in range(30):
            n = int(rng.integers(2, 15))
            onsets = np.cumsum(rng.integers(1, 20, size=n))
            raws.append({"id": str(i), "onsets": onsets.tolist()})
        corpus, _ = normalize_corpus(raws)
        for piece in corpus.pieces:
            r = to_note_values(piece)
            assert np.all(r >= 1) and np.all(r <= 8)

    def test_normalization_idempotent(self, rng):
        raws = [{"id": str(i),
                 "onsets": np.cumsum(rng.integers(1, 20, size=10)).tolist()}
                for i in range(10)]
        once, _ = normalize_corpus(raws)
        again, report = normalize_corpus(
            [{"id": pid, "onsets": list(p.onsets)} for pid, p in zip(once.ids, once.pieces)]
        )
        assert [p.onsets for p in again.pieces] == [p.onsets for p in once.pieces]
        assert report.inserted_onsets == 0 and report.merged_onsets == 0


class TestCorpus:
    def test_json_round_trip(self, tmp_path):
        corpus = Corpus(
            pieces=(RhythmScore((0, 2, 4)), RhythmScore((4, 6, 8, 12))),
            ids=("a", "b"),
        )
        path = tmp_path / "corpus.json"
        corpus.save(path)
        loaded = Corpus.load(path)
        assert loaded.ids == corpus.ids
        assert [p.onsets for p in loaded.pieces] == [p.onsets for p in corpus.pieces]
        data = json.loads(path.read_text())
        assert data["bar_length"] == 8
        assert data["pieces"][0]["id"] == "a"

    @pytest.mark.parametrize("data, message", [
        ({"pieces": 5}, "corpus pieces: expected a JSON list, got int"),
        ({"pieces": [{"id": "a", "onsets": None}]},
         "corpus piece onsets: expected a JSON list, got NoneType"),
        ({"pieces": [{"id": "a", "onsets": [0, "x"]}]}, "onset must be an integer, got 'x'"),
    ])
    def test_malformed_structure_names_the_field(self, data, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Corpus.from_dict(data)

    def test_mismatched_bar_length_rejected(self):
        with pytest.raises(ValueError):
            Corpus(pieces=(RhythmScore((0, 2), bar_length=4),), ids=("a",), bar_length=8)

    def test_non_integral_bar_length_rejected(self):
        data = {"bar_length": 8.5, "pieces": [{"id": "a", "onsets": [0, 2, 4]}]}
        with pytest.raises(ValueError, match="bar_length"):
            Corpus.from_dict(data)
        data["bar_length"] = 8.0
        assert type(Corpus.from_dict(data).bar_length) is int

    def test_constructor_checks_bar_length(self):
        for bad in (8.5, "8"):
            with pytest.raises(ValueError, match=f"bar_length must be an integer, got {bad!r}"):
                Corpus((), (), bar_length=bad)
        with pytest.raises(ValueError, match="bar_length must be positive"):
            Corpus((), (), bar_length=0)
        corpus = Corpus((RhythmScore((0, 2), bar_length=8.0),), ("a",), bar_length=8.0)
        assert type(corpus.bar_length) is int


class TestJsonCodec:
    def test_jsonable_keeps_only_json_types(self):
        @dataclass
        class Row:
            name: str
            values: np.ndarray
            tags: tuple

        row = Row("r", np.array([0.5, 1.0]), ((np.int64(3), None), True))
        got = jsonable({"row": row, "n": np.int64(2), "x": np.float64(0.1), "b": np.bool_(True)})
        assert got == {"row": {"name": "r", "values": [0.5, 1.0], "tags": [[3, None], True]},
                       "n": 2, "x": 0.1, "b": True}
        assert type(got["n"]) is int and type(got["x"]) is float and type(got["b"]) is bool
        assert type(got["row"]["tags"][0][0]) is int

    def test_writes_canonical_text_that_reads_back(self, tmp_path):
        path = tmp_path / "a.json"
        obj = {"b": [1, 2.5], "a": {"z": None, "y": "s"}}
        write_json(path, obj)
        assert path.read_text() == json.dumps(obj, indent=1, sort_keys=True) + "\n"
        assert read_json(path) == obj

    def test_a_file_that_is_not_json_is_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="bad.json: not JSON: "):
            read_json(path)
