"""Rhythm encodings, pattern segmentation, and corpus normalization."""
import json

import numpy as np
import pytest

from rhythmscribe.core import (
    Corpus,
    NotePattern,
    RhythmScore,
    interval,
    normalize_corpus,
    score_from_metrical,
    segment_patterns,
    to_metrical,
    to_note_values,
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

    @pytest.mark.parametrize("bad", [8.5, "8", None])
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
