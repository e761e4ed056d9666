"""Rhythm representations and corpus normalization.

A quantized rhythm is a strictly increasing sequence of onset score times
``tau_0, ..., tau_N`` in 16th-note units.  Three equivalent encodings are used
throughout: onset times, metrical positions ``b_n = tau_n mod bar_length``,
and note values ``r_n = tau_n - tau_{n-1}``.  The metrical position of the
first onset is lost in the note-value encoding; everywhere else the encodings
are interconvertible.

Bars are ``bar_length`` 16th positions long (default 8, a half note), so a
4/4 measure spans two bars.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

DEFAULT_BAR_LENGTH = 8

__all__ = [
    "DEFAULT_BAR_LENGTH",
    "RhythmScore",
    "NotePattern",
    "Corpus",
    "NormalizationReport",
    "interval",
    "to_metrical",
    "to_note_values",
    "segment_patterns",
    "score_from_metrical",
    "normalize_corpus",
]


def integral(value, what: str) -> int:
    """`value` as an int; ValueError unless it is an integral number, not a bool."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if as_int != value or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return as_int


def json_object(data, where: str) -> dict:
    """`data` if it is a parsed JSON object; ValueError naming `where` if not."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(data).__name__}")
    return data


def json_list(data, where: str) -> list:
    """`data` if it is a parsed JSON list; ValueError naming `where` if not."""
    if not isinstance(data, list):
        raise ValueError(f"{where}: expected a JSON list, got {type(data).__name__}")
    return data


def _finite(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, Real) and math.isfinite(value)


def json_numbers(data, where: str) -> list:
    """`data` if it is a parsed JSON list of finite numbers; ValueError naming `where` if not."""
    for value in json_list(data, where):
        if not _finite(value):
            raise ValueError(f"{where}: expected finite numbers, got {value!r}")
    return data


def json_number(value, where: str, positive: bool = False):
    """`value` if it is a finite JSON number, and above 0 with `positive`;
    ValueError naming `where` if not."""
    if not _finite(value) or (positive and not value > 0):
        kind = "a finite positive number" if positive else "a finite number"
        raise ValueError(f"{where}: expected {kind}, got {value!r}")
    return value


def json_field(data, key: str, where: str):
    """``data[key]`` of a parsed JSON object; ValueError naming a missing field."""
    if key not in json_object(data, where):
        raise ValueError(f"{where}: missing field {key!r}")
    return data[key]


def jsonable(obj):
    """`obj` as dicts, lists, str, int, float, bool and None only.

    Dataclass fields map by name, tuples and numpy arrays become lists, and
    numpy scalars become Python numbers.
    """
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(value) for value in obj]
    return obj


def write_json(path, obj) -> None:
    """Write `obj` as every artifact is written: sorted keys, one-space indent, final newline."""
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")


def read_json(path):
    """The parsed JSON value of the file at `path`; ValueError naming a file that is not JSON."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from None


def interval(b_prev: int, b: int, bar_length: int) -> int:
    """Note value implied by two consecutive metrical positions.

    Parameters
    ----------
    b_prev, b : int
        Metrical positions in ``[0, bar_length)``.
    bar_length : int
        Number of 16th positions per bar.

    Returns
    -------
    int
        ``b - b_prev`` if ``b_prev < b`` else ``b - b_prev + bar_length``;
        always in ``[1, bar_length]``.  Exact on legal data because
        normalization caps note values at ``bar_length``.
    """
    d = b - b_prev
    return d if d > 0 else d + bar_length


@dataclass(frozen=True)
class RhythmScore:
    """Quantized rhythm of one piece: onsets in 16th-note units."""

    onsets: tuple[int, ...]
    bar_length: int = DEFAULT_BAR_LENGTH

    def __post_init__(self):
        object.__setattr__(self, "onsets", tuple(integral(t, "onset") for t in self.onsets))
        object.__setattr__(self, "bar_length", integral(self.bar_length, "bar_length"))
        if self.bar_length < 1:
            raise ValueError("bar_length must be positive")
        if len(self.onsets) < 2:
            raise ValueError("a rhythm needs at least two onsets (one note value)")
        if self.onsets[0] < 0:
            raise ValueError("onsets must be non-negative")
        for a, b in zip(self.onsets, self.onsets[1:]):
            if not 1 <= b - a <= self.bar_length:
                raise ValueError(
                    f"note value {b - a} outside [1, {self.bar_length}]; "
                    "normalize the corpus first"
                )

    @property
    def n_notes(self) -> int:
        return len(self.onsets) - 1


@dataclass(frozen=True)
class NotePattern:
    """One bar's rhythm: the sorted metrical positions carrying onsets.

    A nonzero first position marks a note tied over from the previous bar.
    """

    positions: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "positions", tuple(integral(p, "position") for p in self.positions)
        )
        if not self.positions:
            raise ValueError("a note pattern must contain at least one position")
        if any(p < 0 for p in self.positions):
            raise ValueError("positions must be non-negative")
        for a, b in zip(self.positions, self.positions[1:]):
            if a >= b:
                raise ValueError("positions must be strictly increasing")


def to_metrical(score: RhythmScore) -> np.ndarray:
    """Metrical positions ``b_n = tau_n mod bar_length``, length N+1."""
    return np.asarray(score.onsets, dtype=np.int64) % score.bar_length


def to_note_values(score: RhythmScore) -> np.ndarray:
    """Note values ``r_n = tau_n - tau_{n-1}``, length N."""
    return np.diff(np.asarray(score.onsets, dtype=np.int64))


def segment_patterns(score: RhythmScore) -> list[NotePattern]:
    """Split a score into per-bar note patterns.

    Bar ``m`` collects the metrical positions of all onsets with
    ``tau // bar_length == m``.  Because note values never exceed
    ``bar_length``, every bar between the first and the last onset contains
    at least one onset.  The final onset is included: it closes the last
    note and carries the last bar's pattern state.
    """
    onsets = np.asarray(score.onsets, dtype=np.int64)
    bars = onsets // score.bar_length
    positions = onsets % score.bar_length
    out: list[NotePattern] = []
    for m in np.unique(bars):
        out.append(NotePattern(tuple(positions[bars == m])))
    return out


def score_from_metrical(
    b0: int, note_values: Sequence[int], bar_length: int = DEFAULT_BAR_LENGTH
) -> RhythmScore:
    """Reconstruct a score from an initial position and note values."""
    onsets = np.concatenate([[b0], np.cumsum(np.asarray(note_values, dtype=np.int64)) + b0])
    return RhythmScore(tuple(onsets), bar_length)


@dataclass(frozen=True)
class Corpus:
    """A set of scores sharing one bar length, with piece identifiers."""

    pieces: tuple[RhythmScore, ...]
    ids: tuple[str, ...]
    bar_length: int = DEFAULT_BAR_LENGTH

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))
        object.__setattr__(self, "bar_length", integral(self.bar_length, "bar_length"))
        if self.bar_length < 1:
            raise ValueError("bar_length must be positive")
        if len(self.pieces) != len(self.ids):
            raise ValueError("pieces and ids must have equal length")
        for p in self.pieces:
            if p.bar_length != self.bar_length:
                raise ValueError("all pieces must share the corpus bar_length")

    def to_dict(self) -> dict:
        return {
            "bar_length": self.bar_length,
            "pieces": [
                {"id": pid, "onsets": list(map(int, p.onsets))}
                for pid, p in zip(self.ids, self.pieces)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Corpus":
        entries = json_list(json_field(data, "pieces", "corpus"), "corpus pieces")
        bar_length = integral(data.get("bar_length", DEFAULT_BAR_LENGTH), "bar_length")
        pieces = []
        ids = []
        for entry in entries:
            onsets = json_list(json_field(entry, "onsets", "corpus piece"), "corpus piece onsets")
            pieces.append(RhythmScore(tuple(onsets), bar_length))
            ids.append(str(json_field(entry, "id", "corpus piece")))
        return cls(tuple(pieces), tuple(ids), bar_length)

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "Corpus":
        return cls.from_dict(read_json(path))


@dataclass
class NormalizationReport:
    """What normalize_corpus did: kept/dropped pieces and edit counts."""

    kept: int = 0
    dropped: list[tuple[str, str]] = field(default_factory=list)  # (id, reason)
    inserted_onsets: int = 0
    merged_onsets: int = 0

    def summary(self) -> str:
        lines = [
            f"kept {self.kept} pieces, dropped {len(self.dropped)}",
            f"inserted {self.inserted_onsets} segment-start onsets",
            f"merged {self.merged_onsets} colliding onsets",
        ]
        for pid, reason in self.dropped:
            lines.append(f"dropped {pid}: {reason}")
        return "\n".join(lines)


_ACCEPTED_METERS = {"4/4", "2/4", "2/2", "4/2", "8/4"}

# Most segment-start onsets normalization may insert into one piece: 2^20
# is a rest of over a million bars, about 10 days at 144 BPM, so only a
# corrupt onset reaches it, and the inserts would otherwise run unbounded.
INSERTED_ONSET_BUDGET = 1 << 20


def _normalize_onsets(
    raw: Sequence[float], bar_length: int, where: str
) -> tuple[list[int], int, int]:
    """Snap to the 16th grid, merge collisions, rebase to bar 0, split long gaps.

    Returns (onsets, n_inserted, n_merged).
    """
    # round half up for determinism; finer-than-16th positions are dropped
    merged = sorted({math.floor(t + 0.5) for t in raw})
    n_merged = len(raw) - len(merged)
    if not merged:
        return [], 0, n_merged
    # drop empty leading bars, preserving the metrical phase of the first onset
    shift = (merged[0] // bar_length) * bar_length
    merged = [t - shift for t in merged]
    # a note value longer than a bar gets an onset at the start of every bar
    # it covers after the note's own, capping note values at bar_length
    n_inserted = sum((t - 1) // bar_length - prev // bar_length
                     for prev, t in zip(merged, merged[1:]) if t - prev > bar_length)
    if n_inserted > INSERTED_ONSET_BUDGET:
        raise ValueError(f"{where}: its long rests would insert over "
                         f"{INSERTED_ONSET_BUDGET} bar-start onsets")
    out = [merged[0]]
    for prev, t in zip(merged, merged[1:]):
        if t - prev > bar_length:
            out.extend(range((prev // bar_length + 1) * bar_length, t, bar_length))
        out.append(t)
    return out, n_inserted, n_merged


def normalize_corpus(
    raw_pieces: Iterable[dict],
    bar_length: int = DEFAULT_BAR_LENGTH,
) -> tuple[Corpus, NormalizationReport]:
    """Normalize raw onset data into a Corpus on the 16th-note grid.

    Parameters
    ----------
    raw_pieces : iterable of dict
        Each entry has ``"id"``, ``"onsets"`` (numbers in 16th-note units,
        fractional values allowed), and optionally ``"meter"``.  Pieces whose
        meter is not 4/4-equivalent are dropped; a missing meter is treated
        as 4/4.
    bar_length : int
        16th positions per segment bar (default 8, half-note segments).

    Returns
    -------
    (Corpus, NormalizationReport)
        Pieces are snapped to the grid, colliding onsets merged, leading
        empty bars removed, and note values capped at ``bar_length`` by
        inserting an onset at the start of every bar a longer note covers.
        Pieces left with fewer than two onsets are dropped and recorded.
    """
    bar_length = integral(bar_length, "bar_length")
    if bar_length < 1:
        raise ValueError(f"bar_length must be >= 1, got {bar_length}")
    report = NormalizationReport()
    pieces: list[RhythmScore] = []
    ids: list[str] = []
    for idx, entry in enumerate(raw_pieces):
        raw = json_field(entry, "onsets", f"piece {idx}")
        pid = str(entry.get("id", idx))
        json_numbers(raw, f"piece {pid} onsets")
        meter = entry.get("meter", "4/4")
        if meter not in _ACCEPTED_METERS:
            report.dropped.append((pid, f"meter {meter} not 4/4-equivalent"))
            continue
        onsets, n_ins, n_mrg = _normalize_onsets(raw, bar_length, f"piece {pid}")
        report.inserted_onsets += n_ins
        report.merged_onsets += n_mrg
        if len(onsets) < 2:
            report.dropped.append((pid, "fewer than two onsets after normalization"))
            continue
        pieces.append(RhythmScore(tuple(onsets), bar_length))
        ids.append(pid)
    report.kept = len(pieces)
    return Corpus(tuple(pieces), tuple(ids), bar_length), report
