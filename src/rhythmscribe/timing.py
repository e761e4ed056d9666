"""Gaussian constant-tempo timing model linking scores to performed durations.

A performed duration is the score duration scaled by the (known, constant)
inverse tempo plus i.i.d. Gaussian noise: ``d_n ~ Gauss(v * r_n, sigma_t^2)``
with ``v`` in seconds per 16th note.  Combining a score model's latent chain
with these densities gives the transcription HMM: the latent structure is the
score model's, and each transition's emission density depends only on the
note value the transition produces.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import DEFAULT_BAR_LENGTH, RhythmScore, integral, json_field, to_note_values
from .models import LatentStateSpace

DEFAULT_MIN_DURATION = 1e-3  # seconds; Gaussian draws below this are redrawn

_LOG_SQRT_2PI = np.log(np.sqrt(2 * np.pi))

__all__ = [
    "TimingParams",
    "Performance",
    "PerformedCorpus",
    "duration_log_density",
    "synthesize",
    "TranscriptionHmm",
    "DEFAULT_MIN_DURATION",
]


@dataclass(frozen=True)
class TimingParams:
    """Inverse tempo (seconds per 16th note) and onset-noise scale (seconds)."""

    seconds_per_unit: float
    sigma_t: float

    def __post_init__(self):
        for name in ("seconds_per_unit", "sigma_t"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    @classmethod
    def from_bpm(cls, tempo_bpm: float, sigma_t: float) -> "TimingParams":
        """Quarter-note BPM to seconds per 16th note."""
        if not (tempo_bpm > 0 and np.isfinite(tempo_bpm)):
            raise ValueError(f"tempo_bpm must be positive and finite, got {tempo_bpm!r}")
        return cls(seconds_per_unit=60.0 / (tempo_bpm * 4.0), sigma_t=sigma_t)

    @property
    def tempo_bpm(self) -> float:
        return 60.0 / (self.seconds_per_unit * 4.0)


@dataclass(frozen=True)
class Performance:
    """Performed onset times in seconds, strictly increasing.

    `redraws` records how many Gaussian duration draws were rejected for
    falling below the minimum-duration guard during synthesis.
    """

    onsets: tuple[float, ...]
    redraws: int = 0

    def __post_init__(self):
        if len(self.onsets) < 2:
            raise ValueError("a performance needs at least two onsets")
        if not np.all(np.isfinite(self.onsets)):
            raise ValueError("onset times must be finite")
        d = np.diff(self.onsets)
        if np.any(d <= 0):
            raise ValueError("onset times must be strictly increasing")

    @property
    def durations(self) -> np.ndarray:
        return np.diff(self.onsets)

    @property
    def n_notes(self) -> int:
        return len(self.onsets) - 1


@dataclass(frozen=True)
class PerformedCorpus:
    """A batch of performances with optional generating scores attached."""

    performances: tuple[Performance, ...]
    ids: tuple[str, ...]
    sources: tuple[RhythmScore | None, ...] = field(default=None)
    tempo_bpm: float | None = None
    sigma_t: float | None = None
    bar_length: int = DEFAULT_BAR_LENGTH

    def __post_init__(self):
        if self.sources is None:
            object.__setattr__(self, "sources", (None,) * len(self.performances))
        if not (len(self.performances) == len(self.ids) == len(self.sources)):
            raise ValueError("performances, ids, and sources must align")

    def to_dict(self) -> dict:
        items = []
        for perf, pid, src in zip(self.performances, self.ids, self.sources):
            item = {
                "id": pid,
                "onsets_sec": [float(t) for t in perf.onsets],
                "redraws": perf.redraws,
            }
            if src is not None:
                item["score_onsets"] = list(src.onsets)
            items.append(item)
        head = {"bar_length": self.bar_length, "items": items}
        if self.tempo_bpm is not None:
            head["tempo_bpm"] = self.tempo_bpm
        if self.sigma_t is not None:
            head["sigma_t"] = self.sigma_t
        return head

    @classmethod
    def from_dict(cls, data: dict) -> "PerformedCorpus":
        items = json_field(data, "items", "performances")
        nb = integral(data.get("bar_length", DEFAULT_BAR_LENGTH), "bar_length")
        perfs, ids, sources = [], [], []
        for item in items:
            onsets = json_field(item, "onsets_sec", "performance item")
            perfs.append(
                Performance(tuple(float(t) for t in onsets), redraws=int(item.get("redraws", 0)))
            )
            ids.append(str(json_field(item, "id", "performance item")))
            so = item.get("score_onsets")
            sources.append(None if so is None else RhythmScore(tuple(so), nb))
        return cls(
            performances=tuple(perfs),
            ids=tuple(ids),
            sources=tuple(sources),
            tempo_bpm=data.get("tempo_bpm"),
            sigma_t=data.get("sigma_t"),
            bar_length=nb,
        )

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "PerformedCorpus":
        return cls.from_dict(json.loads(Path(path).read_text()))


def duration_log_density(note_value, duration_sec, tp: TimingParams):
    """Log Gaussian density of a performed duration given its note value.

    Vectorized over either argument.
    """
    r = np.asarray(note_value, dtype=np.float64)
    z = (np.asarray(duration_sec, dtype=np.float64) - r * tp.seconds_per_unit) / tp.sigma_t
    # scipy.stats.norm.logpdf's arithmetic, without importing scipy.stats
    # (about 45 MB of resident memory and a third of the package's import)
    out = -z**2 / 2.0 - _LOG_SQRT_2PI
    out -= np.log(tp.sigma_t)
    return out[()] if out.ndim == 0 else out


def synthesize(
    score: RhythmScore,
    tp: TimingParams,
    rng: np.random.Generator,
    min_duration: float = DEFAULT_MIN_DURATION,
) -> Performance:
    """Render a score as noisy onset times; t_0 = 0.

    Durations are drawn from the Gaussian timing model; draws at or below
    `min_duration` are redrawn (the Gaussian admits non-positive durations
    the Performance type cannot represent), and the number of redraws is
    recorded on the result.
    """
    values = to_note_values(score)
    means = values * tp.seconds_per_unit
    durations = rng.normal(means, tp.sigma_t)
    redraws = 0
    bad = durations <= min_duration
    while np.any(bad):
        redraws += int(bad.sum())
        durations[bad] = rng.normal(means[bad], tp.sigma_t)
        bad = durations <= min_duration
    onsets = np.concatenate([[0.0], np.cumsum(durations)])
    return Performance(tuple(float(t) for t in onsets), redraws=redraws)


@dataclass(frozen=True)
class TranscriptionHmm:
    """A score model's latent chain paired with the timing densities.

    `emission_matrix` turns observed durations into the per-step
    log-density table, one column per note value up to the bar length,
    that the DP engine's `forward`, `viterbi`, `ffbs` and `ffbs_batch` take
    together with the state space.  An `ffbs` draw carries the table's
    forward total as its `log_likelihood`.
    """

    space: LatentStateSpace
    timing: TimingParams

    def emission_matrix(self, durations) -> np.ndarray:
        d = np.asarray(durations, dtype=np.float64)
        if d.ndim != 1 or len(d) < 1:
            raise ValueError("durations must be a nonempty 1-d array")
        values = np.arange(1, self.space.bar_length + 1)
        return duration_log_density(values[None, :], d[:, None], self.timing)
