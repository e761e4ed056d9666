"""Workload definitions and input generation for the rhythmscribe benchmark.

Ground-truth rhythms come from a generator score model that lives here, not
in the library: a piece draws a small motif set of bar patterns and mostly
repeats them, with occasional bars from a shared vocabulary.  That gives
every piece statistics of its own (what the Bayesian models learn) on top of
corpus-wide ones (what `estimate_params` learns).  Performances are rendered
with the paper's Gaussian timing model, also in this file, so the library
only ever sees onset times and the tables it estimated itself.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BAR_LENGTH = 8
TEMPO_BPM = 144.0
SIGMA_T = 0.04
MIN_DURATION = 1e-3
SECONDS_PER_UNIT = 60.0 / (TEMPO_BPM * 4.0)

# Bar patterns (onset positions within an 8-unit bar).  All start on the
# downbeat, so the note crossing a barline is at most one bar long.
VOCABULARY = (
    (0,), (0, 4), (0, 2, 4, 6), (0, 2, 4), (0, 4, 6), (0, 3, 4), (0, 6),
    (0, 3, 6), (0, 2, 3, 4, 6), (0, 1, 2, 4, 6), (0, 2, 4, 5, 6),
    (0, 1, 2, 3, 4, 6), (0, 2, 4, 6, 7), (0, 1, 2, 3, 4, 5, 6, 7), (0, 2, 6),
    (0, 1, 2, 4), (0, 4, 5, 6), (0, 3, 5), (0, 2, 5, 6), (0, 4, 7),
)
VOCABULARY_WEIGHTS = np.array(
    [3, 6, 8, 5, 5, 3, 2, 4, 3, 3, 3, 2, 2, 1, 2, 2, 2, 1, 1, 1], dtype=np.float64
)
MOTIF_SIZE = 3
P_MOTIF = 0.85       # a bar comes from the piece's motif set
P_REPEAT = 0.5       # a motif bar repeats the previous motif bar

# Stream tags for SeedSequence: inputs of different purposes never share RNG.
_TRAIN, _PIECE, _WARMUP, _GIBBS = 1, 2, 3, 4

TRAIN_PIECES = 64
TRAIN_NOTES = 64
WARMUP_NOTES = 24


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: models, piece lengths and Gibbs sweeps.

    A pass transcribes one piece per (length, model) slot, models
    interleaved; `sweeps` is None for non-Bayesian decoding.  Why each
    workload exists is in README.md and BENCHMARK.json.
    """

    name: str
    models: tuple[str, ...]
    lengths: tuple[int, ...]
    sweeps: int | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decode-augmented", ("metmm1sd", "patmm1d"), (100, 200, 300), None),
        Workload("gibbs-chain", ("notemm1b", "metmm1b", "metmm2b"), (300,), 10),
        # one sweep and at most 200 notes: a 300-note metmm1sdb piece takes
        # over 6 s, which would leave too few pieces in a run
        Workload("gibbs-pattern", ("patmm1b", "metmm1sdb"), (100, 200), 1),
    )
}


def generate_onsets(rng: np.random.Generator, n_notes: int) -> tuple[int, ...]:
    """Onsets (grid units, first at 0) of one generated piece of `n_notes`."""
    motif = rng.choice(len(VOCABULARY), size=MOTIF_SIZE, replace=False,
                       p=VOCABULARY_WEIGHTS / VOCABULARY_WEIGHTS.sum())
    motif_w = rng.dirichlet(np.full(MOTIF_SIZE, 2.0))
    onsets: list[int] = []
    prev = int(motif[0])
    bar = 0
    while len(onsets) < n_notes + 1:
        if rng.random() < P_MOTIF:
            pat = prev if (prev in motif and rng.random() < P_REPEAT) else int(
                motif[rng.choice(MOTIF_SIZE, p=motif_w)])
        else:
            pat = int(rng.choice(len(VOCABULARY),
                                 p=VOCABULARY_WEIGHTS / VOCABULARY_WEIGHTS.sum()))
        onsets.extend(bar * BAR_LENGTH + p for p in VOCABULARY[pat])
        prev = pat
        bar += 1
    return tuple(onsets[: n_notes + 1])


def perform(onsets, rng: np.random.Generator) -> tuple[float, ...]:
    """Performed onset times (s): Gaussian durations, t_0 = 0.

    Draws at or below MIN_DURATION are redrawn, as a duration must be
    positive; at 144 BPM and sigma 0.04 s that is rare.
    """
    means = np.diff(np.asarray(onsets, dtype=np.float64)) * SECONDS_PER_UNIT
    d = rng.normal(means, SIGMA_T)
    bad = d <= MIN_DURATION
    while bad.any():
        d[bad] = rng.normal(means[bad], SIGMA_T)
        bad = d <= MIN_DURATION
    return tuple(float(t) for t in np.concatenate([[0.0], np.cumsum(d)]))


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


@dataclass
class Piece:
    """One timed transcription call: its model, inputs and truth."""

    index: int
    model: str
    truth: tuple[int, ...]      # note values
    performance: object         # rs.Performance
    gibbs_seed: int


@dataclass
class Prepared:
    """Everything set-up produces: tables per model and the pass's pieces."""

    workload: Workload
    tp: object
    configs: dict
    tables: dict                # model -> ModelParams or Hyperparams
    pieces: list[Piece]


def prepare(rs, workload: Workload, seed: int, lengths=None) -> Prepared:
    """Train the generic tables and synthesize one pass of pieces.

    `lengths` overrides the workload's piece lengths (the self-check runs
    tiny pieces); the training corpus uses its own RNG stream, so it never
    shares a piece with the test set.
    """
    lengths = workload.lengths if lengths is None else lengths
    train_rng = _rng(seed, _TRAIN)
    scores = [rs.RhythmScore(generate_onsets(train_rng, TRAIN_NOTES), BAR_LENGTH)
              for _ in range(TRAIN_PIECES)]
    corpus = rs.Corpus(tuple(scores), tuple(f"train-{i}" for i in range(TRAIN_PIECES)),
                       BAR_LENGTH)
    tp = rs.TimingParams.from_bpm(TEMPO_BPM, sigma_t=SIGMA_T)
    configs, tables = {}, {}
    for model in workload.models:
        config = rs.ModelConfig.from_name(model, bar_length=BAR_LENGTH)
        params = rs.estimate_params(corpus, config)
        configs[model] = config
        tables[model] = rs.assemble_hyperparams(params, config) if config.bayesian else params
    pieces = []
    slots = [(m, n) for n in lengths for m in workload.models]
    for i, (model, n) in enumerate(slots):
        rng = _rng(seed, _PIECE, i)
        onsets = generate_onsets(rng, n)
        perf = rs.Performance(perform(onsets, rng))
        gseed = int(np.random.SeedSequence([seed, _GIBBS, i]).generate_state(1)[0])
        pieces.append(Piece(i, model, tuple(np.diff(onsets).tolist()), perf, gseed))
    return Prepared(workload, tp, configs, tables, pieces)


def warm_up(rs, prep: Prepared, seed: int) -> None:
    """Transcribe one short piece per model so lazy set-up is paid here."""
    for j, model in enumerate(prep.workload.models):
        rng = _rng(seed, _WARMUP, j)
        perf = rs.Performance(perform(generate_onsets(rng, WARMUP_NOTES), rng))
        transcribe(rs, prep, Piece(-1, model, (), perf, j))


def transcribe(rs, prep: Prepared, piece: Piece):
    """The one library call a piece costs: `rs.transcribe`."""
    config = prep.configs[piece.model]
    gibbs = None
    if config.bayesian:
        gibbs = rs.GibbsConfig(iterations=prep.workload.sweeps, seed=piece.gibbs_seed)
    return rs.transcribe(config, prep.tables[piece.model], piece.performance, prep.tp, gibbs)
