"""Metrics and analytics: cross entropy, error rates, entropy studies, benchmarks.

Cross entropy is pooled over a corpus: minus the total log2 probability
divided by the total symbol count, so longer pieces weigh more.  Note models
score the note-value sequence r_{1:N}; metrical and pattern models score the
onset positions b_{0:N} including the initial one.  By default the symbol
count is the note count N for every family; pass `count_initial_symbol=True`
to count b_0 as a symbol for metrical and pattern models (both conventions
appear in reports).
"""
from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .core import Corpus, integral, jsonable, to_note_values
from .inference import GibbsConfig, sample_dirichlet, transcribe
from .models import (
    ModelConfig,
    ModelParams,
    build_state_space,
    sample_score,
    sequence_log_prob,
)
from .timing import TimingParams, synthesize
from .training import _symbol_sequences

STATIONARY_SMOOTHING = 1e-12
POWER_ITERATION_TOL = 1e-12
POWER_ITERATION_LIMIT = 200_000

__all__ = [
    "EvaluationError",
    "EvalReport",
    "SparsenessStudy",
    "distribution_entropy",
    "stationary_distribution",
    "entropy_rate",
    "error_rate",
    "cross_entropy",
    "sparseness_study",
    "benchmark",
    "benchmark_cells",
    "summarize_cells",
]


class EvaluationError(RuntimeError):
    """Raised when a metric is undefined or an iteration fails to converge."""


def distribution_entropy(p) -> float:
    """Shannon entropy of a distribution, in bits; 0 log 0 = 0."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p must be a nonempty vector")
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("p must be a probability distribution")
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def stationary_distribution(transition) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix by power iteration.

    The matrix is smoothed additively (1e-12) to guarantee irreducibility
    and averaged with the identity: the lazy chain has the same stationary
    distribution but cannot be periodic, so the iteration always settles.
    Starts uniform, iterates to max-norm tolerance 1e-12.
    """
    t = np.asarray(transition, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
        raise ValueError("transition must be a square matrix")
    if np.any(t < 0) or np.any(np.abs(t.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError("transition must be row-stochastic")
    k = t.shape[0]
    smoothed = t + STATIONARY_SMOOTHING
    smoothed /= smoothed.sum(axis=1, keepdims=True)
    lazy = 0.5 * (smoothed + np.eye(k))
    mu = np.full(k, 1.0 / k)
    for _ in range(POWER_ITERATION_LIMIT):
        nxt = mu @ lazy
        nxt /= nxt.sum()
        residual = float(np.max(np.abs(nxt - mu)))
        mu = nxt
        if residual < POWER_ITERATION_TOL:
            return mu
    raise EvaluationError(
        f"power iteration did not converge in {POWER_ITERATION_LIMIT} steps "
        f"(size {k}, last residual {residual:.3e})"
    )


def entropy_rate(transition) -> float:
    """Entropy rate of a stationary Markov chain, in bits per symbol.

    The stationary distribution comes from the smoothed lazy chain; the row
    entropies come from the original rows, so structural zeros contribute
    exactly nothing.
    """
    t = np.asarray(transition, dtype=np.float64)
    mu = stationary_distribution(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(t > 0, np.log2(np.where(t > 0, t, 1.0)), 0.0)
    row_entropy = -(t * logs).sum(axis=1)
    return float(mu @ row_entropy)


def error_rate(estimated, truth) -> float:
    """Fraction of positions where two note-value sequences disagree."""
    a = np.asarray(estimated)
    b = np.asarray(truth)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("sequences must be 1-d and of equal length")
    if a.size == 0:
        raise ValueError("sequences must be nonempty")
    return float(np.mean(a != b))


def cross_entropy(
    config: ModelConfig,
    params: ModelParams,
    corpus: Corpus,
    count_initial_symbol: bool = False,
) -> float:
    """Pooled cross entropy of a corpus under a score model, bits per symbol.

    Returns +inf when the model assigns probability zero to any piece.
    """
    if len(corpus.pieces) == 0:
        raise ValueError("empty corpus: cross entropy needs at least one piece")
    space = build_state_space(config, params)
    total_log2 = 0.0
    total_symbols = 0
    extra = 1 if (count_initial_symbol and config.family != "note") else 0
    for score in corpus.pieces:
        lp = sequence_log_prob(space, score)
        if lp == -np.inf:
            return float("inf")
        total_log2 += lp
        total_symbols += score.n_notes + extra
    return -total_log2 / total_symbols


def _empirical_entropy(seq: np.ndarray) -> float:
    counts = np.bincount(seq)
    return distribution_entropy(counts / counts.sum())


def _plugin_transition_entropy(seq: np.ndarray, n_symbols: int) -> float:
    """Conditional entropy of the empirical bigram model of one sequence."""
    if len(seq) < 2:
        return 0.0
    counts = np.zeros((n_symbols, n_symbols))
    np.add.at(counts, (seq[:-1], seq[1:]), 1)
    row_sums = counts.sum(axis=1)
    mu = row_sums / row_sums.sum()
    total = 0.0
    for i in np.flatnonzero(row_sums):
        total += mu[i] * distribution_entropy(counts[i] / row_sums[i])
    return total


@dataclass(frozen=True)
class SparsenessStudy:
    """Three entropy populations contrasting real pieces with model samples.

    Per-piece empirical entropies of the real corpus; the same statistics on
    generic-model samples length-matched to each piece; and entropies of
    symbol distributions drawn from a Dirichlet centered on the generic
    marginal at concentration alpha.
    """

    family: str
    alpha: float
    piece_symbol_entropy: np.ndarray
    piece_transition_entropy: np.ndarray
    resampled_symbol_entropy: np.ndarray
    resampled_transition_entropy: np.ndarray
    dirichlet_entropy: np.ndarray
    generic_entropy_rate: float

    def to_dict(self) -> dict:
        return jsonable(self)


def sparseness_study(
    config: ModelConfig,
    params: ModelParams,
    corpus: Corpus,
    alpha: float,
    n_samples: int,
    rng: np.random.Generator,
) -> SparsenessStudy:
    """Quantify how much sparser real pieces are than the generic model.

    Resamples are length-matched in note count.  The Dirichlet population is
    centered on the generic model's stationary symbol marginal (the unigram
    for order-0 models).
    """
    if config.shift or config.division:
        raise ValueError("sparseness_study expects a modification-free config")
    n_samples = integral(n_samples, "n_samples")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    space = build_state_space(config, params)
    family = config.family
    k = params.n_symbols

    seqs = _symbol_sequences(corpus.pieces, family, params.patterns)
    sampled = [sample_score(space, score.n_notes, rng) for score in corpus.pieces]
    sseqs = _symbol_sequences(sampled, family, params.patterns)

    if params.unigram is not None:
        marginal = params.unigram
        rate = distribution_entropy(marginal)
    else:
        marginal = stationary_distribution(params.transition)
        rate = entropy_rate(params.transition)
    draws = sample_dirichlet(alpha * marginal, rng, size=n_samples)
    dir_entropy = np.array([distribution_entropy(d) for d in draws])

    return SparsenessStudy(
        family=family,
        alpha=alpha,
        piece_symbol_entropy=np.array([_empirical_entropy(seq) for seq in seqs]),
        piece_transition_entropy=np.array([_plugin_transition_entropy(seq, k) for seq in seqs]),
        resampled_symbol_entropy=np.array([_empirical_entropy(seq) for seq in sseqs]),
        resampled_transition_entropy=np.array(
            [_plugin_transition_entropy(seq, k) for seq in sseqs]),
        dirichlet_entropy=dir_entropy,
        generic_entropy_rate=rate,
    )


@dataclass(frozen=True)
class EvalReport:
    """Per-model benchmark outcome: error statistics, runtime, failures.

    `error_mean` averages the per-seed corpus error rates, each of which is
    the note-count-weighted mean over pieces; `error_sd` is their sample
    standard deviation across seeds.  Failed (piece, seed) runs are listed
    and excluded from every aggregate.
    """

    model: str
    seeds: tuple[int, ...]
    piece_ids: tuple[str, ...]
    per_piece_error: dict
    error_mean: float
    error_sd: float
    runtime_seconds: float
    n_transcriptions: int
    failures: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        return jsonable(self)


def _cell_seed(seed: int, piece_id: str, purpose: int) -> np.random.SeedSequence:
    # keyed on the piece id, not its index, so reordering the corpus cannot
    # change any (piece, seed) cell
    return np.random.SeedSequence([seed, zlib.crc32(piece_id.encode()), purpose])


def benchmark(
    models: dict,
    corpus: Corpus,
    tp: TimingParams,
    seeds,
    gibbs: GibbsConfig | None = None,
) -> list[EvalReport]:
    """Transcribe synthesized performances of a corpus with several models.

    `models` maps a display name to a (config, params-or-hyperparams) pair.
    Each (piece, seed) performance is synthesized once and shared by all
    models, so differences are attributable to the models alone.  A model
    failing on one piece is reported and excluded from that model's
    aggregates without affecting the others.  `gibbs` supplies the Gibbs
    iterations and the beam width (None: exact) for every model.
    """
    seeds = tuple(int(s) for s in seeds)
    return summarize_cells(benchmark_cells(models, corpus, tp, seeds, gibbs), corpus, seeds)


def benchmark_cells(
    models: dict,
    corpus: Corpus,
    tp: TimingParams,
    seeds,
    gibbs: GibbsConfig | None = None,
) -> dict[str, list[tuple]]:
    """The per-cell outcomes `benchmark` aggregates.

    Returns, per model name, one ``(seed, piece_id, error_rate, failure,
    seconds)`` row per (seed, piece) cell in seed-major corpus order;
    exactly one of `error_rate` and `failure` (the exception message) is
    None.  Every cell depends on its own seed and piece id only, so runs
    over disjoint seed lists concatenate to the run over all of them.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    gibbs = GibbsConfig() if gibbs is None else gibbs
    truths = {pid: to_note_values(p) for pid, p in zip(corpus.ids, corpus.pieces)}

    performances = {}
    for seed in seeds:
        for pid, score in zip(corpus.ids, corpus.pieces):
            rng = np.random.default_rng(_cell_seed(seed, pid, 0))
            performances[(seed, pid)] = synthesize(score, tp, rng)

    cells = {}
    for name, (config, param_obj) in models.items():
        rows = cells[name] = []
        for seed in seeds:
            for pid in corpus.ids:
                run_cfg = gibbs
                if config.bayesian:
                    run_cfg = replace(gibbs, seed=int(_cell_seed(seed, pid, 1).generate_state(1)[0]))
                start = time.perf_counter()
                try:
                    result = transcribe(config, param_obj, performances[(seed, pid)], tp, run_cfg)
                except Exception as exc:  # noqa: BLE001 - isolate per-model failures
                    rows.append((seed, pid, None, str(exc), time.perf_counter() - start))
                    continue
                seconds = time.perf_counter() - start
                rows.append((seed, pid, error_rate(result.note_values, truths[pid]), None, seconds))
    return cells


def summarize_cells(cells: dict, corpus: Corpus, seeds) -> list[EvalReport]:
    """One EvalReport per model from `benchmark_cells` rows over `seeds`."""
    seeds = tuple(int(s) for s in seeds)
    weights = {pid: p.n_notes for pid, p in zip(corpus.ids, corpus.pieces)}
    reports = []
    for name, rows in cells.items():
        errors = {(seed, pid): err for seed, pid, err, _, _ in rows if err is not None}
        per_seed = []
        for seed in seeds:
            cell_pids = [pid for pid in corpus.ids if (seed, pid) in errors]
            if cell_pids:
                w = np.array([weights[pid] for pid in cell_pids], dtype=np.float64)
                e = np.array([errors[(seed, pid)] for pid in cell_pids])
                per_seed.append(float((w * e).sum() / w.sum()))
        per_piece = {}
        for pid in corpus.ids:
            vals = [errors[(seed, pid)] for seed in seeds if (seed, pid) in errors]
            if vals:
                per_piece[pid] = float(np.mean(vals))
        reports.append(
            EvalReport(
                model=name,
                seeds=seeds,
                piece_ids=corpus.ids,
                per_piece_error=per_piece,
                error_mean=float(np.mean(per_seed)) if per_seed else float("nan"),
                error_sd=float(np.std(per_seed, ddof=1)) if len(per_seed) > 1 else 0.0,
                runtime_seconds=float(sum(row[4] for row in rows)),
                n_transcriptions=len(errors),
                failures=tuple(f"{pid}/seed={seed}: {msg}"
                               for seed, pid, _, msg, _ in rows if msg is not None),
            )
        )
    return reports
