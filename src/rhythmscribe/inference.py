"""Decoding and Bayesian (piece-specific) parameter learning.

Non-Bayesian transcription is Viterbi decoding of the transcription HMM.
Bayesian transcription alternates Gibbs sweeps: sample parameters from
Dirichlet posteriors around the generic model (concentration alpha times the
base distribution plus path counts), then resample the latent path by forward
filtering backward sampling.  After all sweeps the sampled parameter set with
the highest data likelihood wins and is Viterbi-decoded.

Count gathering follows the complete-data factorization, which the state
space's weights spell out (each is a product of table entries): initial
counts from the first symbol (or the pre-first-note boundary state),
transition counts only where a new base symbol is entered (division
mid-steps are deterministic and carry no information about the transition
table, so their edges weigh the constant 1; pattern-internal steps likewise
contribute nothing to the pattern-level table), shift counts from every note
plus the boundary, and division counts once per division group, indexed by
the base value being divided.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from . import _dp
from ._dp import InferenceError, PathSample
from .core import integral, score_from_metrical
from .models import (
    LatentStateSpace,
    ModelConfig,
    ModelParams,
    build_state_space,
)
from .timing import TimingParams, TranscriptionHmm

DEFAULT_CONCENTRATION = 10.0
DEFAULT_GIBBS_ITERATIONS = 100

__all__ = [
    "InferenceError",
    "Hyperparams",
    "GibbsConfig",
    "TranscriptionResult",
    "sample_dirichlet",
    "PathCounts",
    "gather_counts",
    "sample_posterior",
    "gibbs_fit",
    "transcribe",
    "DEFAULT_CONCENTRATION",
    "DEFAULT_GIBBS_ITERATIONS",
]


@dataclass(frozen=True)
class Hyperparams:
    """Dirichlet priors: a base parameter set and per-table concentrations.

    The base carries the generic model's rows (including the shift/division
    preset rows when the config uses modifications); each posterior row is
    Dir(alpha * base_row + counts).
    """

    base: ModelParams
    alpha_initial: float = DEFAULT_CONCENTRATION
    alpha_transition: float = DEFAULT_CONCENTRATION
    alpha_shift: float = DEFAULT_CONCENTRATION
    alpha_division: float = DEFAULT_CONCENTRATION

    def __post_init__(self):
        for name in ("alpha_initial", "alpha_transition", "alpha_shift", "alpha_division"):
            value = getattr(self, name)
            if not (value > 0 and np.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        self.base.validate()


@dataclass(frozen=True)
class GibbsConfig:
    """Gibbs sweep count, beam width (None = exact), and RNG seed."""

    iterations: int = DEFAULT_GIBBS_ITERATIONS
    beam_width: int | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "iterations", integral(self.iterations, "iterations"))
        object.__setattr__(self, "seed", integral(self.seed, "seed"))
        if self.beam_width is not None:
            object.__setattr__(self, "beam_width", integral(self.beam_width, "beam_width"))
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.beam_width is not None and self.beam_width < 1:
            raise ValueError("beam_width must be >= 1 (or None for exact)")


@dataclass(frozen=True)
class TranscriptionResult:
    """A decoded performance: note values, latent annotations, likelihoods.

    `log_likelihood` is log P(observations) under the decoded parameters.
    An exact `transcribe` on a certified space (see `_dp.viterbi`) takes it
    from the decode's upper backward pass, a bound from above within e^-40
    relative of the forward total; every other call takes the forward's.
    """

    model: str
    note_values: tuple[int, ...]
    onsets: tuple[int, ...]
    state_tags: tuple
    boundary_tag: object
    log_likelihood: float
    path_log_prob: float
    trace: tuple[float, ...] = field(default=())

    @property
    def n_notes(self) -> int:
        return len(self.note_values)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "note_values": list(self.note_values),
            "onsets": list(self.onsets),
            "state_tags": [_tag_to_json(t) for t in self.state_tags],
            "boundary_tag": _tag_to_json(self.boundary_tag),
            "log_likelihood": self.log_likelihood,
            "path_log_prob": self.path_log_prob,
            "trace": list(self.trace),
        }


def _tag_to_json(tag):
    if isinstance(tag, tuple):
        return [_tag_to_json(t) for t in tag]
    return tag


# ---------------------------------------------------------------------------
# Dirichlet machinery


def sample_dirichlet(params, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Dirichlet draw(s) via normalized Gamma variables.

    `params` is the concentration-weighted base vector (all entries > 0);
    with `size`, returns a (size, len(params)) array of independent draws.
    """
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1 or len(params) == 0:
        raise ValueError("params must be a nonempty vector")
    if np.any(params <= 0):
        raise ValueError("Dirichlet parameters must be strictly positive")
    shape = (len(params),) if size is None else (size, len(params))
    g = rng.gamma(np.broadcast_to(params, shape)).reshape(-1, len(params))
    return _normalized(np.broadcast_to(params, g.shape), g, rng).reshape(shape)


def _check_posterior_row(row: np.ndarray) -> None:
    if np.any(row < 0):
        raise ValueError("negative posterior parameters")
    if not row.sum() > 0:
        raise InferenceError("posterior row with no support")


# Dirichlet draws normalize Gamma variates.  Zero components stay exactly zero
# (Gamma(0) draws are exactly 0), so point-mass priors survive the posterior
# draw.  One Gamma call over a whole table draws the same variates, in the
# same order, as one call per row, so seeded streams match the per-row draw.


def _normalized(shapes: np.ndarray, g: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Dirichlet draws from the Gamma draws `g` of each row of `shapes`.

    A row whose every Gamma draw underflowed to 0 (all its shapes tiny) is
    drawn again in log space, Gamma(a) = Gamma(a + 1) U^(1/a), so seeded
    streams change only where the plain draw would give 0/0.
    """
    total = g.sum(axis=1, keepdims=True)
    dead = total[:, 0] == 0
    if not dead.any():
        return g / total
    out = g / np.where(dead[:, None], 1.0, total)
    a = shapes[dead]
    pos = a > 0
    log_g = np.full(a.shape, -np.inf)
    log_g[pos] = np.log(rng.gamma(a[pos] + 1.0)) + np.log(rng.random(int(pos.sum()))) / a[pos]
    out[dead] = np.exp(log_g - logsumexp(log_g, axis=1, keepdims=True))
    return out


def _sample_table(table: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One Dirichlet draw per row (last axis) of a posterior table."""
    rows = table.reshape(-1, table.shape[-1])
    bad = np.any(rows < 0, axis=1) | ~(rows.sum(axis=1) > 0)
    if bad.any():
        _check_posterior_row(rows[np.argmax(bad)])
    return _normalized(rows, rng.gamma(rows), rng).reshape(table.shape)


def _sample_ragged(rows: list, rng: np.random.Generator) -> tuple:
    """One Dirichlet draw per posterior row of differing lengths."""
    for row in rows:
        _check_posterior_row(row)
    g = rng.gamma(np.concatenate(rows))
    draws = np.split(g, np.cumsum([len(r) for r in rows[:-1]]))
    return tuple(_normalized(r[None], x[None], rng)[0] for r, x in zip(rows, draws))


# ---------------------------------------------------------------------------
# path statistics


@dataclass
class PathCounts:
    """Sufficient statistics of one latent path, shaped like ModelParams."""

    initial: np.ndarray
    transition: np.ndarray | None = None
    transition2: np.ndarray | None = None
    unigram: np.ndarray | None = None
    shift: np.ndarray | None = None
    division: list[np.ndarray] | None = None


# Each table of a model's layout (see `models._TABLES`): its `PathCounts`
# field and its `Hyperparams` concentration, in layout order.
_POSTERIOR = {
    "initial": ("initial", "alpha_initial"),
    "unigram": ("unigram", "alpha_transition"),
    "transition": ("transition", "alpha_transition"),
    "transition2": ("transition2", "alpha_transition"),
    "shift_probs": ("shift", "alpha_shift"),
    "division_probs": ("division", "alpha_division"),
}


def gather_counts(space: LatentStateSpace, path: PathSample) -> PathCounts:
    """Sufficient statistics of a sampled path for the Dirichlet posteriors.

    Each weight of the space is a product of table entries (see
    `LatentStateSpace.slot_counts`), so the counts are how often the path's
    boundary state and edges use each entry.
    """
    tables = space.layout.tables(space.slot_counts(path))
    return PathCounts(**{_POSTERIOR[name][0]: table for name, table in tables.items()})


def sample_posterior(
    hp: Hyperparams, counts: PathCounts, rng: np.random.Generator
) -> ModelParams:
    """Draw a parameter set from the Dirichlet posteriors around the base.

    Every table the counts hold is drawn, in layout order; a base table
    they leave out (one the space does not weigh) is copied.
    """
    base = hp.base
    rest = None  # the base's copy, made once if a table needs it
    tables = {}
    for name, (field, alpha) in _POSTERIOR.items():
        count, prior = getattr(counts, field), getattr(base, name)
        if count is None:
            if prior is not None:
                rest = base.copy() if rest is None else rest
                tables[name] = getattr(rest, name)
        elif name == "division_probs":  # one row per base value, of differing lengths
            weight = getattr(hp, alpha)
            tables[name] = _sample_ragged([weight * b + c for b, c in zip(prior, count)], rng)
        else:
            tables[name] = _sample_table(getattr(hp, alpha) * prior + count, rng)
    return ModelParams(base.family, base.order, base.bar_length,
                       patterns=base.patterns, **tables)


# ---------------------------------------------------------------------------
# Gibbs fitting and the transcription entry point


def _result_from_path(
    space: LatentStateSpace, path: PathSample, loglik: float, trace=()
) -> TranscriptionResult:
    boundary = None
    tau0 = 0
    if not space.virtual_boundary:
        boundary = space.boundary_tags[path.boundary_index]
    if space.initial_positions is not None:
        tau0 = int(space.initial_positions[path.boundary_index])
    score = score_from_metrical(tau0, path.output_values, space.bar_length)
    return TranscriptionResult(
        model=space.config.name,
        note_values=tuple(int(v) for v in path.output_values),
        onsets=score.onsets,
        state_tags=tuple(space.state_tags[i] for i in path.state_indices),
        boundary_tag=boundary,
        log_likelihood=float(loglik),
        path_log_prob=float(path.log_prob),
        trace=tuple(float(t) for t in trace),
    )


def gibbs_fit(
    config: ModelConfig,
    hp: Hyperparams,
    performance,
    tp: TimingParams,
    gibbs: GibbsConfig,
) -> tuple[ModelParams, TranscriptionResult]:
    """Learn piece-specific parameters from one performance by Gibbs sampling.

    Iteration 0 evaluates the base parameters themselves; each subsequent
    iteration samples parameters from the Dirichlet posteriors given the
    current latent path, records the data likelihood of the new parameters,
    then resamples the path.  The likelihood-maximizing parameter set over
    all iterations (base included) is returned along with its Viterbi
    transcription; the result carries the full likelihood trace.
    """
    rng = np.random.default_rng(gibbs.seed)
    durations = np.asarray(performance.durations, dtype=np.float64)
    width = gibbs.beam_width

    params = hp.base.copy()
    space = build_state_space(config, params)
    # the emission matrix depends on the bar length and timing only
    em = TranscriptionHmm(space, tp).emission_matrix(durations)

    # one FFBS draw per iteration: its forward total is the trace entry
    path = _dp.ffbs(space, em, rng, beam_width=width)
    trace = [path.log_likelihood]
    best = (path.log_likelihood, params, space)

    for _ in range(gibbs.iterations):
        counts = gather_counts(space, path)
        params = sample_posterior(hp, counts, rng)
        space = build_state_space(config, params)
        path = _dp.ffbs(space, em, rng, beam_width=width)
        trace.append(path.log_likelihood)
        if path.log_likelihood > best[0]:
            best = (path.log_likelihood, params, space)

    best_loglik, best_params, best_space = best
    best_path = _dp.viterbi(best_space, em, beam_width=width)
    result = _result_from_path(best_space, best_path, best_loglik, trace)
    return best_params, result


def transcribe(
    config: ModelConfig,
    params_or_hyperparams,
    performance,
    tp: TimingParams,
    gibbs: GibbsConfig | None = None,
) -> TranscriptionResult:
    """Transcribe one performance: Viterbi directly, or Gibbs-fit first.

    Non-Bayesian configs take a ModelParams; Bayesian configs take a
    Hyperparams (and an optional GibbsConfig).  Inference is exact unless
    the GibbsConfig asks for a beam width.

    A non-Bayesian call decodes first.  An exact decode of a certified
    space returns the likelihood with its path, the upper backward pass's
    total within e^-40 relative (see `_dp.viterbi`), and no forward pass
    runs; otherwise one forward pass, without a table, gives it.
    """
    gibbs = GibbsConfig() if gibbs is None else gibbs
    if config.bayesian:
        if not isinstance(params_or_hyperparams, Hyperparams):
            raise TypeError("Bayesian transcription needs Hyperparams")
        _, result = gibbs_fit(config, params_or_hyperparams, performance, tp, gibbs)
        return result
    if not isinstance(params_or_hyperparams, ModelParams):
        raise TypeError("non-Bayesian transcription needs ModelParams")
    space = build_state_space(config, params_or_hyperparams)
    em = TranscriptionHmm(space, tp).emission_matrix(performance.durations)
    path = _dp.viterbi(space, em, beam_width=gibbs.beam_width)
    loglik = path.log_likelihood
    if loglik is None:  # the decode did not settle the total
        loglik = _dp.forward(space, em, beam_width=gibbs.beam_width)
    return _result_from_path(space, path, loglik)
