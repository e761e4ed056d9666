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

from dataclasses import dataclass, field, replace

import numpy as np

from . import _dp
from ._dp import InferenceError, PathSample
from .core import integral, jsonable, score_from_metrical
from .models import (
    LatentStateSpace,
    ModelConfig,
    ModelParams,
    _Layout,
    build_state_space,
)
from .timing import TimingParams, TranscriptionHmm

DEFAULT_ALPHA = 10.0
DEFAULT_GIBBS_ITERATIONS = 100

__all__ = [
    "InferenceError",
    "Hyperparams",
    "GibbsConfig",
    "TranscriptionResult",
    "sample_dirichlet",
    "gather_counts",
    "sample_posterior",
    "gibbs_fit",
    "transcribe",
    "DEFAULT_ALPHA",
    "DEFAULT_GIBBS_ITERATIONS",
]


@dataclass(frozen=True)
class Hyperparams:
    """Dirichlet priors: a base parameter set and one concentration.

    The base carries the generic model's rows (including the shift/division
    preset rows when the config uses modifications); each posterior row is
    Dir(alpha * base_row + counts).
    """

    base: ModelParams
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if not (self.alpha > 0 and np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")
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
        return jsonable(self)


# ---------------------------------------------------------------------------
# Dirichlet machinery


def sample_dirichlet(params, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Dirichlet draw(s) via normalized Gamma variables.

    `params` is the concentration-weighted base vector (all entries positive
    and finite); with `size`, returns a (size, len(params)) array of
    independent draws.
    """
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1 or len(params) == 0:
        raise ValueError("params must be a nonempty vector")
    if not np.all((params > 0) & np.isfinite(params)):
        raise ValueError("Dirichlet parameters must be positive and finite")
    if size is not None:
        size = integral(size, "size")
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
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
    streams change only where the plain draw would give 0/0.  Where a is so
    small (subnormal) that log(U)/a overflows to -inf in every entry of a
    row, the row is the point mass on its largest log(U)/a, the smallest
    log(-log U) - log a.
    """
    total = g.sum(axis=1, keepdims=True)
    dead = total[:, 0] == 0
    if not dead.any():
        return g / total
    out = g / np.where(dead[:, None], 1.0, total)
    a = shapes[dead]
    pos = a > 0
    log_g = np.full(a.shape, -np.inf)
    log_gamma = np.log(rng.gamma(a[pos] + 1.0))
    log_u = np.log(rng.random(int(pos.sum())))
    with np.errstate(over="ignore"):
        log_g[pos] = log_gamma + log_u / a[pos]
    lost = ~np.isfinite(log_g).any(axis=1)
    if lost.any():
        key = np.full(a.shape, np.inf)
        key[pos] = np.log(-log_u) - np.log(a[pos])
        log_g[np.flatnonzero(lost), np.argmin(key[lost], axis=1)] = 0.0
    out[dead] = np.exp(log_g - _dp._log_rows(log_g)[:, None])
    return out


# ---------------------------------------------------------------------------
# path statistics and the posterior draw, both flat over a space's layout


def gather_counts(space: LatentStateSpace, path: PathSample) -> np.ndarray:
    """Sufficient statistics of a sampled path for the Dirichlet posteriors.

    Each weight of the space is a product of table entries, so the counts
    are how often the path's boundary state and edges use each slot of
    `space.layout` (see `LatentStateSpace.slot_counts`).
    """
    return space.slot_counts(path)


def sample_posterior(
    hp: Hyperparams, counts: np.ndarray, layout: _Layout, rng: np.random.Generator
) -> np.ndarray:
    """Draw a flat parameter vector from the Dirichlet posteriors around the base.

    `counts` and the result are flat over `layout`.  Every row of every
    table is drawn from Dir(alpha * base row + its counts), table by table
    in layout order, by one Gamma call over the table's rows back to back;
    the constant-1 slot stays 1.
    """
    theta = np.ones(layout.size)
    shapes = hp.alpha * layout.flatten(hp.base) + counts
    for name in layout.shapes:
        groups = layout.row_groups(name, shapes)
        for group in groups:
            bad = np.any(group < 0, axis=1) | ~(group.sum(axis=1) > 0)
            if bad.any():
                _check_posterior_row(group[np.argmax(bad)])
        block = layout.block(name)
        theta[block] = rng.gamma(shapes[block])
        for group, g in zip(groups, layout.row_groups(name, theta)):
            g[...] = _normalized(group, g, rng)
    return theta


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

    The space is built once, from the base; each draw is a flat parameter
    vector that re-weighs its topology (see `LatentStateSpace.reweighed`).
    """
    rng = np.random.default_rng(gibbs.seed)
    durations = np.asarray(performance.durations, dtype=np.float64)
    width = gibbs.beam_width

    space = build_state_space(config, hp.base)
    layout = space.layout
    # the emission matrix depends on the bar length and timing only
    em = TranscriptionHmm(space, tp).emission_matrix(durations)

    # one FFBS draw per iteration: its forward total is the trace entry
    path = _dp.ffbs(space, em, rng, beam_width=width)
    trace = [path.log_likelihood]
    best = (path.log_likelihood, layout.flatten(hp.base), space)

    # a posterior draw is zero wherever the base is, so every draw weighs
    # the base's topology, which every space of the fit shares
    for _ in range(gibbs.iterations):
        counts = gather_counts(space, path)
        theta = sample_posterior(hp, counts, layout, rng)
        space = space.reweighed(theta)
        path = _dp.ffbs(space, em, rng, beam_width=width)
        trace.append(path.log_likelihood)
        if path.log_likelihood > best[0]:
            best = (path.log_likelihood, theta, space)

    best_loglik, best_theta, best_space = best
    best_path = _dp.viterbi(best_space, em, beam_width=width)
    result = _result_from_path(best_space, best_path, best_loglik, trace)
    # tables of the base that the layout leaves out are kept
    return replace(hp.base.copy(), **layout.tables(best_theta)), result


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
