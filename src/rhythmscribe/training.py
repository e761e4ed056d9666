"""Generic-model estimation from score corpora and prior construction.

The generic model is the corpus-wide maximum-likelihood estimate with
additive smoothing; it serves directly as a non-Bayesian score model and as
the Dirichlet base measure for piece-specific (Bayesian) fitting.  The
modification tables (shifts, divisions) cannot be estimated from score data,
which contains no performance deviations; they are preset: most of the mass
on "no modification", the remainder uniform.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Corpus, segment_patterns, to_metrical, to_note_values
from .inference import DEFAULT_ALPHA, Hyperparams
from .models import (
    ModelConfig,
    ModelParams,
    division_parts,
    pattern_vocabulary,
)

DEFAULT_EPSILON = 0.1
DEFAULT_PATTERN_INTERPOLATION = 0.8
DEFAULT_NO_MODIFICATION_MASS = 0.9

__all__ = [
    "SmoothingConfig",
    "estimate_params",
    "build_modification_base",
    "attach_modification_presets",
    "assemble_hyperparams",
    "DEFAULT_EPSILON",
    "DEFAULT_PATTERN_INTERPOLATION",
    "DEFAULT_NO_MODIFICATION_MASS",
]


@dataclass(frozen=True)
class SmoothingConfig:
    """Additive smoothing constant and the first-order pattern interpolation.

    `pattern_interpolation` is the weight on the unigram row when mixing
    unigram and transition probabilities for first-order pattern models,
    whose transition table is far larger than any practical corpus.
    """

    epsilon: float = DEFAULT_EPSILON
    pattern_interpolation: float = DEFAULT_PATTERN_INTERPOLATION

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if not 0 <= self.pattern_interpolation <= 1:
            raise ValueError("pattern_interpolation must be in [0, 1]")


def _symbol_sequences(pieces, family: str, patterns=None) -> list[np.ndarray]:
    """Per-piece 0-based symbol index sequences; element 0 is the initial
    symbol.

    A pattern model's symbols index each bar's pattern in `patterns`.  The
    final onset may cut its bar short, so the last bar takes the first of
    `patterns` that begins with it when its own is not among them; any
    other bar outside them raises ValueError.
    """
    if family == "note":
        return [to_note_values(score) - 1 for score in pieces]
    if family == "met":
        return [to_metrical(score) for score in pieces]
    index = {pattern: i for i, pattern in enumerate(patterns)}
    seqs = []
    for score in pieces:
        bars = [tuple(int(p) for p in bar.positions) for bar in segment_patterns(score)]
        seq = [index.get(bar) for bar in bars]
        if seq[-1] is None:
            last = bars[-1]
            seq[-1] = next((i for i, pattern in enumerate(patterns)
                            if pattern[:len(last)] == last), None)
        if None in seq:
            raise ValueError(f"bar pattern {bars[seq.index(None)]} is not in the "
                             f"model's {len(index)}-pattern vocabulary")
        seqs.append(np.array(seq))
    return seqs


def _normalize_rows(table: np.ndarray) -> np.ndarray:
    # contexts never observed (possible only at epsilon = 0) fall back to
    # uniform; the data never visits them, so any proper row works
    rows = table.reshape(-1, table.shape[-1])
    sums = rows.sum(axis=1, keepdims=True)
    uniform = np.full(rows.shape[1], 1.0 / rows.shape[1])
    out = np.where(sums > 0, rows / np.where(sums > 0, sums, 1.0), uniform)
    return out.reshape(table.shape)


def estimate_params(
    corpus: Corpus,
    config: ModelConfig,
    smoothing: SmoothingConfig = SmoothingConfig(),
    no_shift_mass: float = DEFAULT_NO_MODIFICATION_MASS,
    identity_division_mass: float = DEFAULT_NO_MODIFICATION_MASS,
) -> ModelParams:
    """Smoothed maximum-likelihood tables for a config's family and order.

    Initial distributions count each piece's first symbol; the unigram of
    order-0 models counts the remaining symbols; transition tables count
    consecutive pairs (order 2 additionally counts triples and uses the pair
    table for the first step).  Every table is smoothed additively over the
    full support.  First-order pattern rows are interpolated with the
    unigram.  Shift/division rows are preset, not estimated, and attached
    only when the config uses them.
    """
    if len(corpus.pieces) == 0:
        raise ValueError("empty corpus")
    if config.bar_length != corpus.bar_length:
        raise ValueError("config and corpus disagree on bar_length")
    family, order, nb = config.family, config.order, config.bar_length
    patterns = pattern_vocabulary(nb) if family == "pat" else None
    k = len(patterns) if family == "pat" else nb
    eps = smoothing.epsilon

    seqs = _symbol_sequences(corpus.pieces, family, patterns)
    c_ini = np.zeros(k)
    c_uni = np.zeros(k)
    c_bi = np.zeros((k, k))
    c_tri = np.zeros((k, k, k)) if order == 2 else None
    n_pairs = 0
    for seq in seqs:
        c_ini[seq[0]] += 1
        if len(seq) > 1:
            c_uni += np.bincount(seq[1:], minlength=k)
            np.add.at(c_bi, (seq[:-1], seq[1:]), 1)
            n_pairs += len(seq) - 1
        if order == 2 and len(seq) > 2:
            np.add.at(c_tri, (seq[:-2], seq[1:-1], seq[2:]), 1)

    if order >= 1 and n_pairs == 0:
        raise ValueError(f"corpus has no {family} transitions to estimate from")
    if order == 2 and c_tri.sum() == 0:
        raise ValueError(f"corpus has no {family} symbol triples to estimate from")
    if order == 0 and c_uni.sum() == 0 and eps == 0:
        raise ValueError(f"corpus has no non-initial {family} symbols")

    initial = _normalize_rows(c_ini + eps)
    unigram = _normalize_rows(c_uni + eps) if order == 0 else None
    transition = _normalize_rows(c_bi + eps) if order >= 1 else None
    transition2 = _normalize_rows(c_tri + eps) if order == 2 else None
    if family == "pat" and order == 1:
        lam = smoothing.pattern_interpolation
        uni_row = _normalize_rows(c_uni + eps)
        transition = lam * uni_row[None, :] + (1.0 - lam) * transition

    params = ModelParams(
        family=family,
        order=order,
        bar_length=nb,
        initial=initial,
        transition=transition,
        transition2=transition2,
        unigram=unigram,
        patterns=patterns,
    )
    if config.shift or config.division:
        params = attach_modification_presets(
            params, config, no_shift_mass, identity_division_mass
        )
    params.validate()
    return params


def build_modification_base(
    bar_length: int,
    no_shift_mass: float = DEFAULT_NO_MODIFICATION_MASS,
    identity_division_mass: float = DEFAULT_NO_MODIFICATION_MASS,
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Preset division rows and shift row: concentrated on "no modification".

    The shift row puts `no_shift_mass` at s=0 and spreads the remainder
    uniformly over the 2(N_b - 1) nonzero shifts; each division row puts
    `identity_division_mass` on the identity and spreads the remainder over
    the two-part divisions (a value of 1 has none, so identity gets mass 1).
    A mass of exactly 1 yields point-mass rows, collapsing the modification
    to a no-op.
    """
    if not 0 < no_shift_mass <= 1:
        raise ValueError("no_shift_mass must be in (0, 1]")
    if not 0 < identity_division_mass <= 1:
        raise ValueError("identity_division_mass must be in (0, 1]")
    n = 2 * bar_length - 1
    shift = np.full(n, (1.0 - no_shift_mass) / (n - 1) if n > 1 else 0.0)
    shift[bar_length - 1] = no_shift_mass
    rows = []
    for divisions in division_parts(bar_length):
        size = len(divisions)
        if size == 1:
            rows.append(np.array([1.0]))
            continue
        row = np.full(size, (1.0 - identity_division_mass) / (size - 1))
        row[0] = identity_division_mass  # the identity division
        rows.append(row)
    return tuple(rows), shift


def attach_modification_presets(
    params: ModelParams,
    config: ModelConfig,
    no_shift_mass: float = DEFAULT_NO_MODIFICATION_MASS,
    identity_division_mass: float = DEFAULT_NO_MODIFICATION_MASS,
) -> ModelParams:
    """A copy of `params` with preset shift/division rows per the config."""
    division, shift = build_modification_base(
        params.bar_length, no_shift_mass, identity_division_mass
    )
    out = params.copy()
    out.shift_probs = shift if config.shift else None
    out.division_probs = division if config.division else None
    return out


def assemble_hyperparams(
    params: ModelParams,
    config: ModelConfig,
    alpha: float = DEFAULT_ALPHA,
    no_shift_mass: float = DEFAULT_NO_MODIFICATION_MASS,
    identity_division_mass: float = DEFAULT_NO_MODIFICATION_MASS,
) -> Hyperparams:
    """Dirichlet priors around a generic model for Bayesian transcription.

    The generic rows become base distributions; shift/division bases are
    preset rows when the config needs them.  Every row's prior has
    concentration `alpha`.
    """
    base = attach_modification_presets(
        params, config, no_shift_mass, identity_division_mass
    )
    return Hyperparams(base, alpha)
