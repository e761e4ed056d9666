"""Markov score models over note values, metrical positions, and note patterns.

Three model families share one latent-chain shape (see :mod:`rhythmscribe._dp`):

* ``note``: states are note values ``r`` in ``[1, bar_length]``; transitions
  emit the destination value.
* ``met``: states are metrical positions ``b`` in ``[0, bar_length)``;
  a transition emits the interval between the two positions.
* ``pat``: a two-level hierarchy.  States are ``(k, i)`` = note ``i`` of bar
  pattern ``k``; within a pattern the chain steps deterministically through
  the notes, and at a pattern end the next pattern is drawn from the
  pattern-level transition row.

Orders 0-2 are supported (order 2 not for ``pat``: the pattern alphabet makes
it impractically large).  First-order models can be augmented with latent
note modifications:

* onset shifts (``s``): the produced value becomes ``base + s_n - s_{n-1}``,
  with ``-base < s_n <= base`` and the result kept inside ``[1, bar_length]``;
* note divisions (``h, g``): a base value splits into one or two parts
  ``q_h`` drawn per base value; part ``g`` is emitted per step.

State tags, exposed for inspection and tests (``h`` indexes the division
catalog of the base value, 0 = identity; ``g`` is the 1-based part number;
``k`` is a 0-based pattern index; ``i`` is the 1-based note number within the
pattern):

====== ============== =========================== =======================
family plain           shift                      division / both
====== ============== =========================== =======================
note   ``r``           ``(r, s)``                 ``(r, h, g)`` / ``(r, h, g, s)``
met    ``b``           ``(b, s)``                 ``(b, rt, h, g)`` / ``(b, rt, h, g, s)``
pat    ``(k, i)``      ``(k, i, s)``              ``(k, i, rt, h, g)`` / ``(k, i, rt, h, g, s)``
====== ============== =========================== =======================

``rt`` is the base value being divided.  Boundary (pre-first-note) states:
``s`` alone for shifted note models; ``b`` / ``(b, s)`` for metrical models;
``(k, 1)`` / ``(k, 1, s)`` for pattern models; note models without shifts
have a single virtual boundary.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ._dp import EdgeSet, forward as _forward, sample_generative as _sample_generative
from .core import (
    DEFAULT_BAR_LENGTH,
    Corpus,
    RhythmScore,
    integral,
    interval,
    json_field,
    to_note_values,
)

ROW_TOL = 1e-9

FAMILIES = ("note", "met", "pat")

__all__ = [
    "FAMILIES",
    "ModelConfig",
    "ModelParams",
    "DivisionCatalog",
    "LatentStateSpace",
    "build_division_catalog",
    "pattern_vocabulary",
    "pattern_index",
    "build_state_space",
    "params_to_dict",
    "params_from_dict",
    "save_params",
    "load_params",
    "sequence_log_prob",
    "sample_score",
    "sample_corpus",
    "uniform_params",
    "random_params",
]


_NAME_RE = re.compile(r"^(note|met|pat)mm([012])(s?)(d?)(b?)$")


@dataclass(frozen=True)
class ModelConfig:
    """One score-model variant: family, order, modifications, Bayesian flag.

    `renormalize_masked` controls what happens to transition rows after
    infeasible shift/division combinations are removed: True renormalizes
    each row to a proper distribution (the default), False keeps the raw
    masked weights.
    """

    family: str
    order: int
    shift: bool = False
    division: bool = False
    bayesian: bool = False
    bar_length: int = DEFAULT_BAR_LENGTH
    renormalize_masked: bool = True

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.order not in (0, 1, 2):
            raise ValueError("order must be 0, 1, or 2")
        if self.family == "pat" and self.order == 2:
            raise ValueError("second-order pattern models are not supported (state space too large)")
        if (self.shift or self.division) and self.order != 1:
            raise ValueError("shift/division modifications require an order-1 base model")
        if self.bar_length < 1:
            raise ValueError("bar_length must be positive")

    @property
    def name(self) -> str:
        return (
            f"{self.family}mm{self.order}"
            + ("s" if self.shift else "")
            + ("d" if self.division else "")
            + ("b" if self.bayesian else "")
        )

    @classmethod
    def from_name(
        cls,
        name: str,
        bar_length: int = DEFAULT_BAR_LENGTH,
        renormalize_masked: bool = True,
    ) -> "ModelConfig":
        m = _NAME_RE.match(name.strip().lower())
        if not m:
            raise ValueError(
                f"unrecognized model name {name!r}; expected e.g. 'notemm1', 'metmm2b', 'patmm1sdb'"
            )
        family, order, s, d, b = m.groups()
        return cls(
            family=family,
            order=int(order),
            shift=bool(s),
            division=bool(d),
            bayesian=bool(b),
            bar_length=bar_length,
            renormalize_masked=renormalize_masked,
        )

    def plain(self) -> "ModelConfig":
        """The non-Bayesian counterpart of this configuration."""
        return replace(self, bayesian=False)


def pattern_vocabulary(bar_length: int = DEFAULT_BAR_LENGTH) -> tuple[tuple[int, ...], ...]:
    """All nonempty position subsets of one bar, in binary-mask order.

    Pattern ``k`` contains position ``p`` iff bit ``p`` of ``k + 1`` is set,
    so the index of a pattern is reproducible without the list.
    """
    vocab = []
    for mask in range(1, 1 << bar_length):
        vocab.append(tuple(p for p in range(bar_length) if mask >> p & 1))
    return tuple(vocab)


def pattern_index(positions, bar_length: int = DEFAULT_BAR_LENGTH) -> int:
    """Index of a pattern in the canonical vocabulary."""
    mask = 0
    for p in positions:
        if not 0 <= p < bar_length:
            raise ValueError(f"position {p} outside [0, {bar_length})")
        mask |= 1 << int(p)
    if mask == 0:
        raise ValueError("empty pattern")
    return mask - 1


@dataclass(frozen=True)
class DivisionCatalog:
    """Division patterns per base value: identity plus all two-part splits."""

    bar_length: int
    parts: tuple[tuple[tuple[int, ...], ...], ...]  # parts[r-1][h] = q_h

    def patterns_for(self, base_value: int) -> tuple[tuple[int, ...], ...]:
        return self.parts[base_value - 1]

    def size(self, base_value: int) -> int:
        return len(self.parts[base_value - 1])

    IDENTITY = 0  # the identity pattern is always catalog entry 0


def build_division_catalog(bar_length: int = DEFAULT_BAR_LENGTH) -> DivisionCatalog:
    """Catalog of divisions of each base value into at most two notes."""
    if bar_length < 1:
        raise ValueError("bar_length must be positive")
    parts = []
    for r in range(1, bar_length + 1):
        entries = [(r,)]
        entries.extend((a, r - a) for a in range(1, r))
        parts.append(tuple(entries))
    return DivisionCatalog(bar_length, tuple(parts))


@dataclass
class ModelParams:
    """Probability tables for one model family.

    ``initial`` is over first note values (note), initial metrical positions
    (met), or first patterns (pat).  ``transition`` is the first-order table;
    order-2 models add ``transition2`` and use ``transition`` for the first
    step only; order-0 models use ``unigram`` in place of transition rows.
    ``shift_probs[s + bar_length - 1]`` is the shift distribution;
    ``division_probs[r-1]`` is the distribution over the division catalog of
    base value ``r``.
    """

    family: str
    order: int
    bar_length: int
    initial: np.ndarray
    transition: np.ndarray | None = None
    transition2: np.ndarray | None = None
    unigram: np.ndarray | None = None
    shift_probs: np.ndarray | None = None
    division_probs: tuple[np.ndarray, ...] | None = None
    patterns: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=np.float64)
        if self.transition is not None:
            self.transition = np.asarray(self.transition, dtype=np.float64)
        if self.transition2 is not None:
            self.transition2 = np.asarray(self.transition2, dtype=np.float64)
        if self.unigram is not None:
            self.unigram = np.asarray(self.unigram, dtype=np.float64)
        if self.shift_probs is not None:
            self.shift_probs = np.asarray(self.shift_probs, dtype=np.float64)
        if self.division_probs is not None:
            self.division_probs = tuple(
                np.asarray(row, dtype=np.float64) for row in self.division_probs
            )
        if self.patterns is not None:
            self.patterns = tuple(tuple(int(p) for p in pat) for pat in self.patterns)

    @property
    def n_symbols(self) -> int:
        if self.family == "pat":
            if self.patterns is None:
                raise ValueError("pattern params need an explicit pattern vocabulary")
            return len(self.patterns)
        return self.bar_length

    def validate(self) -> None:
        def check_rows(name, arr, size):
            rows = arr.reshape(-1, size)
            if np.any(rows < 0):
                raise ValueError(f"{name} has negative entries")
            bad = np.abs(rows.sum(axis=1) - 1.0) > ROW_TOL
            if np.any(bad):
                raise ValueError(f"{name} rows do not sum to 1 (first bad row {np.flatnonzero(bad)[0]})")

        k = self.n_symbols
        if self.initial.shape != (k,):
            raise ValueError(f"initial must have shape ({k},)")
        check_rows("initial", self.initial, k)
        if self.order == 0:
            if self.unigram is None:
                raise ValueError("order-0 params need a unigram")
            check_rows("unigram", self.unigram, k)
        if self.order >= 1:
            if self.transition is None:
                raise ValueError("order>=1 params need a transition table")
            if self.transition.shape != (k, k):
                raise ValueError(f"transition must have shape ({k},{k})")
            check_rows("transition", self.transition, k)
        if self.order == 2:
            if self.transition2 is None:
                raise ValueError("order-2 params need transition2")
            if self.transition2.shape != (k, k, k):
                raise ValueError(f"transition2 must have shape ({k},{k},{k})")
            check_rows("transition2", self.transition2, k)
        if self.shift_probs is not None:
            n = 2 * self.bar_length - 1
            if self.shift_probs.shape != (n,):
                raise ValueError(f"shift_probs must have shape ({n},)")
            check_rows("shift_probs", self.shift_probs, n)
        if self.division_probs is not None:
            if len(self.division_probs) != self.bar_length:
                raise ValueError("division_probs needs one row per base value")
            for r, row in enumerate(self.division_probs, start=1):
                if row.shape != (r,):
                    raise ValueError(f"division row for base value {r} must have {r} entries")
                check_rows(f"division_probs[{r}]", row, r)
        if self.family == "pat":
            if self.patterns is None:
                raise ValueError("pattern params need a pattern vocabulary")
            if len(self.patterns) != k:
                raise ValueError("pattern vocabulary size mismatch")

    def copy(self) -> "ModelParams":
        return ModelParams(
            family=self.family,
            order=self.order,
            bar_length=self.bar_length,
            initial=self.initial.copy(),
            transition=None if self.transition is None else self.transition.copy(),
            transition2=None if self.transition2 is None else self.transition2.copy(),
            unigram=None if self.unigram is None else self.unigram.copy(),
            shift_probs=None if self.shift_probs is None else self.shift_probs.copy(),
            division_probs=None
            if self.division_probs is None
            else tuple(r.copy() for r in self.division_probs),
            patterns=self.patterns,
        )


_SYMBOL_PREFIX = {"note": "r", "met": "b", "pat": "k"}


def _symbol_label(family: str, index: int) -> str:
    if family == "note":
        return f"r:{index + 1}"
    return f"{_SYMBOL_PREFIX[family]}:{index}"


def _symbol_from_label(family: str, label: str) -> int:
    prefix, value = label.split(":")
    if prefix != _SYMBOL_PREFIX[family]:
        raise ValueError(f"expected a {_SYMBOL_PREFIX[family]}: label, got {label!r}")
    return int(value) - 1 if family == "note" else int(value)


def params_to_dict(params: ModelParams) -> dict:
    """ModelParams as a JSON-ready dict with labeled probability entries.

    Labels carry their index semantics: note values ``r:1``..``r:N_b``,
    metrical positions ``b:0``.., pattern indices ``k:0``.., shifts
    ``s:-7``.., transitions ``from->to`` (order 2: ``a->b->c``), division
    entries keyed by their part tuple.
    """
    fam = params.family
    k = params.n_symbols
    lab = [_symbol_label(fam, i) for i in range(k)]
    data: dict = {
        "family": fam,
        "order": params.order,
        "bar_length": params.bar_length,
        "initial": {lab[i]: float(params.initial[i]) for i in range(k)},
    }
    if params.unigram is not None:
        data["unigram"] = {lab[i]: float(params.unigram[i]) for i in range(k)}
    if params.transition is not None:
        data["transition"] = {
            f"{lab[i]}->{lab[j]}": float(params.transition[i, j])
            for i in range(k)
            for j in range(k)
        }
    if params.transition2 is not None:
        data["transition2"] = {
            f"{lab[i]}->{lab[j]}->{lab[m]}": float(params.transition2[i, j, m])
            for i in range(k)
            for j in range(k)
            for m in range(k)
        }
    if params.shift_probs is not None:
        nb = params.bar_length
        data["shift"] = {
            f"s:{s - (nb - 1)}": float(params.shift_probs[s])
            for s in range(2 * nb - 1)
        }
    if params.division_probs is not None:
        catalog = build_division_catalog(params.bar_length)
        data["division"] = {
            f"r:{r}": {
                "(" + ",".join(map(str, parts)) + ")": float(row[h])
                for h, parts in enumerate(catalog.patterns_for(r))
            }
            for r, row in enumerate(params.division_probs, start=1)
        }
    if params.patterns is not None:
        data["patterns"] = [list(p) for p in params.patterns]
    return data


def params_from_dict(data: dict) -> ModelParams:
    """Rebuild ModelParams from the labeled-dict form."""
    where = "model parameters"
    fam = json_field(data, "family", where)
    nb = integral(json_field(data, "bar_length", where), "bar_length")
    order = integral(json_field(data, "order", where), "order")
    patterns = None
    if data.get("patterns") is not None:
        patterns = tuple(tuple(int(x) for x in p) for p in data["patterns"])
    k = len(patterns) if fam == "pat" else nb

    def vector(entries):
        v = np.zeros(k)
        for label, p in entries.items():
            v[_symbol_from_label(fam, label)] = p
        return v

    initial = vector(json_field(data, "initial", where))
    unigram = vector(data["unigram"]) if "unigram" in data else None
    transition = None
    if "transition" in data:
        transition = np.zeros((k, k))
        for key, p in data["transition"].items():
            a, b = key.split("->")
            transition[_symbol_from_label(fam, a), _symbol_from_label(fam, b)] = p
    transition2 = None
    if "transition2" in data:
        transition2 = np.zeros((k, k, k))
        for key, p in data["transition2"].items():
            a, b, c = key.split("->")
            transition2[
                _symbol_from_label(fam, a),
                _symbol_from_label(fam, b),
                _symbol_from_label(fam, c),
            ] = p
    shift = None
    if "shift" in data:
        shift = np.zeros(2 * nb - 1)
        for label, p in data["shift"].items():
            shift[int(label.split(":")[1]) + nb - 1] = p
    division = None
    if "division" in data:
        catalog = build_division_catalog(nb)
        rows = []
        for r in range(1, nb + 1):
            entries = json_field(data["division"], f"r:{r}", f"{where} division")
            row = np.zeros(r)
            for h, parts in enumerate(catalog.patterns_for(r)):
                row[h] = entries["(" + ",".join(map(str, parts)) + ")"]
            rows.append(row)
        division = tuple(rows)
    return ModelParams(
        family=fam,
        order=order,
        bar_length=nb,
        initial=initial,
        transition=transition,
        transition2=transition2,
        unigram=unigram,
        shift_probs=shift,
        division_probs=division,
        patterns=patterns,
    )


def save_params(params: ModelParams, path) -> None:
    from pathlib import Path
    import json

    Path(path).write_text(json.dumps(params_to_dict(params), indent=1, sort_keys=True) + "\n")


def load_params(path) -> ModelParams:
    from pathlib import Path
    import json

    return params_from_dict(json.loads(Path(path).read_text()))


def _modification_rows(config: ModelConfig, rng=None):
    """Uniform (or Dirichlet-random) shift/division rows for a config."""
    nb = config.bar_length
    shift = None
    division = None
    if config.shift:
        n = 2 * nb - 1
        shift = np.full(n, 1.0 / n) if rng is None else rng.dirichlet(np.ones(n))
    if config.division:
        rows = []
        for r in range(1, nb + 1):
            rows.append(np.full(r, 1.0 / r) if rng is None else rng.dirichlet(np.ones(r)))
        division = tuple(rows)
    return shift, division


def uniform_params(config: ModelConfig, patterns=None) -> ModelParams:
    """Uniform tables for a config (pattern family defaults to the full vocabulary)."""
    if config.family == "pat":
        patterns = tuple(patterns) if patterns is not None else pattern_vocabulary(config.bar_length)
        k = len(patterns)
    else:
        patterns, k = None, config.bar_length
    shift, division = _modification_rows(config)
    return ModelParams(
        family=config.family,
        order=config.order,
        bar_length=config.bar_length,
        initial=np.full(k, 1.0 / k),
        transition=np.full((k, k), 1.0 / k) if config.order >= 1 else None,
        transition2=np.full((k, k, k), 1.0 / k) if config.order == 2 else None,
        unigram=np.full(k, 1.0 / k) if config.order == 0 else None,
        shift_probs=shift,
        division_probs=division,
        patterns=patterns,
    )


def random_params(config: ModelConfig, rng: np.random.Generator, patterns=None) -> ModelParams:
    """Dirichlet(1)-random tables for a config; used by tests and demos."""
    if config.family == "pat":
        patterns = tuple(patterns) if patterns is not None else pattern_vocabulary(config.bar_length)
        k = len(patterns)
    else:
        patterns, k = None, config.bar_length
    shift, division = _modification_rows(config, rng)
    ones = np.ones(k)
    return ModelParams(
        family=config.family,
        order=config.order,
        bar_length=config.bar_length,
        initial=rng.dirichlet(ones),
        transition=rng.dirichlet(ones, size=k) if config.order >= 1 else None,
        transition2=rng.dirichlet(ones, size=(k, k)) if config.order == 2 else None,
        unigram=rng.dirichlet(ones) if config.order == 0 else None,
        shift_probs=shift,
        division_probs=division,
        patterns=patterns,
    )


# ---------------------------------------------------------------------------
# base chains: the unmodified symbol-level structure of each family


@dataclass
class _BaseChain:
    boundary_tags: list
    init_p: np.ndarray
    init_pos: np.ndarray | None
    sym_tags: list
    first: tuple  # (src, dst, prob, base_value) arrays, boundary -> symbol
    trans: tuple  # (src, dst, prob, base_value) arrays, symbol -> symbol
    virtual: bool
    sym_base_value: np.ndarray | None = None  # per-symbol base value (note family)


def _dense_edges(row_matrix: np.ndarray, values: np.ndarray):
    """Edges for every (i, j) with probability row_matrix[i, j] and value values[i, j]."""
    n_src, n_dst = row_matrix.shape
    src = np.repeat(np.arange(n_src), n_dst)
    dst = np.tile(np.arange(n_dst), n_src)
    return src, dst, row_matrix.reshape(-1), values.reshape(-1)


def _note_chain(params: ModelParams) -> _BaseChain:
    nb = params.bar_length
    vals = np.arange(1, nb + 1)
    if params.order in (0, 1):
        sym_tags = [int(r) for r in vals]
        rows = np.tile(params.unigram, (nb, 1)) if params.order == 0 else params.transition
        vmat = np.tile(vals, (nb, 1))
        trans = _dense_edges(rows, vmat)
        first = (
            np.zeros(nb, dtype=np.int64),
            np.arange(nb),
            params.initial.copy(),
            vals.copy(),
        )
        base_vals = vals.copy()
    else:
        # order 2: symbols are (previous value or None, value)
        sym_tags = [(None, int(r)) for r in vals]
        sym_tags += [(int(rp), int(r)) for rp in vals for r in vals]
        pair_idx = lambda rp, r: nb + (rp - 1) * nb + (r - 1)  # noqa: E731
        src, dst, prob, val = [], [], [], []
        for rp in vals:
            for r in vals:
                src.append(rp - 1)  # (None, rp)
                dst.append(pair_idx(rp, r))
                prob.append(params.transition[rp - 1, r - 1])
                val.append(r)
        for c in vals:
            for rp in vals:
                for r in vals:
                    src.append(pair_idx(c, rp))
                    dst.append(pair_idx(rp, r))
                    prob.append(params.transition2[c - 1, rp - 1, r - 1])
                    val.append(r)
        trans = (np.array(src), np.array(dst), np.array(prob), np.array(val))
        first = (
            np.zeros(nb, dtype=np.int64),
            np.arange(nb),
            params.initial.copy(),
            vals.copy(),
        )
        base_vals = np.concatenate([vals, np.tile(vals, nb)])
    return _BaseChain(
        boundary_tags=[None],
        init_p=np.array([1.0]),
        init_pos=None,
        sym_tags=sym_tags,
        first=first,
        trans=trans,
        virtual=True,
        sym_base_value=base_vals,
    )


def _interval_matrix(nb: int) -> np.ndarray:
    b = np.arange(nb)
    d = b[None, :] - b[:, None]
    return np.where(d > 0, d, d + nb)


def _met_chain(params: ModelParams) -> _BaseChain:
    nb = params.bar_length
    ivals = _interval_matrix(nb)
    positions = np.arange(nb)
    if params.order in (0, 1):
        sym_tags = [int(b) for b in positions]
        rows = np.tile(params.unigram, (nb, 1)) if params.order == 0 else params.transition
        edges = _dense_edges(rows, ivals)
        return _BaseChain(
            boundary_tags=sym_tags.copy(),
            init_p=params.initial.copy(),
            init_pos=positions.copy(),
            sym_tags=sym_tags,
            first=edges,
            trans=edges,
            virtual=False,
        )
    # order 2: symbols are (previous position, position)
    sym_tags = [(int(bp), int(b)) for bp in positions for b in positions]
    pair_idx = lambda bp, b: bp * nb + b  # noqa: E731
    fs, fd, fp, fv = [], [], [], []
    for b0 in positions:
        for b1 in positions:
            fs.append(b0)
            fd.append(pair_idx(b0, b1))
            fp.append(params.transition[b0, b1])
            fv.append(ivals[b0, b1])
    ts, td, tp, tv = [], [], [], []
    for bpp in positions:
        for bp in positions:
            for b in positions:
                ts.append(pair_idx(bpp, bp))
                td.append(pair_idx(bp, b))
                tp.append(params.transition2[bpp, bp, b])
                tv.append(ivals[bp, b])
    return _BaseChain(
        boundary_tags=[int(b) for b in positions],
        init_p=params.initial.copy(),
        init_pos=positions.copy(),
        sym_tags=sym_tags,
        first=(np.array(fs), np.array(fd), np.array(fp), np.array(fv)),
        trans=(np.array(ts), np.array(td), np.array(tp), np.array(tv)),
        virtual=False,
    )


def _pat_chain(params: ModelParams) -> _BaseChain:
    nb = params.bar_length
    patterns = params.patterns
    sym_tags = []
    sym_pos = []
    starts = []  # symbol index of (k, 1) per pattern
    for k, pat in enumerate(patterns):
        starts.append(len(sym_tags))
        for i, pos in enumerate(pat, start=1):
            sym_tags.append((k, i))
            sym_pos.append(pos)
    sym_pos = np.array(sym_pos)
    starts = np.array(starts)
    rows = np.tile(params.unigram, (len(patterns), 1)) if params.order == 0 else params.transition
    ts, td, tp, tv = [], [], [], []
    for j, (k, i) in enumerate(sym_tags):
        if i < len(patterns[k]):
            ts.append(j)
            td.append(j + 1)
            tp.append(1.0)
            tv.append(interval(sym_pos[j], sym_pos[j + 1], nb))
        else:
            for k2 in range(len(patterns)):
                ts.append(j)
                td.append(starts[k2])
                tp.append(rows[k, k2])
                tv.append(interval(sym_pos[j], patterns[k2][0], nb))
    trans = (np.array(ts), np.array(td), np.array(tp), np.array(tv))
    # boundary states are the pattern-start symbols (k, 1)
    boundary_tags = [(k, 1) for k in range(len(patterns))]
    first_sel = np.isin(trans[0], starts)
    b_of_start = np.full(len(sym_tags), -1, dtype=np.int64)
    b_of_start[starts] = np.arange(len(patterns))
    first = (
        b_of_start[trans[0][first_sel]],
        trans[1][first_sel],
        trans[2][first_sel],
        trans[3][first_sel],
    )
    return _BaseChain(
        boundary_tags=boundary_tags,
        init_p=params.initial.copy(),
        init_pos=np.array([pat[0] for pat in patterns]),
        sym_tags=sym_tags,
        first=first,
        trans=trans,
        virtual=False,
    )


_CHAIN_BUILDERS = {"note": _note_chain, "met": _met_chain, "pat": _pat_chain}


# ---------------------------------------------------------------------------
# modification augmentation


def _tag_cat(tag, extra: tuple) -> tuple:
    return (tag if isinstance(tag, tuple) else (tag,)) + extra


_EMPTY_EDGES = (
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.float64),
    np.empty(0, dtype=np.int64),
)


def _expand_blocks(block_sizes: np.ndarray):
    """(block_id, within_block_position) for ragged cross products."""
    block_sizes = np.asarray(block_sizes, dtype=np.int64)
    total = int(block_sizes.sum())
    block_id = np.repeat(np.arange(len(block_sizes)), block_sizes)
    starts = np.concatenate([[0], np.cumsum(block_sizes)[:-1]])
    within = np.arange(total) - starts[block_id]
    return block_id, within


def _chunk_ranges(counts: np.ndarray, limit: int = 2_000_000):
    """Split [0, len(counts)) into ranges whose count sums stay under limit."""
    n = len(counts)
    lo = 0
    while lo < n:
        total = 0
        hi = lo
        while hi < n and (total + counts[hi] <= limit or hi == lo):
            total += counts[hi]
            hi += 1
        yield lo, hi
        lo = hi


def _augment_shift(chain: _BaseChain, xi: np.ndarray, nb: int):
    """States (sym, s); outputs base + s - s'; see module docstring for masks."""
    sup = np.flatnonzero(xi > 0)
    sval = sup - (nb - 1)
    n_s = len(sup)
    n_sym = len(chain.sym_tags)

    if chain.sym_base_value is not None:
        allowed = (sval[None, :] > -chain.sym_base_value[:, None]) & (
            sval[None, :] <= chain.sym_base_value[:, None]
        )
    else:
        allowed = np.ones((n_sym, n_s), dtype=bool)
    aug_index = np.full((n_sym, n_s), -1, dtype=np.int64)
    aug_index[allowed] = np.arange(int(allowed.sum()))
    state_tags = []
    for j in range(n_sym):
        for p in range(n_s):
            if allowed[j, p]:
                state_tags.append(_tag_cat(chain.sym_tags[j], (int(sval[p]),)))

    n_b = len(chain.boundary_tags)
    if chain.virtual:
        boundary_tags = [int(s) for s in sval]
    else:
        boundary_tags = [
            _tag_cat(bt, (int(s),)) for bt in chain.boundary_tags for s in sval
        ]
    init_p = (chain.init_p[:, None] * xi[sup][None, :]).reshape(-1)
    init_pos = (
        None
        if chain.init_pos is None
        else ((chain.init_pos[:, None] + sval[None, :]) % nb).reshape(-1)
    )

    def expand(edges, src_is_boundary: bool):
        es, ed, ep, ev = (np.asarray(a) for a in edges)
        keep = ep > 0
        es, ed, ep, ev = es[keep], ed[keep], ep[keep], ev[keep]
        counts = np.full(len(es), n_s * n_s, dtype=np.int64)
        parts = [_EMPTY_EDGES]
        for lo, hi in _chunk_ranges(counts):
            e_id, within = _expand_blocks(counts[lo:hi])
            e_id += lo
            sp_pos = within // n_s
            s_pos = within % n_s
            v = ev[e_id]
            s = sval[s_pos]
            sp = sval[sp_pos]
            out = v + s - sp
            dst = aug_index[ed[e_id], s_pos]
            if src_is_boundary:
                src = es[e_id] * n_s + sp_pos
            else:
                src = aug_index[es[e_id], sp_pos]
            feas = (
                (out >= 1)
                & (out <= nb)
                & (s > -v)
                & (s <= v)
                & (dst >= 0)
                & (src >= 0)
            )
            prob = ep[e_id] * xi[sup[s_pos]]
            parts.append((src[feas], dst[feas], prob[feas], out[feas]))
        return tuple(np.concatenate([p[i] for p in parts]) for i in range(4))

    first = expand(chain.first, src_is_boundary=True)
    trans = expand(chain.trans, src_is_boundary=False)
    return boundary_tags, init_p, init_pos, state_tags, first, trans, False


@dataclass
class _DivStates:
    """Division-augmented state table plus grouped views used by edge builders."""

    tags: list
    sym: np.ndarray
    rt: np.ndarray
    h: np.ndarray
    g: np.ndarray
    s_pos: np.ndarray | None  # index into the shift support, or None
    part: np.ndarray  # emitted part value q_{h g}
    next_start: np.ndarray  # first state of the (g+1) group, -1 at division end
    next_count: np.ndarray
    entry_flat: np.ndarray  # state ids with g == 1, grouped by (sym, rt)
    entry_indptr: np.ndarray  # over key = sym * (nb + 1) + rt
    entry_factor: np.ndarray  # zeta (* xi) factor per entry state
    end_flat: np.ndarray  # state ids at division ends, grouped by sym
    end_indptr: np.ndarray


def _enumerate_division_states(
    chain: _BaseChain,
    zeta_rows,
    catalog: DivisionCatalog,
    nb: int,
    xi: np.ndarray | None,
    include_rt_in_tag: bool,
) -> _DivStates:
    if xi is not None:
        sup = np.flatnonzero(xi > 0)
        sval = sup - (nb - 1)
    # achievable base values per symbol, from incoming edges of the base chain
    rt_sets = [set() for _ in chain.sym_tags]
    for edges in (chain.first, chain.trans):
        _, ed, ep, ev = edges
        for d, p, v in zip(ed, ep, ev):
            if p > 0:
                rt_sets[int(d)].add(int(v))
    tags = []
    sym_l, rt_l, h_l, g_l, s_l, part_l = [], [], [], [], [], []
    next_start_l, next_count_l = [], []
    for j, sym_tag in enumerate(chain.sym_tags):
        for rt in sorted(rt_sets[j]):
            row = zeta_rows[rt - 1]
            for h in np.flatnonzero(row > 0):
                parts = catalog.patterns_for(rt)[h]
                group_entries = []
                for g, part in enumerate(parts, start=1):
                    if xi is None:
                        group_entries.append([(None, part)])
                    else:
                        block = [
                            (int(p), part)
                            for p in range(len(sup))
                            if -part < sval[p] <= part
                        ]
                        group_entries.append(block)
                base_idx = len(sym_l)
                group_starts = []
                for block in group_entries:
                    group_starts.append(base_idx)
                    base_idx += len(block)
                for g, block in enumerate(group_entries, start=1):
                    for s_pos, part in block:
                        extras = (rt, int(h), g) if include_rt_in_tag else (int(h), g)
                        if xi is not None:
                            extras = extras + (int(sval[s_pos]),)
                        tags.append(_tag_cat(sym_tag, extras))
                        sym_l.append(j)
                        rt_l.append(rt)
                        h_l.append(int(h))
                        g_l.append(g)
                        s_l.append(-1 if s_pos is None else s_pos)
                        part_l.append(part)
                        if g < len(group_entries):
                            next_start_l.append(group_starts[g])
                            next_count_l.append(len(group_entries[g]))
                        else:
                            next_start_l.append(-1)
                            next_count_l.append(0)
    sym_a = np.array(sym_l, dtype=np.int64)
    rt_a = np.array(rt_l, dtype=np.int64)
    g_a = np.array(g_l, dtype=np.int64)
    h_a = np.array(h_l, dtype=np.int64)
    s_a = None if xi is None else np.array(s_l, dtype=np.int64)
    part_a = np.array(part_l, dtype=np.int64)
    next_start = np.array(next_start_l, dtype=np.int64)
    next_count = np.array(next_count_l, dtype=np.int64)

    n_states = len(tags)
    key = sym_a * (nb + 1) + rt_a
    is_entry = g_a == 1
    entry_ids = np.flatnonzero(is_entry)
    order = np.argsort(key[entry_ids], kind="stable")
    entry_flat = entry_ids[order]
    entry_indptr = np.searchsorted(
        key[entry_flat], np.arange(len(chain.sym_tags) * (nb + 1) + 1)
    )
    zeta_of = np.array(
        [zeta_rows[rt_a[i] - 1][h_a[i]] for i in range(n_states)], dtype=np.float64
    )
    entry_factor = zeta_of.copy()
    if xi is not None:
        entry_factor = entry_factor * xi[sup[s_a]]
    is_end = next_start == -1
    end_ids = np.flatnonzero(is_end)
    order = np.argsort(sym_a[end_ids], kind="stable")
    end_flat = end_ids[order]
    end_indptr = np.searchsorted(sym_a[end_flat], np.arange(len(chain.sym_tags) + 1))
    return _DivStates(
        tags=tags,
        sym=sym_a,
        rt=rt_a,
        h=h_a,
        g=g_a,
        s_pos=s_a,
        part=part_a,
        next_start=next_start,
        next_count=next_count,
        entry_flat=entry_flat,
        entry_indptr=entry_indptr,
        entry_factor=entry_factor,
        end_flat=end_flat,
        end_indptr=end_indptr,
    )


def _augment_division(chain: _BaseChain, zeta_rows, catalog, nb: int, xi=None):
    """States (sym, rt, h, g[, s]); divisions chain deterministically through parts."""
    with_shift = xi is not None
    if with_shift:
        sup = np.flatnonzero(xi > 0)
        sval = sup - (nb - 1)
        n_s = len(sup)
    include_rt = chain.sym_base_value is None  # note family already encodes rt in the symbol
    st = _enumerate_division_states(chain, zeta_rows, catalog, nb, xi, include_rt)
    s_of_state = None if st.s_pos is None else sval[st.s_pos]

    def out_values(dst_states, src_s=None):
        out = st.part[dst_states].copy()
        if with_shift:
            out = out + s_of_state[dst_states]
            if src_s is not None:
                out = out - src_s
        return out

    # mid-division edges: (.., g, s') -> (.., g+1, s)
    mids = np.flatnonzero(st.next_start >= 0)
    counts = st.next_count[mids]
    m_id, within = _expand_blocks(counts)
    src = mids[m_id]
    dst = st.next_start[src] + within
    prob = np.ones(len(src)) if not with_shift else xi[sup[st.s_pos[dst]]]
    out = out_values(dst, None if not with_shift else s_of_state[src])
    feas = (out >= 1) & (out <= nb)
    mid_edges = (src[feas], dst[feas], prob[feas], out[feas])

    # division-boundary edges: base transition x (source end state) x (target entry state)
    es, ed, ep, ev = (np.asarray(a) for a in chain.trans)
    keep = ep > 0
    es, ed, ep, ev = es[keep], ed[keep], ep[keep], ev[keep]
    n_ends = np.diff(st.end_indptr)
    key = ed * (nb + 1) + ev
    n_entries = st.entry_indptr[key + 1] - st.entry_indptr[key]
    counts = n_ends[es] * n_entries
    parts = [_EMPTY_EDGES]
    for lo, hi in _chunk_ranges(counts):
        e_id, within = _expand_blocks(counts[lo:hi])
        e_id += lo
        n_ent = n_entries[e_id]
        end_sel = within // n_ent
        ent_sel = within % n_ent
        src = st.end_flat[st.end_indptr[es[e_id]] + end_sel]
        dst = st.entry_flat[st.entry_indptr[key[e_id]] + ent_sel]
        prob = ep[e_id] * st.entry_factor[dst]
        out = out_values(dst, None if not with_shift else s_of_state[src])
        feas = (out >= 1) & (out <= nb)
        parts.append((src[feas], dst[feas], prob[feas], out[feas]))
    bd = tuple(np.concatenate([p[i] for p in parts]) for i in range(4))
    trans = tuple(np.concatenate([a, b]) for a, b in zip(mid_edges, bd))

    # first edges: base first edge x (s0 when shifting) x target entry state
    fs, fd, fp, fv = (np.asarray(a) for a in chain.first)
    keep = fp > 0
    fs, fd, fp, fv = fs[keep], fd[keep], fp[keep], fv[keep]
    fkey = fd * (nb + 1) + fv
    n_ent_f = st.entry_indptr[fkey + 1] - st.entry_indptr[fkey]
    if with_shift:
        counts = np.repeat(n_ent_f, n_s)
        base_e = np.repeat(np.arange(len(fs)), n_s)
        s0_pos_per = np.tile(np.arange(n_s), len(fs))
        e_id, within = _expand_blocks(counts)
        src = fs[base_e[e_id]] * n_s + s0_pos_per[e_id]
        dst = st.entry_flat[st.entry_indptr[fkey[base_e[e_id]]] + within]
        prob = fp[base_e[e_id]] * st.entry_factor[dst]
        out = st.part[dst] + s_of_state[dst] - sval[s0_pos_per[e_id]]
        feas = (out >= 1) & (out <= nb)
        first = (src[feas], dst[feas], prob[feas], out[feas])
        if chain.virtual:
            boundary_tags = [int(s) for s in sval]
        else:
            boundary_tags = [
                _tag_cat(bt, (int(s),)) for bt in chain.boundary_tags for s in sval
            ]
        init_p = (chain.init_p[:, None] * xi[sup][None, :]).reshape(-1)
        init_pos = (
            None
            if chain.init_pos is None
            else ((chain.init_pos[:, None] + sval[None, :]) % nb).reshape(-1)
        )
    else:
        e_id, within = _expand_blocks(n_ent_f)
        src = fs[e_id]
        dst = st.entry_flat[st.entry_indptr[fkey[e_id]] + within]
        prob = fp[e_id] * st.entry_factor[dst]
        out = st.part[dst]
        first = (src, dst, prob, out)
        boundary_tags = list(chain.boundary_tags)
        init_p = chain.init_p.copy()
        init_pos = None if chain.init_pos is None else chain.init_pos.copy()
    virtual = chain.virtual and not with_shift
    return boundary_tags, init_p, init_pos, st.tags, first, trans, virtual


# ---------------------------------------------------------------------------
# assembly


class LatentStateSpace:
    """An enumerated latent chain: tagged states plus weighted, valued edges.

    Probabilities are stored as log weights on edges; every edge carries the
    note value it produces.  `first` connects boundary states (the slot
    before the first note) to emitting states; `trans` connects emitting
    states.  Models without an explicit pre-first-note state use a single
    virtual boundary whose tag is None.
    """

    def __init__(
        self,
        config: ModelConfig,
        boundary_tags,
        log_initial,
        initial_positions,
        state_tags,
        first: EdgeSet,
        trans: EdgeSet,
        virtual_boundary: bool,
        patterns=None,
    ):
        self.config = config
        self.bar_length = config.bar_length
        self.boundary_tags = tuple(boundary_tags)
        self.log_initial = np.asarray(log_initial, dtype=np.float64)
        self.initial_positions = (
            None if initial_positions is None else np.asarray(initial_positions, dtype=np.int64)
        )
        self.state_tags = tuple(state_tags)
        self.first = first
        self.trans = trans
        self.virtual_boundary = virtual_boundary
        self.patterns = patterns

    @property
    def n_states(self) -> int:
        return len(self.state_tags)

    @property
    def n_boundary(self) -> int:
        return len(self.boundary_tags)

    @property
    def n_edges(self) -> int:
        return self.first.n_edges + self.trans.n_edges

    @cached_property
    def state_index(self) -> dict:
        return {tag: i for i, tag in enumerate(self.state_tags)}

    @cached_property
    def boundary_index(self) -> dict:
        return {tag: i for i, tag in enumerate(self.boundary_tags)}

    @cached_property
    def _trans_lookup(self) -> dict:
        return {
            (int(s), int(d)): pos
            for pos, (s, d) in enumerate(zip(self.trans.src, self.trans.dst))
        }

    @cached_property
    def _first_lookup(self) -> dict:
        return {
            (int(s), int(d)): pos
            for pos, (s, d) in enumerate(zip(self.first.src, self.first.dst))
        }

    def trans_prob(self, tag_from, tag_to) -> float:
        pos = self._trans_lookup.get((self.state_index[tag_from], self.state_index[tag_to]))
        return 0.0 if pos is None else float(np.exp(self.trans.logp[pos]))

    def output_value(self, tag_from, tag_to) -> int | None:
        pos = self._trans_lookup.get((self.state_index[tag_from], self.state_index[tag_to]))
        return None if pos is None else int(self.trans.out[pos])

    def first_output(self, boundary_tag, tag) -> int | None:
        pos = self._first_lookup.get(
            (self.boundary_index[boundary_tag], self.state_index[tag])
        )
        return None if pos is None else int(self.first.out[pos])


def _assemble(
    config: ModelConfig,
    boundary_tags,
    init_p,
    init_pos,
    state_tags,
    first,
    trans,
    virtual,
    patterns=None,
) -> LatentStateSpace:
    def finalize(edges, n_src, n_dst):
        src, dst, prob, out = (np.asarray(a) for a in edges)
        keep = prob > 0
        src, dst, prob, out = src[keep], dst[keep], prob[keep], out[keep]
        if config.renormalize_masked and len(src):
            rowsum = np.bincount(src, weights=prob, minlength=n_src)
            logp = np.log(prob) - np.log(rowsum[src])
        else:
            logp = np.log(prob) if len(src) else prob
        return EdgeSet(src, dst, logp, out, n_src, n_dst)

    n_b, n_s = len(boundary_tags), len(state_tags)
    with np.errstate(divide="ignore"):
        log_init = np.log(np.asarray(init_p, dtype=np.float64))
    return LatentStateSpace(
        config=config,
        boundary_tags=boundary_tags,
        log_initial=log_init,
        initial_positions=init_pos,
        state_tags=state_tags,
        first=finalize(first, n_b, n_s),
        trans=finalize(trans, n_s, n_s),
        virtual_boundary=virtual,
        patterns=patterns,
    )


def build_state_space(
    config: ModelConfig, params: ModelParams, catalog: DivisionCatalog | None = None
) -> LatentStateSpace:
    """Build the latent state space of any supported model variant."""
    if params.family != config.family or params.order != config.order:
        raise ValueError(
            f"params are for {params.family}mm{params.order}, config wants {config.name}"
        )
    if params.bar_length != config.bar_length:
        raise ValueError("params and config disagree on bar_length")
    if config.shift and params.shift_probs is None:
        raise ValueError("shift model needs params.shift_probs")
    if config.division and params.division_probs is None:
        raise ValueError("division model needs params.division_probs")
    params.validate()
    chain = _CHAIN_BUILDERS[config.family](params)
    nb = config.bar_length
    if not (config.shift or config.division):
        parts = (
            list(chain.boundary_tags),
            chain.init_p,
            chain.init_pos,
            list(chain.sym_tags),
            chain.first,
            chain.trans,
            chain.virtual,
        )
    elif config.division:
        if catalog is None:
            catalog = build_division_catalog(nb)
        parts = _augment_division(
            chain,
            params.division_probs,
            catalog,
            nb,
            xi=params.shift_probs if config.shift else None,
        )
    else:
        parts = _augment_shift(chain, params.shift_probs, nb)
    return _assemble(config, *parts, patterns=params.patterns)


# ---------------------------------------------------------------------------
# score probabilities and sampling


def sequence_log_prob(space: LatentStateSpace, score: RhythmScore) -> float:
    """log2 probability of a quantized rhythm under a score model.

    Note models condition on the note values alone; metrical and pattern
    models additionally observe the first onset's metrical position.  Latent
    structure (patterns, shifts, divisions) is marginalized by the forward
    recursion.  Returns -inf for impossible rhythms.
    """
    if score.bar_length != space.bar_length:
        raise ValueError("score and model disagree on bar_length")
    values = to_note_values(score)
    nb = space.bar_length
    em = np.full((len(values), nb), -np.inf)
    em[np.arange(len(values)), values - 1] = 0.0
    log_init = space.log_initial
    if space.initial_positions is not None:
        b0 = score.onsets[0] % nb
        log_init = np.where(space.initial_positions == b0, log_init, -np.inf)
        if not np.isfinite(log_init).any():
            return -np.inf
    total = _forward(space, em, log_init=log_init)
    return total / np.log(2.0)


def sample_score(
    space: LatentStateSpace, n_notes: int, rng: np.random.Generator
) -> RhythmScore:
    """Draw a random rhythm from a score model."""
    path = _sample_generative(space, n_notes, rng)
    boundary = path.boundary_index if path.boundary_index is not None else 0
    tau0 = (
        int(space.initial_positions[boundary])
        if space.initial_positions is not None
        else 0
    )
    onsets = np.concatenate([[tau0], tau0 + np.cumsum(path.output_values)])
    return RhythmScore(tuple(int(t) for t in onsets), space.bar_length)


def sample_corpus(
    space: LatentStateSpace,
    n_pieces: int,
    n_notes: int,
    rng: np.random.Generator,
    id_prefix: str = "sampled",
) -> Corpus:
    """A corpus of independent draws from one score model."""
    pieces = tuple(sample_score(space, n_notes, rng) for _ in range(n_pieces))
    ids = tuple(f"{id_prefix}-{i:04d}" for i in range(n_pieces))
    return Corpus(pieces, ids, space.bar_length)
