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

A model with both divides first and then shifts each part's onset, with the
part as the base value.

State tags, exposed for inspection and tests (``h`` indexes the divisions
of the base value, ``division_parts(bar_length)[r-1]``, 0 = identity; ``g``
is the 1-based part number; ``k`` is a 0-based pattern index; ``i`` is the
1-based note number within the pattern):

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

import functools
import math
import re
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from ._dp import EdgeSet, forward as _forward, sample_generative as _sample_generative
from .core import (
    DEFAULT_BAR_LENGTH,
    Corpus,
    RhythmScore,
    integral,
    json_field,
    json_list,
    json_number,
    json_object,
    read_json,
    score_from_metrical,
    to_note_values,
    write_json,
)

ROW_TOL = 1e-9

FAMILIES = ("note", "met", "pat")

# Largest full-vocabulary pattern transition table a config may imply.
PATTERN_TABLE_BUDGET_BYTES = 1 << 30

__all__ = [
    "FAMILIES",
    "ModelConfig",
    "ModelParams",
    "LatentStateSpace",
    "division_parts",
    "pattern_vocabulary",
    "pattern_table_bytes",
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
    """One score-model variant: family, order, modifications, Bayesian flag."""

    family: str
    order: int
    shift: bool = False
    division: bool = False
    bayesian: bool = False
    bar_length: int = DEFAULT_BAR_LENGTH

    def __post_init__(self):
        object.__setattr__(self, "order", integral(self.order, "order"))
        object.__setattr__(self, "bar_length", integral(self.bar_length, "bar_length"))
        for flag in ("shift", "division", "bayesian"):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(f"{flag} must be a bool, got {getattr(self, flag)!r}")
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
        nb = self.bar_length
        if self.family == "pat" and (nb > 64 or pattern_table_bytes(nb) > PATTERN_TABLE_BUDGET_BYTES):
            need = f"needs {pattern_table_bytes(nb) / 1e9:.1f} GB," if nb <= 64 else "is"
            raise ValueError(
                f"bar_length {nb} is too long for a pattern model: the float64 transition "
                f"table over its 2^{nb} - 1 patterns {need} over the "
                f"{PATTERN_TABLE_BUDGET_BYTES / 2**30:g} GiB budget"
            )

    @property
    def name(self) -> str:
        return (
            f"{self.family}mm{self.order}"
            + ("s" if self.shift else "")
            + ("d" if self.division else "")
            + ("b" if self.bayesian else "")
        )

    @classmethod
    def from_name(cls, name: str, bar_length: int = DEFAULT_BAR_LENGTH) -> "ModelConfig":
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
        )

    def plain(self) -> "ModelConfig":
        """The non-Bayesian counterpart of this configuration."""
        return replace(self, bayesian=False)


def pattern_table_bytes(bar_length: int) -> int:
    """Bytes of a float64 transition table over all 2^N_b - 1 bar patterns."""
    return 8 * (2 ** bar_length - 1) ** 2


def pattern_vocabulary(bar_length: int = DEFAULT_BAR_LENGTH) -> tuple[tuple[int, ...], ...]:
    """All nonempty position subsets of one bar, in binary-mask order.

    Pattern ``k`` contains position ``p`` iff bit ``p`` of ``k + 1`` is set,
    so the index of a pattern is reproducible without the list.
    """
    vocab = []
    for mask in range(1, 1 << bar_length):
        vocab.append(tuple(p for p in range(bar_length) if mask >> p & 1))
    return tuple(vocab)


def division_parts(bar_length: int = DEFAULT_BAR_LENGTH) -> tuple:
    """Divisions of each base value into at most two notes.

    ``parts[r-1][h]`` is division h of base value r, a tuple of part values
    summing to r; h = 0 is the identity ``(r,)``, then ``(a, r - a)`` for
    a = 1..r-1.
    """
    if bar_length < 1:
        raise ValueError("bar_length must be positive")
    return tuple(((r,),) + tuple((a, r - a) for a in range(1, r))
                 for r in range(1, bar_length + 1))


# ---------------------------------------------------------------------------
# parameter tables, and the flat layout of the entries whose products weigh
# the edges

# Every table a model may have, in layout order.  An order-0 model has a
# unigram, higher orders a transition table, order 2 also transition2; shift
# and division tables come with those modifications.  The first four are
# indexed by symbols; `division_probs` is ragged, one row per base value.
_TABLES = ("initial", "unigram", "transition", "transition2", "shift_probs", "division_probs")
_SYMBOL_TABLES = _TABLES[:4]


class _Layout:
    """Slots of the flat parameter vector a model's weights are read from.

    One slot per entry of each table the model uses, in `_TABLES` order
    (division rows r = 1..N_b back to back, row r at offset r(r-1)/2), then
    one constant-1 slot for the steps no table weighs: pattern-internal and
    mid-division edges.
    """

    def __init__(self, order: int, shift: bool, division: bool, bar_length: int, n_symbols: int):
        used = (True, order == 0, order >= 1, order == 2, shift, division)
        shapes = self.table_shapes(bar_length, n_symbols)
        self.bar_length = bar_length
        self.shapes = {name: shapes[name] for name, use in zip(_TABLES, used) if use}
        self.offset = {}
        size = 0
        for name, shape in self.shapes.items():
            self.offset[name] = size
            size += math.prod(shape)
        self.one = size
        self.size = size + 1

    @staticmethod
    def table_shapes(bar_length: int, n_symbols: int) -> dict:
        """The shape of every table of `_TABLES` (division: its rows back to back)."""
        nb, k = bar_length, n_symbols
        shapes = ((k,), (k,), (k, k), (k, k, k), (2 * nb - 1,), (nb * (nb + 1) // 2,))
        return dict(zip(_TABLES, shapes))

    def block(self, name: str) -> slice:
        """The slots of one table, back to back."""
        return slice(self.offset[name], self.offset[name] + math.prod(self.shapes[name]))

    def slots(self, name: str) -> np.ndarray:
        """Slot of every entry of one table, shaped like the table."""
        shape = self.shapes[name]
        return self.offset[name] + np.arange(math.prod(shape)).reshape(shape)

    def division_slot(self, rt, h):
        """Slot of division entry h of base value rt."""
        return self.offset["division_probs"] + rt * (rt - 1) // 2 + h

    def flatten(self, params: "ModelParams") -> np.ndarray:
        parts = [
            np.concatenate(params.division_probs)
            if name == "division_probs"
            else getattr(params, name).ravel()
            for name in self.shapes
        ]
        return np.concatenate(parts + [np.ones(1)])

    def row_groups(self, name: str, flat: np.ndarray) -> list:
        """2-D views of one table's block of a flat vector, rows on the last
        axis: all rows of a symbol table together, or each ragged division
        row alone."""
        block = flat[self.block(name)]
        if name == "division_probs":
            return [row[None] for row in np.split(block, np.cumsum(np.arange(1, self.bar_length)))]
        return [block.reshape(-1, self.shapes[name][-1])]

    def tables(self, flat: np.ndarray) -> dict:
        """Views of a flat vector shaped like the tables (division: a list of rows)."""
        out = {}
        for name, shape in self.shapes.items():
            groups = self.row_groups(name, flat)
            if name == "division_probs":
                out[name] = [row for (row,) in groups]
            else:
                out[name] = groups[0].reshape(shape)
        return out


def _mapped(name: str, table, f):
    """`f` of a table, or of each row of the ragged division table; None stays None."""
    if table is None:
        return None
    if name == "division_probs":
        return tuple(f(row) for row in table)
    return f(table)


def _float_array(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64)


def _check_rows(name: str, table: np.ndarray) -> None:
    rows = table.reshape(-1, table.shape[-1])
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"{name} has non-finite entries")
    if np.any(rows < 0):
        raise ValueError(f"{name} has negative entries")
    bad = np.abs(rows.sum(axis=1) - 1.0) > ROW_TOL
    if np.any(bad):
        raise ValueError(f"{name} rows do not sum to 1 (first bad row {np.flatnonzero(bad)[0]})")


@dataclass
class ModelParams:
    """Probability tables for one model family.

    ``initial`` is over first note values (note), initial metrical positions
    (met), or first patterns (pat).  ``transition`` is the first-order table;
    order-2 models add ``transition2`` and use ``transition`` for the first
    step only; order-0 models use ``unigram`` in place of transition rows.
    ``shift_probs[s + bar_length - 1]`` is the shift distribution;
    ``division_probs[r-1][h]`` is the probability of division h of base
    value ``r`` (see `division_parts`).  `_TABLES` lists the tables in the
    order every walk over them takes.
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
        for name in _TABLES:
            setattr(self, name, _mapped(name, getattr(self, name), _float_array))
        if self.patterns is not None:
            self.patterns = tuple(
                tuple(integral(p, "pattern position") for p in pat) for pat in self.patterns
            )

    @property
    def n_symbols(self) -> int:
        if self.family == "pat":
            if self.patterns is None:
                raise ValueError("pattern params need an explicit pattern vocabulary")
            return len(self.patterns)
        return self.bar_length

    def validate(self) -> None:
        """Check every table the layout of these params names, then the patterns.

        Shift and division tables are optional: a model uses them when present.
        """
        layout = _Layout(self.order, self.shift_probs is not None,
                         self.division_probs is not None, self.bar_length, self.n_symbols)
        for name, shape in layout.shapes.items():
            table = getattr(self, name)
            if table is None:
                raise ValueError(f"order-{self.order} params need table {name}")
            if name == "division_probs":
                if len(table) != self.bar_length:
                    raise ValueError(f"{name} needs one row per base value, "
                                     f"got {len(table)} for bar length {self.bar_length}")
                rows = [(f"{name}[{r}]", row, (r,)) for r, row in enumerate(table, start=1)]
            else:
                rows = [(name, table, shape)]
            for label, row, want in rows:
                if row.shape != want:
                    raise ValueError(f"{label} must have shape {want}, got {row.shape}")
                _check_rows(label, row)
        if self.family == "pat":
            nb = self.bar_length
            for pat in self.patterns:
                if not pat or not 0 <= pat[0] or not pat[-1] < nb or any(
                    b <= a for a, b in zip(pat, pat[1:])
                ):
                    raise ValueError(
                        f"pattern {pat} is not a strictly increasing, nonempty "
                        f"sequence of positions in [0, {nb})"
                    )
            if len(set(self.patterns)) != len(self.patterns):
                raise ValueError("pattern vocabulary has duplicate patterns")

    def copy(self) -> "ModelParams":
        tables = {name: _mapped(name, getattr(self, name), np.ndarray.copy) for name in _TABLES}
        return ModelParams(self.family, self.order, self.bar_length,
                           patterns=self.patterns, **tables)


_SYMBOL_PREFIX = {"note": "r", "met": "b", "pat": "k"}


def _symbol_label(family: str, index: int) -> str:
    if family == "note":
        return f"r:{index + 1}"
    return f"{_SYMBOL_PREFIX[family]}:{index}"


def _label_index(label: str, prefix: str, first: int, size: int, where: str) -> int:
    """The index on a table axis of `size` entries that `label`,
    ``prefix:value`` for a value from `first` on, names; ValueError naming
    `where` and the label if it names none."""
    head, _, value = label.partition(":")
    index = int(value) - first if head == prefix and re.fullmatch(r"-?[0-9]+", value) else -1
    if not 0 <= index < size:
        raise ValueError(f"{where}: label {label!r} is not one of "
                         f"{prefix}:{first}..{prefix}:{first + size - 1}")
    return index


def _division_label(parts: tuple) -> str:
    return "(" + ",".join(map(str, parts)) + ")"


def params_to_dict(params: ModelParams) -> dict:
    """ModelParams as a JSON-ready dict with labeled probability entries.

    Labels carry their index semantics: note values ``r:1``..``r:N_b``,
    metrical positions ``b:0``.., pattern indices ``k:0``.., shifts
    ``s:-7``.., transitions ``from->to`` (order 2: ``a->b->c``), division
    entries keyed by their part tuple.
    """
    fam = params.family
    lab = [_symbol_label(fam, i) for i in range(params.n_symbols)]
    data: dict = {"family": fam, "order": params.order, "bar_length": params.bar_length}
    for name in _SYMBOL_TABLES:
        table = getattr(params, name)
        if table is not None:
            data[name] = {"->".join(key): p for key, p in
                          zip(product(lab, repeat=table.ndim), table.ravel().tolist())}
    nb = params.bar_length
    if params.shift_probs is not None:
        data["shift"] = {
            f"s:{s - (nb - 1)}": float(params.shift_probs[s])
            for s in range(2 * nb - 1)
        }
    if params.division_probs is not None:
        data["division"] = {
            f"r:{r}": {_division_label(parts): float(row[h]) for h, parts in enumerate(divs)}
            for r, (row, divs) in enumerate(zip(params.division_probs, division_parts(nb)), start=1)
        }
    if params.patterns is not None:
        data["patterns"] = [list(p) for p in params.patterns]
    return data


def params_from_dict(data: dict) -> ModelParams:
    """Rebuild ModelParams from the labeled-dict form."""
    where = "model parameters"
    fam = json_field(data, "family", where)
    if fam not in FAMILIES:
        raise ValueError(f"{where} family: expected one of {FAMILIES}, got {fam!r}")
    nb = integral(json_field(data, "bar_length", where), "bar_length")
    order = integral(json_field(data, "order", where), "order")
    patterns = data.get("patterns")
    if patterns is not None or fam == "pat":
        patterns = tuple(tuple(json_list(p, f"{where} pattern"))  # checked by ModelParams
                         for p in json_list(patterns, f"{where} patterns"))
    k = len(patterns) if fam == "pat" else nb
    json_field(data, "initial", where)  # the one table every model has
    shapes = _Layout.table_shapes(nb, k)
    tables = {}
    for name in _SYMBOL_TABLES:
        if name not in data:
            continue
        table = tables[name] = np.zeros(shapes[name])
        prefix, first = _SYMBOL_PREFIX[fam], int(fam == "note")
        for key, p in json_object(data[name], f"{where} {name}").items():
            labels = key.split("->")
            if len(labels) != table.ndim:
                raise ValueError(f"{where}: {name} key {key!r} needs {table.ndim} "
                                 f"label(s) joined by '->'")
            index = tuple(_label_index(label, prefix, first, size, f"{where} {name}")
                          for label, size in zip(labels, table.shape))
            table[index] = json_number(p, f"{where} {name} {key}")
    if "shift" in data:
        shift = tables["shift_probs"] = np.zeros(2 * nb - 1)
        for label, p in json_object(data["shift"], f"{where} shift").items():
            at = _label_index(label, "s", 1 - nb, shift.size, f"{where} shift")
            shift[at] = json_number(p, f"{where} shift {label}")
    if "division" in data:
        rows = []
        for r, divs in enumerate(division_parts(nb), start=1):
            entries = json_field(data["division"], f"r:{r}", f"{where} division")
            rows.append(np.array([
                json_number(json_field(entries, label, f"{where} division r:{r}"),
                            f"{where} division r:{r} {label}")
                for label in map(_division_label, divs)], dtype=float))
        tables["division_probs"] = tuple(rows)
    return ModelParams(fam, order, nb, patterns=patterns, **tables)


def save_params(params: ModelParams, path) -> None:
    write_json(path, params_to_dict(params))


def load_params(path) -> ModelParams:
    return params_from_dict(read_json(path))


def _filled_params(config: ModelConfig, patterns, fill) -> ModelParams:
    """Params with every table the config uses made by `fill(shape)`.

    `fill` returns an array of the shape whose rows (last axis) are
    distributions; the ragged division table takes one row per base value.
    Modification tables are filled first, then the symbol tables in layout
    order: the order seeded `random_params` tables have always been drawn in.
    The pattern family defaults to the full vocabulary.
    """
    nb = config.bar_length
    if config.family == "pat":
        patterns = tuple(patterns) if patterns is not None else pattern_vocabulary(nb)
        k = len(patterns)
    else:
        patterns, k = None, nb
    layout = _Layout(config.order, config.shift, config.division, nb, k)
    tables = {}
    for name in sorted(layout.shapes, key=_SYMBOL_TABLES.__contains__):
        if name == "division_probs":
            tables[name] = tuple(fill((r,)) for r in range(1, nb + 1))
        else:
            tables[name] = fill(layout.shapes[name])
    return ModelParams(config.family, config.order, nb, patterns=patterns, **tables)


def uniform_params(config: ModelConfig, patterns=None) -> ModelParams:
    """Uniform tables for a config (pattern family defaults to the full vocabulary)."""
    return _filled_params(config, patterns, lambda shape: np.full(shape, 1.0 / shape[-1]))


def random_params(config: ModelConfig, rng: np.random.Generator, patterns=None) -> ModelParams:
    """Dirichlet(1)-random tables for a config; used by tests and demos."""
    return _filled_params(config, patterns, lambda shape: rng.dirichlet(
        np.ones(shape[-1]), size=shape[:-1] or None))


# ---------------------------------------------------------------------------
# weights from the flat parameter vector


def _product(theta: np.ndarray, slots: tuple) -> np.ndarray:
    """Elementwise product of `theta` over one or two slot columns."""
    prob = theta[slots[0]]
    for column in slots[1:]:
        prob *= theta[column]
    return prob


# ---------------------------------------------------------------------------
# enumerated spaces: chain -> division -> shift
#
# A family's chain builder enumerates its unmodified symbol-level space;
# `_augment_division` and `_augment_shift` each map such a space to a larger
# one, and `_topology` applies them in that order.  Edges are (src,
# dst, out, slot) tuples.  An edge's weight is its base slot's entry (a table
# entry, or the constant 1) times the factor of the state it enters (its
# modification probabilities), always associated as base x (zeta x xi) so
# weights agree to the last bit.


@dataclass
class _Parts:
    """An enumerated state space before sorting: tags, edges, weight slots.

    A boundary state weighs the product of its `boundary_slots` columns
    (initial entry, then the shift entry s_0 when shifting), and has
    metrical position `initial_positions[i]` where the family fixes one.
    `state_value` is, per state, the value every edge into it produces, or
    None where states do not fix it.  Entering a state multiplies an edge's
    base weight by the product of the state's `state_slots` columns (zeta on
    entering a division, then shift xi; none for unmodified models).  Those
    products are the only weights: a state that no path of positive weight
    reaches keeps its rows.
    """

    boundary_tags: list
    boundary_slots: tuple
    initial_positions: np.ndarray | None
    state_tags: list
    first: tuple
    trans: tuple
    virtual_boundary: bool
    state_value: np.ndarray | None = None
    state_slots: tuple = ()


def _row_slots(config: ModelConfig, layout: _Layout, k: int) -> np.ndarray:
    """Slot weighing i -> j at [i, j]: the transition row, or the unigram (order 0)."""
    if config.order == 0:
        return np.tile(layout.slots("unigram"), (k, 1))
    return layout.slots("transition")


def _dense_edges(slot_matrix: np.ndarray, values: np.ndarray):
    """Edges for every (i, j), weighed by slot_matrix[i, j], with value values[i, j]."""
    n_src, n_dst = slot_matrix.shape
    src = np.repeat(np.arange(n_src), n_dst)
    dst = np.tile(np.arange(n_dst), n_src)
    return src, dst, values.reshape(-1), slot_matrix.reshape(-1)


def _note_chain(config: ModelConfig, layout: _Layout, patterns) -> _Parts:
    nb = config.bar_length
    vals = np.arange(1, nb + 1)
    first = (np.zeros(nb, dtype=np.int64), np.arange(nb), vals.copy(), layout.slots("initial"))
    if config.order in (0, 1):
        sym_tags = [int(r) for r in vals]
        trans = _dense_edges(_row_slots(config, layout, nb), np.tile(vals, (nb, 1)))
        base_vals = vals.copy()
    else:
        # order 2: symbols are (previous value or None, value); the first
        # step leaves (None, r') by the transition table, later steps
        # leave (r'', r') by transition2
        sym_tags = [(None, int(r)) for r in vals]
        sym_tags += [(int(rp), int(r)) for rp in vals for r in vals]
        rp, r = (a.ravel() for a in np.indices((nb, nb)))
        c2, rp2, r2 = (a.ravel() for a in np.indices((nb, nb, nb)))
        trans = (
            np.concatenate([rp, nb + c2 * nb + rp2]),
            np.concatenate([nb + rp * nb + r, nb + rp2 * nb + r2]),
            np.concatenate([r, r2]) + 1,
            np.concatenate([layout.slots("transition").ravel(),
                            layout.slots("transition2").ravel()]),
        )
        base_vals = np.concatenate([vals, np.tile(vals, nb)])
    return _Parts(
        boundary_tags=[None],
        boundary_slots=(np.array([layout.one]),),
        initial_positions=None,
        state_tags=sym_tags,
        first=first,
        trans=trans,
        virtual_boundary=True,
        state_value=base_vals,
    )


def _interval_matrix(nb: int) -> np.ndarray:
    b = np.arange(nb)
    d = b[None, :] - b[:, None]
    return np.where(d > 0, d, d + nb)


def _met_chain(config: ModelConfig, layout: _Layout, patterns) -> _Parts:
    nb = config.bar_length
    ivals = _interval_matrix(nb)
    positions = np.arange(nb)
    if config.order in (0, 1):
        sym_tags = [int(b) for b in positions]
        edges = _dense_edges(_row_slots(config, layout, nb), ivals)
        return _Parts(
            boundary_tags=sym_tags.copy(),
            boundary_slots=(layout.slots("initial"),),
            initial_positions=positions.copy(),
            state_tags=sym_tags,
            first=edges,
            trans=edges,
            virtual_boundary=False,
        )
    # order 2: symbols are (previous position, position)
    sym_tags = [(int(bp), int(b)) for bp in positions for b in positions]
    b0, b1 = (a.ravel() for a in np.indices((nb, nb)))
    bpp, bp, b = (a.ravel() for a in np.indices((nb, nb, nb)))
    return _Parts(
        boundary_tags=[int(b) for b in positions],
        boundary_slots=(layout.slots("initial"),),
        initial_positions=positions.copy(),
        state_tags=sym_tags,
        first=(b0, b0 * nb + b1, ivals[b0, b1], layout.slots("transition").ravel()),
        trans=(bpp * nb + bp, bp * nb + b, ivals[bp, b], layout.slots("transition2").ravel()),
        virtual_boundary=False,
    )


def _pat_chain(config: ModelConfig, layout: _Layout, patterns) -> _Parts:
    nb = config.bar_length
    n_pat = len(patterns)
    sizes = np.array([len(pat) for pat in patterns])
    sym_tags = [(k, i) for k, pat in enumerate(patterns) for i in range(1, len(pat) + 1)]
    sym_pos = np.array([pos for pat in patterns for pos in pat])
    sym_pat = np.repeat(np.arange(n_pat), sizes)
    starts = np.cumsum(sizes) - sizes  # symbol index of (k, 1) per pattern
    is_end = np.zeros(len(sym_tags), dtype=bool)
    is_end[starts + sizes - 1] = True
    # inner notes step to the next note (weight 1); a pattern's last note
    # enters the first note of any pattern by the pattern-level row
    src, within = _expand_blocks(np.where(is_end, n_pat, 1))
    at_end = is_end[src]
    dst = np.where(at_end, starts[within], src + 1)
    slot = np.where(at_end, _row_slots(config, layout, n_pat)[sym_pat[src], within], layout.one)
    step = sym_pos[dst] - sym_pos[src]
    trans = (src, dst, np.where(step > 0, step, step + nb), slot)
    # boundary states are the pattern-start symbols (k, 1)
    first_sel = np.isin(src, starts)
    b_of_start = np.full(len(sym_tags), -1, dtype=np.int64)
    b_of_start[starts] = np.arange(n_pat)
    first = (b_of_start[src[first_sel]], dst[first_sel], trans[2][first_sel], slot[first_sel])
    return _Parts(
        boundary_tags=[(k, 1) for k in range(n_pat)],
        boundary_slots=(layout.slots("initial"),),
        initial_positions=sym_pos[starts],
        state_tags=sym_tags,
        first=first,
        trans=trans,
        virtual_boundary=False,
    )


_CHAIN_BUILDERS = {"note": _note_chain, "met": _met_chain, "pat": _pat_chain}


def _as_tuples(tags: list) -> list:
    """Tags as tuples, so that modifications can append their fields."""
    return [tag if isinstance(tag, tuple) else (tag,) for tag in tags]


def _join(chunks: list) -> tuple:
    """One (src, dst, out, slot) edge tuple from chunks of them.

    Empties `chunks`, and frees each column's pieces as soon as that column
    is joined, so the join holds at most one column twice.
    """
    if not chunks:
        return tuple(np.empty(0, dtype=np.int64) for _ in range(4))
    columns = [list(col) for col in zip(*chunks)]
    chunks.clear()
    joined = []
    for col in columns:
        joined.append(np.concatenate(col))
        col.clear()
    return tuple(joined)


def _supported(edges: tuple, support: np.ndarray) -> tuple:
    """The edges whose base slot is in the support."""
    src, dst, out, slot = edges
    keep = support[slot]
    return src[keep], dst[keep], out[keep], slot[keep]


def _expand_blocks(block_sizes: np.ndarray):
    """(block_id, within_block_position) for ragged cross products."""
    block_sizes = np.asarray(block_sizes, dtype=np.int64)
    total = int(block_sizes.sum())
    block_id = np.repeat(np.arange(len(block_sizes)), block_sizes)
    starts = np.concatenate([[0], np.cumsum(block_sizes)[:-1]])
    within = np.arange(total) - starts[block_id]
    return block_id, within


def _chunk_ranges(counts: np.ndarray, limit: int = 65_536):
    """Split [0, len(counts)) into ranges whose count sums exceed `limit` by
    less than their last count."""
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(limit, ends[-1] if len(ends) else 0, limit)) + 1
    bounds = np.unique(np.concatenate([[0], cuts, [len(counts)]])).tolist()
    return zip(bounds[:-1], bounds[1:])


def _augment_division(chain: _Parts, layout: _Layout, support: np.ndarray) -> _Parts:
    """States (sym, [rt,] h, g): part g of division h of base value rt.

    A chain edge into symbol j producing rt enters the first part of every
    supported division of rt at j, a division steps through its parts by
    weight-1 edges, and its last part leaves by the chain edges out of j.
    `rt` joins the tag where the symbol does not fix it.
    """
    nb = layout.bar_length
    n_sym = len(chain.state_tags)
    # (symbol, value) keys of the chain edges: the base values to divide
    edge_keys = [dst * (nb + 1) + out for _, dst, out, _ in (chain.first, chain.trans)]
    reach = np.zeros(n_sym * (nb + 1), dtype=bool)
    for keys in edge_keys:
        reach[keys] = True
    # per base value rt, a row per part g of each supported division h
    divisions = division_parts(nb)
    rows = [(rt, h, g, part) for rt in range(1, nb + 1)
            for h in np.flatnonzero(support[layout.division_slot(rt, np.arange(rt))]).tolist()
            for g, part in enumerate(divisions[rt - 1][h], start=1)]
    row_rt, row_h, row_g, row_part = (np.array(c, dtype=np.int64) for c in zip(*rows))
    row_n = np.bincount(row_rt, minlength=nb + 1)
    # states in (symbol, rt) key order: a key's rows, each division's parts in turn
    keys = np.flatnonzero(reach)
    k, within = _expand_blocks(row_n[keys % (nb + 1)])
    key = keys[k]
    sym, rt = np.divmod(key, nb + 1)
    row = (np.cumsum(row_n) - row_n)[rt] + within
    h, g, part = row_h[row], row_g[row], row_part[row]
    extra = [(rt, h, g) if chain.state_value is None else (h, g) for rt, h, g, _ in rows]
    base = _as_tuples(chain.state_tags)
    tags = [base[j] + extra[r] for j, r in zip(sym.tolist(), row.tolist())]
    is_last = np.append(g[1:] == 1, True)
    entry = np.flatnonzero(g == 1)
    entry_ptr = np.searchsorted(key[entry], np.arange(len(reach) + 1))
    ends = np.flatnonzero(is_last)
    end_ptr = np.searchsorted(sym[ends], np.arange(n_sym + 1))

    mids = np.flatnonzero(~is_last)
    chunks = [(mids, mids + 1, part[mids + 1], np.full(len(mids), layout.one))]
    # a division's last part x a chain edge x the next division's first part
    src, _, _, slot = chain.trans
    n_end = np.diff(end_ptr)[src]
    n_ent = np.diff(entry_ptr)[edge_keys[1]]
    counts = n_end * n_ent
    for lo, hi in _chunk_ranges(counts):
        e, within = _expand_blocks(counts[lo:hi])
        e += lo
        a = ends[end_ptr[src[e]] + within // n_ent[e]]
        b = entry[entry_ptr[edge_keys[1][e]] + within % n_ent[e]]
        chunks.append((a, b, part[b], slot[e]))
    src, _, _, slot = chain.first
    e, within = _expand_blocks(np.diff(entry_ptr)[edge_keys[0]])
    b = entry[entry_ptr[edge_keys[0][e]] + within]
    return _Parts(
        boundary_tags=chain.boundary_tags,
        boundary_slots=chain.boundary_slots,
        initial_positions=chain.initial_positions,
        state_tags=tags,
        first=(src[e], b, part[b], slot[e]),
        trans=_join(chunks),
        virtual_boundary=chain.virtual_boundary,
        state_value=part,
        state_slots=(np.where(g == 1, layout.division_slot(rt, h), layout.one),),
    )


def _augment_shift(parts: _Parts, layout: _Layout, support: np.ndarray) -> _Parts:
    """States (state, s): an edge producing v from shift s' to shift s produces v + s - s'.

    A shift s keeps -v < s <= v for the edge's v and for the entered
    state's `state_value`, and shifted values stay inside [1, N_b].  Every
    boundary state gets a shift s_0 of its own.
    """
    nb = layout.bar_length
    sup = np.flatnonzero(support[layout.slots("shift_probs")])
    xi = layout.offset["shift_probs"] + sup
    sval = sup - (nb - 1)
    n_s = len(sval)

    def allowed(v):
        """Per value v, the run [lo, hi) of shift positions with -v < s <= v."""
        return np.searchsorted(sval, -v, side="right"), np.searchsorted(sval, v, side="right")

    n_par = len(parts.state_tags)
    if parts.state_value is None:
        lo, hi = np.zeros(n_par, dtype=np.int64), np.full(n_par, n_s)
    else:
        lo, hi = allowed(parts.state_value)
    n_allowed = hi - lo
    start = np.cumsum(n_allowed) - n_allowed  # each state's first shifted state
    parent, within = _expand_blocks(n_allowed)
    s_pos = lo[parent] + within
    base = _as_tuples(parts.state_tags)
    state_tags = [base[j] + (s,) for j, s in zip(parent.tolist(), sval[s_pos].tolist())]

    n_b = len(parts.boundary_tags)
    if parts.virtual_boundary:
        boundary_tags = sval.tolist()
    else:
        boundary_tags = [t + (s,) for t in _as_tuples(parts.boundary_tags) for s in sval.tolist()]
    positions = None
    if parts.initial_positions is not None:
        positions = ((parts.initial_positions[:, None] + sval[None, :]) % nb).reshape(-1)

    def expand(edges, src_lo, src_n, src_start):
        src, dst, v, slot = edges
        e_lo, e_hi = allowed(v)
        d_lo = np.maximum(lo[dst], e_lo)
        d_n = np.maximum(np.minimum(hi[dst], e_hi) - d_lo, 0)
        s_lo = src_lo[src]
        # shifted states at the first shifts of each edge's source and target
        src_at, dst_at = src_start[src], start[dst] + d_lo - lo[dst]
        counts = src_n[src] * d_n
        chunks = []
        for a, b in _chunk_ranges(counts):
            e, within = _expand_blocks(counts[a:b])
            e += a
            i, j = np.divmod(within, d_n[e])
            out = v[e] + sval[d_lo[e] + j] - sval[s_lo[e] + i]
            feas = (out >= 1) & (out <= nb)
            e, i, j = e[feas], i[feas], j[feas]
            chunks.append((src_at[e] + i, dst_at[e] + j, out[feas], slot[e]))
        return _join(chunks)

    boundary_lo = np.zeros(n_b, dtype=np.int64)
    return _Parts(
        boundary_tags=boundary_tags,
        boundary_slots=tuple(np.repeat(c, n_s) for c in parts.boundary_slots)
        + (np.tile(xi, n_b),),
        initial_positions=positions,
        state_tags=state_tags,
        first=expand(parts.first, boundary_lo, np.full(n_b, n_s), np.arange(n_b) * n_s),
        trans=expand(parts.trans, lo, n_allowed, start),
        virtual_boundary=False,
        state_slots=tuple(c[parent] for c in parts.state_slots) + (xi[s_pos],),
    )


# ---------------------------------------------------------------------------
# topology and weighing


def _frozen(a) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _sorted_edges(edges: list, n_src: int, n_dst: int) -> EdgeSet:
    """One edge slot's structure in (dst, src) order, unweighed, with its
    base slots; every array read-only.

    `edges` is a [src, dst, out, slot] list holding the only references to
    its arrays; it is emptied as they are sorted, so that no unsorted array
    outlives its sorted copy.
    """
    # one sort key holds (dst, src), and the sorted key gives both back
    src, dst = edges.pop(0), edges.pop(0)
    key = np.asarray(dst, dtype=np.int64) * n_src + src
    del src, dst
    order = np.argsort(key, kind="stable")
    key = key[order]
    out = np.asarray(edges.pop(0), dtype=np.int64)[order]
    slot = np.asarray(edges.pop(0), dtype=np.int64)[order]
    del order
    dst = key // n_src
    src = np.remainder(key, n_src, out=key)
    return EdgeSet(_frozen(src), _frozen(dst), None, _frozen(out), n_src, n_dst, _frozen(slot))


def _weighed(edges: EdgeSet, theta: np.ndarray, factor) -> EdgeSet:
    """`edges` weighed with the flat parameter vector `theta`, in its own
    edge order.

    Edge s -> d weighs ``theta[slot] * factor[d]`` over the sum of its
    source row.  `factor` is the per-destination-state product of the
    modification entries, or None for unmodified models.  Every edge is
    kept: a weight of 0 is a log weight of -inf, and so is every weight of
    a row with no mass.
    """
    prob = theta[edges.slot]
    if factor is not None:
        prob *= factor[edges.dst]
    # within each source row, build order is dst order, so this bincount
    # adds each row's terms in build order: row sums match to the last bit
    rowsum = np.bincount(edges.src, weights=prob, minlength=edges.n_src)
    rowsum[rowsum == 0] = 1.0  # log 0 - log 1: -inf rather than NaN
    # the logs overwrite `prob` (a fresh array) to save an edge-length copy
    with np.errstate(divide="ignore"):  # zero weights
        logp = np.log(prob, out=prob)
    logp -= np.log(rowsum)[edges.src]
    return edges.reweighted(logp)


class _Topology:
    """Everything about a state space that its weights do not change.

    Built once per (config structure, pattern vocabulary, support): tags,
    boundary positions, and `first`/`trans`, the unweighed edges in (dst,
    src) order, each with the slot of the flat parameter vector that weighs
    it; boundary and modification states carry the slots of theirs.
    `weigh` turns a parameter vector whose support lies within the one the
    topology was built for into a space of the same states and edges; on
    that support itself, it is the space a build from those parameters
    yields.  Shared arrays are read-only.
    """

    def __init__(self, layout: _Layout, support: np.ndarray, parts: _Parts):
        self.layout = layout
        self.outside = _frozen(np.flatnonzero(~support))
        self.boundary_tags = tuple(parts.boundary_tags)
        self.state_tags = tuple(parts.state_tags)
        self.boundary_slots = tuple(_frozen(s) for s in parts.boundary_slots)
        self.initial_positions = None if parts.initial_positions is None else _frozen(
            np.asarray(parts.initial_positions, dtype=np.int64))
        self.state_slots = tuple(_frozen(s) for s in parts.state_slots)
        self.virtual_boundary = parts.virtual_boundary
        n_b, n_s = len(self.boundary_tags), len(self.state_tags)
        first, trans = list(parts.first), list(parts.trans)
        parts.first = parts.trans = None  # so that sorting frees each unsorted array
        self.first = _sorted_edges(first, n_b, n_s)
        self.trans = _sorted_edges(trans, n_s, n_s)

    def covers(self, theta: np.ndarray) -> bool:
        """Whether every positive entry of `theta` is in this topology's support."""
        return not theta[self.outside].any()

    def weigh(self, config: ModelConfig, theta: np.ndarray) -> "LatentStateSpace":
        """The space of `theta`, in this topology's state, boundary and edge
        order.  An edge weighs its slot's entry times the modification
        entries of the state it enters, over its row's sum (see `_weighed`);
        what `theta` gives 0 weighs -inf, and a state that no path of
        positive weight reaches keeps its rows."""
        factor = _product(theta, self.state_slots) if self.state_slots else None
        with np.errstate(divide="ignore"):
            log_init = np.log(_product(theta, self.boundary_slots))
        return LatentStateSpace(config, self, log_init, _weighed(self.first, theta, factor),
                                _weighed(self.trans, theta, factor))


# Two models' spaces per process (say a pattern and a metrical model, or one
# model's plain and Bayesian tables) stay cached, with room to spare.
@functools.lru_cache(maxsize=4)
def _topology(config: ModelConfig, patterns, support: bytes) -> _Topology:
    """The topology of the plain `config` and pattern vocabulary for the
    support packed in `support` (`np.packbits` of ``theta > 0``)."""
    layout = _Layout(config.order, config.shift, config.division, config.bar_length,
                     config.bar_length if patterns is None else len(patterns))
    support = np.unpackbits(np.frombuffer(support, dtype=np.uint8), count=layout.size).astype(bool)
    parts = _CHAIN_BUILDERS[config.family](config, layout, patterns)
    parts.first, parts.trans = (_supported(e, support) for e in (parts.first, parts.trans))
    if config.division:
        parts = _augment_division(parts, layout, support)
    if config.shift:
        parts = _augment_shift(parts, layout, support)
    return _Topology(layout, support, parts)


class LatentStateSpace:
    """An enumerated latent chain: tagged states plus weighted, valued edges.

    Probabilities are stored as log weights on edges; every edge carries the
    note value it produces.  `first` connects boundary states (the slot
    before the first note) to emitting states; `trans` connects emitting
    states.  Models without an explicit pre-first-note state use a single
    virtual boundary whose tag is None.

    A space is its `topology` weighed (see `_Topology.weigh`, its only
    maker): it holds every state, boundary state and edge of the topology,
    in the topology's order, and reads its tags, boundary positions and
    `virtual_boundary` off it.  An edge weighs its parameter entries over
    its row's sum, what the tables give 0 weighs -inf, and a state that no
    path of positive weight reaches keeps its rows.
    """

    def __init__(self, config: ModelConfig, topology: _Topology, log_initial: np.ndarray,
                 first: EdgeSet, trans: EdgeSet):
        self.config = config
        self.bar_length = config.bar_length
        self.boundary_tags = topology.boundary_tags
        self.log_initial = log_initial
        self.initial_positions = topology.initial_positions
        self.state_tags = topology.state_tags
        self.first = first
        self.trans = trans
        self.virtual_boundary = topology.virtual_boundary
        self._topology = topology

    @property
    def n_states(self) -> int:
        return len(self.state_tags)

    @property
    def n_edges(self) -> int:
        return self.first.n_edges + self.trans.n_edges

    @property
    def layout(self) -> _Layout:
        """The flat parameter layout this space's weights are read from."""
        return self._topology.layout

    def reweighed(self, theta: np.ndarray) -> "LatentStateSpace":
        """This space's topology weighed with the flat parameter vector `theta`.

        `theta` is laid out as `layout`; the result keeps this space's
        states and edges, and weighs -inf what `theta` gives 0.  ValueError
        if `theta` is positive outside the support the topology was built
        for.
        """
        topo = self._topology
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (topo.layout.size,):
            raise ValueError(f"theta must have shape ({topo.layout.size},), got {theta.shape}")
        if not topo.covers(theta):
            raise ValueError("theta is positive outside this space's topology")
        return topo.weigh(self.config, theta)

    def slot_counts(self, path) -> np.ndarray:
        """How often `path` uses each parameter slot (see `layout`).

        Every weight of the space is a product of table entries, so a path's
        sufficient statistics are the slots of its boundary state and edges.
        """
        boundary = np.array([0 if path.boundary_index is None else int(path.boundary_index)])
        states = np.asarray(path.state_indices, dtype=np.int64)
        outs = np.asarray(path.output_values, dtype=np.int64)
        first = _edge_ids(self.first, boundary, states[:1], outs[:1])
        trans = _edge_ids(self.trans, states[:-1], states[1:], outs[1:])
        topo = self._topology
        entered = np.concatenate([self.first.dst[first], self.trans.dst[trans]])
        used = [s[boundary] for s in topo.boundary_slots]
        used += [self.first.slot[first], self.trans.slot[trans]]
        used += [s[entered] for s in topo.state_slots]
        return np.bincount(np.concatenate(used), minlength=topo.layout.size).astype(np.float64)


def _edge_ids(edges: EdgeSet, src, dst, out) -> np.ndarray:
    """Ids of the edges src -> dst producing `out`; ValueError if one is missing."""
    if len(dst) == 0:
        return np.empty(0, dtype=np.int64)
    key = edges.dst * edges.n_src + edges.src  # nondecreasing: edges are (dst, src)-sorted
    want = dst * edges.n_src + src
    pos = np.minimum(np.searchsorted(key, want), max(edges.n_edges - 1, 0))
    if edges.n_edges == 0 or np.any(key[pos] != want) or np.any(edges.out[pos] != out):
        raise ValueError("the path is not a path of this state space")
    return pos


def build_state_space(config: ModelConfig, params: ModelParams) -> LatentStateSpace:
    """Build the latent state space of any supported model variant.

    The structure comes from a topology (see `_Topology`) built for exactly
    the positive entries of `params`, which `_topology` caches; the tables
    then only weigh it.  The result equals a build from scratch, array for
    array.
    """
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
    patterns = params.patterns if config.family == "pat" else None
    layout = _Layout(config.order, config.shift, config.division, config.bar_length,
                     params.n_symbols)
    theta = layout.flatten(params)
    topology = _topology(config.plain(), patterns, np.packbits(theta > 0).tobytes())
    return topology.weigh(config, theta)


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
    """Draw a random rhythm of `n_notes` >= 1 notes from a score model."""
    n_notes = integral(n_notes, "n_notes")
    if n_notes < 1:
        raise ValueError(f"n_notes must be >= 1, got {n_notes}")
    path = _sample_generative(space, n_notes, rng)
    boundary = path.boundary_index if path.boundary_index is not None else 0
    tau0 = (
        int(space.initial_positions[boundary])
        if space.initial_positions is not None
        else 0
    )
    return score_from_metrical(tau0, path.output_values, space.bar_length)


def sample_corpus(
    space: LatentStateSpace,
    n_pieces: int,
    n_notes: int,
    rng: np.random.Generator,
    id_prefix: str = "sampled",
) -> Corpus:
    """A corpus of `n_pieces` >= 1 independent draws from one score model."""
    n_pieces = integral(n_pieces, "n_pieces")
    if n_pieces < 1:
        raise ValueError(f"n_pieces must be >= 1, got {n_pieces}")
    pieces = tuple(sample_score(space, n_notes, rng) for _ in range(n_pieces))
    ids = tuple(f"{id_prefix}-{i:04d}" for i in range(n_pieces))
    return Corpus(pieces, ids, space.bar_length)
