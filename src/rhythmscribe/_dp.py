"""Log-space dynamic programming over edge-list state spaces.

The latent chains built in :mod:`rhythmscribe.models` all share one shape: a
slot of boundary states (possibly a single virtual one), a set of emitting
states, first-step edges (boundary -> state) and transition edges
(state -> state).  Every edge carries an integer output value in
``[1, bar_length]``, and every observation attaches to the edge producing it.
That makes one forward/Viterbi/FFBS implementation serve every model family,
whether the original formulation emits on states or on transitions.

Emissions enter as a matrix ``em`` of shape ``(N, bar_length)``:
``em[n-1, v-1]`` is the log emission weight of output value ``v`` at step
``n``.  Indicator rows (0 / -inf) recover score probabilities; Gaussian
log-densities give performance likelihoods.

Every log-space pass is one sweep over the edge lists, `_pruned_sweep`,
max-product for Viterbi and sum-product for a forward pass.  It carries from
each slot only the states a keep policy picks: all of them for the plain
decode and the forward rerun (below), those that can still lie on an optimal
path for the certified decode (below), and a fixed number of the best for a
beam.  The exact forward pass runs in scaled linear space (Rabiner 1989) and
converts its table back to log space: large spaces over the class rows
(below), small ones over the edge list with every step's edge weights made
at once.  A scaled kernel flushes entries below the smallest normal
double, and a flushed path may later dominate; so each one keeps a ledger
of the mass it may have dropped making each slot, bounds from it the share
of its total that flushed mass could carry, and the pass reruns as the
sweep that keeps every state when that share could matter (see
`_log_flushed`).  The backward pass for the bounds below runs scaled over
the same rows.  Backward sampling (FFBS) draws every uniform up front and
inverts one cumulative sum over the in-edges of each sampled state.

Exact Viterbi on large spaces is certified rather than swept over every edge.
A sweep that carries only some states computes, for each state it reaches,
``delta'_n(s)``: the best score over the carried states' out-edges.  The
best path through s at step n then scores at most ``delta'_n(s) +
beta_n(s)`` whenever ``delta'_n(s)`` is exact, since a sum over paths is at
least their max.  So once some feasible path scores L, a sweep that carries
only the states whose bound reaches L carries every optimal path: each
predecessor on such a path is carried, so each state's ``delta'`` on it is
exact and its bound reaches the optimum (the admissible-bound argument of
exact A* search).  The decoded path, its score and the lowest-index tie
rule are those of the full sweep.  Only beta must be a true bound, and it
comes from a scaled backward pass that raises every entry by the most
underflow may have dropped from it; no forward pass runs.  Row 0 of that
pass also bounds the data's total from above, ``Z_up = sum_s init(s)
beta_0(s)`` (Rabiner 1989).  A forward-direction bound on the mass its
raises add (see `_log_raised`) says when ``Z_up`` lies within e^-40 of the
total, and the decode then returns it.

The shift and division modifications multiply the states, but a state's
out-edges depend only on where it stands: many sources have out-edges of
the same destination, value and parameter slot, and so the same weights
and backward values under any tables.  Each edge set partitions its
sources into such classes (state minimization, Hopcroft 1971) once per
topology, on first use (see `EdgeSet.row_classes`); a weighing keeps every
state and edge, a zero weight being a log weight of -inf, so every weighing
of a topology shares its classes.  Its one
weighted matrix has a row per distinct weighted class row (see
`EdgeSet.class_rows`): classes whose rows are equal by weight, bit for
bit, as sparse trained tables leave many, merge once per weighing.  The
forward pass multiplies the matrix's transpose by the state vector's
row sums, and the upper backward pass multiplies it and gathers the
result per state.  A merged row adds the same terms in the same order as
each class it stands for, so the upper pass, and with it the certified
decode's paths, bounds and likelihood, is bit-identical to one over the
per-value matrix with a column per source.  So is the forward pass where
every row holds one source, numbered in source order; merged rows add
their members' mass before the product, which moves a forward total by
rounding alone (by at most 1.8e-15 on the test spaces).  At bar length 8,
`metmm1sd`'s 3,256 sources form 1,249 classes and its 295,712 matrix
entries become 19,224, and no rows merge; `patmm1d`'s 18,133 form 8,686,
and 680,928 entries become 193,796, then 8,439 rows and 18,133 entries
under uniform tables, and 8,458 and 33,710 under the benchmark's trained
ones.  With trained tables an upper pass over a 300-note piece
took 0.031 s for `metmm1sd` and 0.218 s for `patmm1d`, against 0.213 s and
0.537 s over every state, before the merge; in one process the merge
took `patmm1d`'s from 0.143 to 0.087 s, for 4.2 ms per weighing, and
cost `metmm1sd`'s nothing.  A forward pass over a 200-note `metmm1sdb`
piece took 14 ms, against 52 ms over a per-value matrix with a column per
source; over `patmm1b`, whose classes are all singletons, it took 18 ms
against 16 ms, since each step adds the class sums and a product that
scatters (one thread, 2-vCPU host; README.md).
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .core import integral

NEG_INF = -np.inf

# Exact forward passes over spaces with at least this many edges run the
# scaled kernel over the class rows (`_scaled_forward`); smaller ones run the
# time-batched kernel (`_batched_forward`), which makes the per-edge weights
# of many steps at once, in blocks of at most `BATCH_MAX_ENTRIES` entries
# (512 KiB, one step at least), and backward sampling precomputes its
# per-edge weights the same way.  A pass whose scaled kernel trips its
# underflow guard reruns in log space, as the sum-product `_pruned_sweep`
# that keeps every state.  The crossover was picked from single-thread
# timings at 200 notes; see CHANGES.md.
SPARSE_MIN_EDGES = 5_000
BATCH_MAX_ENTRIES = 1 << 16

# Exact Viterbi over spaces with at least this many edges is certified
# (`_certified_sweep`); smaller spaces keep the plain sweep.
# With trained tables a 300-note transcribe call (decode plus likelihood)
# took 1.57x as long certified at 38.8k edges and 0.63x at 68.1k; README.md
# has the timings.
CERTIFY_MIN_EDGES = 60_000

# A pruned step relaxes the out-edges of the states it keeps; once those are
# more than this share of all edges, one `_full_step` over every edge is
# cheaper.  Relaxing gathers each edge at random, 6-7x
# the cost per edge of the full step on `patmm1`, `metmm1sd` and `patmm1d`
# (single thread), so the two cross at 14-16% of the edges.
DENSE_STEP_FRACTION = 0.15

# The feasible score that certifies exact Viterbi comes from a sweep over the
# top-k states of each step by their bound, k = 4, 16, 64, ... until one
# restriction has a path.
TOP_K_START = 4
TOP_K_GROWTH = 4

# Bounds and path scores add the same log terms in different orders; the
# pruning threshold sits this relative slack (far above double rounding) below
# the feasible score.
BOUND_SLACK = 1e-9

# A scaled kernel's entries lose under 2^-1074 each to underflow; the drop
# bounds below use 2^-1072, which also covers the rounding of their sums.
LOG_UNDERFLOW = -1072 * float(np.log(2.0))

# A scaled forward total stands only when the mass its kernel flushed could
# carry at most e^-40 of it, and an upper backward total only when its raises
# could add at most e^-40 of it.
DROP_MARGIN = 40.0

# The least raise of an upper backward entry (see `_upper_beta`).
RAISE = 2.0**-700


class InferenceError(RuntimeError):
    """No feasible latent path (or an emptied beam) for the given data."""


class EdgeSet:
    """Weighted edges between two state slots, indexed for DP sweeps.

    Stored sorted by (dst, src) so per-destination reductions are contiguous
    and ties resolve toward the lowest source index.  A src-sorted view (for
    out-edge steps and generative sampling) and one weighted matrix, a row
    per class of sources with identical out-edges (see `class_rows`), are
    built lazily; the structure behind them is shared with every
    `reweighted` copy.
    """

    def __init__(self, src, dst, logp, out, n_src: int, n_dst: int, slot):
        """Edges from int64/float64 arrays already in (dst, src) order,
        used as given, not copied.  `slot` is the parameter slot that each
        edge's weight reads: sources whose out-edges match in (dst, out,
        slot) weigh alike under any parameters (see `row_classes`)."""
        self.src = src
        self.dst = dst
        self.logp = logp
        self.out = out
        self.slot = slot
        self.n_src = int(n_src)
        self.n_dst = int(n_dst)
        self.n_edges = len(self.src)
        self.dst_indptr = np.searchsorted(self.dst, np.arange(self.n_dst + 1))
        # contiguous nonempty segments for reduceat
        counts = np.diff(self.dst_indptr)
        self._rows = np.flatnonzero(counts)
        self._starts = self.dst_indptr[self._rows]
        self._seg_counts = counts[self._rows]
        self._structure = {}  # lazy views of src/dst/out, shared by reweighted copies
        self._class_rows = None
        self._log_kappa = None

    def reweighted(self, logp) -> "EdgeSet":
        """The same edges with log weights `logp` (in this set's edge order)."""
        edges = copy.copy(self)
        edges.logp = logp
        edges._class_rows = None
        edges._log_kappa = None
        return edges

    def src_view(self):
        """(order, indptr) of edges grouped by source state: int32 edge ids
        in (src, dst) order, and where each source's ids begin."""
        view = self._structure.get("src_view")
        if view is None:
            indptr = np.zeros(self.n_src + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.src, minlength=self.n_src), out=indptr[1:])
            # the edges are in (dst, src) order, so a stable sort by source
            # gives (src, dst) order.  It sorts a block of edges at a time
            # (see `_block_length`) and puts each block's edges of a source
            # after those of earlier blocks: one sort of every edge makes 16
            # bytes per edge of temporaries, which would set the peak RSS of
            # a `patmm1sd` decode.
            order = np.empty(self.n_edges, dtype=np.int32)
            free = indptr[:-1].copy()  # where each source's next id goes
            block = _block_length(self.n_edges) or 1  # 0 for no edges
            for lo in range(0, self.n_edges, block):
                src = self.src[lo:lo + block]
                # a stable sort of small ints is a radix sort
                ids = np.argsort(src.astype(np.min_scalar_type(self.n_src)), kind="stable")
                src = src[ids]
                counts = np.bincount(src, minlength=self.n_src)
                at = free - (np.cumsum(counts) - counts)
                ids += lo
                order[at[src] + np.arange(ids.size)] = ids
                free += counts
            view = self._structure["src_view"] = (order, indptr)
        return view

    def row_classes(self):
        """``(cls, reps)``: the class of each source state, and each
        class's representative, its lowest-index member.

        The members of a class have out-edges of the same (dst, out, slot)
        in (src, dst) order, so they get the same weights, row sums and
        backward values under any parameters.  Found once per structure,
        on first use (see `_row_classes`), and shared by every weighing,
        whose `class_rows` may merge classes that are equal by weight.
        """
        classes = self._structure.get("row_classes")
        if classes is None:
            classes = self._structure["row_classes"] = _row_classes(self)
        return classes

    def class_rows(self):
        """``(n_values, with_edges, cls, C)``: the set's one weighted
        matrix, a row per distinct weighted row of the classes of sources
        (see `row_classes`).

        Class k's row holds its representative's out-edge probabilities in
        ascending columns ``(v-1) * n_dst + d``, and rows whose columns and
        probabilities are equal, bit for bit, are merged into the first of
        them once per weighing (see `_merged`).  So the CSR matrix `C` has
        shape ``(n_rows, n_values * n_dst)``, ``cls`` maps each source to
        its row, and ``with_edges[v-1]`` says whether some edge produces v.
        The forward pass multiplies ``C^T`` by the row sums of the state
        vector, and the backward pass gathers ``(C @ y)[cls]``.  A merged
        row adds the same terms in the same order as each row it stands
        for, so the backward pass is bit-identical to one over every class
        and to a per-value matrix with a column per source; the forward pass
        is too where every row holds one source, in source order (see the
        module docstring).  The edge order of the class rows, and which of
        them share their columns, are kept with the structure, so a
        reweighted copy only exponentiates its representatives' weights and
        compares those that could merge.
        """
        if self._class_rows is None:
            layout = self._structure.get("class_rows")
            if layout is None:
                layout = self._structure["class_rows"] = _class_layout(self)
            n_values, with_edges, cls, order, indices, indptr, twins = layout
            data = self.logp[order]
            np.exp(data, out=data)
            cls, data, indices, indptr = _merged(cls, data, indices, indptr, twins)
            mat = sparse.csr_matrix((data, indices, indptr),
                                    shape=(indptr.size - 1, n_values * self.n_dst))
            self._class_rows = (n_values, with_edges, cls, mat)
        return self._class_rows

    def log_kappa(self) -> np.ndarray:
        """Per output value v, the log of the most probability that one
        source sends along edges producing v (-inf for a value without
        edges).

        Read off `class_rows` when a pass has built them, so that a large
        space allocates nothing per edge here, and else, on a small space's
        forward pass, off the edge list.  Both add a source's entries of a
        value in ascending destinations, and a merged row's sums are those
        of each class it stands for, so they agree to the bit.
        """
        if self._log_kappa is None:
            if self._class_rows is not None:
                n_values, _, _, mat = self._class_rows
                n_rows, p = mat.shape[0], mat.data
                key = np.repeat(np.arange(n_rows) * n_values, np.diff(mat.indptr))
                key += mat.indices // self.n_dst
            else:
                n_values = int(self.out.max()) if self.n_edges else 0
                n_rows, p = self.n_src, np.exp(self.logp)
                key = self.src * n_values
                key += self.out - 1
            sums = np.bincount(key, weights=p, minlength=n_rows * n_values)
            kappa = sums.reshape(n_rows, n_values).max(axis=0, initial=0.0)
            with np.errstate(divide="ignore"):
                self._log_kappa = np.log(kappa)
        return self._log_kappa

    def in_slice(self, state: int) -> slice:
        """Slice of edges entering `state` (arrays are dst-sorted)."""
        return slice(self.dst_indptr[state], self.dst_indptr[state + 1])

    def step_scores(self, alpha: np.ndarray, em_row: np.ndarray, eids, scratch) -> np.ndarray:
        """Per-edge score alpha[src] + logp + em(out) of the edges `eids`, a
        slice or an array of edge ids.

        `scratch`, a float array that holds as many entries as edges
        scored, receives the scores (a view of it is returned).  A sweep
        that passes the same array at every step then allocates no
        edge-length array for them: a fresh one is mapped anew by the
        allocator and page-faults on every step, which costs a third of a
        step on large spaces.
        """
        # indexed by `out` itself, with no shifted copy of it
        em_by_out = np.empty(em_row.size + 1)
        em_by_out[1:] = em_row
        # gathers, not `take`: `take` copies an index that is read-only, as
        # a slice of every topology's arrays is, at every call
        src = self.src[eids]
        scores = np.add(alpha[src], self.logp[eids], out=scratch[:src.size])
        scores += em_by_out[self.out[eids]]
        return scores


def _mixed(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer (Steele, Lea and Flood 2014), in place on a
    uint64 array, whose products wrap without a warning: sums of mixed
    tokens rarely collide."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _row_tokens(edges: EdgeSet, order) -> np.ndarray | None:
    """Each edge's (dst, out, slot) as one int64, in the (src, dst) order
    `order` of `EdgeSet.src_view`; None when the packed tokens could
    overflow."""
    n_values = int(edges.out.max(initial=0)) + 1
    if (int(edges.slot.max(initial=0)) + 1) * n_values * edges.n_dst >= 2**63:
        return None
    tokens = edges.slot * n_values
    tokens += edges.out
    tokens *= edges.n_dst
    tokens += edges.dst
    return tokens[order]  # one gather rather than one per field


def _row_hashes(tokens: np.ndarray, indptr) -> np.ndarray:
    """A uint64 hash per row of `tokens`, rows as in `EdgeSet.src_view`,
    free of the tokens' order: the wrapped sum of the mixed tokens, and the
    mixed out-degree."""
    degree = np.diff(indptr)
    hashes = _mixed(degree.astype(np.uint64))
    rows = np.flatnonzero(degree)
    if rows.size:
        hashes[rows] += np.add.reduceat(_mixed(tokens.astype(np.uint64)), indptr[rows])
    return hashes


def _classes(hashes: np.ndarray, key: np.ndarray, tokens: np.ndarray, indptr):
    """``(cls, reps)``: the class of each row of `tokens` (row r is
    ``tokens[indptr[r]:indptr[r + 1]]``) among the rows equal to it, and
    each class's lowest-index row, found exactly.

    Rows of equal `hashes` are grouped, and each is checked entry by entry
    against its group's lowest-index row, whose `key` (which fixes a row's
    length) must also be its own; one that differs becomes a class of its
    own, so a collision splits a class but never merges two.
    """
    every = np.arange(hashes.size)
    _, first, group = np.unique(hashes, return_index=True, return_inverse=True)
    rep = first[group]  # the group's lowest-index row
    alone = rep != every
    members = np.flatnonzero(alone & (key == key[rep]))
    counts = indptr[members + 1] - indptr[members]
    at = _concat_ranges(indptr[members], counts)
    theirs = tokens[at]
    at += np.repeat(indptr[rep[members]] - indptr[members], counts)
    differs = theirs != tokens[at]
    del at, theirs
    same = np.ones(members.size, dtype=bool)
    rows = np.flatnonzero(counts)
    if rows.size:
        same[rows] = ~np.logical_or.reduceat(differs, (np.cumsum(counts) - counts)[rows])
    alone[members[same]] = False
    rep[alone] = every[alone]
    is_rep = rep == every
    cls = np.cumsum(is_rep) - 1
    return cls[rep], every[is_rep]


def _row_classes(edges: EdgeSet):
    """``(cls, reps)`` of `EdgeSet.row_classes`: `_classes` of the
    sources' out-edge rows of `_row_tokens`."""
    every = np.arange(edges.n_src)
    order, indptr = edges.src_view()
    tokens = _row_tokens(edges, order)
    if tokens is None:
        return every, every
    return _classes(_row_hashes(tokens, indptr), np.diff(indptr), tokens, indptr)


def _class_layout(edges: EdgeSet):
    """``(n_values, with_edges, cls, order, indices, indptr, twins)`` of
    `EdgeSet.class_rows`'s matrix before any merge: the edge ids of its
    entries, their columns ``(v-1) * n_dst + d``, row pointers, and
    ``(rows, shape, at)``: the rows whose columns equal another row's (the
    only ones that can merge, see `_merged`), the class of their columns
    and where their entries lie."""
    cls, reps = edges.row_classes()
    n_values = int(edges.out.max()) if edges.n_edges else 0
    with_edges = np.bincount(edges.out, minlength=n_values + 1)[1:] > 0
    src_order, src_indptr = edges.src_view()
    starts = src_indptr[reps]
    counts = src_indptr[reps + 1] - starts
    # edge ids as intp: each reweighing gathers `logp` by them, and an int32
    # index would make that gather convert it first, three times slower
    order = src_order[_concat_ranges(starts, counts)].astype(np.intp)
    cols = edges.out[order] - 1
    cols *= edges.n_dst
    cols += edges.dst[order]
    # within a row, ascending columns; the same column keeps edge order
    key = np.repeat(np.arange(reps.size) * (n_values * edges.n_dst), counts)
    key += cols
    by_column = np.argsort(key, kind="stable")
    del key
    indptr = np.zeros(reps.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    cols = cols[by_column]
    shape, _ = _classes(_row_hashes(cols, indptr), counts, cols, indptr)
    rows = np.flatnonzero(np.bincount(shape)[shape] > 1)
    twins = (rows, shape[rows], _concat_ranges(indptr[rows], counts[rows]))
    # the index type scipy picks for the matrix, so that no weighing converts
    index = np.int32 if max(reps.size, n_values * edges.n_dst, cols.size) < 2**31 else np.int64
    return (n_values, with_edges, cls, order[by_column], cols.astype(index),
            indptr.astype(index), twins)


def _merged(cls, data, indices, indptr, twins):
    """``(cls, data, indices, indptr)`` of `EdgeSet.class_rows`, with every
    row whose columns and probabilities equal an earlier row's, bit for
    bit, merged into the first of them.

    Only the rows of `twins` (see `_class_layout`) can merge.  They are
    grouped by a hash of their probabilities' bits and their column class,
    and checked entry by entry as `_classes` checks.  The rows that stay
    keep their order, and ``cls`` maps each source to its row.
    """
    rows, shape, at = twins
    if rows.size == 0:
        return cls, data, indices, indptr
    counts = np.diff(indptr)
    sub_indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts[rows], out=sub_indptr[1:])
    bits = data[at].view(np.uint64)
    hashes = _row_hashes(bits, sub_indptr)
    hashes += _mixed(shape.astype(np.uint64))
    sub_cls, sub_reps = _classes(hashes, shape, bits, sub_indptr)
    if sub_reps.size == rows.size:
        return cls, data, indices, indptr
    every = np.arange(counts.size)
    target = every.copy()  # the row each row merges into
    target[rows] = rows[sub_reps[sub_cls]]
    is_kept = target == every
    kept = every[is_kept]
    at = _concat_ranges(indptr[kept], counts[kept])
    new_indptr = np.zeros(kept.size + 1, dtype=indptr.dtype)
    np.cumsum(counts[kept], out=new_indptr[1:])
    return (np.cumsum(is_kept) - 1)[target[cls]], data[at], indices[at], new_indptr


def _effective_width(width: int | None, space, n_init: int) -> int | None:
    """Internal beam width, or None for exact inference.

    Widths round up to the next power of two: the tiered sweep below builds
    survivor sets level by level over exactly those widths, which is what
    keeps the sets nested (and scores monotone) across different requests.
    """
    if width is None:
        return None
    width = integral(width, "beam_width")
    if width < 1:
        raise ValueError("beam width must be >= 1")
    eff = 1 << (width - 1).bit_length()  # the next power of two
    if eff >= max(space.trans.n_dst, n_init):
        return None
    return eff


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(a, a + c) for a, c in zip(starts, counts)])``.

    Built in one array of the result's length, as a running sum of steps of
    1 with a jump at each range's start.
    """
    nonempty = counts > 0
    starts, counts = starts[nonempty], counts[nonempty]
    ids = np.ones(int(counts.sum()), dtype=np.int64)
    if ids.size:
        firsts = np.cumsum(counts) - counts
        ids[firsts[1:]] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
        ids[0] = starts[0]
        np.cumsum(ids, out=ids)
    return ids


def _relax(edges: EdgeSet, alpha, eids, em_row, use_max, scratch):
    """One pruned DP step: propagate scores along the edges `eids`, the
    out-edges of the kept states.

    Returns per-destination values (max or logsumexp over incoming edge
    scores, -inf where nothing arrives), or None when nothing arrives
    anywhere, which the relaxed scores decide: there are far fewer of them
    than states on a large space.  Cost scales with the kept states'
    out-degree, not the full edge count.  `scratch` is as in
    `EdgeSet.step_scores`.
    """
    if eids.size == 0:
        return None
    sc = edges.step_scores(alpha, em_row, eids, scratch)
    if not np.isfinite(sc).any():
        return None
    val = np.full(edges.n_dst, NEG_INF)
    dst = edges.dst[eids]
    np.maximum.at(val, dst, sc)
    if use_max:
        return val
    ok = np.isfinite(val)
    tot = np.zeros(edges.n_dst)
    np.add.at(tot, dst, np.exp(sc - np.where(ok, val, 0.0)[dst]))
    val[ok] += np.log(tot[ok])
    return val


def _extend_survivors(locked: np.ndarray, values: np.ndarray, width: int) -> np.ndarray:
    """Grow a survivor set to `width` states, keeping `locked` as a prefix.

    Extra slots go to the highest remaining finite values (ties to the
    lowest index), so the sets produced for increasing widths form a chain.
    """
    if locked.size:
        locked = locked[np.isfinite(values[locked])]
    need = width - locked.size
    if need <= 0:
        return locked
    mask = np.isfinite(values)
    if locked.size:
        mask[locked] = False
    cand = np.flatnonzero(mask)
    if cand.size > need:
        cand = cand[np.lexsort((cand, -values[cand]))[:need]]
    if not locked.size:
        return cand
    return np.concatenate([locked, cand]) if cand.size else locked


def _dense_step(step, size: int) -> np.ndarray:
    """A sparse table step as a full vector, -inf outside its ids."""
    ids, vals = step
    full = np.full(size, NEG_INF)
    full[ids] = vals
    return full


def _tiered_sweep(space, em, eff: int, init: np.ndarray, use_max: bool):
    """Beam sweep whose survivor sets are nested across widths.

    Runs `_pruned_sweep` at widths 1, 2, 4, ..., `eff` in turn; at each
    width a slot keeps the previous width's survivors and then the best
    other states up to the width (see `_extend_survivors`).  Because a
    narrower request's sweep is one of a wider request's earlier ones,
    survivor sets never reshuffle as the width grows: path sets only gain
    members, so beam scores are non-decreasing in the width and reach the
    exact values once every state fits.  The doubling ladder costs at most
    twice the widest sweep's work.  A narrower width that keeps no
    feasible state passes on the survivors of the slots it kept; only the
    widest one raises.

    Returns the widest sweep's table (see `_pruned_sweep`).
    """
    scratch = _scratch(space)
    prev, width = [], 1
    while True:
        kept = []

        def keep(n, values):
            locked = prev[n] if n < len(prev) else np.empty(0, dtype=np.int64)
            kept.append(np.sort(_extend_survivors(locked, values, width)))
            return kept[-1]

        try:
            steps = _pruned_sweep(space, em, init, keep, scratch, use_max)
        except InferenceError:
            if width == eff:
                raise InferenceError(f"beam emptied at step {len(kept)}: "
                                     "no feasible state retained") from None
        if width == eff:
            return steps
        prev, width = kept, 2 * width


@dataclass
class PathSample:
    """A decoded or sampled latent path through a state space."""

    boundary_index: int | None
    state_indices: list[int]
    output_values: list[int]
    log_prob: float
    # the log total over every path: an FFBS draw's forward total, or a
    # certified decode's upper one when it settled it (else None)
    log_likelihood: float | None = None


def _emission_steps(space, em: np.ndarray):
    em = np.asarray(em, dtype=np.float64)
    if em.ndim != 2 or em.shape[0] < 1:
        raise ValueError("emission matrix must be (n_steps, bar_length) with n_steps >= 1")
    if em.shape[1] != space.bar_length:
        raise ValueError(f"emission matrix has {em.shape[1]} columns, "
                         f"the space's bar length is {space.bar_length}")
    bad = ~(em < np.inf)  # NaN or +inf; -inf stays legal (indicator rows)
    if bad.any():
        step = int(np.argmax(bad.any(axis=1))) + 1
        raise ValueError(f"emission matrix has a NaN or +inf entry at step {step}")
    return em


def _log_total(alpha: np.ndarray) -> float:
    """logsumexp over the finite entries of a vector (-inf if it has none)."""
    finite = alpha[np.isfinite(alpha)]
    if finite.size == 0:
        return NEG_INF
    m = np.max(finite)
    return float(m + np.log(np.sum(np.exp(finite - m))))


def _step_edges(space, n_steps: int, max_entries=None):
    """``(edges, lo, hi)`` for the edge sets that run steps lo..hi-1: the
    first step over `space.first`, the rest over `space.trans`, split into
    blocks of at most `max_entries` edge-steps (one step at least)."""
    yield space.first, 0, 1
    block = n_steps
    if max_entries is not None:
        block = max(1, max_entries // max(space.trans.n_edges, 1))
    for lo in range(1, n_steps, block):
        yield space.trans, lo, min(lo + block, n_steps)


def _batched(space) -> bool:
    """Whether `space` runs the time-batched kernels (see `SPARSE_MIN_EDGES`)."""
    return space.n_edges < SPARSE_MIN_EDGES


def _scaled_start(init, n_steps: int):
    """``(x, offsets, scales, log_loss)`` of a scaled forward pass: the init
    normalized to sum 1, and per-slot arrays whose entry 0 holds its max,
    its sum and the loss of that normalization (see `_log_flushed`)."""
    offsets = np.empty(n_steps + 1)
    scales = np.empty(n_steps + 1)
    log_loss = np.empty(n_steps + 1)
    offsets[0] = np.max(init)
    x = np.exp(init - offsets[0])
    scales[0] = x.sum()
    x /= scales[0]
    # exp(init - max) and the division by its sum
    log_loss[0] = np.log(2 * init.size) + LOG_UNDERFLOW + offsets[0]
    return x, offsets, scales, log_loss


def _forward_rows(space, n_steps: int) -> list:
    """Per step 0..n_steps-1, ``(n_values, n_dst, cls, C^T)`` of its edge
    set's `EdgeSet.class_rows`.  ``C^T`` is a CSC view that shares C's
    arrays, taken once per edge set: one made at every step slowed
    `patmm1b`'s forward by 30-60%."""
    rows = []
    for edges in (space.first, space.trans)[:min(n_steps, 2)]:
        n_values, _, cls, mat = edges.class_rows()
        rows.append((n_values, edges.n_dst, cls, mat.T))
    return rows + rows[1:] * (n_steps - 2)


def _pushed(rows, x) -> np.ndarray:
    """``z[v-1, d]``: the probability that the slot vector x sends to d
    along edges producing v, as ``C^T @ bincount(cls, x)`` over a step's
    `_forward_rows` `rows`."""
    n_values, n_dst, cls, mat_t = rows
    sums = np.bincount(cls, weights=x, minlength=mat_t.shape[1])
    return (mat_t @ sums).reshape(n_values, n_dst)


def _scaled_forward(space, em, init, keep_table=True):
    """Exact forward in scaled linear space over the class rows.

    Rabiner's (1989) scaling: the state vector ``x`` is kept normalized to
    sum 1 and the log normalizers accumulate into the total.  A step is
    ``y = sum_v exp(em[n, v] - c) * z[v]``, with ``z = C^T @ bincount(cls,
    x)`` the mass that x sends along each value's edges (see
    `EdgeSet.class_rows`), where ``c`` is the largest emission among the
    values some current state can produce, so the leading term is never
    scaled to 0 even when a duration lies far from every reachable value.

    Returns ``(total, table, log_flushed)``: the log total, -inf when no
    path is feasible; the forward table in log space, None then or without
    `keep_table`; and the log of the share of the total that flushed mass
    could carry (see `_log_flushed`).
    A step where no current state produces a value of finite emission
    returns -inf, and `_reaches` decides whether a flushed path could pass
    there: ``log_flushed`` is then +inf, and -inf when no path can.
    """
    n_steps = em.shape[0]
    x, offsets, scales, log_loss = _scaled_start(init, n_steps)
    log_scale = offsets[0] + np.log(scales[0])
    table = [init.copy()] if keep_table else None
    with np.errstate(divide="ignore"):
        for n, rows in enumerate(_forward_rows(space, n_steps)):
            z = _pushed(rows, x)
            n_values = z.shape[0]
            live = z.max(axis=1) > 0
            row = em[n, :n_values][live]
            c = np.max(row) if row.size else NEG_INF
            if not np.isfinite(c):
                return NEG_INF, None, _dead_step(space, em, init, n)
            w = np.zeros(n_values)
            w[live] = np.exp(row - c)
            y = w @ z
            s = y.sum()
            x = y / s
            offsets[n + 1], scales[n + 1] = c, s
            log_scale += c + np.log(s)
            if keep_table:
                table.append(np.log(x) + log_scale)
    for edges, lo, hi in _step_edges(space, n_steps):
        n_values, with_edges, _, mat = edges.class_rows()
        # the terms a step makes, each at most 1 in units of slot n's total
        # before its emission weight and losing under 2^-1072 to underflow:
        # the class sums' additions, C^T's products, w @ z's products and
        # sums, and the division by s.  C^T's products lose theirs before
        # exp(em[n, v]) weighs them, also for a value that no current state
        # produced, which may lie above c: so the largest emission of any
        # value with edges bounds the weight
        n_terms = edges.n_src + mat.nnz + (2 * n_values + 1) * edges.n_dst
        top = np.max(em[lo:hi, :n_values][:, with_edges], axis=1)
        log_loss[lo + 1:hi + 1] = np.log(n_terms) + LOG_UNDERFLOW + top
    log_flushed, _ = _log_flushed(space, em, offsets, scales, log_loss)
    return float(log_scale), table, log_flushed


def _batched_forward(space, em, init, keep_table=True):
    """Exact forward in scaled linear space over the edge list, with the
    edge weights of many steps made in one array.

    The scaling is `_scaled_forward`'s.  Step n weighs edge e by
    ``exp(logp_e + em[n, out_e] - c_n)``, with ``c_n`` the largest exponent
    of the step, so no weight exceeds 1.  These weights form one
    steps x edges array per block of steps (see `BATCH_MAX_ENTRIES`),
    built in place and dropped before the next, so the sequential loop
    keeps one gather-multiply, one `reduceat` and one normalization per
    step.

    Same contract as `_scaled_forward`, whose dead steps are here those
    whose total is 0.
    """
    n_steps = em.shape[0]
    x, offsets, scales, log_loss = _scaled_start(init, n_steps)
    rows = np.zeros((n_steps, space.n_states))
    for edges, lo, hi in _step_edges(space, n_steps, BATCH_MAX_ENTRIES):
        if edges.n_edges == 0:
            return NEG_INF, None, NEG_INF
        w = em[lo:hi, edges.out - 1]
        w += edges.logp
        top = w.max(axis=1)
        if not np.isfinite(top).all():
            return NEG_INF, None, NEG_INF
        offsets[lo + 1:hi + 1] = top
        w -= top[:, None]
        np.exp(w, out=w)
        # each step's weights, products and divisions
        log_loss[lo + 1:hi + 1] = np.log(2 * edges.n_edges + edges.n_dst) + LOG_UNDERFLOW + top
        whole = edges._rows.size == edges.n_dst
        for n in range(lo, hi):
            # a gather, not `take`: `take` copies an index that is read-only,
            # as every topology's are, at every step
            products = x[edges.src]
            products *= w[n - lo]
            y = np.add.reduceat(products, edges._starts)
            s = np.add.reduce(y)
            if not s > 0:
                return NEG_INF, None, _dead_step(space, em, init, n)
            scales[n + 1] = s
            x = rows[n]
            if whole:
                np.divide(y, s, out=x)
            else:
                x[edges._rows] = y / s
        del w
    log_flushed, _ = _log_flushed(space, em, offsets, scales, log_loss)
    log_scale = np.log(scales)
    log_scale += offsets
    np.cumsum(log_scale, out=log_scale)
    table = None
    if keep_table:
        with np.errstate(divide="ignore"):
            np.log(rows, out=rows)
        rows += log_scale[1:, None]
        table = [init.copy(), *rows]
    return float(log_scale[-1]), table, log_flushed


def _reaches(space, em, init, n_steps: int) -> bool:
    """Whether some path of positive probability explains the first
    `n_steps` observations.

    Carries the forward pass's support, the states of nonzero mass, as a
    0/1 vector through the class rows (see `_pushed`): each class sum is a
    count and each product an edge probability times a count, so nothing
    underflows.
    """
    support = np.isfinite(init).astype(np.float64)
    for n, rows in enumerate(_forward_rows(space, n_steps)):
        z = _pushed(rows, support)
        support = (z[np.isfinite(em[n, :z.shape[0]])] > 0).any(axis=0).astype(np.float64)
        if not support.any():
            return False
    return True


def _dead_step(space, em, init, n: int) -> float:
    """``log_flushed`` of a scaled pass whose step n (0-based) left no
    mass: +inf (rerun in log space) when a path passes it, -inf when
    none can."""
    return np.inf if _reaches(space, em, init, n + 1) else NEG_INF


def _log_rows(a: np.ndarray) -> np.ndarray:
    """logsumexp of each row (-inf for a row without finite entries)."""
    m = a.max(axis=1)
    m[~np.isfinite(m)] = 0.0
    with np.errstate(divide="ignore"):
        return m + np.log(np.exp(a - m[:, None]).sum(axis=1))


def _log_flushed(space, em, offsets, scales, log_loss):
    """``(log_flushed, lost)``: the log of the largest share of a scaled
    forward total that the mass its kernel flushed could carry, and the
    pass's ledger of that mass.

    Step n = 1..N of the kernel weighed value v by ``exp(em[n, v] -
    offsets[n])`` and summed to ``scales[n]``.  ``log_loss[n]`` bounds
    what its underflow may lose, in units of slot n - 1's total, counting
    the rounding of its division by ``scales[n]`` as if in those units too;
    entry 0 is the init's normalization, in units of 1.  A division's
    rounding scales with its result, so with ``log_scale[n]`` the log total
    of slot n, the ledger ``lost[n] = log_loss[n] + max(0, log scales[n])
    + log_scale[n-1]`` bounds the log mass the kernel may have dropped
    making slot n.

    Mass lost at slot n grows at each later step m by at most ``rho_m /
    scales[m]``, where ``rho_m = sum_v exp(em[m, v] - offsets[m]) *
    kappa_v`` over every value (see `EdgeSet.log_kappa`): a value that no
    surviving state produces may weigh more than 1.  So the share is at
    most ``sum_n exp(lost[n] - log_scale[n]) * prod_{m > n} rho_m /
    scales[m]``, which costs O(N * n_values).  That bound compounds each
    step's slack, the ratio of the largest out-mass to the one realized, so
    it grows with the piece's length (by about 1.3 nats a step on the
    `metmm1sd` benchmark pieces).  When it exceeds e^-40, the ledger's mass
    regrown along the paths after it (see `_regrown`), which does not
    compound, bounds the share instead: +inf when the backward pass finds
    no path.
    """
    n_steps = em.shape[0]
    log_steps = np.log(scales)
    lost = log_loss + np.maximum(log_steps, 0.0)
    log_steps += offsets
    log_scale = np.cumsum(log_steps)
    lost[1:] += log_scale[:-1]
    growth = _log_growth(space, em)
    growth -= log_steps[1:]
    later = np.zeros(n_steps + 1)  # sum of growth over the steps after n
    later[:-1] = np.cumsum(growth[::-1])[::-1]
    share = _log_total(lost - log_scale + later)
    if share > -DROP_MARGIN:
        regrown = _regrown(space, em, lost)
        share = np.inf if regrown is None else regrown - log_scale[-1]
    return share, lost


def _log_growth(space, em) -> np.ndarray:
    """Per step m = 0..N-1, ``log rho_m``: the log of ``sum_v exp(em[m, v])
    * kappa_v`` over every value (see `EdgeSet.log_kappa`), the most that
    step m multiplies the summed mass of a slot by."""
    growth = np.empty(em.shape[0])
    for edges, lo, hi in _step_edges(space, em.shape[0]):
        log_kappa = edges.log_kappa()
        growth[lo:hi] = _log_rows(em[lo:hi, :log_kappa.size] + log_kappa)
    return growth


def _log_raised(space, em, init, log_raise) -> float:
    """Log of the most that the raises of an upper backward pass (see
    `_upper_beta`) add to its total ``Z_up = sum_s init(s)
    beta_up_0(s)``.

    ``log_raise[n]`` is the log of the raise of slot n's entries in
    absolute units, ``R_n`` (-inf at slot N, which is not raised).
    Unrolling ``beta_up_n = M_n beta_up_{n+1} + R_n`` gives ``Z_up - Z =
    sum_n F_n R_n``, with ``F_n`` the summed forward mass of slot n.  Each
    step multiplies that mass by at most ``rho_m`` (see `_log_growth`), so
    ``F_n <= F_0 prod_{m < n} rho_m``, at a cost of O(N * n_values).
    """
    log_mass = np.empty(em.shape[0] + 1)
    log_mass[0] = _log_total(init)
    log_mass[1:] = log_mass[0] + np.cumsum(_log_growth(space, em))
    return _log_total(log_mass + log_raise)


def _regrown(space, em, lost):
    """Log of the most that the mass on the ledger `lost` (see
    `_log_flushed`) adds to any sum over paths, or None when the backward
    pass finds no path.

    Mass dropped making slot n regrows only along the paths after slot n,
    so at most by the largest backward value of that slot: the sum is
    ``sum_n exp(lost[n]) * max_s beta_n(s)``, with beta bounded from above
    by `_upper_beta`.
    """
    missed = NEG_INF
    n_rows = 0
    for n, log_beta, _ in _upper_beta(space, em):
        missed = np.logaddexp(missed, lost[n] + log_beta.max())
        n_rows += 1
    return float(missed) if n_rows == len(lost) else None


def _upper_beta(space, em):
    """Scaled backward rows over the class rows (see `EdgeSet.class_rows`),
    each entry raised to an upper bound on the backward value of its
    state.

    Yields ``(n, log_beta, log_raise)`` for n = N, N-1, ..., 0: the row of
    slot n in log space (over the boundary slot at n = 0), and the log of
    what the raise added to each entry (-inf at slot N).  The one pass
    behind both the forward guard (`_regrown`) and the certified decode
    (`_certified_sweep`).  Stops early when no path is feasible.

    The mirror of `_scaled_forward`: the scaled row ``b`` sums to 1 before
    its raise, and a step is ``b' = (C @ (w (x) b))[cls]`` with ``w_v =
    exp(em[n, v] - c)``, where ``c`` is the largest emission among the
    values of some edge of the step.  Every entry of a step is then raised by the
    most that underflow can have dropped from it, and at least by 2^-700:
    ``log(b) + log_scale`` bounds beta from above (up to rounding), and no
    path's mass is ever flushed from ``b``.  A raise of the smallest normal
    double would do, but its products in the next step would be subnormal,
    which is many times slower; 2^-700 times any emission weight above
    e^-200 and any edge probability above 2^-33 stays normal, and still
    lies 485 nats below the step's total.
    """
    n_states = space.trans.n_dst
    b = np.full(n_states, 1.0 / n_states)
    log_scale = np.log(n_states)
    log_beta = np.log(b)
    log_beta += log_scale
    yield em.shape[0], log_beta, NEG_INF
    trans = space.trans.class_rows() if em.shape[0] > 1 else None
    # w (x) b goes into one array at every step: a fresh one, 8 floats a
    # state, page-faulted each time and took twice as long to fill
    wb = np.empty(0)
    for n in range(em.shape[0] - 1, -1, -1):
        n_values, with_edges, cls, mat = trans if n else space.first.class_rows()
        row = em[n, :n_values][with_edges]
        c = np.max(row) if row.size else NEG_INF
        if not np.isfinite(c):
            return
        w = np.zeros(n_values)
        w[with_edges] = np.exp(row - c)
        if wb.size != mat.shape[1]:
            wb = np.empty(mat.shape[1])
        np.multiply(w[:, None], b, out=wb.reshape(n_values, n_states))
        u = (mat @ wb)[cls]
        s = u.sum()
        if not s > 0:
            return
        # each of at most n_values * n_dst terms of an entry of u, a
        # product p * w * b with p <= 1 and w <= 1, loses under 2^-1072 *
        # max(1, max b) to underflow
        raise_by = max(RAISE, mat.shape[1] * 2.0**-1072 * max(1.0, b.max()) / s)
        b = u
        b /= s
        b += raise_by
        log_scale += c + np.log(s)
        log_beta = np.log(b)
        log_beta += log_scale
        yield n, log_beta, np.log(raise_by) + log_scale


def forward(
    space,
    em,
    beam_width: int | None = None,
    return_table: bool = False,
    log_init=None,
):
    """Forward recursion: log P(observations) summed over latent paths.

    Returns the total log probability, or ``(total, alphas)`` when
    `return_table` is set; ``alphas[n]`` is the log joint of the first n
    observations and the slot-n state.  Returns -inf when no
    path is feasible (the beam variant raises instead, since an emptied
    beam is a search failure rather than a model statement).  Exact passes run a
    scaled kernel picked by size (see `SPARSE_MIN_EDGES`), or, when that
    kernel's underflow guard fires, the sum-product `_pruned_sweep` that
    keeps every state, in log space.  Beam
    widths round up to the next power of two and prune through nested
    survivor sets (see `_tiered_sweep`), so totals never decrease as the
    width grows.
    `log_init` replaces the space's boundary distribution, e.g. to condition
    on an observed initial metrical position.
    """
    em = _emission_steps(space, em)
    init = space.log_initial if log_init is None else np.asarray(log_init, dtype=np.float64)
    if init.shape != space.log_initial.shape:
        raise ValueError(f"log_init has {init.size} entries, the space's boundary slot "
                         f"has {space.log_initial.size}")
    bad = ~(init < np.inf)  # NaN or +inf; -inf stays legal
    if bad.any():
        raise ValueError(f"log_init has a NaN or +inf entry at boundary index "
                         f"{int(np.argmax(bad))}")
    if not np.isfinite(init).any():
        return (NEG_INF, None) if return_table else NEG_INF
    eff = _effective_width(beam_width, space, init.size)
    if eff is None:
        kernel = _batched_forward if _batched(space) else _scaled_forward
        total, table, log_flushed = kernel(space, em, init, return_table)
        if log_flushed <= -DROP_MARGIN:
            return (total, table) if return_table else total
        # flushed mass could carry more than e^-40 of the total: rerun in
        # log space, as the sum-product sweep that keeps every state
        try:
            steps = _pruned_sweep(space, em, init, lambda n, delta: None, _scratch(space),
                                  use_max=False, keep_table=return_table)
        except InferenceError:
            return (NEG_INF, None) if return_table else NEG_INF
    else:
        steps = _tiered_sweep(space, em, eff, init, use_max=False)
    total = _log_total(steps[-1][1])
    if not return_table:
        return total
    # whole rows go in as the sweep made them: copies would double the peak
    n_dst = space.trans.n_dst
    table = [_dense_step(steps[0], init.size)]
    table += [row if row.size == n_dst else _dense_step((ids, row), n_dst)
              for ids, row in steps[1:]]
    return total, table


def _path_sample(space, boundary: int, states, outs, log_prob: float) -> PathSample:
    return PathSample(
        boundary_index=None if space.virtual_boundary else int(boundary),
        state_indices=[int(s) for s in states],
        output_values=[int(v) for v in outs],
        log_prob=float(log_prob),
    )


def _lookup(ids: np.ndarray, vals: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Values of the sparse table step ``(ids, vals)`` at `states`, -inf
    where it has none."""
    pos = np.minimum(np.searchsorted(ids, states), ids.size - 1)
    return np.where(ids[pos] == states, vals[pos], NEG_INF)


def _backtrack(space, em, steps) -> PathSample:
    """Viterbi path from the per-step maxima alone.

    `steps` is the table of per-step maxima of a `_pruned_sweep`.  Each
    backward step rescores only the current state's incoming edges, exactly
    as the forward sweep scored them, and takes the lowest-index best one:
    the edge a stored back-pointer would have named.  States outside a
    step's ids read -inf, so the same rule recovers the path of the plain,
    the certified and the beam sweep.
    """
    ids, vals = steps[-1]
    best = int(np.argmax(vals))
    log_prob = vals[best]
    state = int(ids[best])
    states = [state]
    outs = []
    for n in range(len(steps) - 2, -1, -1):
        edges = space.first if n == 0 else space.trans
        sl = edges.in_slice(state)
        ids, vals = steps[n]
        src = edges.src[sl]
        # a whole row (ids is arange) is indexed directly
        prev = vals[src] if ids.size == edges.n_src else _lookup(ids, vals, src)
        scores = prev + edges.logp[sl] + em[n][edges.out[sl] - 1]
        e = sl.start + int(np.argmax(scores))
        outs.append(int(edges.out[e]))
        state = int(edges.src[e])
        states.append(state)
    boundary = states.pop()
    return _path_sample(space, boundary, states[::-1], outs[::-1], log_prob)


def _block_length(n_edges: int) -> int:
    """The edges that one block of work on `n_edges` edges covers: every
    edge under `CERTIFY_MIN_EDGES`, else their `DENSE_STEP_FRACTION` share
    and at least `CERTIFY_MIN_EDGES`, the most a pruned step relaxes."""
    return min(n_edges, max(CERTIFY_MIN_EDGES, int(DENSE_STEP_FRACTION * n_edges) + 1))


def _scratch(space):
    """A float array for `EdgeSet.step_scores`, a block long (see
    `_block_length`) for the larger edge set: room for the out-edges a
    pruned step relaxes and, as a block of `_full_step`, for the in-edges
    of any one state."""
    sets = (space.first, space.trans)
    return np.empty(max(_block_length(max(e.n_edges for e in sets)),
                        *(e._seg_counts.max(initial=0) for e in sets)))


def _dst_blocks(edges: EdgeSet, size: int):
    """``(eids, cuts, rows, counts)`` of each block of whole destinations
    whose in-edges fit in `size` entries: the slice of its edges, where
    each destination's in-edges begin in it, the destinations and their
    in-degrees.  Made once per edge structure and size."""
    blocks = edges._structure.get(("dst_blocks", size))
    if blocks is None:
        starts, ends = edges._starts, edges._starts + edges._seg_counts
        blocks, a = [], 0
        while a < starts.size:
            b = int(np.searchsorted(ends, starts[a] + size, side="right"))
            lo, hi = int(starts[a]), int(ends[b - 1])
            blocks.append((slice(lo, hi), starts[a:b] - lo, edges._rows[a:b],
                           edges._seg_counts[a:b]))
            a = b
        edges._structure[("dst_blocks", size)] = blocks
    return blocks


def _full_step(edges: EdgeSet, row, em_row, scratch, use_max) -> np.ndarray | None:
    """Per destination, the max (with `use_max`) or the logsumexp of its
    in-edges' scores ``row[src] + logp + em(out)``; -inf where none
    arrives, and None when none arrives anywhere.

    Scores a block of whole destinations at a time into `scratch` (see
    `_dst_blocks`), which must hold the in-edges of any one.  However many
    edges a space has, a full step then writes no more of memory than a
    pruned one, so the pages a sweep touches do not depend on which of its
    steps run in full.
    """
    new = np.full(edges.n_dst, NEG_INF)
    for eids, cuts, rows, counts in _dst_blocks(edges, scratch.size):
        scores = edges.step_scores(row, em_row, eids, scratch)
        best = np.maximum.reduceat(scores, cuts)
        if not use_max:
            ok = np.isfinite(best)
            scores -= np.repeat(np.where(ok, best, 0.0), counts)
            sums = np.add.reduceat(np.exp(scores, out=scores), cuts)
            best[ok] += np.log(sums[ok])
        new[rows] = best
    return new if np.isfinite(new).any() else None


def _pruned_sweep(space, em, init, keep, scratch, use_max=True, keep_table=True):
    """Max-product (or, without `use_max`, sum-product) sweep that carries
    on from slot n only the states ``keep(n, delta)`` picks, given the
    slot's values `delta`.

    `keep` returns ascending ids of states of finite `delta`, or None to
    keep every state: with ``keep = lambda n, delta: None`` this is the
    plain exact Viterbi sweep, or the exact forward pass in log space, and
    a beam is the keep policy of `_tiered_sweep`.  A step relaxes the kept
    states' out-edges (see `_relax`), or reduces over every edge
    (`_full_step`) when it keeps a whole row or when those out-edges are
    more than `DENSE_STEP_FRACTION` of all edges.  Either way each edge is
    scored as ``delta[src] + logp + em(out)``, into `scratch` (see
    `_scratch`), so a state's maximum is bit-identical to the full sweep's
    whenever its best in-edge leaves a kept state.
    Returns the sparse table of the kept states, a slot keeping every state
    or more than half of them as a whole row (ids ``arange(size)``, -inf
    outside the kept states, which `_backtrack` indexes directly); without
    `keep_table`, only its last slot.  Raises InferenceError when some
    slot reaches none.
    """
    every = np.arange(max(space.n_states, init.size))
    steps = []
    delta, edges = init, space.first
    for n in range(em.shape[0] + 1):
        if n:
            ids, row = steps[-1]
            if ids.size == edges.n_src:
                delta = _full_step(edges, row, em[n - 1], scratch, use_max)
            else:
                order, indptr = edges.src_view()
                starts = indptr[ids]
                counts = indptr[ids + 1] - starts
                if counts.sum() > DENSE_STEP_FRACTION * edges.n_edges:
                    delta = _full_step(edges, _dense_step(steps[-1], edges.n_src),
                                       em[n - 1], scratch, use_max)
                else:
                    delta = _relax(edges, delta, order[_concat_ranges(starts, counts)],
                                   em[n - 1], use_max, scratch)
            if delta is None:
                raise InferenceError(f"no feasible path at step {n}")
            edges = space.trans
        kept = keep(n, delta)
        if kept is None:
            steps.append((every[:delta.size], delta))
        elif 2 * kept.size > delta.size:
            steps.append((every[:delta.size], _dense_step((kept, delta[kept]), delta.size)))
        else:
            steps.append((kept, delta[kept]))
        if not keep_table:
            del steps[:-1]
    return steps


def _top(values: np.ndarray, k: int):
    """Ascending ids of the k largest finite values, or None when k covers
    every entry."""
    if k >= values.size:
        return None
    ids = np.flatnonzero(np.isfinite(values))
    if ids.size > k:
        ids = np.sort(ids[np.argpartition(values[ids], ids.size - k)[ids.size - k:]])
    return ids


def _certified_sweep(space, em, init):
    """``(steps, log_total)``: the exact Viterbi table from a sweep over
    the states that can pass, and the data's log total when the upper
    backward pass settles it (see `_log_raised`), else None.

    With ``beta`` the upper backward rows (see `_upper_beta`), a sweep that
    keeps the top-k states of each slot by ``delta' + beta``, its own maxima
    plus their bounds, gives a feasible score L.  A second sweep keeps the
    states whose ``delta' + beta`` reaches L, less a slack for rounding.
    Every predecessor of a state on an optimal path lies on that path and
    is kept, so that state's `delta'` is exact and its bound reaches the
    optimum: the second sweep keeps every optimal path and every edge that
    ties with one, and is exact.  Both sweeps share one scratch array, and
    each beta row is dropped once the second sweep has passed it.
    """
    size = max(space.n_states, init.size)
    scratch = _scratch(space)
    for edges in (space.first, space.trans):
        # built before the rows, so that their temporaries come first
        edges.src_view()
        edges.class_rows()
    # the rows are made side by side before the pass: made between its
    # temporaries, they fragmented the heap and raised peak RSS by up to 4%
    beta = [np.empty(init.size)] + [np.empty(space.n_states) for _ in range(em.shape[0])]
    log_raise = np.empty(em.shape[0] + 1)
    for n, log_beta, raised in _upper_beta(space, em):
        beta[n][:] = log_beta
        log_raise[n] = raised
    if n:  # the pass stopped before slot 0: no path, and the plain sweep says where
        return _pruned_sweep(space, em, init, lambda n, delta: None, scratch), None
    log_total = _log_total(init + beta[0])
    if not _log_raised(space, em, init, log_raise) - log_total <= -DROP_MARGIN:
        log_total = None
    k = TOP_K_START
    while True:
        try:
            steps = _pruned_sweep(space, em, init,
                                  lambda n, delta: _top(delta + beta[n], k), scratch)
            break
        except InferenceError:
            if k >= size:
                raise
            k *= TOP_K_GROWTH
    if k >= size:
        return steps, log_total  # the restriction kept everything: already exact
    score = float(np.max(steps[-1][1]))
    del steps
    scale = em.shape[0] * (1.0 + np.max(np.abs(em[np.isfinite(em)]), initial=0.0))
    threshold = score - BOUND_SLACK * (scale + abs(score))

    def passing(n, delta):
        bound, beta[n] = beta[n], None  # read once more: dropped as the sweep passes
        bound += delta
        return np.flatnonzero(bound >= threshold)

    return _pruned_sweep(space, em, init, passing, scratch), log_total


def viterbi(space, em, beam_width: int | None = None) -> PathSample:
    """Most probable latent path; ties break toward the lowest state index.

    The tie rule is applied stepwise during backtracking: the final state is
    the lowest-index argmax, and each backward step picks the lowest-index
    best predecessor.  Every sweep keeps only the per-step maxima and finds
    the best incoming edge for the path's own states while backtracking.

    Exact decodes of spaces with at least `CERTIFY_MIN_EDGES` edges bound
    every state by an upper backward pass and sweep only the states that can
    still lie on an optimal path (see the module docstring and
    `_certified_sweep`); they run no forward pass.  Their path's
    `log_likelihood` is that pass's total, log P(observations) from above,
    when its raises could add at most e^-40 of it (see `_log_raised`);
    it is None otherwise, and on every other decode.

    Beam widths round up to the next power of two and prune through nested
    survivor sets (see `_tiered_sweep`), so decoded scores never decrease as
    the width grows and the decode is exact once the effective width covers
    the whole space.
    """
    em = _emission_steps(space, em)
    init = space.log_initial
    eff = _effective_width(beam_width, space, init.size)
    if eff is not None:
        steps, log_total = _tiered_sweep(space, em, eff, init, use_max=True), None
    elif space.n_edges < CERTIFY_MIN_EDGES:
        steps = _pruned_sweep(space, em, init, lambda n, delta: None, _scratch(space))
        log_total = None
    else:
        steps, log_total = _certified_sweep(space, em, init)
    path = _backtrack(space, em, steps)
    path.log_likelihood = log_total
    return path


def _exp_weights(logw: np.ndarray) -> np.ndarray:
    """``exp(logw - max(logw))``: unnormalized probabilities (-inf entries
    get 0)."""
    m = np.max(logw)
    if not np.isfinite(m):
        raise InferenceError("degenerate posterior: all weights zero")
    return np.exp(logw - m)


def _inverse_cdf(w: np.ndarray, u):
    """Index or indices drawn with probabilities proportional to `w`, by
    inverting its cumulative sum at the uniforms `u`.

    The same arithmetic as ``rng.choice(len(w), p=w / w.sum())`` on the
    uniforms it would draw, so seeded streams match it, without its
    validation overhead.
    """
    total = np.add.reduce(w)  # w.sum() and np.cumsum, without their wrappers
    if not total > 0:
        raise InferenceError("degenerate posterior: all weights zero")
    cdf = np.add.accumulate(w / total)
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


def _sample_index(logw: np.ndarray, rng: np.random.Generator) -> int:
    return int(_inverse_cdf(_exp_weights(logw), rng.random()))


def _in_edge_weights(edges: EdgeSet, em, alphas) -> np.ndarray:
    """`_exp_weights` of every destination's in-edges at every step.

    Row n holds, for the step with emissions ``em[n]`` leaving slot values
    ``alphas[n]``, ``exp(score - m)`` of each edge (in `edges` order), where
    the score is ``alpha[src] + logp + em(out)`` and m the largest score of
    the edges entering the same state (0 when all are -inf).  Built in
    place, with the same arithmetic as scoring one state's in-edges.
    """
    w = alphas[:, edges.src]
    w += edges.logp
    w += em[:, edges.out - 1]
    top = _in_edge_max(edges, w)
    top[~np.isfinite(top)] = 0.0
    w -= np.repeat(top, edges._seg_counts, axis=1)
    del top
    return np.exp(w, out=w)


def _in_edge_max(edges: EdgeSet, w: np.ndarray) -> np.ndarray:
    """Per row of `w` (one entry per edge), the max over the in-edges of
    each state that has any.

    `np.maximum.reduceat` pays a fixed cost per segment, ten times that of
    the arithmetic on small spaces.  So when padding every state's in-edges
    to the largest in-degree (with repeats of its first edge, which leave
    the max alone) at most doubles the entries, one gather and one `max`
    over the padded axis do it instead.
    """
    pad = edges._structure.get("in_pad")
    if pad is None:
        counts = edges._seg_counts
        width = int(counts.max(initial=1))
        pad = edges._starts[:, None] + np.minimum(np.arange(width), counts[:, None] - 1)
        if pad.size > 2 * edges.n_edges:
            pad = False
        edges._structure["in_pad"] = pad
    if pad is False:
        return np.maximum.reduceat(w, edges._starts, axis=1)
    return w[:, pad].max(axis=2)


def _sample_backward(space, em, table, rng: np.random.Generator, size: int) -> np.ndarray:
    """Backward sampling of `size` paths over one forward table.

    Returns per-step edge ids of shape (size, n_steps): column 0 indexes
    ``space.first``, the others ``space.trans``.  An edge entering the
    current state weighs ``alpha[src] + logp + em(out)``.  Draws at the
    same state share its in-edge weights, so each step costs one cumulative
    sum and one `searchsorted` per distinct current state.

    Every uniform is drawn up front, ``(n_steps + 1) * size`` of them: the
    final states take the first `size`, and each step, from the last,
    hands out the next `size` by current state, ascending, and by draw
    index within a state.  That is the order of one `rng.random` call per
    state and step, so the stream does not depend on how the draws are
    grouped.  Small spaces (see `_batched`) make the edge weights of a
    block of steps at once (`_in_edge_weights`); others score the current
    states' in-edges step by step.
    """
    if table is None:
        raise InferenceError("zero data likelihood: nothing to sample")
    n_steps = em.shape[0]
    uniforms = rng.random((n_steps + 1) * size).reshape(n_steps + 1, size)
    cur = _inverse_cdf(_exp_weights(table[n_steps]), uniforms[0])
    eids = np.empty((size, n_steps), dtype=np.int64)
    blocks = _step_edges(space, n_steps, BATCH_MAX_ENTRIES) if _batched(space) else ()
    blocks = [(lo, hi) for _, lo, hi in blocks if lo]
    weights, lo = None, n_steps

    def in_edges(n, edges, state):
        """(first in-edge id, weights of the in-edges) of `state` at step n."""
        a, b = int(edges.dst_indptr[state]), int(edges.dst_indptr[state + 1])
        if weights is not None and n:
            return a, weights[n - lo, a:b]
        return a, _exp_weights(table[n][edges.src[a:b]] + edges.logp[a:b]
                               + em[n, edges.out[a:b] - 1])

    # One draw (`ffbs`, each Gibbs sweep) skips the grouping: its argsort
    # and cuts made `gibbs-chain` 1.5x slower end to end (see CHANGES.md).
    state = int(cur[0])
    for n in range(n_steps - 1, -1, -1):
        edges = space.first if n == 0 else space.trans
        if blocks and n and n < lo:
            weights = None  # drop the block before making the next
            lo, hi = blocks.pop()
            weights = _in_edge_weights(edges, em[lo:hi], np.stack(table[lo:hi]))
        u = uniforms[n_steps - n]
        if size == 1:
            a, w = in_edges(n, edges, state)
            eids[0, n] = e = a + int(_inverse_cdf(w, u[0]))
            state = int(edges.src[e])
            continue
        order = np.argsort(cur, kind="stable")
        ranked = cur[order]
        cuts = (np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist()
        drawn = np.empty(size, dtype=np.int64)
        for group, first, last in zip(ranked[[0] + cuts].tolist(), [0] + cuts, cuts + [size]):
            a, w = in_edges(n, edges, group)
            drawn[first:last] = a + _inverse_cdf(w, u[first:last])
        eids[order, n] = drawn
        cur = edges.src[eids[:, n]]
    return eids


def _paths_from_edges(space, eids: np.ndarray):
    """``(boundary, states, outputs)`` arrays of the paths along `eids`."""
    first, rest = eids[:, :1], eids[:, 1:]
    states = np.hstack([space.first.dst[first], space.trans.dst[rest]])
    outs = np.hstack([space.first.out[first], space.trans.out[rest]])
    return space.first.src[eids[:, 0]], states, outs


def ffbs(space, em, rng: np.random.Generator, beam_width: int | None = None) -> PathSample:
    """Forward filtering, backward sampling: one exact posterior path draw.

    The one-draw case of `ffbs_batch`.  The path's `log_likelihood` is the
    total of its forward pass, ``forward(space, em, beam_width)``, so a
    Gibbs sweep reads the data likelihood off its draw (Scott 2002).  For
    models whose emission depends only on the destination state the
    backward kernel reduces to the state-emission form.
    """
    em = _emission_steps(space, em)
    init = space.log_initial
    total, table = forward(space, em, beam_width=beam_width, return_table=True)
    eids = _sample_backward(space, em, table, rng, 1)[0]
    boundary, states, outs = (a[0] for a in _paths_from_edges(space, eids[None]))
    logp = np.concatenate([space.first.logp[eids[:1]], space.trans.logp[eids[1:]]])
    log_prob = float(init[boundary]) + float(np.sum(logp + em[np.arange(outs.size), outs - 1]))
    path = _path_sample(space, boundary, states, outs, log_prob)
    path.log_likelihood = total
    return path


def sample_generative(space, n_steps: int, rng: np.random.Generator) -> PathSample:
    """Sample a latent path (and its output values) from the prior."""
    boundary = _sample_index(space.log_initial, rng)
    log_prob = float(space.log_initial[boundary])
    states = []
    outs = []
    state = boundary
    edges = space.first
    for _ in range(n_steps):
        order, indptr = edges.src_view()
        sel = order[indptr[state]: indptr[state + 1]]
        if len(sel) == 0:
            raise InferenceError("dead-end state during generative sampling")
        e = sel[_sample_index(edges.logp[sel], rng)]
        log_prob += float(edges.logp[e])
        outs.append(int(edges.out[e]))
        state = int(edges.dst[e])
        states.append(state)
        edges = space.trans
    return _path_sample(space, boundary, states, outs, log_prob)


def ffbs_batch(space, em, rng: np.random.Generator, size: int,
               beam_width: int | None = None):
    """Many exact posterior path draws sharing one forward pass.

    Returns ``(boundary, states, outputs)`` int arrays of shapes (size,),
    (size, n_steps), (size, n_steps).
    """
    size = integral(size, "size")
    if size < 1:
        raise ValueError("size must be >= 1")
    em = _emission_steps(space, em)
    _, table = forward(space, em, beam_width=beam_width, return_table=True)
    return _paths_from_edges(space, _sample_backward(space, em, table, rng, size))
