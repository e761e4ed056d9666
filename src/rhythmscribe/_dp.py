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

Every recursion works in log space over the edge lists, except the exact
forward pass on large spaces, which runs in scaled linear space over
per-output-value sparse matrices and converts its table back to log space.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy import sparse

NEG_INF = -np.inf

# Exact forward passes over spaces with at least this many edges run the
# scaled per-value CSR kernel (`_scaled_forward`); smaller spaces keep the
# log-space edge-list recursion, whose fixed per-step cost is lower.  Picked
# from single-thread timings at 200 notes; see CHANGES.md.
SPARSE_MIN_EDGES = 5_000


class InferenceError(RuntimeError):
    """No feasible latent path (or an emptied beam) for the given data."""


class EdgeSet:
    """Weighted edges between two state slots, indexed for DP sweeps.

    Stored sorted by (dst, src) so per-destination reductions are contiguous
    and ties resolve toward the lowest source index.  A src-sorted view (for
    path sampling) and per-output-value transition matrices (for the scaled
    forward kernel) are built lazily; the structure behind both is shared
    with every `reweighted` copy.
    """

    def __init__(self, src, dst, logp, out, n_src: int, n_dst: int):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        logp = np.asarray(logp, dtype=np.float64)
        out = np.asarray(out, dtype=np.int64)
        order = np.lexsort((src, dst))
        self._index(src[order], dst[order], logp[order], out[order], n_src, n_dst)

    @classmethod
    def presorted(cls, src, dst, logp, out, n_src: int, n_dst: int) -> "EdgeSet":
        """An edge set over int64/float64 arrays already in (dst, src) order.

        The arrays are used as given, not copied.
        """
        edges = cls.__new__(cls)
        edges._index(src, dst, logp, out, n_src, n_dst)
        return edges

    def _index(self, src, dst, logp, out, n_src, n_dst):
        self.src = src
        self.dst = dst
        self.logp = logp
        self.out = out
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
        self._by_value = None

    def reweighted(self, logp) -> "EdgeSet":
        """The same edges with log weights `logp` (in this set's edge order)."""
        edges = copy.copy(self)
        edges.logp = logp
        edges._by_value = None
        return edges

    def src_view(self):
        """(order, indptr) of edges grouped by source state."""
        view = self._structure.get("src_view")
        if view is None:
            order = np.lexsort((self.dst, self.src))
            indptr = np.searchsorted(self.src[order], np.arange(self.n_src + 1))
            view = self._structure["src_view"] = (order, indptr)
        return view

    def by_value(self):
        """(n_values, A): edge probabilities grouped by output value.

        `A` is a CSR matrix of shape ``(n_values * n_dst, n_src)`` stacking
        one block per output value v = 1..n_values: row ``(v-1) * n_dst + d``,
        column ``s`` holds the summed probability of the edges s -> d that
        produce v.  One product ``A @ x`` thus yields every ``A_v @ x``.
        """
        if self._by_value is None:
            layout = self._structure.get("by_value")
            if layout is None:
                n_values = int(self.out.max()) if self.n_edges else 0
                # (out, dst, src) order; a stable sort of small ints is a radix sort
                order = np.argsort(self.out.astype(np.min_scalar_type(n_values)), kind="stable")
                rows = (self.out[order] - 1) * self.n_dst + self.dst[order]
                indptr = np.zeros(n_values * self.n_dst + 1, dtype=np.int64)
                np.cumsum(np.bincount(rows, minlength=n_values * self.n_dst), out=indptr[1:])
                layout = (n_values, order, self.src[order], indptr)
            n_values, order, indices, indptr = layout
            mat = sparse.csr_matrix(
                (np.exp(self.logp[order]), indices, indptr),
                shape=(n_values * self.n_dst, self.n_src),
            )
            # keep the index arrays in the dtype scipy chose, so later
            # reweighted copies build their matrix without converting them
            self._structure["by_value"] = (n_values, order, mat.indices, mat.indptr)
            self._by_value = (n_values, mat)
        return self._by_value

    def in_slice(self, state: int) -> slice:
        """Slice of edges entering `state` (arrays are dst-sorted)."""
        return slice(self.dst_indptr[state], self.dst_indptr[state + 1])

    def step_scores(self, alpha: np.ndarray, em_row: np.ndarray) -> np.ndarray:
        """Per-edge score alpha[src] + logp + em(out)."""
        return alpha[self.src] + self.logp + em_row[self.out - 1]

    def reduce_logsumexp(self, scores: np.ndarray) -> np.ndarray:
        """Per-destination logsumexp of edge scores; -inf where no edge."""
        new = np.full(self.n_dst, NEG_INF)
        if self.n_edges == 0:
            return new
        m = np.maximum.reduceat(scores, self._starts)
        m_safe = np.where(np.isfinite(m), m, 0.0)
        sums = np.add.reduceat(np.exp(scores - np.repeat(m_safe, self._seg_counts)), self._starts)
        ok = np.isfinite(m)
        new[self._rows[ok]] = m[ok] + np.log(sums[ok])
        return new

    def reduce_max(self, scores: np.ndarray) -> np.ndarray:
        """Per-destination max score; -inf where no edge."""
        best = np.full(self.n_dst, NEG_INF)
        if self.n_edges:
            best[self._rows] = np.maximum.reduceat(scores, self._starts)
        return best


def _next_pow2(width: int) -> int:
    eff = 1
    while eff < width:
        eff *= 2
    return eff


def _effective_width(width: int | None, space, n_init: int) -> int | None:
    """Internal beam width, or None for exact inference.

    Widths round up to the next power of two: the tiered sweep below builds
    survivor sets level by level over exactly those widths, which is what
    keeps the sets nested (and scores monotone) across different requests.
    """
    if width is None:
        return None
    if width < 1:
        raise ValueError("beam width must be >= 1")
    eff = _next_pow2(width)
    if eff >= max(space.trans.n_dst, n_init):
        return None
    return eff


def _out_edge_ids(edges: EdgeSet, srcs: np.ndarray) -> np.ndarray:
    """Edge ids (in dst-sorted numbering) leaving the given source states."""
    order, indptr = edges.src_view()
    counts = indptr[srcs + 1] - indptr[srcs]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.repeat(indptr[srcs], counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return order[starts + offsets]


def _relax(edges: EdgeSet, alpha, srcs, em_row, use_max):
    """One pruned DP step: propagate scores along the survivors' out-edges.

    Returns per-destination values (max or logsumexp over incoming edge
    scores, -inf where nothing arrives).  Cost scales with the survivors'
    out-degree, not the full edge count.
    """
    val = np.full(edges.n_dst, NEG_INF)
    eids = _out_edge_ids(edges, srcs)
    if eids.size == 0:
        return val
    sc = alpha[edges.src[eids]] + edges.logp[eids] + em_row[edges.out[eids] - 1]
    dst = edges.dst[eids]
    np.maximum.at(val, dst, sc)
    if use_max:
        return val
    shift = np.where(np.isfinite(val), val, 0.0)
    tot = np.zeros(edges.n_dst)
    np.add.at(tot, dst, np.exp(sc - shift[dst]))
    ok = np.isfinite(val)
    lse = np.full(edges.n_dst, NEG_INF)
    lse[ok] = val[ok] + np.log(tot[ok])
    return lse


_NO_SURVIVORS = np.empty(0, dtype=np.int64)


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


def _tiered_sweep(space, em, eff: int, init: np.ndarray, use_max: bool,
                  keep_tables: bool):
    """Beam recursion whose survivor sets are nested across widths.

    Sweeps widths 1, 2, 4, ..., `eff` in turn; each level's per-step
    survivors extend the previous level's, and only the survivors' out-edges
    are relaxed.  Because a narrower request's final level is one of a wider
    request's intermediate levels, survivor sets never reshuffle as the
    width grows: path sets only gain members, so beam scores are
    non-decreasing in the width and reach the exact values once every state
    fits.  The doubling ladder costs at most twice the widest level's work.

    Returns ``(final_values, tables)`` where `final_values` is the last
    step's values masked to its survivors and `tables` (when kept) holds
    per-step survivor-masked value vectors, ``tables[0]`` over the boundary
    slot.
    """
    n_steps = em.shape[0]
    widths = []
    w = 1
    while w < eff:
        widths.append(w)
        w *= 2
    widths.append(eff)
    prev: list[np.ndarray] | None = None
    for width in widths:
        locked = prev[0] if prev is not None else _NO_SURVIVORS
        survivors = [_extend_survivors(locked, init, width)]
        tables: list[np.ndarray] = []
        if keep_tables:
            masked = np.full(init.size, NEG_INF)
            masked[survivors[0]] = init[survivors[0]]
            tables.append(masked)
        alpha = init
        edges = space.first
        died_at = None
        for n in range(n_steps):
            if survivors[-1].size == 0:
                died_at = n if died_at is None else died_at
                survivors.append(_NO_SURVIVORS)
                continue
            val = _relax(edges, alpha, survivors[-1], em[n], use_max)
            locked = prev[n + 1] if prev is not None else _NO_SURVIVORS
            survivors.append(_extend_survivors(locked, val, width))
            if survivors[-1].size == 0 and died_at is None:
                died_at = n + 1
            alpha = val
            if keep_tables:
                masked = np.full(edges.n_dst, NEG_INF)
                masked[survivors[-1]] = val[survivors[-1]]
                tables.append(masked)
            edges = space.trans
        prev = survivors
    if died_at is not None or survivors[-1].size == 0:
        step = died_at if died_at is not None else n_steps
        raise InferenceError(f"beam emptied at step {step}: no feasible state retained")
    final = np.full(space.trans.n_dst, NEG_INF)
    final[survivors[-1]] = alpha[survivors[-1]]
    return final, tables


@dataclass
class PathSample:
    """A decoded or sampled latent path through a state space."""

    boundary_index: int | None
    state_indices: list[int]
    output_values: list[int]
    log_prob: float


def _emission_steps(em: np.ndarray):
    em = np.asarray(em, dtype=np.float64)
    if em.ndim != 2 or em.shape[0] < 1:
        raise ValueError("emission matrix must be (n_steps, bar_length) with n_steps >= 1")
    return em


def _log_total(alpha: np.ndarray) -> float:
    """logsumexp over the finite entries of a final forward vector."""
    finite = alpha[np.isfinite(alpha)]
    m = np.max(finite)
    return float(m + np.log(np.sum(np.exp(finite - m))))


def _edge_list_forward(space, em, init, keep_table=True):
    """Exact forward in log space over the edge lists (the reference kernel).

    Returns ``(total, table)``, or ``(-inf, None)`` when no path is feasible;
    the table is None unless `keep_table` is set.
    """
    alpha = init.copy()
    table = [alpha] if keep_table else None
    edges = space.first
    for n in range(em.shape[0]):
        alpha = edges.reduce_logsumexp(edges.step_scores(alpha, em[n]))
        if not np.isfinite(alpha).any():
            return NEG_INF, None
        if keep_table:
            table.append(alpha)
        edges = space.trans
    return _log_total(alpha), table


def _scaled_forward(space, em, init, keep_table=True):
    """Exact forward in scaled linear space over per-value CSR matrices.

    Rabiner's (1989) scaling: the state vector ``x`` is kept normalized to
    sum 1 and the log normalizers accumulate into the total.  A step is
    ``y = sum_v exp(em[n, v] - c) * (A_v @ x)`` (see `EdgeSet.by_value`),
    where ``c`` is the largest emission among the values some current state
    can produce, so the leading term is never scaled to 0 even when a
    duration lies far from every reachable value.  Same contract as
    `_edge_list_forward`; the table is returned in log space.
    """
    m0 = np.max(init)
    x = np.exp(init - m0)
    s = x.sum()
    x /= s
    log_scale = m0 + np.log(s)
    table = [init.copy()] if keep_table else None
    edges = space.first
    with np.errstate(divide="ignore"):
        for n in range(em.shape[0]):
            n_values, mat = edges.by_value()
            z = (mat @ x).reshape(n_values, edges.n_dst)
            live = z.max(axis=1) > 0
            row = em[n, :n_values][live]
            c = np.max(row) if row.size else NEG_INF
            if not np.isfinite(c):
                return NEG_INF, None
            w = np.zeros(n_values)
            w[live] = np.exp(row - c)
            y = w @ z
            s = y.sum()
            x = y / s
            log_scale += c + np.log(s)
            if keep_table:
                table.append(np.log(x) + log_scale)
            edges = space.trans
    return float(log_scale), table


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
    observations and the slot-n state.  Returns -inf when no path is
    feasible (the beam variant raises instead, since an emptied beam is a
    search failure rather than a model statement).  Exact passes run the
    log-space edge-list recursion on spaces under `SPARSE_MIN_EDGES` edges
    and the scaled CSR kernel on larger ones.  Beam widths round up to the
    next power of two and prune through nested survivor sets (see
    `_tiered_sweep`), so totals never decrease as the width grows.
    `log_init` replaces the space's boundary distribution, e.g. to condition
    on an observed initial metrical position.
    """
    em = _emission_steps(em)
    init = space.log_initial if log_init is None else np.asarray(log_init, dtype=np.float64)
    if not np.isfinite(init).any():
        return (NEG_INF, None) if return_table else NEG_INF
    eff = _effective_width(beam_width, space, init.size)
    if eff is not None:
        final, table = _tiered_sweep(
            space, em, eff, init, use_max=False, keep_tables=return_table
        )
        total = _log_total(final)
    else:
        kernel = _scaled_forward if space.n_edges >= SPARSE_MIN_EDGES else _edge_list_forward
        total, table = kernel(space, em, init, keep_table=return_table)
    return (total, table) if return_table else total


def _path_sample(space, boundary: int, states, outs, log_prob: float) -> PathSample:
    return PathSample(
        boundary_index=None if space.virtual_boundary else int(boundary),
        state_indices=[int(s) for s in states],
        output_values=[int(v) for v in outs],
        log_prob=float(log_prob),
    )


def _backtrack(space, em, deltas) -> PathSample:
    """Viterbi path from the per-step maxima alone.

    Each backward step rescores only the current state's incoming edges,
    exactly as the forward sweep scored them, and takes the lowest-index
    best one: the edge a stored back-pointer would have named.  Beam tables
    hold -inf outside each step's survivors, so the same rule recovers the
    beam's path.
    """
    state = int(np.argmax(deltas[-1]))
    states = [state]
    outs = []
    for n in range(len(deltas) - 2, -1, -1):
        edges = space.first if n == 0 else space.trans
        sl = edges.in_slice(state)
        scores = deltas[n][edges.src[sl]] + edges.logp[sl] + em[n][edges.out[sl] - 1]
        e = sl.start + int(np.argmax(scores))
        outs.append(int(edges.out[e]))
        state = int(edges.src[e])
        states.append(state)
    boundary = states.pop()
    return _path_sample(space, boundary, states[::-1], outs[::-1], deltas[-1][states[0]])


def viterbi(space, em, beam_width: int | None = None, log_init=None) -> PathSample:
    """Most probable latent path; ties break toward the lowest state index.

    The tie rule is applied stepwise during backtracking: the final state is
    the lowest-index argmax, and each backward step picks the lowest-index
    best predecessor.  Both the exact sweep and the beam keep only the
    per-step maxima and find the best incoming edge for the path's own
    states while backtracking.  Beam widths round up to the next power of two and
    prune through nested survivor sets (see `_tiered_sweep`), so decoded
    scores never decrease as the width grows and the decode is exact once
    the effective width covers the whole space.
    """
    em = _emission_steps(em)
    n_steps = em.shape[0]
    init = space.log_initial if log_init is None else np.asarray(log_init, dtype=np.float64)
    eff = _effective_width(beam_width, space, init.size)
    if eff is not None:
        _, tables = _tiered_sweep(space, em, eff, init, use_max=True, keep_tables=True)
        return _backtrack(space, em, tables)
    deltas = [init]
    edges = space.first
    for n in range(n_steps):
        delta = edges.reduce_max(edges.step_scores(deltas[-1], em[n]))
        if not np.isfinite(delta).any():
            raise InferenceError(f"no feasible path at step {n + 1}")
        deltas.append(delta)
        edges = space.trans
    return _backtrack(space, em, deltas)


def _posterior_weights(logw: np.ndarray) -> np.ndarray:
    """Normalized probabilities from log weights (-inf entries get 0)."""
    m = np.max(logw)
    if not np.isfinite(m):
        raise InferenceError("degenerate posterior: all weights zero")
    w = np.exp(logw - m)
    w /= w.sum()
    return w


def _draw(w: np.ndarray, rng: np.random.Generator, size: int | None = None):
    """Inverse-CDF draw(s) of an index with probabilities `w`.

    The same arithmetic and uniform draws as ``rng.choice(len(w), p=w,
    size=size)``, so seeded streams match it, without its validation
    overhead (a third of a backward step on small spaces).
    """
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


def _sample_index(logw: np.ndarray, rng: np.random.Generator) -> int:
    return int(_draw(_posterior_weights(logw), rng))


def _group_by_state(cur: np.ndarray):
    """``[(state, member indices)]`` over the distinct states, ascending."""
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(cur.tolist()):
        groups.setdefault(s, []).append(i)
    return sorted(groups.items())


def _sample_backward(space, em, table, rng: np.random.Generator, size: int) -> np.ndarray:
    """Backward sampling of `size` paths over one forward table.

    Returns per-step edge ids of shape (size, n_steps): column 0 indexes
    ``space.first``, the others ``space.trans``.  The backward kernel weights
    each incoming edge by ``alpha[src] + logp + em(out)``; draws currently
    at the same state share its incoming-edge posterior and are drawn
    together, so the cost beyond the forward pass is linear in size and
    n_steps.
    """
    if table is None:
        raise InferenceError("zero data likelihood: nothing to sample")
    n_steps = em.shape[0]
    cur = _draw(_posterior_weights(table[n_steps]), rng, size)
    eids = np.empty((size, n_steps), dtype=np.int64)
    for n in range(n_steps - 1, -1, -1):
        edges = space.first if n == 0 else space.trans
        for s, members in _group_by_state(cur):
            sl = edges.in_slice(s)
            logw = table[n][edges.src[sl]] + edges.logp[sl] + em[n, edges.out[sl] - 1]
            eids[members, n] = sl.start + _draw(_posterior_weights(logw), rng, len(members))
        cur = edges.src[eids[:, n]]
    return eids


def _paths_from_edges(space, eids: np.ndarray):
    """``(boundary, states, outputs)`` arrays of the paths along `eids`."""
    first, rest = eids[:, :1], eids[:, 1:]
    states = np.hstack([space.first.dst[first], space.trans.dst[rest]])
    outs = np.hstack([space.first.out[first], space.trans.out[rest]])
    return space.first.src[eids[:, 0]], states, outs


def ffbs(
    space,
    em,
    rng: np.random.Generator,
    beam_width: int | None = None,
    log_init=None,
    table=None,
):
    """Forward filtering, backward sampling: one exact posterior path draw.

    The one-draw case of `ffbs_batch`.  `table` is the forward table of
    these emissions, ``forward(space, em, beam_width, return_table=True,
    log_init=log_init)[1]``; a caller that already holds it passes it, and
    no forward pass runs.  For models whose emission depends only on the
    destination state the backward kernel reduces to the state-emission
    form.
    """
    em = _emission_steps(em)
    init = space.log_initial if log_init is None else np.asarray(log_init, dtype=np.float64)
    if table is None:
        _, table = forward(space, em, beam_width=beam_width, return_table=True, log_init=log_init)
    eids = _sample_backward(space, em, table, rng, 1)
    boundary, states, outs = (a[0] for a in _paths_from_edges(space, eids))
    log_prob = 0.0
    for n in range(em.shape[0] - 1, -1, -1):
        edges = space.first if n == 0 else space.trans
        log_prob += float(edges.logp[eids[0, n]] + em[n, outs[n] - 1])
    log_prob += float(init[boundary])
    return _path_sample(space, boundary, states, outs, log_prob)


def sample_generative(space, n_steps: int, rng: np.random.Generator) -> PathSample:
    """Sample a latent path (and its output values) from the prior."""
    logp0 = space.log_initial
    p0 = np.exp(logp0 - np.max(logp0[np.isfinite(logp0)]))
    p0[~np.isfinite(logp0)] = 0.0
    p0 /= p0.sum()
    boundary = int(rng.choice(len(p0), p=p0))
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
    return PathSample(
        boundary_index=None if space.virtual_boundary else boundary,
        state_indices=states,
        output_values=outs,
        log_prob=log_prob,
    )


def ffbs_batch(space, em, rng: np.random.Generator, size: int,
               beam_width: int | None = None, log_init=None):
    """Many exact posterior path draws sharing one forward pass.

    Returns ``(boundary, states, outputs)`` int arrays of shapes (size,),
    (size, n_steps), (size, n_steps).
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    em = _emission_steps(em)
    _, table = forward(space, em, beam_width=beam_width, return_table=True, log_init=log_init)
    return _paths_from_edges(space, _sample_backward(space, em, table, rng, size))
