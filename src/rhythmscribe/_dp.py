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
forward and backward passes on large spaces, which run in scaled linear space
over per-output-value sparse matrices (the backward pass over their
transposes) and convert their tables back to log space.

Exact Viterbi on large spaces is certified rather than swept over every edge.
The best path through state s at step n scores at most
``alpha_n(s) + beta_n(s)``, since a sum over paths is at least their max.  So
once some feasible path scores L, no state whose bound falls below L can lie
on an optimal path (the admissible-bound argument of exact A* search), and
max-product runs only over the states that can still pass.  Pruned states
score strictly below the optimum, so the decoded path, its score and the
lowest-index tie rule are those of the full sweep.  The bounds come from
the scaled kernels, which flush tiny entries: the backward pass used for
them raises every entry by the most it may have dropped, and the mass the
forward pass may have dropped at a step, bounded from its table, regrows
only along the paths after that step.  When that mass could reach L, the
decode runs the plain sweep instead (see `_bounds`).
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

# Exact Viterbi over spaces with at least this many edges is certified by the
# forward table (`_certified_sweep`); smaller spaces keep the plain sweep.
# With trained tables a 200-300 note transcribe call (forward and decode)
# took 3-17% longer certified at 38.8k edges and 0-17% less at 68.1k;
# CHANGES.md has the timings.
CERTIFY_MIN_EDGES = 60_000

# A pruned max-product step gathers the in-edges of the states it keeps; once
# those are more than this share of all edges, one plain `reduce_max` step
# over every edge is cheaper.
DENSE_STEP_FRACTION = 0.5

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

# Exact Viterbi is certified only when every path the forward pass may have
# flushed scores at least this many nats below the pruning threshold (then
# e^-40 of extra mass is far inside `BOUND_SLACK`).
DROP_MARGIN = 40.0

# The least raise of a backward entry for bounds (see `_scaled_backward`).
RAISE = 2.0**-700


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
                rows = self.out - 1
                rows *= self.n_dst
                rows += self.dst
                indptr = np.zeros(n_values * self.n_dst + 1, dtype=np.int64)
                np.cumsum(np.bincount(rows, minlength=n_values * self.n_dst), out=indptr[1:])
                del rows
                layout = (n_values, order, self.src[order], indptr)
            n_values, order, indices, indptr = layout
            data = self.logp[order]
            mat = sparse.csr_matrix(
                (np.exp(data, out=data), indices, indptr),
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

    def step_scores(self, alpha: np.ndarray, em_row: np.ndarray, eids=None,
                    scratch=None) -> np.ndarray:
        """Per-edge score alpha[src] + logp + em(out), over every edge or the
        edge ids `eids`.

        `scratch`, two float arrays of at least as many entries as edges
        scored, receives the scores (a view of the first is returned) and a
        temporary.  A sweep that passes the same pair at every step then
        allocates no edge-length array: a fresh one is mapped anew by the
        allocator and page-faults on every step, which costs a third of a
        step on large spaces.
        """
        def take(a):
            return a if eids is None else a[eids]

        # in place and indexed by `out` itself: at most two edge-length
        # temporaries beside the result
        em_by_out = np.empty(em_row.size + 1)
        em_by_out[1:] = em_row
        if scratch is None:
            scores = alpha[take(self.src)]
            scores += take(self.logp)
            scores += em_by_out[take(self.out)]
            return scores
        k = self.n_edges if eids is None else eids.size
        scores, tmp = scratch[0][:k], scratch[1][:k]
        np.take(alpha, take(self.src), out=scores, mode="clip")  # "raise" copies
        scores += take(self.logp)
        scores += np.take(em_by_out, take(self.out), out=tmp, mode="clip")
        return scores

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


def _out_edge_ids(edges: EdgeSet, srcs: np.ndarray) -> np.ndarray:
    """Edge ids (in dst-sorted numbering) leaving the given source states."""
    order, indptr = edges.src_view()
    return order[_concat_ranges(indptr[srcs], indptr[srcs + 1] - indptr[srcs])]


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
    sc = edges.step_scores(alpha, em_row, eids)
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


def _sparse_step(values: np.ndarray, ids: np.ndarray):
    """One step of a sparse DP table: ``(ids, values[ids])``, ids ascending."""
    ids = np.sort(ids)
    return ids, values[ids]


def _dense_step(step, size: int) -> np.ndarray:
    """A sparse table step as a full vector, -inf outside its ids."""
    ids, vals = step
    full = np.full(size, NEG_INF)
    full[ids] = vals
    return full


def _tiered_sweep(space, em, eff: int, init: np.ndarray, use_max: bool):
    """Beam recursion whose survivor sets are nested across widths.

    Sweeps widths 1, 2, 4, ..., `eff` in turn; each level's per-step
    survivors extend the previous level's, and only the survivors' out-edges
    are relaxed.  Because a narrower request's final level is one of a wider
    request's intermediate levels, survivor sets never reshuffle as the
    width grows: path sets only gain members, so beam scores are
    non-decreasing in the width and reach the exact values once every state
    fits.  The doubling ladder costs at most twice the widest level's work.

    Returns the widest level's sparse table: per step ``(ids, values)`` of
    its survivors (see `_sparse_step`), step 0 over the boundary slot.
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
        steps = [_sparse_step(init, survivors[0])]
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
            steps.append(_sparse_step(val, survivors[-1]))
            edges = space.trans
        prev = survivors
    if died_at is not None or survivors[-1].size == 0:
        step = died_at if died_at is not None else n_steps
        raise InferenceError(f"beam emptied at step {step}: no feasible state retained")
    return steps


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
    """logsumexp over the finite entries of a vector (-inf if it has none)."""
    finite = alpha[np.isfinite(alpha)]
    if finite.size == 0:
        return NEG_INF
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


def _transposed(edges: EdgeSet):
    """``(n_values, A^T, entered, any_entered)`` for the backward kernel:
    `A` as in `EdgeSet.by_value`, ``entered[v, d]`` whether some edge of
    value v enters d, and ``any_entered[v]`` whether any does."""
    n_values, mat = edges.by_value()
    entered = np.diff(mat.indptr).reshape(n_values, edges.n_dst) > 0
    return n_values, mat.T, entered, entered.any(axis=1)


def _scaled_backward(space, em, upper: bool = False):
    """Scaled backward vectors over the transposed per-value CSR matrices.

    Yields ``(n, b, log_scale)`` for n = N, N-1, ..., 0, where
    ``log(b) + log_scale`` is the backward vector of slot n (over the
    boundary slot at n = 0) and `b` sums to 1.  The mirror of
    `_scaled_forward`: a step is ``b' = A^T (w (x) b)`` with
    ``w_v = exp(em[n, v] - c)``, where ``c`` is the largest emission among
    the values of edges entering a state with ``b > 0``.  Stops early when
    no path is feasible.

    With `upper`, every entry of a step is raised by the most that
    underflow can have dropped from it, and at least by 2^-700:
    ``log(b) + log_scale`` then bounds beta from above (up to rounding),
    and no path's mass is ever flushed from `b`.  A raise of the smallest
    normal double would do, but its products in the next step would be
    subnormal, which is many times slower; 2^-700 times any emission
    weight above e^-200 and any edge probability above 2^-33 stays
    normal, and still lies 485 nats below the step's total.
    """
    n_states = space.trans.n_dst
    b = np.full(n_states, 1.0 / n_states)
    log_scale = np.log(n_states)
    yield em.shape[0], b, log_scale
    trans = _transposed(space.trans) if em.shape[0] > 1 else None
    with np.errstate(divide="ignore"):
        for n in range(em.shape[0] - 1, -1, -1):
            n_values, mat_t, entered, any_entered = trans if n else _transposed(space.first)
            reached = b > 0
            live = any_entered if reached.all() else (entered & reached).any(axis=1)
            row = em[n, :n_values][live]
            c = np.max(row) if row.size else NEG_INF
            if not np.isfinite(c):
                return
            w = np.zeros(n_values)
            w[live] = np.exp(row - c)
            u = mat_t @ (w[:, None] * b).ravel()
            s = u.sum()
            if not s > 0:
                return
            if upper:
                # each of at most n_values * n_dst terms of an entry of u,
                # a product p * w * b with p <= 1 and w <= 1, loses under
                # 2^-1072 * max(1, max b) to underflow
                raise_by = max(RAISE, mat_t.shape[1] * 2.0**-1072 * max(1.0, b.max()) / s)
            b = u / s
            if upper:
                b += raise_by
            log_scale += c + np.log(s)
            yield n, b, log_scale


def backward(space, em):
    """Backward recursion: ``beta[n][s]`` is the log probability of the
    observations after step n given the slot-n state s.

    Returns the table ``[beta_0, ..., beta_N]`` (``beta_0`` over the boundary
    slot, ``beta_N`` all zero), or None when no path is feasible.  Runs the
    scaled kernel (`_scaled_backward`) on every space, so entries whose
    scaled value underflows read -inf.
    """
    em = _emission_steps(em)
    table = [None] * (em.shape[0] + 1)
    with np.errstate(divide="ignore"):
        for n, b, log_scale in _scaled_backward(space, em):
            table[n] = np.log(b) + log_scale
    return table if table[0] is not None else None


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
        steps = _tiered_sweep(space, em, eff, init, use_max=False)
        total, table = _log_total(steps[-1][1]), None
        if return_table:
            table = [_dense_step(steps[0], init.size)]
            table += [_dense_step(step, space.trans.n_dst) for step in steps[1:]]
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


def _lookup(ids: np.ndarray, vals: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Values of the sparse table step ``(ids, vals)`` at `states`, -inf
    where it has none."""
    pos = np.minimum(np.searchsorted(ids, states), ids.size - 1)
    return np.where(ids[pos] == states, vals[pos], NEG_INF)


def _backtrack(space, em, steps) -> PathSample:
    """Viterbi path from the per-step maxima alone.

    `steps` is a sparse table (see `_sparse_step`) of per-step maxima.  Each
    backward step rescores only the current state's incoming edges, exactly
    as the forward sweep scored them, and takes the lowest-index best one:
    the edge a stored back-pointer would have named.  States outside a
    step's ids read -inf, so the same rule recovers the path of a pruned
    sweep and of a beam.
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


def _scratch(space):
    """Two float arrays for `EdgeSet.step_scores` over either edge set."""
    size = max(space.first.n_edges, space.trans.n_edges)
    return np.empty(size), np.empty(size)


def _max_sweep(space, em, init):
    """The plain exact max-product sweep over every edge.

    Returns the sparse table of per-step maxima, each step a whole row
    (ids ``arange(size)``, one array per slot size, which `_backtrack`
    indexes directly); raises InferenceError when no state of some slot is
    reached.
    """
    ids = np.arange(space.n_states)
    steps = [(ids if init.size == ids.size else np.arange(init.size), init)]
    delta = init
    scratch = _scratch(space)
    edges = space.first
    for n in range(em.shape[0]):
        delta = edges.reduce_max(edges.step_scores(delta, em[n], scratch=scratch))
        if not np.isfinite(delta).any():
            raise InferenceError(f"no feasible path at step {n + 1}")
        steps.append((ids, delta))
        edges = space.trans
    return steps


def _pruned_sweep(space, em, init, keep):
    """Max-product sweep restricted at slot n to the states ``keep(n)``.

    `keep` returns ascending state ids, or None to keep every state.  A
    step whose kept states' in-edges are a small share of all edges gathers
    just those; otherwise it runs `reduce_max` over every edge.  Either way
    each edge is scored as ``delta[src] + logp + em(out)``, so a state's
    maximum is bit-identical to the full sweep's whenever its best in-edge
    leaves a kept state.  Returns the sparse table of the reached kept
    states, a step holding more than half of its slot as a whole row (the
    smaller form then); raises InferenceError when some slot reaches none.
    """
    every = np.arange(space.n_states)

    def restricted(delta, kept):
        if kept is not None:
            kept = kept[np.isfinite(delta[kept])]
            return kept, delta[kept]
        kept = np.flatnonzero(np.isfinite(delta))
        return kept, delta[kept]

    steps = [restricted(init, keep(0))]
    delta = _dense_step(steps[0], init.size)
    scratch = _scratch(space)
    edges = space.first
    for n in range(em.shape[0]):
        kept = keep(n + 1)
        if kept is not None:
            starts = edges.dst_indptr[kept]
            counts = edges.dst_indptr[kept + 1] - starts
        if kept is None or counts.sum() > DENSE_STEP_FRACTION * edges.n_edges:
            scores = edges.step_scores(delta, em[n], scratch=scratch)
            steps.append(restricted(edges.reduce_max(scores), kept))
        else:
            entered = counts > 0
            kept, starts, counts = kept[entered], starts[entered], counts[entered]
            eids = _concat_ranges(starts, counts)
            scores = edges.step_scores(delta, em[n], eids, scratch)
            best = np.maximum.reduceat(scores, np.cumsum(counts) - counts) if eids.size else scores
            hit = np.isfinite(best)
            steps.append((kept[hit], best[hit]))
        if steps[-1][0].size == 0:
            raise InferenceError(f"no feasible path at step {n + 1}")
        delta = _dense_step(steps[-1], edges.n_dst)
        if 2 * steps[-1][0].size > edges.n_dst:
            steps[-1] = every, delta
        edges = space.trans
    return steps


def _drop_terms(edges: EdgeSet):
    """``(values_with_edges, log_reach, log_step)``: which output values have
    edges, the log of the largest out-mass of a source (at least 1), and the
    log of the most that one `_scaled_forward` step over `edges` may lose to
    underflow, as a share of the state vector's total."""
    n_values, mat = edges.by_value()
    with_edges = np.diff(mat.indptr).reshape(n_values, edges.n_dst).any(axis=1)
    reach = max(1.0, float(np.asarray(mat.sum(axis=0)).max(initial=0.0)))
    # the products and sums of A @ x and of w @ z, and the division by s
    terms = mat.nnz + 2 * mat.shape[0] + edges.n_dst
    return with_edges, np.log(reach), np.log(terms) + LOG_UNDERFLOW


def _bounds(space, em, table):
    """Turn a forward table into per-state bounds, in place, and bound what
    they may miss.

    Adds the backward pass into `table`, so that ``table[n][s]`` becomes
    ``alpha_n(s) + beta_n(s)``, the log mass of every path through s at slot
    n and so at least the score of the best one, up to underflow in the
    scaled kernels:

    - the backward pass runs with `upper` set, so its entries bound beta
      from above;
    - the scaled forward pass may have dropped mass, even a whole path.
      Making slot n, it drops under ``D_n = exp(log_step) * reach *
      exp(top) * total(alpha_{n-1})``, where `top` is the largest emission
      of a value with edges: a value that no state produced may weigh more
      than the step's scale, but only its underflowed products.  Dropped
      mass regrows along the paths after slot n only, so it adds at most
      ``D_n * max(beta_n)`` to ``alpha_m(s) * beta_m(s)`` at any slot m >= n.

    The totals are read off the table (its row max times its size bounds
    them), so any exact forward table serves.  Returns the log of the sum
    of ``D_n * max(beta_n)`` over all slots: every true bound is at most
    ``exp(table[n][s])`` plus its exponential.  Returns None when the
    backward pass finds no feasible path.
    """
    def log_total(row):
        return row.max() + np.log(row.size)

    first = _drop_terms(space.first)
    trans = _drop_terms(space.trans) if em.shape[0] > 1 else None
    missed = NEG_INF
    n_rows = 0
    with np.errstate(divide="ignore"):
        for n, b, log_scale in _scaled_backward(space, em, upper=True):
            if n:
                with_edges, log_reach, log_step = trans if n > 1 else first
                top = np.max(em[n - 1, :with_edges.size][with_edges])
                dropped = log_total(table[n - 1]) + top + log_reach + log_step
            else:  # the init: exp(init - max) and the division by its sum
                dropped = log_total(table[0]) + np.log(2 * table[0].size) + LOG_UNDERFLOW
            log_b = np.log(b)
            log_b += log_scale
            missed = np.logaddexp(missed, dropped + log_b.max())
            table[n] += log_b
            n_rows += 1
    return float(missed) if n_rows == len(table) else None


def _top(values: np.ndarray, k: int):
    """Ascending ids of the k largest values, or None when k covers them all."""
    if k >= values.size:
        return None
    return np.sort(np.argpartition(values, values.size - k)[values.size - k:])


def _certified_sweep(space, em, init, table):
    """The exact Viterbi table from a sweep over the states that can pass.

    `table` is the exact forward table of these emissions; it is consumed:
    its rows become bounds (see `_bounds`) and are dropped as the sweep
    passes.  A sweep restricted to the top-k states of each step by bound
    gives a feasible score L.  Every state on an optimal path has a bound
    of at least the optimum, so keeping the states whose bound reaches L
    (less a slack for rounding) keeps every optimal path and every edge
    that ties with one; the restricted sweep over them is exact.  Returns
    None when the mass the forward pass may have dropped could reach L: the
    bounds then certify nothing.
    """
    missed = _bounds(space, em, table)
    if missed is None:
        return None
    k = TOP_K_START
    while True:
        try:
            steps = _pruned_sweep(space, em, init, lambda n: _top(table[n], k))
            break
        except InferenceError:
            if k >= max(space.n_states, init.size):
                raise
            k *= TOP_K_GROWTH
    if k >= max(space.n_states, init.size):
        return steps  # the restriction kept everything: already exact
    score = float(np.max(steps[-1][1]))
    scale = em.shape[0] * (1.0 + np.max(np.abs(em[np.isfinite(em)]), initial=0.0))
    threshold = score - BOUND_SLACK * (scale + abs(score))
    if missed + DROP_MARGIN >= threshold:
        return None

    def passing(n):
        # each step's bounds are read once more: free them as the sweep passes
        bound, table[n] = table[n], None
        return np.flatnonzero(bound >= threshold)

    return _pruned_sweep(space, em, init, passing)


def _check_table(space, em, init, table):
    """Raise ValueError unless `table` has one row per slot of `em`, each
    the size of its slot.  A table `viterbi` consumed is empty and fails."""
    sizes = [init.size] + [space.n_states] * em.shape[0]
    if [np.size(row) for row in table] != sizes:
        raise ValueError(
            "table is not a forward table of these emissions and space "
            "(a table passed to viterbi is consumed by it)")


def viterbi(space, em, beam_width: int | None = None, log_init=None, table=None) -> PathSample:
    """Most probable latent path; ties break toward the lowest state index.

    The tie rule is applied stepwise during backtracking: the final state is
    the lowest-index argmax, and each backward step picks the lowest-index
    best predecessor.  Every sweep keeps only the per-step maxima and finds
    the best incoming edge for the path's own states while backtracking.

    Exact decodes of spaces with at least `CERTIFY_MIN_EDGES` edges are
    certified by the forward table of these emissions (see the module
    docstring and `_certified_sweep`), ``forward(space, em,
    return_table=True, log_init=log_init)[1]``, which runs here unless the
    caller passes it as `table`.  A passed table is consumed: its rows
    become bounds, are dropped as the sweep passes them, and the list is
    left empty, so it serves nothing afterwards (`ffbs` refuses it).  A
    table of other emissions of the same length is not detected.  Smaller
    spaces and beams ignore `table`.

    Beam widths round up to the next power of two and prune through nested
    survivor sets (see `_tiered_sweep`), so decoded scores never decrease as
    the width grows and the decode is exact once the effective width covers
    the whole space.
    """
    em = _emission_steps(em)
    init = space.log_initial if log_init is None else np.asarray(log_init, dtype=np.float64)
    eff = _effective_width(beam_width, space, init.size)
    if eff is not None:
        return _backtrack(space, em, _tiered_sweep(space, em, eff, init, use_max=True))
    if table is not None:
        _check_table(space, em, init, table)
    steps = None
    if space.n_edges >= CERTIFY_MIN_EDGES:
        if table is None:
            _, table = forward(space, em, return_table=True, log_init=log_init)
        if table is not None:
            try:
                steps = _certified_sweep(space, em, init, table)
            finally:
                table.clear()
    if steps is None:
        steps = _max_sweep(space, em, init)
    return _backtrack(space, em, steps)


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
    else:
        _check_table(space, em, init, table)
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
