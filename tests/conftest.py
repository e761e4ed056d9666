"""Shared test fixtures: tiny model instances and enumeration oracles.

The oracles here deliberately avoid the package's dynamic-programming
recursions: likelihoods and best paths are computed by materializing every
feasible latent path explicitly and reducing over the full list, so any
agreement with the forward/Viterbi/FFBS implementations is evidence, not
circularity.  `log_space_forward` is the one exception: the reference
kernel the scaled forward passes are checked against.
"""
from __future__ import annotations

import numpy as np
import pytest
from scipy.special import logsumexp

from rhythmscribe import _dp
from rhythmscribe.models import ModelConfig, _edge_ids, build_state_space, random_params
from rhythmscribe.timing import TimingParams

ALL_VARIANTS = [
    "notemm0", "notemm0b", "notemm1", "notemm1b", "notemm1sb", "notemm1db",
    "notemm1sdb", "notemm2", "notemm2b",
    "metmm0", "metmm0b", "metmm1", "metmm1b", "metmm1sb", "metmm1db",
    "metmm1sdb", "metmm2", "metmm2b",
    "patmm0", "patmm0b", "patmm1", "patmm1b", "patmm1sb", "patmm1db",
    "patmm1sdb",
]

# bar lengths keeping every variant at <= 40 states for enumeration oracles
_TINY_BAR = {
    ("note", 0, False, False): 5,
    ("note", 1, False, False): 5,
    ("note", 2, False, False): 4,
    ("note", 1, True, False): 3,
    ("note", 1, False, True): 3,
    ("note", 1, True, True): 2,
    ("met", 0, False, False): 5,
    ("met", 1, False, False): 5,
    ("met", 2, False, False): 4,
    ("met", 1, True, False): 3,
    ("met", 1, False, True): 3,
    ("met", 1, True, True): 2,
    ("pat", 0, False, False): 3,
    ("pat", 1, False, False): 3,
    ("pat", 1, True, False): 2,
    ("pat", 1, False, True): 2,
    ("pat", 1, True, True): 2,
}


def edge_id(space, tag_from, tag_to, first: bool = False):
    """Id of the edge between two tagged states, or None when there is
    none: in `space.trans`, or with `first` in `space.first`, from a
    boundary tag."""
    edges = space.first if first else space.trans
    src = (space.boundary_tags if first else space.state_tags).index(tag_from)
    dst = space.state_tags.index(tag_to)
    for value in range(1, space.bar_length + 1):
        try:
            return int(_edge_ids(edges, np.array([src]), np.array([dst]), np.array([value]))[0])
        except ValueError:  # no edge src -> dst producing `value`
            continue
    return None


def log_space_forward(space, em, init, keep_table=True):
    """``(total, table)`` of the exact forward pass in log space, or
    ``(-inf, None)`` when no path is feasible: the sum-product sweep that
    keeps every state, which `_dp.forward` reruns when a scaled kernel's
    underflow guard fires.  The table is None unless `keep_table` is set."""
    try:
        steps = _dp._pruned_sweep(space, em, init, lambda n, delta: None, _dp._scratch(space),
                                  use_max=False, keep_table=keep_table)
    except _dp.InferenceError:
        return -np.inf, None
    return _dp._log_total(steps[-1][1]), [row for _, row in steps] if keep_table else None


def tiny_config(name: str) -> ModelConfig:
    base = ModelConfig.from_name(name)
    nb = _TINY_BAR[(base.family, base.order, base.shift, base.division)]
    return ModelConfig(
        family=base.family,
        order=base.order,
        shift=base.shift,
        division=base.division,
        bayesian=base.bayesian,
        bar_length=nb,
    )


def tiny_instance(name: str, rng: np.random.Generator, n_notes: int):
    """A random small model instance plus random observed durations."""
    config = tiny_config(name)
    params = random_params(config, rng)
    space = build_state_space(config, params)
    assert space.n_states <= 40, f"{name}: {space.n_states} states"
    tp = TimingParams(seconds_per_unit=0.25, sigma_t=0.3)
    durations = rng.uniform(0.15, 0.25 * config.bar_length, size=n_notes)
    return config, params, space, tp, durations


def _expand(prev_count, srcs, edges):
    """Indices expanding each current path by every out-edge of its end state."""
    order, indptr = edges.src_view()
    counts = indptr[srcs + 1] - indptr[srcs]
    total = int(counts.sum())
    path_idx = np.repeat(np.arange(prev_count), counts)
    starts = np.repeat(indptr[srcs], counts)
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    edge_idx = order[starts + offsets]
    return path_idx, edge_idx


def enumerate_paths(space, n_steps: int, max_paths: int = 2_000_000):
    """Every feasible latent path of length `n_steps`, with prior log-probs.

    Returns (boundary, states, outputs, log_prior) arrays of shapes (P,),
    (P, n_steps), (P, n_steps), (P,).  Paths are expanded edge by edge;
    probabilities multiply along each path with no merging, so this is the
    brute-force reference for the forward and Viterbi recursions.
    """
    init = space.log_initial
    live = np.flatnonzero(np.isfinite(init))
    path_idx, edge_idx = _expand(len(live), live, space.first)
    boundary = live[path_idx]
    log_prior = init[boundary] + space.first.logp[edge_idx]
    states = space.first.dst[edge_idx][:, None]
    outputs = space.first.out[edge_idx][:, None]
    for _ in range(1, n_steps):
        path_idx, edge_idx = _expand(len(log_prior), states[:, -1], space.trans)
        boundary = boundary[path_idx]
        log_prior = log_prior[path_idx] + space.trans.logp[edge_idx]
        states = np.hstack([states[path_idx], space.trans.dst[edge_idx][:, None]])
        outputs = np.hstack([outputs[path_idx], space.trans.out[edge_idx][:, None]])
        assert len(log_prior) <= max_paths, "path explosion; shrink the instance"
    return boundary, states, outputs, log_prior


def oracle_scores(space, hmm, durations):
    """Enumerated per-path total log scores (prior + emission)."""
    durations = np.asarray(durations, dtype=np.float64)
    boundary, states, outputs, log_prior = enumerate_paths(space, len(durations))
    em = hmm.emission_matrix(durations)
    emission = em[np.arange(len(durations))[None, :], outputs - 1].sum(axis=1)
    return boundary, states, outputs, log_prior + emission


def oracle_forward(space, hmm, durations) -> float:
    _, _, _, scores = oracle_scores(space, hmm, durations)
    return float(logsumexp(scores))


def oracle_argmax(space, hmm, durations):
    """Best enumerated path and the set of ties within 1e-9 of the max."""
    boundary, states, _, scores = oracle_scores(space, hmm, durations)
    best = float(np.max(scores))
    tie = np.flatnonzero(scores >= best - 1e-9)
    tied_paths = {(int(boundary[i]), tuple(int(s) for s in states[i])) for i in tie}
    return best, tied_paths


def oracle_posterior(space, hmm, durations) -> dict:
    """Exact posterior over full paths as a dict keyed by (boundary, states)."""
    boundary, states, _, scores = oracle_scores(space, hmm, durations)
    probs = np.exp(scores - logsumexp(scores))
    post = {}
    for i in range(len(probs)):
        key = (int(boundary[i]), tuple(int(s) for s in states[i]))
        post[key] = post.get(key, 0.0) + float(probs[i])
    return post


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


# ---------------------------------------------------------------------------
# acceptance-criteria reporting: each acceptance test records one line once
# all of its assertions have passed; the summary prints one line per
# criterion, marking the ones that never reported in as FAIL.

ACCEPTANCE_CRITERIA_TOTAL = 12
_acceptance_log: dict[int, str] = {}
_acceptance_seen = False


def record_criterion(number: int, message: str) -> None:
    global _acceptance_seen
    _acceptance_seen = True
    _acceptance_log[number] = message


def pytest_collection_modifyitems(items):
    global _acceptance_seen
    _acceptance_seen = any("test_acceptance" in item.nodeid for item in items)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_seen:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for n in range(1, ACCEPTANCE_CRITERIA_TOTAL + 1):
        line = _acceptance_log.get(n, "FAIL (assertions did not complete)")
        terminalreporter.write_line(f"[criterion {n:02d}] {line}")
