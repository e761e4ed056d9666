"""Property tests: the params JSON round trip, the path-count identity,
corpus normalization, and the scaled forward (CSR and time-batched) and
backward kernels against log-space references and enumeration."""
import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from scipy.special import logsumexp  # noqa: E402

from rhythmscribe import _dp  # noqa: E402
from rhythmscribe.core import normalize_corpus, to_note_values  # noqa: E402
from rhythmscribe.inference import gather_counts  # noqa: E402
from rhythmscribe.models import (  # noqa: E402
    build_state_space,
    params_from_dict,
    params_to_dict,
    pattern_vocabulary,
    random_params,
)
from rhythmscribe.timing import TimingParams, TranscriptionHmm  # noqa: E402

from conftest import ALL_VARIANTS, enumerate_paths, log_space_forward, tiny_config  # noqa: E402

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)

TABLES = ("initial", "transition", "transition2", "unigram", "shift_probs")


def variant_params(name: str, seed: int, subset: bool):
    """A tiny config of `name` and Dirichlet-random tables with some zero entries.

    With `subset`, pattern models get a shuffled part of the vocabulary.
    """
    rng = np.random.default_rng(seed)
    config = tiny_config(name)
    patterns = None
    if subset and config.family == "pat":
        vocab = pattern_vocabulary(config.bar_length)
        patterns = tuple(vocab[i] for i in rng.permutation(len(vocab))[: max(2, len(vocab) // 2)])
    params = random_params(config.plain(), rng, patterns)
    if params.transition is not None:
        row = rng.integers(len(params.transition))
        params.transition[row] = np.eye(len(params.transition))[rng.integers(len(params.transition))]
    if params.shift_probs is not None:
        keep = rng.random(len(params.shift_probs)) < 0.7
        keep[len(keep) // 2] = True  # shift 0
        params.shift_probs = np.where(keep, params.shift_probs, 0.0)
        params.shift_probs /= params.shift_probs.sum()
    return config, params


@PROPERTY_SETTINGS
@given(name=st.sampled_from(ALL_VARIANTS), seed=st.integers(0, 2**32 - 1), subset=st.booleans())
def test_params_dict_round_trip(name, seed, subset):
    _, params = variant_params(name, seed, subset)
    again = params_from_dict(params_to_dict(params))
    assert (again.family, again.order, again.bar_length) == (
        params.family, params.order, params.bar_length)
    assert again.patterns == params.patterns
    for key in TABLES:
        want = getattr(params, key)
        if want is None:
            assert getattr(again, key) is None
        else:
            np.testing.assert_array_equal(getattr(again, key), want)
    for a, b in zip(again.division_probs or (), params.division_probs or (), strict=True):
        np.testing.assert_array_equal(a, b)
    again.validate()


def log_prior_from_counts(params, counts) -> float:
    """sum over table entries of count x log(entry); `counts` by table name."""
    pairs = []
    for name, c in counts.items():
        p = getattr(params, name)
        pairs += zip(c, p, strict=True) if name == "division_probs" else [(c, p)]
    total = 0.0
    for c, p in pairs:
        used = c > 0
        total += float(np.sum(c[used] * np.log(p[used])))
    return total


def log_row_sums(space, params, path) -> float:
    """sum of log Z_s over the rows the path leaves: its boundary state's
    first-edge row, then the row of every state but its last.

    Z_s sums the unnormalized weights of s's out-edges in the space's
    topology, each the product of its slots' entries and the entered
    state's slots' entries.
    """
    topology = space._topology
    theta = space.layout.flatten(params)
    rows = []
    for edges in (topology.first, topology.trans):
        weight = theta[edges.slot]
        for slots in topology.state_slots:
            weight = weight * theta[slots[edges.dst]]
        rows.append(np.bincount(edges.src, weights=weight, minlength=edges.n_src))
    # the space keeps every state of its topology, in its order
    boundary = path.boundary_index or 0
    return float(np.log(rows[0][boundary]) + np.log(rows[1][path.state_indices[:-1]]).sum())


@PROPERTY_SETTINGS
@given(name=st.sampled_from(ALL_VARIANTS), seed=st.integers(0, 2**32 - 1),
       subset=st.booleans(), n_steps=st.integers(1, 7))
def test_counts_give_the_path_log_prior(name, seed, subset, n_steps):
    # every weight is a product of table entries over its source row's sum
    # Z_s, so a path's log prior is its counts dotted with the log tables,
    # less log Z_s for each time it leaves s.  FFBS on all-zero emissions
    # draws from the prior over paths of the full length
    config, params = variant_params(name, seed, subset)
    space = build_state_space(config, params)
    em = np.zeros((n_steps, config.bar_length))
    path = _dp.ffbs(space, em, np.random.default_rng(seed + 1))
    counts = space.layout.tables(gather_counts(space, path))
    left = log_row_sums(space, params, path)
    assert log_prior_from_counts(params, counts) - left == pytest.approx(
        path.log_prob, rel=1e-9, abs=1e-9)
    # one initial count and one count per step from the shift table, if any
    assert counts["initial"].sum() == 1
    if "shift_probs" in counts:
        assert counts["shift_probs"].sum() == n_steps + 1


@PROPERTY_SETTINGS
@given(bar_length=st.integers(2, 16),
       raws=st.lists(st.lists(st.floats(0.0, 200.0, allow_nan=False), max_size=20),
                     min_size=1, max_size=5))
def test_normalized_corpus_is_bounded_and_idempotent(bar_length, raws):
    entries = [{"id": str(i), "onsets": onsets} for i, onsets in enumerate(raws)]
    once, _ = normalize_corpus(entries, bar_length)
    for piece in once.pieces:
        values = to_note_values(piece)
        assert values.min() >= 1 and values.max() <= bar_length
    again, report = normalize_corpus(
        [{"id": pid, "onsets": list(p.onsets)} for pid, p in zip(once.ids, once.pieces)],
        bar_length)
    assert again == once
    assert report.inserted_onsets == report.merged_onsets == 0 and not report.dropped


def small_instance(name, seed, n_steps):
    """A tiny random space (some table entries zeroed) and emissions of random durations."""
    config, params = variant_params(name, seed, subset=True)
    space = build_state_space(config, params)
    rng = np.random.default_rng(seed + 2)
    durations = rng.uniform(0.15, 0.25 * config.bar_length, size=n_steps)
    em = TranscriptionHmm(space, TimingParams(seconds_per_unit=0.25, sigma_t=0.3)
                          ).emission_matrix(durations)
    return space, em


def assert_log_tables_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(np.isfinite(g), np.isfinite(w))
        ok = np.isfinite(w)
        np.testing.assert_allclose(g[ok], w[ok], rtol=1e-9, atol=1e-9)


def edge_list_backward(space, em):
    """Log-space backward recursion over the edge lists, one source at a time."""
    beta = np.zeros(space.n_states)
    table = [beta]
    for n in range(em.shape[0] - 1, -1, -1):
        edges = space.first if n == 0 else space.trans
        scores = edges.logp + em[n][edges.out - 1] + beta[edges.dst]
        beta = np.full(edges.n_src, -np.inf)
        for s in np.unique(edges.src):
            mine = scores[edges.src == s]
            if np.isfinite(mine).any():
                beta[s] = logsumexp(mine)
        table.append(beta)
    return table[::-1]


KERNEL_CASES = dict(name=st.sampled_from(ALL_VARIANTS), seed=st.integers(0, 2**32 - 1),
                    n_steps=st.integers(1, 5))


@pytest.mark.parametrize("kernel", ["_batched_forward", "_scaled_forward"])
@PROPERTY_SETTINGS
@given(**KERNEL_CASES, indicator=st.booleans(), restrict=st.booleans())
def test_scaled_forward_matches_the_edge_list_kernel(kernel, name, seed, n_steps,
                                                     indicator, restrict):
    # indicator rows score a sampled rhythm (0 / -inf, as score probabilities
    # do); a restricted init masks the boundary slot down to a random part
    space, em = small_instance(name, seed, n_steps)
    rng = np.random.default_rng(seed + 3)
    init = space.log_initial.copy()
    if indicator:
        path = _dp.sample_generative(space, n_steps, rng)
        em = np.full_like(em, -np.inf)
        em[np.arange(n_steps), np.asarray(path.output_values) - 1] = 0.0
        if restrict:
            keep = np.zeros(init.size, dtype=bool)
            keep[path.boundary_index or 0] = True
            init[~keep] = -np.inf
    elif restrict:
        init[rng.random(init.size) < 0.5] = -np.inf
    want, want_table = log_space_forward(space, em, init)
    assume(np.isfinite(want))
    got, got_table, log_flushed = getattr(_dp, kernel)(space, em, init)
    assert log_flushed <= -_dp.DROP_MARGIN
    assert got == pytest.approx(want, rel=1e-9)
    assert_log_tables_close(got_table, want_table)


@PROPERTY_SETTINGS
@given(**KERNEL_CASES)
def test_backward_matches_references_and_the_forward_total(name, seed, n_steps):
    space, em = small_instance(name, seed, n_steps)
    total, alphas = log_space_forward(space, em, space.log_initial)
    assume(np.isfinite(total))
    betas = [None] * (n_steps + 1)
    for n, log_beta, _ in _dp._upper_beta(space, em):
        betas[n] = log_beta
    assert betas[0] is not None  # a feasible space yields every row
    want = edge_list_backward(space, em)
    # alpha_n(s) + beta_n(s) is the mass of the enumerated paths through s
    boundary, states, outputs, log_prior = enumerate_paths(space, n_steps)
    scores = log_prior + em[np.arange(n_steps), outputs - 1].sum(axis=1)
    slots = np.column_stack([boundary, states])
    for n, (alpha, beta, ref) in enumerate(zip(alphas, betas, want)):
        # every raised entry bounds the reference from above, up to rounding
        assert np.all(beta >= ref - 1e-9 * (1.0 + np.abs(ref)))
        # within 400 nats of the row's maximum the 2^-700 raise cannot show
        exact = np.isfinite(ref) & (ref >= ref.max() - 400.0)
        np.testing.assert_allclose(beta[exact], ref[exact], rtol=1e-9, atol=1e-9)
        assert logsumexp(alpha + beta) == pytest.approx(total, rel=1e-9)
        for s in np.flatnonzero(exact & np.isfinite(alpha)):
            through = logsumexp(scores[slots[:, n] == s])
            assert alpha[s] + beta[s] == pytest.approx(through, rel=1e-9, abs=1e-9)


@PROPERTY_SETTINGS
@given(**KERNEL_CASES)
def test_upper_total_exceeds_the_total_by_at_most_the_raise_bound(name, seed, n_steps):
    # a raise of 2^-10 of each row, which the totals resolve, where 2^-700
    # would vanish in their rounding
    space, em = small_instance(name, seed, n_steps)
    init = space.log_initial
    total, _ = log_space_forward(space, em, init, keep_table=False)
    assume(np.isfinite(total))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_dp, "RAISE", 2.0**-10)
        rows = list(_dp._upper_beta(space, em))
    log_raise = np.full(n_steps + 1, -np.inf)
    for n, _, raised in rows:
        log_raise[n] = raised
    n, beta_0, _ = rows[-1]
    assert n == 0
    upper = _dp._log_total(init + beta_0)
    assert upper > total
    gap = upper + np.log1p(-np.exp(total - upper))  # log(Z_up - Z)
    assert gap <= _dp._log_raised(space, em, init, log_raise) + 1e-9


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="states with no out-edge leak the prior mass the tables send into them")
@pytest.mark.parametrize("check", ["out_edges", "prior_mass"])
def test_zeroed_shift_entries_leave_no_dead_end(check):
    # a record of a known fault: the metmm1sb example of seed 0 (bar length
    # 3, zeroed shift entries) leaves state (0, 2) with no out-edge, and the
    # all-zero forward over 6 steps gives -0.1384 where a normalized prior
    # gives 0.  test_counts_give_the_path_log_prior fails on this example,
    # with "dead-end state during generative sampling"; it passes only while
    # its derandomized draws miss it
    config, params = variant_params("metmm1sb", 0, False)
    space = build_state_space(config, params)
    if check == "out_edges":
        assert np.bincount(space.trans.src, minlength=space.n_states).min() > 0
    else:
        assert _dp.forward(space, np.zeros((6, config.bar_length))) == pytest.approx(0.0, abs=1e-12)


@PROPERTY_SETTINGS
@given(values=st.lists(st.sampled_from([-np.inf, -1.5, 0.0, 0.5, 2.0]), min_size=1,
                       max_size=200),
       k=st.integers(1, 64))
def test_top_picks_the_largest_finite_values_ties_to_the_lowest_index(values, k):
    values = np.array(values)
    finite = np.flatnonzero(np.isfinite(values))
    want = np.sort(finite[np.lexsort((finite, -values[finite]))[:k]])
    got = _dp._top(values, k)
    assert got.dtype == want.dtype and np.array_equal(got, want)
