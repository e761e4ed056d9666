"""The scaled forward kernels and their underflow guard, the backward
sampler, the argmax-free Viterbi sweep, its certified pruned form and the
one-forward-per-iteration Gibbs loop, each against a reference."""
import hashlib
import zlib

import numpy as np
import pytest

from rhythmscribe import _dp
from rhythmscribe.inference import GibbsConfig, InferenceError, gibbs_fit, transcribe
from rhythmscribe.models import (
    ModelConfig,
    build_state_space,
    random_params,
    sample_score,
    uniform_params,
)
from rhythmscribe.timing import (
    Performance,
    TimingParams,
    TranscriptionHmm,
    synthesize,
)
from rhythmscribe.training import assemble_hyperparams

from conftest import ALL_VARIANTS, log_space_forward, tiny_instance

# criterion 01's tolerance on forward totals
REL_TOL = 1e-9


def assert_tables_match(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(np.isfinite(g), np.isfinite(w))
        ok = np.isfinite(w)
        np.testing.assert_allclose(g[ok], w[ok], rtol=REL_TOL, atol=REL_TOL)


def point_mass_space():
    """notemm1 that can only ever produce note value 1."""
    cfg = ModelConfig.from_name("notemm1")
    params = uniform_params(cfg)
    params.initial = np.eye(8)[0]
    params.transition = np.tile(np.eye(8)[0], (8, 1))
    return build_state_space(cfg, params)


# The SPARSE_MIN_EDGES values that send every space's exact forward to one
# scaled kernel.  Backward sampling precomputes its weights on the batched
# route and scores in-edges step by step on the other.
ROUTES = {"batched": 10**9, "scaled": 0}
SCALED_KERNELS = {"batched": _dp._batched_forward, "scaled": _dp._scaled_forward}


def route_to(monkeypatch, route):
    """Send every exact forward to one kernel: a route of `ROUTES`, or
    "rerun", the log-space sum sweep, which no space's size picks: both
    scaled kernels then report a guard that fires."""
    if route == "rerun":
        for name in SCALED_KERNELS.values():
            monkeypatch.setattr(_dp, name.__name__, lambda space, em, init, keep_table=True:
                                (np.nan, None, np.inf))
    else:
        monkeypatch.setattr(_dp, "SPARSE_MIN_EDGES", ROUTES[route])


def kernels_run(monkeypatch):
    """Names of the forward kernels run, in call order, from now on; the
    log-space rerun, a sum-product `_pruned_sweep`, runs as "sum_sweep"."""
    ran = []
    for name in ("_batched_forward", "_scaled_forward"):
        def spy(*args, _real=getattr(_dp, name), _name=name, **kwargs):
            ran.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(_dp, name, spy)
    real_sweep = _dp._pruned_sweep

    def sweep(*args, **kwargs):
        if kwargs.get("use_max") is False:
            ran.append("sum_sweep")
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(_dp, "_pruned_sweep", sweep)
    return ran


@pytest.mark.parametrize("kernel", sorted(SCALED_KERNELS))
class TestScaledForward:
    def run(self, kernel, space, em, init):
        total, table, log_flushed = SCALED_KERNELS[kernel](space, em, init)
        assert log_flushed <= -_dp.DROP_MARGIN  # the guard holds
        return total, table

    @pytest.mark.parametrize("name", ALL_VARIANTS)
    def test_matches_edge_list_reference(self, kernel, name, rng):
        for _ in range(3):
            _, _, space, tp, durations = tiny_instance(name, rng, n_notes=6)
            em = TranscriptionHmm(space, tp).emission_matrix(durations)
            want, want_table = log_space_forward(space, em, space.log_initial)
            got, got_table = self.run(kernel, space, em, space.log_initial)
            assert got == pytest.approx(want, rel=REL_TOL)
            assert_tables_match(got_table, want_table)

    @pytest.mark.parametrize("name", ["notemm1", "metmm2", "patmm1", "metmm1sd"])
    def test_indicator_emissions_and_restricted_init(self, kernel, name, rng):
        # score probabilities: 0/-inf emission rows, part of the boundary masked
        _, _, space, _, _ = tiny_instance(name, rng, n_notes=1)
        path = _dp.sample_generative(space, 6, rng)
        nb = space.bar_length
        em = np.full((6, nb), -np.inf)
        em[np.arange(6), np.asarray(path.output_values) - 1] = 0.0
        init = np.full(len(space.boundary_tags), -np.inf)
        b = path.boundary_index if path.boundary_index is not None else 0
        init[b] = space.log_initial[b]
        want, want_table = log_space_forward(space, em, init)
        got, got_table = self.run(kernel, space, em, init)
        assert np.isfinite(want)
        assert got == pytest.approx(want, rel=REL_TOL)
        assert_tables_match(got_table, want_table)

    def test_far_duration_underflows_exp_but_stays_finite(self, kernel, monkeypatch):
        # every duration sits at value 8, the model only produces value 1, so
        # exp(em - max_v em) is exactly 0 for every reachable value
        route_to(monkeypatch, kernel)
        space = point_mass_space()
        tp = TimingParams(seconds_per_unit=0.25, sigma_t=0.01)
        em = TranscriptionHmm(space, tp).emission_matrix(np.full(50, 2.0))
        assert np.exp(em[0, 0] - em[0].max()) == 0.0
        want, want_table = log_space_forward(space, em, space.log_initial)
        got, got_table = self.run(kernel, space, em, space.log_initial)
        assert np.isfinite(want) and want < -1e5
        assert got == pytest.approx(want, rel=REL_TOL)
        assert_tables_match(got_table, want_table)
        ran = kernels_run(monkeypatch)
        assert _dp.forward(space, em) == got
        assert ran == [f"_{kernel}_forward"]
        path = _dp.ffbs(space, em, np.random.default_rng(0))
        assert path.output_values == [1] * 50

    @pytest.mark.parametrize("durations, want", [
        # the first duration fits value 2 and the rest value 1: the kernels
        # flush the all-1s path at step 1, which then dominates
        ([0.5] + [0.25] * 7, -1215.66),
        # the all-2s path fits the middle notes, and is flushed at step 1
        ([0.25, 0.5, 0.5, 0.5, 0.25], None),
    ])
    def test_flushed_path_that_dominates_trips_the_guard(self, kernel, durations, want,
                                                         monkeypatch):
        space, em = two_path_emissions(durations)
        reference = log_space_forward(space, em, space.log_initial)
        if want is not None:
            assert reference[0] == pytest.approx(want, abs=0.005)
        total, _, log_flushed = SCALED_KERNELS[kernel](space, em, space.log_initial)
        assert log_flushed > -_dp.DROP_MARGIN
        assert not total == pytest.approx(reference[0], rel=REL_TOL)
        route_to(monkeypatch, kernel)
        ran = kernels_run(monkeypatch)
        got, got_table = _dp.forward(space, em, return_table=True)
        assert ran == [f"_{kernel}_forward", "sum_sweep"]
        assert got == pytest.approx(reference[0], rel=REL_TOL)
        assert_tables_match(got_table, reference[1])

    def test_init_flushed_by_its_normalization_is_on_the_ledger(self, kernel, rng,
                                                                monkeypatch):
        # one boundary entry 800 nats below the largest: exp(init - max)
        # flushes it, so slot 0 of the ledger must cover its mass.  No decode
        # isolates this entry while edge weights are at most 1: the first
        # step's own entry covers whatever a flushed boundary state passes on
        _, _, space, tp, durations = tiny_instance("metmm1", rng, n_notes=4)
        em = TranscriptionHmm(space, tp).emission_matrix(durations)
        n_boundary = len(space.boundary_tags)
        init = np.log(np.full(n_boundary, 1.0 / n_boundary))
        init[1] -= 800.0
        assert np.exp(init[1] - init.max()) == 0.0
        ledgers = []
        real = _dp._log_flushed

        def spy(*args):
            log_flushed, lost = real(*args)
            ledgers.append(lost)
            return log_flushed, lost

        monkeypatch.setattr(_dp, "_log_flushed", spy)
        SCALED_KERNELS[kernel](space, em, init)
        (lost,) = ledgers
        assert init[1] <= lost[0] < init.max() - 700.0

    def test_value_no_state_produces_is_weighed_at_its_emission(self, kernel, monkeypatch):
        # the CSR kernel's products for value 2 underflow, so it weighs no
        # value above value 1's emission; its ledger counts them at value
        # 2's, 1000 nats higher, and the guard reruns the pass.  The batched
        # kernel weighs each edge with its own probability and stays exact
        space, em = unseen_value_emissions()
        want, want_table = log_space_forward(space, em, space.log_initial)
        assert want == pytest.approx(-760.0, abs=0.5)
        route_to(monkeypatch, kernel)
        ran = kernels_run(monkeypatch)
        got, got_table = _dp.forward(space, em, return_table=True)
        assert ran == {"batched": ["_batched_forward"],
                       "scaled": ["_scaled_forward", "sum_sweep"]}[kernel]
        assert got == pytest.approx(want, rel=REL_TOL)
        assert_tables_match(got_table, want_table)

    def test_compounding_first_bound_is_settled_by_the_backward_pass(self, kernel,
                                                                     monkeypatch):
        # values 1 and 2 alternate with probability 1 - 1e-4, and every
        # duration fits value 1: each step realizes about 1e-4 of the most
        # out-mass a source can send, so the forward-only bound grows some
        # 9 nats a step and passes e^-40 within 100 steps, while the backward
        # bound stays near 2^-1072
        transition = np.zeros((8, 8))
        transition[0, :2] = transition[1, 1::-1] = [1e-4, 1 - 1e-4]
        transition[2:, 0] = 1.0
        space = notemm1_space(np.r_[0.5, 0.5, np.zeros(6)], transition)
        tp = TimingParams(seconds_per_unit=0.25, sigma_t=0.02)
        em = TranscriptionHmm(space, tp).emission_matrix(np.full(100, 0.25))
        want, want_table = log_space_forward(space, em, space.log_initial)
        route_to(monkeypatch, kernel)
        backward_passes = []
        real = _dp._upper_beta
        monkeypatch.setattr(_dp, "_upper_beta",
                            lambda *a: backward_passes.append(a) or real(*a))
        ran = kernels_run(monkeypatch)
        got, got_table = _dp.forward(space, em, return_table=True)
        assert len(backward_passes) == 1  # the second stage ran, once
        assert ran == [f"_{kernel}_forward"]  # and cleared the total
        assert got == pytest.approx(want, rel=REL_TOL)
        assert_tables_match(got_table, want_table)

    def test_flushed_path_through_a_dead_step_trips_the_guard(self, kernel, monkeypatch):
        # the first duration fits value 2, so the all-1s path is flushed at
        # step 1; step 2 can only be value 1, which the all-2s path cannot
        # produce, so the kernels keep no mass there
        space, em = two_path_emissions([0.5, 0.25])
        em[1, 1:] = -np.inf
        want, want_table = log_space_forward(space, em, space.log_initial)
        assert np.isfinite(want)
        assert SCALED_KERNELS[kernel](space, em, space.log_initial) == (-np.inf, None, np.inf)
        route_to(monkeypatch, kernel)
        ran = kernels_run(monkeypatch)
        got, got_table = _dp.forward(space, em, return_table=True)
        assert ran == [f"_{kernel}_forward", "sum_sweep"]
        assert got == pytest.approx(want, rel=REL_TOL)
        assert_tables_match(got_table, want_table)

    def test_infeasible_indicator_data_on_a_large_space_is_not_rerun(self, kernel,
                                                                     monkeypatch):
        # a score the model cannot produce: patmm1 with 90% of its pattern
        # transitions zeroed, and one note of a sampled rhythm changed so
        # that each step alone stays producible by some edge
        rng = np.random.default_rng(0)
        cfg = ModelConfig.from_name("patmm1")
        params = random_params(cfg, rng)
        transition = params.transition
        transition[rng.random(transition.shape) < 0.9] = 0.0
        transition += 0.1 * np.eye(len(transition))
        params.transition = transition / transition.sum(axis=1, keepdims=True)
        space = build_state_space(cfg, params)
        assert space.n_edges >= _dp.SPARSE_MIN_EDGES
        for _ in range(100):
            values = np.array(_dp.sample_generative(space, 12, rng).output_values)
            values[8] = rng.integers(1, space.bar_length + 1)
            em = np.full((12, space.bar_length), -np.inf)
            em[np.arange(12), values - 1] = 0.0
            if log_space_forward(space, em, space.log_initial)[0] == -np.inf:
                break
        else:
            pytest.fail("no infeasible rhythm found")
        assert not _dp._reaches(space, em, space.log_initial, 12)
        route_to(monkeypatch, kernel)
        ran = kernels_run(monkeypatch)
        assert _dp.forward(space, em, return_table=True) == (-np.inf, None)
        assert ran == [f"_{kernel}_forward"]

    def test_infeasible_data_matches_reference(self, kernel, monkeypatch):
        space = point_mass_space()
        em = np.full((3, 8), -np.inf)
        em[:, 7] = 0.0  # only value 8 can explain the data
        assert log_space_forward(space, em, space.log_initial) == (-np.inf, None)
        # no edge can produce value 8, so the kernels know no path exists
        assert SCALED_KERNELS[kernel](space, em, space.log_initial) == (-np.inf, None, -np.inf)
        messages = set()
        for route in (kernel, "rerun"):
            route_to(monkeypatch, route)
            assert _dp.forward(space, em, return_table=True) == (-np.inf, None)
            with pytest.raises(InferenceError) as exc:
                _dp.ffbs(space, em, np.random.default_rng(0))
            messages.add(str(exc.value))
        assert messages == {"zero data likelihood: nothing to sample"}

    def test_gibbs_fit_on_far_durations_matches_reference(self, kernel, monkeypatch):
        cfg = ModelConfig.from_name("notemm1b")
        base = uniform_params(cfg.plain())
        base.initial = np.eye(8)[0]
        base.transition = np.tile(np.eye(8)[0], (8, 1))
        hp = assemble_hyperparams(base, cfg)
        tp = TimingParams(seconds_per_unit=0.25, sigma_t=0.01)
        perf = Performance((0.0, 2.0, 4.0, 6.0))
        results = []
        for route in (kernel, "rerun"):
            route_to(monkeypatch, route)
            _, result = gibbs_fit(cfg, hp, perf, tp, GibbsConfig(iterations=2, seed=1))
            results.append(result)
        scaled, reference = results
        assert scaled.note_values == reference.note_values == (1, 1, 1)
        assert np.isfinite(reference.trace).all()
        np.testing.assert_allclose(scaled.trace, reference.trace, rtol=REL_TOL)


class TestForwardRouting:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_each_route_reaches_its_kernel(self, route, rng, monkeypatch):
        _, _, space, tp, durations = tiny_instance("metmm1", rng, n_notes=6)
        em = TranscriptionHmm(space, tp).emission_matrix(durations)
        want, want_table = log_space_forward(space, em, space.log_initial)
        route_to(monkeypatch, route)
        ran = kernels_run(monkeypatch)
        got, got_table = _dp.forward(space, em, return_table=True)
        assert ran == [f"_{route}_forward"]
        assert got == pytest.approx(want, rel=REL_TOL)
        assert_tables_match(got_table, want_table)

    def test_default_routes_by_edge_count(self, rng, monkeypatch):
        small = ModelConfig.from_name("metmm2")
        small_space = build_state_space(small, random_params(small, rng))
        large = ModelConfig.from_name("patmm1")
        large_space = build_state_space(large, random_params(large, rng))
        assert small_space.n_edges < _dp.SPARSE_MIN_EDGES <= large_space.n_edges
        tp = TimingParams.from_bpm(144.0, 0.04)
        ran = kernels_run(monkeypatch)
        for space in (small_space, large_space):
            _dp.forward(space, TranscriptionHmm(space, tp).emission_matrix(np.full(8, 0.3)))
        assert ran == ["_batched_forward", "_scaled_forward"]

    def test_large_space_uses_scaled_kernel_and_agrees(self, rng):
        cfg = ModelConfig.from_name("patmm1")
        space = build_state_space(cfg, random_params(cfg, rng))
        assert space.n_edges >= _dp.SPARSE_MIN_EDGES
        tp = TimingParams.from_bpm(144.0, 0.04)
        perf = synthesize(sample_score(space, 30, rng), tp, rng)
        em = TranscriptionHmm(space, tp).emission_matrix(perf.durations)
        want, want_table = log_space_forward(space, em, space.log_initial)
        got, got_table = _dp.forward(space, em, return_table=True)
        assert got == pytest.approx(want, rel=1e-12)
        assert_tables_match(got_table, want_table)

    @pytest.mark.parametrize("name", ["notemm2", "metmm1sdb", "patmm1"])
    def test_blocks_of_steps_match_one_block(self, name, rng, monkeypatch):
        # blocks of 3 steps: 20 notes run the first step, then 6 blocks and a
        # part block
        _, _, space, tp, durations = tiny_instance(name, rng, n_notes=20)
        em = TranscriptionHmm(space, tp).emission_matrix(durations)
        want, want_table, _ = _dp._batched_forward(space, em, space.log_initial)
        monkeypatch.setattr(_dp, "BATCH_MAX_ENTRIES", 3 * space.trans.n_edges + 2)
        assert list(_dp._step_edges(space, 20, _dp.BATCH_MAX_ENTRIES))[-1][1:] == (19, 20)
        got, got_table, _ = _dp._batched_forward(space, em, space.log_initial)
        assert got == pytest.approx(want, rel=REL_TOL)
        assert_tables_match(got_table, want_table)


# Forced-rerun totals and table digests, recorded from the log-space
# edge-list recursion that the rerun ran before it was the sum-product sweep.
RECORDED_RERUNS = {
    "notemm0": (-1.8764883372013612, "9db8dd4afd0ef2c2d39f"),  # 5 states, 30 edges
    "notemm0b": (-2.8256776506556665, "b96407ebd5932ff111d1"),  # 5 states, 30 edges
    "notemm1": (-1.3293738947445832, "0f2394a383f16d155c2b"),  # 5 states, 30 edges
    "notemm1b": (-2.873819425178242, "5d4818f3574168fa04c2"),  # 5 states, 30 edges
    "notemm1sb": (-0.8266846581058853, "a764fa3421c737a02aec"),  # 11 states, 99 edges
    "notemm1db": (-0.1003480442927921, "77c1310a0cd20e3ad72b"),  # 9 states, 45 edges
    "notemm1sdb": (1.1333880166125152, "a31d31046d915912537a"),  # 9 states, 49 edges
    "notemm2": (-1.6714855859345132, "a8cc073f488c87400866"),  # 20 states, 84 edges
    "notemm2b": (-2.709683854643716, "dcc861c0d2fdf9b033ad"),  # 20 states, 84 edges
    "metmm0": (-4.641505466511395, "ccf3d94a8f02896ebbb9"),  # 5 states, 50 edges
    "metmm0b": (-3.481490776259704, "4760b3a22c888dad99d1"),  # 5 states, 50 edges
    "metmm1": (-2.6287530394516074, "5aebbabcaf3d1b107a11"),  # 5 states, 50 edges
    "metmm1b": (-2.1567675036257525, "5a4be387f6d0a883fac9"),  # 5 states, 50 edges
    "metmm1sb": (-0.31104413677318044, "8b76bfe02bb712dff43b"),  # 15 states, 174 edges
    "metmm1db": (0.19329228091577422, "be5a4e31fa2183541be8"),  # 27 states, 135 edges
    "metmm1sdb": (0.7701930710343151, "85a1a2db6f461be34023"),  # 18 states, 98 edges
    "metmm2": (-1.662643232302713, "9ae211a8c55cc9cdfd75"),  # 16 states, 80 edges
    "metmm2b": (-1.2321762524903597, "d9a2b82f2712bd6784f6"),  # 16 states, 80 edges
    "patmm0": (0.48548726929093844, "563da7a538cc623861e6"),  # 12 states, 79 edges
    "patmm0b": (-0.5304637541905781, "837c01528a1768f47a34"),  # 12 states, 79 edges
    "patmm1": (0.03257263014551137, "de64f9fb5c4a14c59d0d"),  # 12 states, 79 edges
    "patmm1b": (0.0710889363047984, "0402ed75a66685ded546"),  # 12 states, 79 edges
    "patmm1sb": (0.7658100814076698, "ad3f9592cbccc0d54017"),  # 12 states, 75 edges
    "patmm1db": (1.0276023511424641, "250a33df3e114e7b38e6"),  # 13 states, 47 edges
    "patmm1sdb": (0.9630036354304928, "b6671201071eea04919e"),  # 29 states, 174 edges
}


def table_digest(table) -> str:
    h = hashlib.sha256()
    for row in table:
        h.update(np.ascontiguousarray(row, dtype=np.float64).tobytes())
    return h.hexdigest()[:20]


@pytest.mark.parametrize("name", ALL_VARIANTS)
def test_forced_rerun_reproduces_recorded_tables(name, monkeypatch):
    rng = np.random.default_rng([20261019, zlib.crc32(name.encode())])
    _, _, space, tp, durations = tiny_instance(name, rng, n_notes=6)
    em = TranscriptionHmm(space, tp).emission_matrix(durations)
    route_to(monkeypatch, "rerun")
    ran = kernels_run(monkeypatch)
    total, table = _dp.forward(space, em, return_table=True)
    assert (total, table_digest(table)) == RECORDED_RERUNS[name]
    # a table-less rerun keeps one slot and gives the same total
    assert _dp.forward(space, em) == total
    assert ran == ["_batched_forward", "sum_sweep"] * 2


def grouped_sample_backward(space, em, table, rng, size):
    """Backward sampling one state group at a time: at each step the draws
    at one state, ascending, take one `rng.random` call of their number."""
    def weights(logw):
        w = np.exp(logw - np.max(logw))
        w /= w.sum()
        return w

    def draw(w, k):
        cdf = np.cumsum(w)
        cdf /= cdf[-1]
        return cdf.searchsorted(rng.random(k), side="right")

    n_steps = em.shape[0]
    cur = draw(weights(table[n_steps]), size)
    eids = np.empty((size, n_steps), dtype=np.int64)
    for n in range(n_steps - 1, -1, -1):
        edges = space.first if n == 0 else space.trans
        groups = {}
        for i, state in enumerate(cur.tolist()):
            groups.setdefault(state, []).append(i)
        for state, members in sorted(groups.items()):
            sl = edges.in_slice(state)
            logw = table[n][edges.src[sl]] + edges.logp[sl] + em[n, edges.out[sl] - 1]
            eids[members, n] = sl.start + draw(weights(logw), len(members))
        cur = edges.src[eids[:, n]]
    return eids


def path_log_prob(space, em, init, eids):
    """A path's log prior plus emissions, summed one step at a time."""
    log_prob = 0.0
    for n in range(em.shape[0] - 1, -1, -1):
        edges = space.first if n == 0 else space.trans
        log_prob += float(edges.logp[eids[n]] + em[n, edges.out[eids[n]] - 1])
    return log_prob + float(init[space.first.src[eids[0]]])


class TestBackwardSampler:
    """One sampler for `ffbs`, `ffbs_batch` and `gibbs_fit`, against the
    grouped reference, with its weights precomputed or scored per step."""

    @staticmethod
    def check(space, em, seeds):
        _, table = _dp.forward(space, em, return_table=True)
        init = space.log_initial
        for seed in seeds:
            want = grouped_sample_backward(space, em, table, np.random.default_rng(seed), 50)
            got = _dp._sample_backward(space, em, table, np.random.default_rng(seed), 50)
            np.testing.assert_array_equal(got, want)
            batch = _dp.ffbs_batch(space, em, np.random.default_rng(seed), 50)
            for g, w in zip(batch, _dp._paths_from_edges(space, want)):
                np.testing.assert_array_equal(g, w)
            one = grouped_sample_backward(space, em, table, np.random.default_rng(seed), 1)[0]
            path = _dp.ffbs(space, em, np.random.default_rng(seed))
            boundary, states, outs = (a[0] for a in _dp._paths_from_edges(space, one[None]))
            assert path.state_indices == states.tolist()
            assert path.output_values == outs.tolist()
            if not space.virtual_boundary:
                assert path.boundary_index == boundary
            assert path.log_prob == pytest.approx(path_log_prob(space, em, init, one), rel=1e-12)

    @pytest.mark.parametrize("weights", ["one block", "blocks of a few steps", "per step"])
    @pytest.mark.parametrize("name", ALL_VARIANTS)
    def test_same_edges_as_the_grouped_sampler(self, name, weights, rng, monkeypatch):
        _, _, space, tp, durations = tiny_instance(name, rng, n_notes=8)
        route_to(monkeypatch, "scaled" if weights == "per step" else "batched")
        if weights == "blocks of a few steps":
            monkeypatch.setattr(_dp, "BATCH_MAX_ENTRIES", 3 * space.n_edges)
            assert len(list(_dp._step_edges(space, 8, _dp.BATCH_MAX_ENTRIES))) > 2
        assert _dp._batched(space) == (weights != "per step")
        self.check(space, TranscriptionHmm(space, tp).emission_matrix(durations), range(4))

    def test_skewed_in_degrees_reduce_by_segment(self, rng):
        # state 1 is entered from all 8 states and every other from one:
        # padding each state's in-edges to 8 would take 64 entries for 15
        # edges, so the per-state maxima come from `reduceat`
        transition = np.zeros((8, 8))
        transition[:, 0] = 0.5
        transition[np.arange(7), np.arange(1, 8)] = 0.5
        transition[7, 0] = 1.0
        space = notemm1_space(np.full(8, 1 / 8), transition)
        tp = TimingParams(seconds_per_unit=0.25, sigma_t=0.3)
        em = TranscriptionHmm(space, tp).emission_matrix(rng.uniform(0.15, 2.0, size=12))
        want, want_table = log_space_forward(space, em, space.log_initial)
        got, got_table, _ = _dp._batched_forward(space, em, space.log_initial)
        assert got == pytest.approx(want, rel=REL_TOL)
        assert_tables_match(got_table, want_table)
        self.check(space, em, range(4))
        assert space.trans._structure["in_pad"] is False

    def test_large_space_scores_in_edges_per_step(self, rng, monkeypatch):
        cfg = ModelConfig.from_name("patmm1")
        space = build_state_space(cfg, random_params(cfg, rng))
        tp = TimingParams.from_bpm(144.0, 0.04)
        em = TranscriptionHmm(space, tp).emission_matrix(
            synthesize(sample_score(space, 20, rng), tp, rng).durations)
        assert not _dp._batched(space)
        made = []
        real = _dp._in_edge_weights
        monkeypatch.setattr(_dp, "_in_edge_weights", lambda *a: made.append(1) or real(*a))
        self.check(space, em, range(2))
        assert made == []

    def test_uniforms_are_drawn_up_front(self, rng):
        _, _, space, tp, durations = tiny_instance("metmm1", rng, n_notes=5)
        em = TranscriptionHmm(space, tp).emission_matrix(durations)
        _, table = _dp.forward(space, em, return_table=True)
        sampler = np.random.default_rng(7)
        _dp._sample_backward(space, em, table, sampler, 3)
        follower = np.random.default_rng(7)
        follower.random(6 * 3)
        assert sampler.random() == follower.random()


class TestEmissionChecks:
    @staticmethod
    def spaces(rng):
        small = build_state_space(ModelConfig.from_name("notemm1"),
                                  random_params(ModelConfig.from_name("notemm1"), rng))
        large = build_state_space(ModelConfig.from_name("patmm1"),
                                  random_params(ModelConfig.from_name("patmm1"), rng))
        return small, large

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_and_plus_inf_are_rejected_naming_the_step(self, bad, rng):
        tp = TimingParams.from_bpm(144.0, 0.04)
        small, large = self.spaces(rng)
        assert small.n_edges < _dp.SPARSE_MIN_EDGES <= large.n_edges
        for space in (small, large):
            em = TranscriptionHmm(space, tp).emission_matrix(np.full(6, 0.3))
            em[3, 2] = bad
            em[5, 0] = bad
            calls = [
                lambda: _dp.forward(space, em),
                lambda: _dp.forward(space, em, beam_width=4),
                lambda: _dp.viterbi(space, em),
                lambda: _dp.viterbi(space, em, beam_width=4),
                lambda: _dp.ffbs(space, em, rng),
                lambda: _dp.ffbs_batch(space, em, rng, 5),
            ]
            for call in calls:
                with pytest.raises(ValueError, match="NaN or \\+inf entry at step 4"):
                    call()

    def test_emission_width_must_be_the_bar_length(self, rng):
        tp = TimingParams.from_bpm(144.0, 0.04)
        for space in self.spaces(rng):
            em = TranscriptionHmm(space, tp).emission_matrix(np.full(6, 0.3))[:, :4]
            calls = [
                lambda: _dp.forward(space, em),
                lambda: _dp.viterbi(space, em),
                lambda: _dp.ffbs(space, em, rng),
                lambda: _dp.ffbs_batch(space, em, rng, 5),
            ]
            for call in calls:
                with pytest.raises(ValueError, match="has 4 columns, the space's bar length is 8"):
                    call()

    def test_integer_arguments_are_checked(self, rng):
        space, _ = self.spaces(rng)
        em = TranscriptionHmm(space, TimingParams.from_bpm(144.0, 0.04)).emission_matrix(
            np.full(6, 0.3))
        with pytest.raises(ValueError, match="size must be an integer, got 2.5"):
            _dp.ffbs_batch(space, em, rng, size=2.5)
        with pytest.raises(ValueError, match="beam_width must be an integer, got 2.5"):
            _dp.viterbi(space, em, beam_width=2.5)
        # integral floats stand for their ints, as in `GibbsConfig`
        for got, want in zip(_dp.ffbs_batch(space, em, np.random.default_rng(3), size=2.0),
                             _dp.ffbs_batch(space, em, np.random.default_rng(3), size=2)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("name", ["metmm1", "patmm1"])
    @pytest.mark.parametrize("size", [3, 10])
    def test_log_init_must_span_the_boundary_slot(self, name, size, rng):
        cfg = ModelConfig.from_name(name)
        space = build_state_space(cfg, random_params(cfg, rng))
        assert space.log_initial.size not in (3, 10)
        with pytest.raises(ValueError, match=f"log_init has {size} entries, the space's "
                                             f"boundary slot has {space.log_initial.size}"):
            _dp.forward(space, np.zeros((5, 8)), log_init=np.zeros(size))

    def test_minus_inf_stays_legal(self, rng):
        space, _ = self.spaces(rng)
        em = np.full((4, space.bar_length), -np.inf)
        em[:, 0] = 0.0
        assert np.isfinite(_dp.forward(space, em))
        assert _dp.viterbi(space, em).output_values == [1] * 4


class TestEmptiedBeam:
    """A beam that keeps no feasible state raises, naming how many slots
    it kept; the narrower widths of its ladder may empty first."""

    @staticmethod
    def emissions(duration):
        # random tables with divisions and shifts leave dead-end states
        cfg = ModelConfig.from_name("notemm1sd")
        space = build_state_space(cfg, random_params(cfg, np.random.default_rng(0)))
        tp = TimingParams.from_bpm(144.0, 0.04)
        return space, TranscriptionHmm(space, tp).emission_matrix(np.full(12, duration))

    @pytest.mark.parametrize("duration, width, step", [(0.6, 1, 4), (0.7, 2, 2)])
    def test_message_names_the_step(self, duration, width, step, rng):
        space, em = self.emissions(duration)
        calls = [
            lambda: _dp.viterbi(space, em, beam_width=width),
            lambda: _dp.forward(space, em, beam_width=width),
            lambda: _dp.ffbs(space, em, rng, beam_width=width),
        ]
        for call in calls:
            with pytest.raises(InferenceError) as err:
                call()
            assert str(err.value) == f"beam emptied at step {step}: no feasible state retained"
        # the next width passes the emptied ladder step and keeps a path
        assert np.isfinite(_dp.viterbi(space, em, beam_width=2 * width).log_prob)
        assert np.isfinite(_dp.forward(space, em, beam_width=2 * width))


def backpointer_viterbi(space, em):
    """Textbook Viterbi with stored back-pointers (lowest edge id on ties)."""
    delta = space.log_initial.copy()
    back = []
    edges = space.first
    for n in range(em.shape[0]):
        scores = delta[edges.src] + edges.logp + em[n][edges.out - 1]
        new = np.full(edges.n_dst, -np.inf)
        arg = np.full(edges.n_dst, -1)
        for d in range(edges.n_dst):
            sl = edges.in_slice(d)
            if sl.stop > sl.start:
                k = int(np.argmax(scores[sl]))
                new[d], arg[d] = scores[sl][k], sl.start + k
        delta = new
        back.append(arg)
        edges = space.trans
    state = int(np.argmax(delta))
    states, outs = [state], []
    for n in range(em.shape[0] - 1, -1, -1):
        edges = space.first if n == 0 else space.trans
        e = back[n][state]
        outs.append(int(edges.out[e]))
        state = int(edges.src[e])
        states.append(state)
    boundary = states.pop()
    return boundary, states[::-1], outs[::-1], float(delta.max())


def assert_same_path(space, path, reference):
    boundary, states, outs, score = reference
    if not space.virtual_boundary:
        assert path.boundary_index == boundary
    assert path.state_indices == states
    assert path.output_values == outs
    assert path.log_prob == score


class TestArgmaxFreeViterbi:
    @pytest.mark.parametrize("name", ALL_VARIANTS)
    def test_same_path_as_backpointers(self, name, rng):
        for _ in range(3):
            _, _, space, tp, durations = tiny_instance(name, rng, n_notes=6)
            em = TranscriptionHmm(space, tp).emission_matrix(durations)
            self._check(space, em)

    @pytest.mark.parametrize("name", ["notemm1", "metmm1", "metmm2", "patmm1", "notemm1sd"])
    def test_same_path_under_ties(self, name, rng):
        # uniform tables and integer-valued emissions tie many paths exactly
        _, _, space, _, _ = tiny_instance(name, rng, n_notes=1)
        space = build_state_space(space.config, uniform_params(space.config))
        em = np.round(rng.normal(size=(6, space.bar_length)))
        self._check(space, em)
        self._check(space, np.zeros((6, space.bar_length)))

    def _check(self, space, em):
        assert_same_path(space, _dp.viterbi(space, em), backpointer_viterbi(space, em))


def notemm1_space(initial, transition):
    cfg = ModelConfig.from_name("notemm1")
    params = uniform_params(cfg)
    params.initial = np.asarray(initial, dtype=np.float64)
    params.transition = np.asarray(transition, dtype=np.float64)
    return build_state_space(cfg, params)


def two_path_emissions(durations):
    """notemm1 whose only paths are all 1s and all 2s, and emissions of
    `durations` under a 5 ms timing model: a value 0.25 s off costs 1250 nats."""
    transition = np.tile(np.eye(8)[0], (8, 1))
    transition[1] = np.eye(8)[1]
    space = notemm1_space(np.r_[0.5, 0.5, np.zeros(6)], transition)
    tp = TimingParams(seconds_per_unit=0.25, sigma_t=0.005)
    return space, TranscriptionHmm(space, tp).emission_matrix(durations)


def unseen_value_emissions():
    """notemm1 where state 3 holds e^-20 of the mass after step 1 and alone
    produces value 2 at step 2, with probability e^-740, and value 2 emits
    0 where value 1 emits -1000.  The path through it scores about -760,
    every other path -1000 or less; the CSR kernel's products for value 2
    (e^-760) underflow, so it flushes that path."""
    initial = np.r_[1.0 - np.exp(-20.0), 0.0, np.exp(-20.0), np.zeros(5)]
    transition = np.tile(np.eye(8)[0], (8, 1))
    transition[2, 1] = np.exp(-740.0)
    em = np.full((2, 8), -np.inf)
    em[0, [0, 2]] = 0.0
    em[1, :2] = [-1000.0, 0.0]
    return notemm1_space(initial, transition), em


class TestCertifiedViterbi(TestArgmaxFreeViterbi):
    """The argmax-free cases again, and the underflow cases, all through the
    certified sweep, forced onto every space."""

    @pytest.fixture(autouse=True)
    def certified(self, monkeypatch):
        """Force the certified sweep; `self.ran` gets one entry per decode
        that reaches it."""
        monkeypatch.setattr(_dp, "SPARSE_MIN_EDGES", 0)
        monkeypatch.setattr(_dp, "CERTIFY_MIN_EDGES", 0)
        self.ran = []
        real = _dp._certified_sweep

        def spy(*args):
            self.ran.append(True)
            return real(*args)

        monkeypatch.setattr(_dp, "_certified_sweep", spy)

    def _check(self, space, em):
        ran = len(self.ran)
        super()._check(space, em)
        assert self.ran[ran:] == [True]

    def test_far_durations_underflow_emission_weights(self):
        # every duration sits at value 8 and the model only produces value 1
        space = point_mass_space()
        em = TranscriptionHmm(space, TimingParams(seconds_per_unit=0.25, sigma_t=0.01)
                              ).emission_matrix(np.full(50, 2.0))
        assert_same_path(space, _dp.viterbi(space, em), backpointer_viterbi(space, em))
        assert self.ran == [True]

    @staticmethod
    def absorbing_space():
        # state 1 (value 1) is absorbing; states 2-8 mix uniformly over 2-8
        cloud = np.r_[0.0, np.full(7, 1 / 7)]
        return notemm1_space(np.r_[0.5, np.full(7, 1 / 14)],
                             np.vstack([np.eye(8)[0], np.tile(cloud, (7, 1))]))

    def test_flushed_losing_states_are_pruned(self):
        # value 1 emits -3 and the others 0: the all-1s path loses 3 nats a
        # step, a cloud path log(7) < 3, so the cloud holds the optimum.  The
        # scaled forward flushes state 1 past step 250; the mass it may have
        # dropped stays far below every cloud path, so the decode is certified
        space = self.absorbing_space()
        em = np.tile(np.r_[-3.0, np.zeros(7)], (300, 1))
        _, table, _ = _dp._scaled_forward(space, em, space.log_initial)
        assert not np.isfinite(table[300][0])
        path = _dp.viterbi(space, em)
        assert 1 not in path.output_values
        assert_same_path(space, path, backpointer_viterbi(space, em))
        assert self.ran == [True]

    def test_flushed_optimum_is_certified(self):
        # value 1 emits 0 and the others 1: the cloud's summed mass outgrows
        # the all-1s path by a nat per step while each cloud path loses
        # log(7) - 1.  The all-1s path is the optimum, yet past step 745 its
        # scaled forward entry is flushed to 0, and so is its plain backward
        # entry before step 55; the sweep's own maxima and the raised
        # backward pass still bound it
        space = self.absorbing_space()
        em = np.tile(np.r_[0.0, np.ones(7)], (800, 1))
        _, table, _ = _dp._scaled_forward(space, em, space.log_initial)
        assert not np.isfinite(table[800][0])
        path = _dp.viterbi(space, em)
        assert path.output_values == [1] * 800
        assert_same_path(space, path, backpointer_viterbi(space, em))
        assert self.ran == [True]

    def check_flushed_optimum(self, space, em, values):
        """The decode, certified, finds the optimum the scaled forward
        flushed; it reads no forward table."""
        path = _dp.viterbi(space, em)
        assert path.output_values == values
        assert_same_path(space, path, backpointer_viterbi(space, em))
        assert self.ran == [True]

    def test_flushed_path_that_grows_back_is_certified(self):
        # the first duration fits value 2 and the rest fit value 1: the
        # scaled forward flushes the all-1s path at step 1, which then
        # becomes the optimum
        space, em = two_path_emissions([0.5] + [0.25] * 7)
        _, table, _ = _dp._scaled_forward(space, em, space.log_initial)
        assert not np.isfinite(table[1][0])
        self.check_flushed_optimum(space, em, [1] * 8)

    def test_path_flushed_by_both_passes_is_certified(self):
        # the all-2s path fits the three middle notes and is the optimum, but
        # the scaled forward flushes it at step 1 and a plain backward pass
        # at step 4.  The bounds' backward pass raises its entries instead,
        # so the optimum's bound stays finite and reaches L
        space, em = two_path_emissions([0.25, 0.5, 0.5, 0.5, 0.25])
        _, table, _ = _dp._scaled_forward(space, em, space.log_initial)
        assert not np.isfinite(table[1][1])
        self.check_flushed_optimum(space, em, [2] * 5)

    def test_path_through_a_value_no_state_produces_is_certified(self):
        # the optimum, through state 3 and value 2, is flushed by the scaled
        # forward at step 2, where no current state produces value 2
        space, em = unseen_value_emissions()
        _, table, _ = _dp._scaled_forward(space, em, space.log_initial)
        assert not np.isfinite(table[2][1])
        self.check_flushed_optimum(space, em, [3, 2])

    @pytest.mark.parametrize("name", ALL_VARIANTS)
    def test_widened_restriction_keeps_the_path(self, name, rng, monkeypatch):
        # k = 1, 2, 4, ...: most restrictions have no path and must widen
        monkeypatch.setattr(_dp, "TOP_K_START", 1)
        monkeypatch.setattr(_dp, "TOP_K_GROWTH", 2)
        for _ in range(3):
            _, _, space, tp, durations = tiny_instance(name, rng, n_notes=6)
            em = TranscriptionHmm(space, tp).emission_matrix(durations)
            self._check(space, em)

    def test_restriction_without_a_path_grows_to_every_state(self, monkeypatch):
        # values 5-8 fit the first note 1000 nats better than value 1, but
        # only state 1 produces the second note's value 1.  The raised
        # backward pass bounds the dead-end states 5-8 about 485 nats below
        # the step's total, so they outrank state 1 and fill the top 4: that
        # restriction has no path, and k = 16 keeps every state
        transition = np.zeros((8, 8))
        transition[0, 0] = 1.0
        transition[1:4] = 1 / 8
        transition[4:, 4:] = 1 / 4
        space = notemm1_space(np.full(8, 1 / 8), transition)
        em = np.full((2, 8), -np.inf)
        em[0, 0], em[0, 4:] = -1000.0, 0.0
        em[1, 0] = 0.0
        ks = []
        real = _dp._top

        def top(values, k):
            ks.append(k)
            return real(values, k)

        monkeypatch.setattr(_dp, "_top", top)
        path = _dp.viterbi(space, em)
        assert sorted(set(ks)) == [_dp.TOP_K_START, _dp.TOP_K_START * _dp.TOP_K_GROWTH]
        assert _dp.TOP_K_START < space.n_states <= _dp.TOP_K_START * _dp.TOP_K_GROWTH
        monkeypatch.setattr(_dp, "CERTIFY_MIN_EDGES", 10**9)
        plain = _dp.viterbi(space, em)
        assert path.output_values == [1, 1]
        assert (path.boundary_index, path.state_indices, path.output_values, path.log_prob) == (
            plain.boundary_index, plain.state_indices, plain.output_values, plain.log_prob)

    def test_infeasible_data_raises_as_the_plain_sweep(self):
        em = np.full((3, 8), -np.inf)
        em[:, 7] = 0.0
        with pytest.raises(InferenceError, match="no feasible path at step 1"):
            _dp.viterbi(point_mass_space(), em)

    def test_large_space_keeps_few_states(self, rng, monkeypatch):
        cfg = ModelConfig.from_name("patmm1")
        space = build_state_space(cfg, random_params(cfg, rng))
        tp = TimingParams.from_bpm(144.0, 0.04)
        perf = synthesize(sample_score(space, 40, rng), tp, rng)
        em = TranscriptionHmm(space, tp).emission_matrix(perf.durations)
        kept = []
        real = _dp._pruned_sweep

        def spy(space, em, init, keep, scratch):
            sizes = []
            kept.append(sizes)

            def recording(n, delta):
                ids = keep(n, delta)
                sizes.append(space.n_states if ids is None else len(ids))
                return ids

            return real(space, em, init, recording, scratch)

        monkeypatch.setattr(_dp, "_pruned_sweep", spy)
        path = _dp.viterbi(space, em)
        assert_same_path(space, path, backpointer_viterbi(space, em))
        # the last sweep is the certified one; it visits few of the states
        assert sum(kept[-1]) < 0.2 * space.n_states * em.shape[0]


@pytest.mark.parametrize("use_max", [True, False], ids=["max", "sum"])
def test_full_step_in_blocks_matches_one_block(use_max, rng):
    cfg = ModelConfig.from_name("patmm1")
    space = build_state_space(cfg, random_params(cfg, rng))
    edges = space.trans
    tp = TimingParams.from_bpm(144.0, 0.04)
    perf = synthesize(sample_score(space, 3, rng), tp, rng)
    em = TranscriptionHmm(space, tp).emission_matrix(perf.durations)
    row = np.log(rng.dirichlet(np.ones(space.n_states)))
    row[rng.random(space.n_states) < 0.3] = -np.inf
    scores = row[edges.src] + edges.logp + em[1][edges.out - 1]
    whole = (np.empty(edges.n_edges), np.empty(edges.n_edges))
    want = _dp._full_step(edges, row, em[1], whole, use_max)
    assert np.isneginf(np.delete(want, edges._rows)).all()  # no in-edge
    if use_max:
        assert np.array_equal(want[edges._rows], np.maximum.reduceat(scores, edges._starts))
    else:
        with np.errstate(divide="ignore"):
            sums = np.log(np.add.reduceat(np.exp(scores), edges._starts))
        np.testing.assert_allclose(want[edges._rows], sums, rtol=1e-12)
    # a large space's scratch holds a share of its edges, not all of them
    assert _dp._scratch(space)[0].size < edges.n_edges
    # down to blocks of a single destination's in-edges
    for size in (edges._seg_counts.max(), 1000, _dp._scratch(space)[0].size):
        scratch = (np.empty(size), np.empty(size))
        assert np.array_equal(_dp._full_step(edges, row, em[1], scratch, use_max), want)


@pytest.mark.parametrize("least", [_dp.CERTIFY_MIN_EDGES, 0])
def test_out_edge_index_in_blocks_is_a_stable_sort(least, rng, monkeypatch):
    # patmm1's 65.8k edges make two blocks by default and seven from 0
    monkeypatch.setattr(_dp, "CERTIFY_MIN_EDGES", least)
    cfg = ModelConfig.from_name("patmm1")
    edges = build_state_space(cfg, random_params(cfg, rng)).trans.reweighted(None)
    edges._structure = {}
    assert _dp._block_length(edges.n_edges) < edges.n_edges
    order, indptr = edges.src_view()
    assert order.dtype == np.int32
    assert np.array_equal(order, np.argsort(edges.src, kind="stable"))
    assert np.array_equal(indptr, np.searchsorted(edges.src[order], np.arange(edges.n_src + 1)))


def test_only_relaxed_steps_read_the_out_edge_index(rng, monkeypatch):
    # the plain sweep's full steps read in-edges; a beam relaxes out-edges
    _, _, space, tp, durations = tiny_instance("metmm1sb", rng, n_notes=6)
    em = TranscriptionHmm(space, tp).emission_matrix(durations)
    read = []
    real = _dp.EdgeSet.src_view
    monkeypatch.setattr(_dp.EdgeSet, "src_view", lambda edges: read.append(edges) or real(edges))
    assert space.n_edges < _dp.CERTIFY_MIN_EDGES and 2 < space.n_states
    _dp.viterbi(space, em)
    assert read == []
    _dp.viterbi(space, em, beam_width=2)
    assert read


class TestOneForwardPerIteration:
    def test_gibbs_fit_calls_forward_once_per_iteration(self, rng, monkeypatch):
        calls = []
        original = _dp.forward

        def counting(*args, **kwargs):
            calls.append(kwargs.get("return_table", False))
            return original(*args, **kwargs)

        monkeypatch.setattr(_dp, "forward", counting)
        cfg = ModelConfig.from_name("metmm1b")
        hp = assemble_hyperparams(random_params(cfg.plain(), rng), cfg)
        tp = TimingParams.from_bpm(144.0, 0.04)
        space = build_state_space(cfg.plain(), hp.base)
        perf = synthesize(sample_score(space, 20, rng), tp, rng)
        gibbs_fit(cfg, hp, perf, tp, GibbsConfig(iterations=4, seed=2))
        assert calls == [True] * 5  # iteration 0 (the base) plus 4 sweeps

    def test_exact_decode_runs_no_forward_pass(self, rng, monkeypatch):
        calls = []
        original = _dp.forward

        def counting(*args, **kwargs):
            calls.append(kwargs.get("return_table", False))
            return original(*args, **kwargs)

        monkeypatch.setattr(_dp, "forward", counting)
        cfg = ModelConfig.from_name("patmm1")
        params = random_params(cfg, rng)
        space = build_state_space(cfg, params)
        assert space.n_edges >= _dp.CERTIFY_MIN_EDGES
        tp = TimingParams.from_bpm(144.0, 0.04)
        perf = synthesize(sample_score(space, 20, rng), tp, rng)
        em = TranscriptionHmm(space, tp).emission_matrix(perf.durations)
        path = _dp.viterbi(space, em)
        assert calls == []
        result = transcribe(cfg, params, perf, tp)
        assert result.note_values == tuple(path.output_values)
        assert calls == []  # the decode's upper backward pass gave the likelihood
        assert result.log_likelihood == pytest.approx(original(space, em), rel=1e-12)


class TestFfbsTotal:
    """An FFBS draw carries its forward pass's total, bit for bit."""

    @pytest.mark.parametrize("name, beam_width", [("metmm1", None), ("patmm1", None),
                                                  ("patmm1", 64)])
    def test_draw_carries_the_forward_total(self, name, beam_width, rng):
        cfg = ModelConfig.from_name(name)
        space = build_state_space(cfg, random_params(cfg, rng))
        assert _dp._batched(space) == (name == "metmm1")
        assert beam_width is None or beam_width < space.n_states  # a true beam
        tp = TimingParams.from_bpm(144.0, 0.04)
        perf = synthesize(sample_score(space, 20, rng), tp, rng)
        em = TranscriptionHmm(space, tp).emission_matrix(perf.durations)
        path = _dp.ffbs(space, em, rng, beam_width=beam_width)
        assert path.log_likelihood == _dp.forward(space, em, beam_width=beam_width)

    def test_gibbs_trace_starts_at_the_base_draw(self, rng):
        cfg = ModelConfig.from_name("metmm1b")
        hp = assemble_hyperparams(random_params(cfg.plain(), rng), cfg)
        tp = TimingParams.from_bpm(144.0, 0.04)
        space = build_state_space(cfg.plain(), hp.base)
        perf = synthesize(sample_score(space, 20, rng), tp, rng)
        _, result = gibbs_fit(cfg, hp, perf, tp, GibbsConfig(iterations=2, seed=5))
        em = TranscriptionHmm(space, tp).emission_matrix(perf.durations)
        base = _dp.ffbs(space, em, np.random.default_rng(5))
        assert result.trace[0] == base.log_likelihood


def transcribe_counting_forwards(monkeypatch, config, params, perf, tp):
    """``(result, calls)``: `transcribe` on every space certified, and one
    entry per `_dp.forward` call it made."""
    monkeypatch.setattr(_dp, "CERTIFY_MIN_EDGES", 0)
    calls = []
    original = _dp.forward

    def counting(*args, **kwargs):
        calls.append(kwargs.get("return_table", False))
        return original(*args, **kwargs)

    monkeypatch.setattr(_dp, "forward", counting)
    return transcribe(config, params, perf, tp), calls


class TestLikelihoodFromTheCertificate:
    @pytest.mark.parametrize("name", ALL_VARIANTS)
    def test_upper_total_matches_the_forward(self, name, rng, monkeypatch):
        # Bayesian variants decode their structure with the sampled tables
        config, params, space, tp, durations = tiny_instance(name, rng, n_notes=6)
        perf = Performance(tuple(np.concatenate([[0.0], np.cumsum(durations)])))
        em = TranscriptionHmm(space, tp).emission_matrix(perf.durations)
        want = _dp.forward(space, em)
        path = _dp.viterbi(space, em)  # the plain sweep on a tiny space
        result, calls = transcribe_counting_forwards(monkeypatch, config.plain(), params,
                                                     perf, tp)
        assert calls == []
        assert result.log_likelihood == pytest.approx(want, rel=1e-12)
        assert result.note_values == tuple(path.output_values)
        assert result.path_log_prob == path.log_prob

    def test_loose_bound_falls_back_to_the_forward(self, monkeypatch):
        # values 1 and 2 alternate with probability 1 - 1e-4, and every
        # duration fits value 1: each step realizes about 1e-4 of the most
        # out-mass a source can send, so the bound on what the raises add
        # grows some 9 nats a step and passes e^-40 of the total well within
        # 100 steps
        cfg = ModelConfig.from_name("notemm1")
        params = uniform_params(cfg)
        params.initial = np.r_[0.5, 0.5, np.zeros(6)]
        params.transition = np.zeros((8, 8))
        params.transition[0, :2] = params.transition[1, 1::-1] = [1e-4, 1 - 1e-4]
        params.transition[2:, 0] = 1.0
        space = build_state_space(cfg, params)
        tp = TimingParams(seconds_per_unit=0.25, sigma_t=0.02)
        perf = Performance(tuple(0.25 * np.arange(101.0)))
        em = TranscriptionHmm(space, tp).emission_matrix(perf.durations)
        want = _dp.forward(space, em)
        result, calls = transcribe_counting_forwards(monkeypatch, cfg, params, perf, tp)
        assert _dp.viterbi(space, em).log_likelihood is None
        assert calls == [False]
        assert result.log_likelihood == want


# Note values and traces of seeded fits recorded before the forward pass was
# shared with the sampler; the RNG stream and the decode must not move.
RECORDED_FITS = {
    "notemm1b": (
        [7, 8, 1, 1, 2, 3, 1, 8, 1, 7, 8, 7, 8, 7, 4, 7, 2, 6, 2, 8,
         7, 8, 1, 8, 7, 8, 7, 8, 7, 8, 7, 5, 5, 5, 8, 1, 8, 7, 8, 4],
        [24.333475415788396, 27.304631439075273, 21.454356105711813, 23.442162517349303],
    ),
    "patmm1b": (
        [3, 1, 1, 2, 2, 3, 1, 2, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
         3, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 2, 6, 4, 1, 3],
        [40.50115095301152, 47.725674964912635, 51.44934907555786, 50.986263288697714],
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDED_FITS))
def test_seeded_fit_reproduces_recorded_result(name):
    rng = np.random.default_rng([20260816, 3])
    cfg = ModelConfig.from_name(name)
    base = random_params(cfg.plain(), rng)
    tp = TimingParams.from_bpm(144.0, 0.04)
    perf = synthesize(sample_score(build_state_space(cfg.plain(), base), 40, rng), tp, rng)
    _, result = gibbs_fit(cfg, assemble_hyperparams(base, cfg), perf, tp,
                          GibbsConfig(iterations=3, seed=11))
    values, trace = RECORDED_FITS[name]
    assert list(result.note_values) == values
    np.testing.assert_allclose(result.trace, trace, rtol=0, atol=1e-9)
