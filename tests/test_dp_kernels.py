"""The scaled forward kernels and their underflow guard, the backward
sampler, the argmax-free Viterbi sweep, its certified pruned form and the
one-forward-per-iteration Gibbs loop, each against a reference."""
import numpy as np
import pytest

from rhythmscribe import _dp
from rhythmscribe.inference import GibbsConfig, InferenceError, gibbs_fit
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

from conftest import ALL_VARIANTS, tiny_instance

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
    "edge_list", the reference, which no space's size picks."""
    if route == "edge_list":
        monkeypatch.setattr(_dp, "_exact_forward", lambda space, em, init, keep_table:
                            _dp._edge_list_forward(space, em, init, keep_table))
    else:
        monkeypatch.setattr(_dp, "SPARSE_MIN_EDGES", ROUTES[route])


def kernels_run(monkeypatch):
    """Names of the forward kernels run, in call order, from now on."""
    ran = []
    for name in ("_edge_list_forward", "_batched_forward", "_scaled_forward"):
        def spy(*args, _real=getattr(_dp, name), _name=name, **kwargs):
            ran.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(_dp, name, spy)
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
            want, want_table = _dp._edge_list_forward(space, em, space.log_initial)
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
        init = np.full(space.n_boundary, -np.inf)
        b = path.boundary_index if path.boundary_index is not None else 0
        init[b] = space.log_initial[b]
        want, want_table = _dp._edge_list_forward(space, em, init)
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
        want, want_table = _dp._edge_list_forward(space, em, space.log_initial)
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
        reference = _dp._edge_list_forward(space, em, space.log_initial)
        if want is not None:
            assert reference[0] == pytest.approx(want, abs=0.005)
        total, _, log_flushed = SCALED_KERNELS[kernel](space, em, space.log_initial)
        assert log_flushed > -_dp.DROP_MARGIN
        assert not total == pytest.approx(reference[0], rel=REL_TOL)
        route_to(monkeypatch, kernel)
        ran = kernels_run(monkeypatch)
        got, got_table = _dp.forward(space, em, return_table=True)
        assert ran == [f"_{kernel}_forward", "_edge_list_forward"]
        assert got == pytest.approx(reference[0], rel=REL_TOL)
        assert_tables_match(got_table, reference[1])
        assert (got_table.lost == -np.inf).all()  # log space drops nothing

    def test_init_flushed_by_its_normalization_is_on_the_ledger(self, kernel, rng):
        # one boundary entry 800 nats below the largest: exp(init - max)
        # flushes it, so slot 0 of the ledger must cover its mass.  No decode
        # isolates this entry while edge weights are at most 1: the first
        # step's own entry covers whatever a flushed boundary state passes on
        _, _, space, tp, durations = tiny_instance("metmm1", rng, n_notes=4)
        em = TranscriptionHmm(space, tp).emission_matrix(durations)
        init = np.log(np.full(space.n_boundary, 1.0 / space.n_boundary))
        init[1] -= 800.0
        assert np.exp(init[1] - init.max()) == 0.0
        _, table, _ = SCALED_KERNELS[kernel](space, em, init)
        assert init[1] <= table.lost[0] < init.max() - 700.0

    def test_value_no_state_produces_is_weighed_at_its_emission(self, kernel, monkeypatch):
        # the CSR kernel's products for value 2 underflow, so it weighs no
        # value above value 1's emission; its ledger counts them at value
        # 2's, 1000 nats higher, and the guard reruns the pass.  The batched
        # kernel weighs each edge with its own probability and stays exact
        space, em = unseen_value_emissions()
        want, want_table = _dp._edge_list_forward(space, em, space.log_initial)
        assert want == pytest.approx(-760.0, abs=0.5)
        route_to(monkeypatch, kernel)
        ran = kernels_run(monkeypatch)
        got, got_table = _dp.forward(space, em, return_table=True)
        assert ran == {"batched": ["_batched_forward"],
                       "scaled": ["_scaled_forward", "_edge_list_forward"]}[kernel]
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
        want, want_table = _dp._edge_list_forward(space, em, space.log_initial)
        route_to(monkeypatch, kernel)
        backward_passes = []
        real = _dp._scaled_backward
        monkeypatch.setattr(_dp, "_scaled_backward",
                            lambda *a, **k: backward_passes.append(k) or real(*a, **k))
        ran = kernels_run(monkeypatch)
        got, got_table = _dp.forward(space, em, return_table=True)
        assert backward_passes == [{"upper": True}]  # the second stage ran
        assert ran == [f"_{kernel}_forward"]  # and cleared the total
        assert got == pytest.approx(want, rel=REL_TOL)
        assert_tables_match(got_table, want_table)

    def test_flushed_path_through_a_dead_step_trips_the_guard(self, kernel, monkeypatch):
        # the first duration fits value 2, so the all-1s path is flushed at
        # step 1; step 2 can only be value 1, which the all-2s path cannot
        # produce, so the kernels keep no mass there
        space, em = two_path_emissions([0.5, 0.25])
        em[1, 1:] = -np.inf
        want, want_table = _dp._edge_list_forward(space, em, space.log_initial)
        assert np.isfinite(want)
        assert SCALED_KERNELS[kernel](space, em, space.log_initial) == (-np.inf, None, np.inf)
        route_to(monkeypatch, kernel)
        ran = kernels_run(monkeypatch)
        got, got_table = _dp.forward(space, em, return_table=True)
        assert ran == [f"_{kernel}_forward", "_edge_list_forward"]
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
            if _dp._edge_list_forward(space, em, space.log_initial)[0] == -np.inf:
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
        assert _dp._edge_list_forward(space, em, space.log_initial) == (-np.inf, None)
        # no edge can produce value 8, so the kernels know no path exists
        assert SCALED_KERNELS[kernel](space, em, space.log_initial) == (-np.inf, None, -np.inf)
        messages = set()
        for route in (kernel, "edge_list"):
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
        for route in (kernel, "edge_list"):
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
        want, want_table = _dp._edge_list_forward(space, em, space.log_initial)
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
        want, want_table = _dp._edge_list_forward(space, em, space.log_initial)
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
        want, want_table = _dp._edge_list_forward(space, em, space.log_initial)
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

    def test_minus_inf_stays_legal(self, rng):
        space, _ = self.spaces(rng)
        em = np.full((4, space.bar_length), -np.inf)
        em[:, 0] = 0.0
        assert np.isfinite(_dp.forward(space, em))
        assert _dp.viterbi(space, em).output_values == [1] * 4


def backpointer_viterbi(space, em):
    """Textbook Viterbi with stored back-pointers (lowest edge id on ties)."""
    delta = space.log_initial.copy()
    back = []
    edges = space.first
    for n in range(em.shape[0]):
        scores = edges.step_scores(delta, em[n])
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
        """Force the certified sweep; `self.ran` records, per decode, whether
        it reached the certificate rather than falling back."""
        monkeypatch.setattr(_dp, "SPARSE_MIN_EDGES", 0)
        monkeypatch.setattr(_dp, "CERTIFY_MIN_EDGES", 0)
        self.ran = []
        real = _dp._certified_sweep

        def spy(*args):
            steps = real(*args)
            self.ran.append(steps is not None)
            return steps

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

    def test_flushed_optimum_falls_back_to_the_plain_sweep(self):
        # value 1 emits 0 and the others 1: the cloud's summed mass outgrows
        # the all-1s path by a nat per step while each cloud path loses
        # log(7) - 1.  The all-1s path is the optimum, yet past step 745 its
        # scaled forward entry is flushed to 0, and so is its backward entry
        # before step 55
        space = self.absorbing_space()
        em = np.tile(np.r_[0.0, np.ones(7)], (800, 1))
        _, table, _ = _dp._scaled_forward(space, em, space.log_initial)
        assert not np.isfinite(table[800][0])
        assert not np.isfinite(_dp.backward(space, em)[1][0])
        path = _dp.viterbi(space, em)
        assert path.output_values == [1] * 800
        assert_same_path(space, path, backpointer_viterbi(space, em))
        assert self.ran == [False]

    def check_flushed_table(self, space, em, table, values):
        """Decode from the scaled kernel's own flushed `table`, which must
        fall back to the plain sweep, then from `forward`, whose guard
        hands it the exact table instead."""
        reference = backpointer_viterbi(space, em)
        path = _dp.viterbi(space, em, table=table)
        assert path.output_values == values
        assert_same_path(space, path, reference)
        assert self.ran == [False]
        assert_same_path(space, _dp.viterbi(space, em), reference)

    def test_flushed_path_that_grows_back_falls_back_to_the_plain_sweep(self):
        # the first duration fits value 2 and the rest fit value 1: the
        # scaled forward flushes the all-1s path at step 1, which then
        # becomes the optimum.  No step's entries bound it; the mass dropped
        # at step 1 does
        space, em = two_path_emissions([0.5] + [0.25] * 7)
        _, table, _ = _dp._scaled_forward(space, em, space.log_initial)
        assert not np.isfinite(table[1][0])
        self.check_flushed_table(space, em, table, [1] * 8)

    def test_path_flushed_by_both_passes_falls_back_to_the_plain_sweep(self):
        # the all-2s path fits the three middle notes and is the optimum, but
        # the scaled forward flushes it at step 1 and a plain backward pass
        # at step 4.  The bounds' backward pass raises its entries instead,
        # so the mass dropped at step 1 is bounded by a reachable score
        space, em = two_path_emissions([0.25, 0.5, 0.5, 0.5, 0.25])
        _, table, _ = _dp._scaled_forward(space, em, space.log_initial)
        assert not np.isfinite(table[1][1])
        assert not np.isfinite(_dp.backward(space, em)[4][1])
        self.check_flushed_table(space, em, table, [2] * 5)

    def test_path_through_a_value_no_state_produces_falls_back(self):
        # the optimum, through state 3 and value 2, is flushed at step 2
        # where no current state produces value 2; the ledger counts those
        # products at value 2's emission, which brings them within reach of L
        space, em = unseen_value_emissions()
        _, table, _ = _dp._scaled_forward(space, em, space.log_initial)
        assert not np.isfinite(table[2][1])
        self.check_flushed_table(space, em, table, [3, 2])

    @pytest.mark.parametrize("name", ALL_VARIANTS)
    def test_widened_restriction_keeps_the_path(self, name, rng, monkeypatch):
        # k = 1, 2, 4, ...: most restrictions have no path and must widen
        monkeypatch.setattr(_dp, "TOP_K_START", 1)
        monkeypatch.setattr(_dp, "TOP_K_GROWTH", 2)
        for _ in range(3):
            _, _, space, tp, durations = tiny_instance(name, rng, n_notes=6)
            em = TranscriptionHmm(space, tp).emission_matrix(durations)
            self._check(space, em)

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

        def spy(space, em, init, keep):
            sizes = []
            kept.append(sizes)

            def recording(n):
                ids = keep(n)
                sizes.append(space.n_states if ids is None else len(ids))
                return ids

            return real(space, em, init, recording)

        monkeypatch.setattr(_dp, "_pruned_sweep", spy)
        path = _dp.viterbi(space, em)
        assert_same_path(space, path, backpointer_viterbi(space, em))
        # the last sweep is the certified one; it visits few of the states
        assert sum(kept[-1]) < 0.2 * space.n_states * em.shape[0]

    def test_decode_from_a_held_table(self, rng):
        cfg = ModelConfig.from_name("patmm1")
        space = build_state_space(cfg, random_params(cfg, rng))
        tp = TimingParams.from_bpm(144.0, 0.04)
        em = TranscriptionHmm(space, tp).emission_matrix(
            synthesize(sample_score(space, 20, rng), tp, rng).durations)
        _, table = _dp.forward(space, em, return_table=True)
        assert _dp.viterbi(space, em, table=table) == _dp.viterbi(space, em)
        assert self.ran == [True, True]
        # the decode consumed the table, and nothing else accepts it now
        assert table == []
        with pytest.raises(ValueError, match="consumed"):
            _dp.ffbs(space, em, rng, table=table)
        with pytest.raises(ValueError, match="not a forward table"):
            _dp.viterbi(space, em, table=[row for row in _dp.forward(space, em[:5], return_table=True)[1]])

    def test_a_table_without_a_ledger_decodes_with_the_plain_sweep(self, rng):
        cfg = ModelConfig.from_name("patmm1")
        space = build_state_space(cfg, random_params(cfg, rng))
        tp = TimingParams.from_bpm(144.0, 0.04)
        em = TranscriptionHmm(space, tp).emission_matrix(
            synthesize(sample_score(space, 20, rng), tp, rng).durations)
        _, table = _dp.forward(space, em, return_table=True)
        # a plain-list copy of the exact table, and a 1-wide beam's table,
        # whose entries fall short of the exact alphas and so bound nothing
        plains = [[row.copy() for row in table],
                  _dp.forward(space, em, beam_width=1, return_table=True)[1]]
        want = _dp.viterbi(space, em, table=table)
        assert self.ran == [True]
        for plain in plains:
            assert _dp.viterbi(space, em, table=plain) == want
            assert plain == []  # consumed all the same
        assert self.ran == [True]  # neither reached the certificate


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
