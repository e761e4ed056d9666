"""The scaled sparse forward kernel, the argmax-free Viterbi sweep, its
certified pruned form and the one-forward-per-iteration Gibbs loop, each
against a reference."""
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


@pytest.fixture
def scaled_everywhere(monkeypatch):
    """Route every exact forward through the scaled kernel, even tiny spaces."""
    monkeypatch.setattr(_dp, "SPARSE_MIN_EDGES", 0)


class TestScaledForward:
    @pytest.mark.parametrize("name", ALL_VARIANTS)
    def test_matches_edge_list_reference(self, name, rng):
        for _ in range(3):
            _, _, space, tp, durations = tiny_instance(name, rng, n_notes=6)
            em = TranscriptionHmm(space, tp).emission_matrix(durations)
            want, want_table = _dp._edge_list_forward(space, em, space.log_initial)
            got, got_table = _dp._scaled_forward(space, em, space.log_initial)
            assert got == pytest.approx(want, rel=REL_TOL)
            assert_tables_match(got_table, want_table)

    @pytest.mark.parametrize("name", ["notemm1", "metmm2", "patmm1", "metmm1sd"])
    def test_indicator_emissions_and_restricted_init(self, name, rng):
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
        got, got_table = _dp._scaled_forward(space, em, init)
        assert np.isfinite(want)
        assert got == pytest.approx(want, rel=REL_TOL)
        assert_tables_match(got_table, want_table)

    def test_far_duration_underflows_exp_but_stays_finite(self, scaled_everywhere):
        # every duration sits at value 8, the model only produces value 1, so
        # exp(em - max_v em) is exactly 0 for every reachable value
        space = point_mass_space()
        tp = TimingParams(seconds_per_unit=0.25, sigma_t=0.01)
        em = TranscriptionHmm(space, tp).emission_matrix(np.full(50, 2.0))
        assert np.exp(em[0, 0] - em[0].max()) == 0.0
        want, want_table = _dp._edge_list_forward(space, em, space.log_initial)
        got, got_table = _dp._scaled_forward(space, em, space.log_initial)
        assert np.isfinite(want) and want < -1e5
        assert got == pytest.approx(want, rel=REL_TOL)
        assert_tables_match(got_table, want_table)
        assert _dp.forward(space, em) == got
        path = _dp.ffbs(space, em, np.random.default_rng(0))
        assert path.output_values == [1] * 50

    def test_infeasible_data_matches_reference(self, monkeypatch):
        space = point_mass_space()
        em = np.full((3, 8), -np.inf)
        em[:, 7] = 0.0  # only value 8 can explain the data
        assert _dp._edge_list_forward(space, em, space.log_initial) == (-np.inf, None)
        assert _dp._scaled_forward(space, em, space.log_initial) == (-np.inf, None)
        messages = set()
        for crossover in (0, 10**9):
            monkeypatch.setattr(_dp, "SPARSE_MIN_EDGES", crossover)
            assert _dp.forward(space, em, return_table=True) == (-np.inf, None)
            with pytest.raises(InferenceError) as exc:
                _dp.ffbs(space, em, np.random.default_rng(0))
            messages.add(str(exc.value))
        assert messages == {"zero data likelihood: nothing to sample"}

    def test_gibbs_fit_on_far_durations_matches_reference(self, monkeypatch):
        cfg = ModelConfig.from_name("notemm1b")
        base = uniform_params(cfg.plain())
        base.initial = np.eye(8)[0]
        base.transition = np.tile(np.eye(8)[0], (8, 1))
        hp = assemble_hyperparams(base, cfg)
        tp = TimingParams(seconds_per_unit=0.25, sigma_t=0.01)
        perf = Performance((0.0, 2.0, 4.0, 6.0))
        results = []
        for crossover in (0, 10**9):
            monkeypatch.setattr(_dp, "SPARSE_MIN_EDGES", crossover)
            _, result = gibbs_fit(cfg, hp, perf, tp, GibbsConfig(iterations=2, seed=1))
            results.append(result)
        scaled, reference = results
        assert scaled.note_values == reference.note_values == (1, 1, 1)
        assert np.isfinite(reference.trace).all()
        np.testing.assert_allclose(scaled.trace, reference.trace, rtol=REL_TOL)

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
        _, table = _dp._scaled_forward(space, em, space.log_initial)
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
        _, table = _dp._scaled_forward(space, em, space.log_initial)
        assert not np.isfinite(table[800][0])
        assert not np.isfinite(_dp.backward(space, em)[1][0])
        path = _dp.viterbi(space, em)
        assert path.output_values == [1] * 800
        assert_same_path(space, path, backpointer_viterbi(space, em))
        assert self.ran == [False]

    def test_flushed_path_that_grows_back_falls_back_to_the_plain_sweep(self):
        # the first duration fits value 2 and the rest fit value 1: the
        # scaled forward flushes the all-1s path at step 1, which then
        # becomes the optimum.  No step's entries bound it; the mass dropped
        # at step 1 does
        space, em = two_path_emissions([0.5] + [0.25] * 7)
        _, table = _dp._scaled_forward(space, em, space.log_initial)
        assert not np.isfinite(table[1][0])
        path = _dp.viterbi(space, em)
        assert path.output_values == [1] * 8
        assert_same_path(space, path, backpointer_viterbi(space, em))
        assert self.ran == [False]

    def test_path_flushed_by_both_passes_falls_back_to_the_plain_sweep(self):
        # the all-2s path fits the three middle notes and is the optimum, but
        # the scaled forward flushes it at step 1 and a plain backward pass
        # at step 4.  The bounds' backward pass raises its entries instead,
        # so the mass dropped at step 1 is bounded by a reachable score
        space, em = two_path_emissions([0.25, 0.5, 0.5, 0.5, 0.25])
        _, table = _dp._scaled_forward(space, em, space.log_initial)
        assert not np.isfinite(table[1][1])
        assert not np.isfinite(_dp.backward(space, em)[4][1])
        path = _dp.viterbi(space, em)
        assert path.output_values == [2] * 5
        assert_same_path(space, path, backpointer_viterbi(space, em))
        assert self.ran == [False]

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
