"""The scaled sparse forward kernel, the argmax-free Viterbi sweep and the
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

    @staticmethod
    def _check(space, em):
        boundary, states, outs, score = backpointer_viterbi(space, em)
        path = _dp.viterbi(space, em)
        if not space.virtual_boundary:
            assert path.boundary_index == boundary
        assert path.state_indices == states
        assert path.output_values == outs
        assert path.log_prob == score


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
