"""State-space topology and weighing: builds, counts and the topology cache.

Every space a build returns comes from a cached topology weighed with the
parameters.  The digests below were recorded with a builder that
enumerated each space from scratch on every call; a build through the
topology cache must reproduce them array for array, and so must the
sufficient statistics `gather_counts` reads off seeded FFBS draws.
"""
import hashlib
import tracemalloc
import zlib

import numpy as np
import pytest

from rhythmscribe import _dp, models
from rhythmscribe.inference import GibbsConfig, gather_counts, gibbs_fit, transcribe
from rhythmscribe.models import (
    ModelConfig,
    build_state_space,
    pattern_vocabulary,
    random_params,
)
from rhythmscribe.timing import TimingParams, TranscriptionHmm, synthesize
from rhythmscribe.training import assemble_hyperparams

from conftest import ALL_VARIANTS, tiny_config


def _thin(rows, rng):
    """Zero about a third of each row's entries (never its largest), renormalize."""
    rows = np.array(rows, dtype=np.float64)
    if rows.shape[-1] < 2:
        return rows
    flat = rows.reshape(-1, rows.shape[-1])
    drop = rng.random(flat.shape) < 0.35
    drop[np.arange(len(flat)), np.argmax(flat, axis=1)] = False
    flat[drop] = 0.0
    flat /= flat.sum(axis=1, keepdims=True)
    return flat.reshape(rows.shape)


def zeroed_params(config, rng, patterns=None):
    """Dirichlet-random tables with zeros injected into every table row."""
    p = random_params(config.plain(), rng, patterns)
    p.initial = _thin(p.initial, rng)
    for name in ("transition", "transition2", "unigram", "shift_probs"):
        if getattr(p, name) is not None:
            setattr(p, name, _thin(getattr(p, name), rng))
    if p.division_probs is not None:
        p.division_probs = tuple(_thin(row, rng) for row in p.division_probs)
    return p


def reference_cases():
    """(case id, config, params): every variant at its tiny bar length plus a
    few larger and pattern-subset instances."""
    specs = [(name, None, None) for name in ALL_VARIANTS]
    specs += [
        ("patmm1", 4, None), ("patmm1sd", 3, None), ("metmm1sd", 5, None),
        ("notemm1sd", 4, None), ("metmm2", 6, None), ("patmm1d", 4, None),
        ("metmm1sd", 3, None), ("patmm1sd", 2, None), ("notemm1s", 4, None),
        ("patmm1", 4, (5, 0, 14, 9, 2, 7)), ("patmm1sd", 3, (6, 2, 0, 4)),
        ("metmm1sd", 8, None), ("notemm1sd", 8, None),
    ]
    for name, nb, subset in specs:
        config = tiny_config(name) if nb is None else ModelConfig.from_name(name, bar_length=nb)
        case = f"{name}-nb{config.bar_length}"
        patterns = None
        if subset is not None:
            vocab = pattern_vocabulary(config.bar_length)
            patterns = tuple(vocab[i] for i in subset)
            case += "-subset"
        rng = np.random.default_rng([20261018, zlib.crc32(case.encode())])
        yield case, config, zeroed_params(config, rng, patterns)


def space_digest(space) -> str:
    h = hashlib.sha256()
    h.update(repr((space.state_tags, space.boundary_tags, space.virtual_boundary)).encode())
    h.update(np.asarray(space.log_initial, np.float64).tobytes())
    if space.initial_positions is not None:
        h.update(np.asarray(space.initial_positions, np.int64).tobytes())
    for edges in (space.first, space.trans):
        h.update(repr((edges.n_src, edges.n_dst)).encode())
        for a in (edges.src, edges.dst, edges.out):
            h.update(np.asarray(a, np.int64).tobytes())
        h.update(np.asarray(edges.logp, np.float64).tobytes())
    return h.hexdigest()[:20]


def counts_digest(space, n_draws=4, n_notes=6) -> str:
    """Digest of gather_counts over seeded FFBS draws on `space`."""
    rng = np.random.default_rng([20261018, space.n_states, space.n_edges])
    tp = TimingParams(seconds_per_unit=0.25, sigma_t=0.3)
    h = hashlib.sha256()
    for _ in range(n_draws):
        durations = rng.uniform(0.15, 0.25 * space.bar_length, size=n_notes)
        em = TranscriptionHmm(space, tp).emission_matrix(durations)
        counts = space.layout.tables(gather_counts(space, _dp.ffbs(space, em, rng)))
        for name in ("initial", "transition", "transition2", "unigram", "shift_probs"):
            a = counts.get(name)
            h.update(b"-" if a is None else np.asarray(a, np.float64).tobytes())
        for row in counts.get("division_probs", ()):
            h.update(np.asarray(row, np.float64).tobytes())
    return h.hexdigest()[:20]


def tag_map(tags, narrow_tags) -> np.ndarray:
    """The index in `tags` of each of `narrow_tags`."""
    index = {tag: i for i, tag in enumerate(tags)}
    return np.array([index[tag] for tag in narrow_tags], dtype=np.int64)


def assert_restricts_to(space, narrow):
    """`space` restricted to the boundary and state tags of `narrow` holds
    exactly `narrow`'s finite edges and log_initial, bit for bit; every edge
    that leaves a narrow boundary or state for another state, and every
    other boundary state, weighs -inf: no mass leaves the narrow states."""
    bmap = tag_map(space.boundary_tags, narrow.boundary_tags)
    smap = tag_map(space.state_tags, narrow.state_tags)
    assert np.array_equal(space.log_initial[bmap], narrow.log_initial)
    assert np.all(np.delete(space.log_initial, bmap) == -np.inf)
    for edges, mine, src_map in ((space.first, narrow.first, bmap),
                                 (space.trans, narrow.trans, smap)):
        leaves = np.isin(edges.src, src_map) & ~np.isin(edges.dst, smap)
        assert np.all(edges.logp[leaves] == -np.inf)
        keep = np.isfinite(edges.logp) & np.isin(edges.src, src_map) & np.isin(edges.dst, smap)
        got = [edges.src[keep], edges.dst[keep], edges.out[keep], edges.logp[keep]]
        want = [src_map[mine.src], smap[mine.dst], mine.out, mine.logp]
        assert np.isfinite(mine.logp).all()
        for g, w in zip(by_src_dst_out(got), by_src_dst_out(want), strict=True):
            assert np.array_equal(g, w)


def by_src_dst_out(rows) -> list:
    """The edge arrays `rows` (src, dst, out, ...) in (src, dst, out) order."""
    order = np.lexsort(rows[2::-1])
    return [a[order] for a in rows]


def ffbs_draws(space, n_draws=4, n_notes=6):
    """(path, slot counts) of seeded FFBS draws on `space`, from a stream
    that does not depend on the space's size."""
    rng = np.random.default_rng(20261020)
    tp = TimingParams(seconds_per_unit=0.25, sigma_t=0.3)
    for _ in range(n_draws):
        durations = rng.uniform(0.15, 0.25 * space.bar_length, size=n_notes)
        em = TranscriptionHmm(space, tp).emission_matrix(durations)
        path = _dp.ffbs(space, em, rng)
        yield path, gather_counts(space, path)


def path_tags(space, path) -> tuple:
    """A path by boundary and state tags, with its output values."""
    return (space.boundary_tags[path.boundary_index or 0],
            [space.state_tags[s] for s in path.state_indices], list(path.output_values))


# case -> (space digest, gather_counts digest), recorded from scratch builds
RECORDED = {
    "notemm0-nb5": ("2c139c2aeefa370ca111", "31b16fc94a1ec97dc0ed"),  # 5 states, 18 edges
    "notemm0b-nb5": ("45c6fd03c4cb2eb356db", "c9894852082f6591fd99"),  # 5 states, 28 edges
    "notemm1-nb5": ("0348d631f416c5fbee98", "8502f1943b3e539b65bc"),  # 5 states, 19 edges
    "notemm1b-nb5": ("cf331606791457af2f20", "9c2d417c7448c20502af"),  # 5 states, 22 edges
    "notemm1sb-nb3": ("3f54309618fd11a04d30", "ea9d578c11316edfe18a"),  # 10 states, 57 edges
    "notemm1db-nb3": ("511c0290f47bb2d1cfca", "334212712485d1e4fefd"),  # 9 states, 45 edges
    "notemm1sdb-nb2": ("028a88ef6e74343239e5", "fa7a518701ded4ea1a07"),  # 6 states, 23 edges
    "notemm2-nb4": ("461470b4e60160988f1b", "0def080c8384d1aafd55"),  # 20 states, 66 edges
    "notemm2b-nb4": ("044481453ffc6ef7cd40", "8264a16d173ac70337f5"),  # 20 states, 63 edges
    "metmm0-nb5": ("2c5e107d7084e379fb86", "ea5ec3661f20baeb8983"),  # 5 states, 30 edges
    "metmm0b-nb5": ("248b1d5085b96afc5b1d", "37d49c23e8cf179d36f6"),  # 5 states, 40 edges
    "metmm1-nb5": ("3a595e066dbba5bbbe83", "fce16585765cd4acc6d3"),  # 5 states, 40 edges
    "metmm1b-nb5": ("f9172290541829b54050", "5a7af031ce0a8ef9b9cd"),  # 5 states, 30 edges
    "metmm1sb-nb3": ("7367c1663eedc84615d2", "82ac592995763aec3401"),  # 15 states, 150 edges
    "metmm1db-nb3": ("94cfda1ac89c69d68883", "5c16b6eaa48045606a71"),  # 15 states, 51 edges
    "metmm1sdb-nb2": ("f94629b1c670ce10be4b", "383aba6edc666e9a8729"),  # 10 states, 50 edges
    "metmm2-nb4": ("a6f54f4ad00902b3340d", "f397f9513afcdebe573b"),  # 16 states, 58 edges
    "metmm2b-nb4": ("838cadc255fe7e49e00e", "09faaf3c663a4f99d604"),  # 16 states, 65 edges
    "patmm0-nb3": ("7266e7ae37aaf6639566", "4237ad7993b6cbecf7bf"),  # 12 states, 59 edges
    "patmm0b-nb3": ("35f7f3303c195d5dcb52", "d34bb2aeffd97f54189d"),  # 12 states, 69 edges
    "patmm1-nb3": ("2e35c2f989a2c5cd8b82", "eeaa8b1433739a0835c8"),  # 12 states, 60 edges
    "patmm1b-nb3": ("9679539f80034603d0fc", "479d7a1491042d35fb24"),  # 12 states, 59 edges
    "patmm1sb-nb2": ("493a8cb13d2c5c66f7e6", "68b65622d94b97ea6570"),  # 8 states, 16 edges
    "patmm1db-nb2": ("48e111a4b77b1681731e", "8e3b0f6ec2254075f363"),  # 6 states, 15 edges
    "patmm1sdb-nb2": ("7c52b90368bcaaba471a", "7531bb8f5f84f9563f2e"),  # 8 states, 20 edges
    "patmm1-nb4": ("df38ebc7141ed7986786", "b9419338e3c3a21f1f95"),  # 32 states, 233 edges
    "patmm1sd-nb3": ("e7cc8aeeab0b979ff5ad", "ae2a195085ab406d659b"),  # 40 states, 139 edges
    "metmm1sd-nb5": ("dd633d5d17af52cf23a1", "e6125026cd1f55e56c07"),  # 81 states, 434 edges
    "notemm1sd-nb4": ("c5b18efdd86f9d5be304", "806f51ea8bf5a7d25e35"),  # 33 states, 238 edges
    "metmm2-nb6": ("3451b2b3430c2d0e30b1", "23ab39906b617af136bf"),  # 36 states, 181 edges
    "patmm1d-nb4": ("35b4578f44af3e8b2b8a", "13b7bf4c5b00356c90bf"),  # 250 states, 1614 edges
    # these three were recorded from the cached builder that still had the
    # unnormalized mode, on the topologies the unnormalized cases used to cover
    "metmm1sd-nb3": ("f3c5e5f2af3a8368e209", "599b2d1a8b15c734a279"),  # 37 states, 256 edges
    "patmm1sd-nb2": ("40296fb08d74ca4660ed", "57d7741aec7a5e970657"),  # 10 states, 40 edges
    "notemm1s-nb4": ("95a864d9f8d2bc4cb386", "b6cdfbd4000643b28d51"),  # 15 states, 116 edges
    "patmm1-nb4-subset": ("8612469d47e497892001", "a3460a89d6ba97728a5f"),  # 12 states, 46 edges
    "patmm1sd-nb3-subset": ("4dbf064f3440567153d9", "fbc94b341a8957447315"),  # 54 states, 157 edges
    "metmm1sd-nb8": ("7597cd26a637647e75a1", "d3e6ca68b8d42b4ce90b"),  # 594 states, 10375 edges
    "notemm1sd-nb8": ("b7ccbfc5df2d5c1fa396", "c0f6311ae470e9839360"),  # 220 states, 8015 edges
}


@pytest.fixture
def fresh_cache():
    """An empty topology cache, and a count of the topologies built into it
    since.  The cache is emptied on exit too, so that no topology a test
    built stays cached for later tests."""
    models._topology.cache_clear()
    yield lambda: models._topology.cache_info().misses
    models._topology.cache_clear()


CASES = list(reference_cases())


def test_cases_match_recording():
    assert [case for case, _, _ in CASES] == list(RECORDED)


@pytest.mark.parametrize("case, config, params", CASES, ids=[c for c, _, _ in CASES])
class TestAgainstRecordedBuilds:
    def test_build_matches(self, case, config, params, fresh_cache):
        space = build_state_space(config, params)
        assert space_digest(space) == RECORDED[case][0]
        assert fresh_cache() == 1

    def test_wider_topology_weighs_zeros_in_place(self, case, config, params, fresh_cache):
        wide = build_state_space(config, random_params(config, np.random.default_rng(1),
                                                       params.patterns))
        narrow = build_state_space(config, params)
        theta = wide.layout.flatten(params)
        # the narrow tables build their own topology, unless no entry of
        # theirs is 0 (one case)
        assert fresh_cache() == 1 + (not theta.all())
        assert space_digest(narrow) == RECORDED[case][0]
        # re-weighing the wide space with the narrow tables keeps its states
        # and edges, and restricted to the narrow ones it is the narrow build
        space = wide.reweighed(theta)
        assert (space.n_states, space.n_edges) == (wide.n_states, wide.n_edges)
        assert_restricts_to(space, narrow)
        # so FFBS draws the same paths from both
        for got, want in zip(ffbs_draws(space), ffbs_draws(narrow)):
            assert path_tags(space, got[0]) == path_tags(narrow, want[0])
            assert np.array_equal(got[1], want[1])
            assert got[0].log_likelihood == pytest.approx(want[0].log_likelihood, rel=1e-12)

    def test_counts_match(self, case, config, params, fresh_cache):
        assert counts_digest(build_state_space(config, params)) == RECORDED[case][1]


class TestCache:
    def test_one_topology_per_gibbs_fit(self, fresh_cache, rng):
        cfg = ModelConfig.from_name("metmm1sdb", bar_length=4)
        hp = assemble_hyperparams(random_params(cfg.plain(), rng), cfg)
        tp = TimingParams.from_bpm(144.0, 0.04)
        perf = synthesize(models.sample_score(build_state_space(cfg, hp.base), 12, rng), tp, rng)
        models._topology.cache_clear()
        gibbs_fit(cfg, hp, perf, tp, GibbsConfig(iterations=4, seed=3))
        assert fresh_cache() == 1
        gibbs_fit(cfg, hp, perf, tp, GibbsConfig(iterations=4, seed=4))
        assert fresh_cache() == 1

    def test_repeated_transcribe_builds_nothing(self, fresh_cache, rng):
        cfg = ModelConfig.from_name("patmm1", bar_length=4)
        params = random_params(cfg, rng)
        tp = TimingParams.from_bpm(144.0, 0.04)
        perfs = [synthesize(models.sample_score(build_state_space(cfg, params), 10, rng), tp, rng)
                 for _ in range(3)]
        assert fresh_cache() == 1
        results = [transcribe(cfg, params, perf, tp) for perf in perfs]
        assert fresh_cache() == 1
        assert [r.n_notes for r in results] == [10, 10, 10]

    def test_new_support_builds_a_new_topology(self, fresh_cache, rng):
        cfg = ModelConfig.from_name("notemm1s", bar_length=4)
        build_state_space(cfg, zeroed_params(cfg, rng))
        wide = random_params(cfg, rng)
        space = build_state_space(cfg, wide)
        assert fresh_cache() == 2  # the narrow topology does not cover the wide params
        models._topology.cache_clear()
        assert space_digest(space) == space_digest(build_state_space(cfg, wide))

    def test_bayesian_and_plain_configs_share_a_topology(self, fresh_cache, rng):
        cfg = ModelConfig.from_name("metmm1sb", bar_length=4)
        params = random_params(cfg.plain(), rng)
        plain = build_state_space(cfg.plain(), params)
        bayes = build_state_space(cfg, params)
        assert fresh_cache() == 1
        assert bayes.config.name == "metmm1sb" and plain.config.name == "metmm1s"
        assert space_digest(bayes) == space_digest(plain)

    def test_cache_keeps_the_most_recent(self, fresh_cache):
        def build(name):
            cfg = ModelConfig.from_name(name, bar_length=4)
            build_state_space(cfg, random_params(cfg, np.random.default_rng(0)))
            return fresh_cache()

        assert [build(name) for name in ["notemm1", "metmm1", "patmm1", "notemm2"]] == [1, 2, 3, 4]
        assert build("notemm1") == 4  # a hit, which makes it the most recent
        assert build("metmm2") == 5  # evicts metmm1, now the least recent
        assert build("metmm1") == 6
        assert build("notemm1") == 6

    @pytest.mark.parametrize("name", ["metmm1sd", "patmm1d"])
    def test_fresh_build_peaks_near_what_it_keeps(self, name, fresh_cache):
        # edge chunks are freed as they are joined and unsorted edge arrays
        # as they are sorted: a fresh build holds no edge array twice over
        cfg = ModelConfig.from_name(name, bar_length=8)
        params = models.uniform_params(cfg)
        tracemalloc.start()
        try:
            space = build_state_space(cfg, params)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert space.n_edges > 300_000
        assert peak <= 1.3 * kept

    def test_shared_arrays_are_read_only(self, fresh_cache, rng):
        cfg = ModelConfig.from_name("metmm1sd", bar_length=4)
        space = build_state_space(cfg, random_params(cfg, rng))
        topology = space._topology
        arrays = [topology.outside, topology.initial_positions, *topology.boundary_slots,
                  *topology.state_slots]
        for edges in (topology.first, topology.trans):
            arrays += [edges.slot, edges.src, edges.dst, edges.out]
        assert all(not a.flags.writeable for a in arrays)
        # a space weighed with the topology's own support shares its edges
        assert space.trans.src is topology.trans.src
        with pytest.raises(ValueError):
            space.trans.src[0] = 1
        assert space.trans.logp.flags.writeable


class TestReweighed:
    def test_theta_outside_the_support_is_rejected(self, rng):
        cfg = ModelConfig.from_name("metmm1sd", bar_length=4)
        narrow = build_state_space(cfg, zeroed_params(cfg, rng))
        theta = narrow.layout.flatten(random_params(cfg, rng))
        assert not narrow._topology.covers(theta)
        with pytest.raises(ValueError, match="positive outside this space's topology"):
            narrow.reweighed(theta)
        with pytest.raises(ValueError, match="theta must have shape"):
            narrow.reweighed(theta[:-1])


class TestGatherCounts:
    def test_path_outside_the_space_is_rejected(self, rng):
        cfg = ModelConfig.from_name("notemm1", bar_length=4)
        params = random_params(cfg, rng)
        params.transition[0] = [0.0, 1.0, 0.0, 0.0]
        space = build_state_space(cfg, params)
        path = _dp.PathSample(boundary_index=None, state_indices=[0, 0],
                              output_values=[1, 1], log_prob=0.0)
        with pytest.raises(ValueError, match="not a path of this state space"):
            gather_counts(space, path)
