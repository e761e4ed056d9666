"""Acceptance suite: twelve end-to-end correctness and performance criteria.

Each criterion is one test; after its assertions pass it records a one-line
summary that the terminal report prints (see conftest).  Tolerances are
pinned here, next to the assertions they govern.

Criteria 1, 2 and 9 share one sweep of 100 random instances for each of the
25 model variants.  Enumerating every latent path 2500 times from scratch
would dominate the runtime, so the sweep materializes the path list once per
variant (the set of feasible paths depends only on the variant, not on the
sampled parameters, which always have full support) and re-scores it per
instance with array lookups.  The cached structure is verified against the
from-scratch enumeration on the first two instances of every variant.
"""
import functools
import json
import math
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from rhythmscribe.core import Corpus, RhythmScore, interval, to_note_values
from rhythmscribe.evaluation import (
    benchmark,
    cross_entropy,
    distribution_entropy,
    entropy_rate,
    error_rate,
    sparseness_study,
)
from rhythmscribe.inference import (
    GibbsConfig,
    InferenceError,
    gibbs_fit,
    sample_dirichlet,
    transcribe,
)
from rhythmscribe.models import (
    ModelConfig,
    build_state_space,
    random_params,
    sample_corpus,
    sample_score,
    sequence_log_prob,
    uniform_params,
)
from rhythmscribe.timing import TimingParams, TranscriptionHmm, synthesize
from rhythmscribe.training import (
    assemble_hyperparams,
    attach_modification_presets,
    estimate_params,
)
from rhythmscribe import cli, _dp, ffbs_batch, forward, viterbi

from conftest import (
    ALL_VARIANTS,
    _expand,
    oracle_posterior,
    oracle_scores,
    record_criterion,
    tiny_config,
    total_variation,
)

MASTER_SEED = 20260816
INSTANCES_PER_VARIANT = 100


def _path_structure(space, n_notes, cap=90_000):
    """All feasible paths plus the edge indices that produced them.

    Returns None when the path count would exceed `cap` (caller retries with
    fewer notes).  Re-scoring another parameterization of the same variant is
    then a pure gather along the stored edge indices.
    """
    init = space.log_initial
    live = np.flatnonzero(np.isfinite(init))
    path_idx, e0 = _expand(len(live), live, space.first)
    boundary = live[path_idx]
    states = space.first.dst[e0][:, None]
    outputs = space.first.out[e0][:, None]
    edge_seq = [e0]
    for _ in range(1, n_notes):
        path_idx, et = _expand(len(boundary), states[:, -1], space.trans)
        if len(et) > cap:
            return None
        boundary = boundary[path_idx]
        states = np.hstack([states[path_idx], space.trans.dst[et][:, None]])
        outputs = np.hstack([outputs[path_idx], space.trans.out[et][:, None]])
        edge_seq = [e[path_idx] for e in edge_seq] + [et]
    return boundary, states, outputs, edge_seq


def _rescore(space, hmm, durations, structure):
    boundary, states, outputs, edge_seq = structure
    logp = space.log_initial[boundary] + space.first.logp[edge_seq[0]]
    for et in edge_seq[1:]:
        logp = logp + space.trans.logp[et]
    em = hmm.emission_matrix(durations)
    emission = em[np.arange(len(durations))[None, :], outputs - 1].sum(axis=1)
    return logp + emission


@functools.lru_cache(maxsize=1)
def _variant_sweep():
    """Shared work for criteria 1, 2 and 9: per-instance oracle comparisons."""
    tp = TimingParams(seconds_per_unit=0.25, sigma_t=0.3)
    t_forward = 0.0
    fwd_rel_max = 0.0
    vit_hits = 0
    vit_rel_max = 0.0
    beam_hits = 0
    total = 0
    for v_idx, name in enumerate(ALL_VARIANTS):
        config = tiny_config(name)
        structure = None
        for i in range(INSTANCES_PER_VARIANT):
            rng = np.random.default_rng([MASTER_SEED, 1, v_idx, i])
            params = random_params(config, rng)
            space = build_state_space(config, params)
            if structure is None:
                n_notes = 5
                while (structure := _path_structure(space, n_notes)) is None:
                    n_notes -= 1
                    assert n_notes >= 3, name
            n_notes = structure[1].shape[1]
            durations = rng.uniform(0.15, 0.25 * config.bar_length, size=n_notes)
            hmm = TranscriptionHmm(space, tp)

            t0 = time.perf_counter()
            scores = _rescore(space, hmm, durations, structure)
            want_forward = float(logsumexp(scores))
            em = hmm.emission_matrix(durations)
            got_forward = forward(space, em)
            t_forward += time.perf_counter() - t0
            fwd_rel_max = max(
                fwd_rel_max, abs(got_forward - want_forward) / abs(want_forward)
            )

            if i < 2:
                # guard the structure-reuse assumption with a full enumeration
                ob, os_, oo, osc = oracle_scores(space, hmm, durations)
                assert np.array_equal(ob, structure[0]), name
                assert np.array_equal(os_, structure[1]), name
                assert np.array_equal(oo, structure[2]), name
                np.testing.assert_allclose(osc, scores, rtol=1e-12, atol=1e-12)

            best = float(scores.max())
            path = viterbi(space, em)
            score = path.log_prob
            key_b = path.boundary_index if path.boundary_index is not None else 0
            row = np.flatnonzero(
                (structure[0] == key_b)
                & np.all(structure[1] == np.asarray(path.state_indices), axis=1)
            )
            if len(row) == 1 and scores[row[0]] >= best - 1e-9:
                vit_hits += 1
            vit_rel_max = max(vit_rel_max, abs(score - best) / abs(best))

            b_path = viterbi(space, em, beam_width=space.n_states)
            b_score = b_path.log_prob
            if (
                list(b_path.state_indices) == list(path.state_indices)
                and abs(b_score - score) <= 1e-9 * abs(score)
                and abs(
                    forward(space, em, beam_width=space.n_states)
                    - got_forward
                )
                <= 1e-9 * abs(got_forward)
            ):
                beam_hits += 1
            total += 1
    return fwd_rel_max, t_forward, vit_hits, vit_rel_max, beam_hits, total


def test_criterion_01_forward_matches_enumeration():
    """Forward likelihood vs brute-force path enumeration, all 25 variants."""
    fwd_rel_max, t_forward, _, _, _, total = _variant_sweep()
    assert total == 25 * INSTANCES_PER_VARIANT
    assert fwd_rel_max < 1e-9
    assert t_forward < 60.0
    record_criterion(
        1,
        f"PASS forward == enumeration on {total} instances (100 per variant, "
        f"max rel err {fwd_rel_max:.2e} < 1e-9, checks took {t_forward:.1f}s < 60s)",
    )


def test_criterion_02_viterbi_matches_enumerated_argmax():
    """Viterbi path is an enumerated argmax; ties resolve to lowest indices."""
    _, _, vit_hits, vit_rel_max, _, total = _variant_sweep()
    assert vit_hits == total
    assert vit_rel_max < 1e-9
    # documented tie-break: with every path scoring equally, decoding picks
    # the lowest boundary index and the lowest state index at every step
    cfg = ModelConfig.from_name("metmm1", bar_length=4)
    space = build_state_space(cfg, uniform_params(cfg))
    path = _dp.viterbi(space, np.zeros((3, 4)))
    assert path.boundary_index == 0 and list(path.state_indices) == [0, 0, 0]
    record_criterion(
        2,
        f"PASS viterbi == enumerated argmax on {vit_hits}/{total} instances "
        f"(max score rel err {vit_rel_max:.2e}; ties -> lowest index)",
    )


C3_SPECS = [
    ("notemm0", 3), ("notemm1", 3), ("metmm0", 3), ("metmm1", 3),
    ("metmm2", 2), ("patmm0", 2), ("patmm1", 2), ("notemm1s", 2),
    ("notemm1d", 2), ("metmm1s", 2),
]


def test_criterion_03_ffbs_total_variation():
    """FFBS draws match the exact path posterior in total variation."""
    n_draws = 50_000
    worst = 0.0
    for idx, (name, nb) in enumerate(C3_SPECS):
        rng = np.random.default_rng([MASTER_SEED, 300 + idx])
        config = ModelConfig.from_name(name, bar_length=nb)
        params = random_params(config, rng)
        space = build_state_space(config, params)
        assert space.n_states <= 6, f"{name}: {space.n_states} states"
        tp = TimingParams(seconds_per_unit=0.25, sigma_t=0.12)
        n_notes = 2 + idx % 2
        score = sample_score(space, n_notes, rng)
        durations = synthesize(score, tp, rng).durations
        hmm = TranscriptionHmm(space, tp)
        posterior = oracle_posterior(space, hmm, durations)
        boundary, states, _ = ffbs_batch(space, hmm.emission_matrix(durations), rng, size=n_draws)
        freq = {}
        for b, row in zip(boundary, states):
            key = (int(b), tuple(int(s) for s in row))
            freq[key] = freq.get(key, 0) + 1
        tv = total_variation(posterior, {k: v / n_draws for k, v in freq.items()})
        worst = max(worst, tv)
        assert tv < 0.02, f"{name}: TV {tv:.4f}"
    record_criterion(
        3,
        f"PASS FFBS within TV < 0.02 of the exact posterior on 10 instances "
        f"at {n_draws} draws (worst TV {worst:.4f})",
    )


def test_criterion_04_dirichlet_sampler_moments():
    """Dirichlet draws: correct mean, entropy decreasing in concentration."""
    rng = np.random.default_rng([MASTER_SEED, 4])
    base = rng.dirichlet(np.ones(8) * 2.0)
    alpha, n = 10.0, 100_000
    draws = sample_dirichlet(alpha * base, rng, size=n)
    mean = draws.mean(axis=0)
    se = np.sqrt(base * (1 - base) / (alpha + 1) / n)
    dev = np.abs(mean - base) / se
    assert np.all(dev < 3.0), f"worst deviation {dev.max():.2f} SE"

    ladder = (100.0, 10.0, 1.0, 0.1)
    means = []
    for a in ladder:
        d = sample_dirichlet(a * base, rng, size=20_000)
        ent = np.array([distribution_entropy(row) for row in d])
        means.append(float(ent.mean()))
    assert all(x > y for x, y in zip(means, means[1:])), means
    record_criterion(
        4,
        f"PASS Dirichlet mean within 3 SE of the base at 1e5 draws (worst "
        f"{dev.max():.2f} SE); mean entropy decreasing over alpha={ladder}: "
        + " > ".join(f"{m:.3f}" for m in means),
    )


BAYESIAN_VARIANTS = [v for v in ALL_VARIANTS if v.endswith("b")]


def test_criterion_05_large_alpha_collapses_to_plain_model():
    """alpha=1e6 + point-mass presets: Bayesian == non-Bayesian transcription."""
    assert len(BAYESIAN_VARIANTS) == 17
    tp = TimingParams.from_bpm(144.0, 0.02)
    checked = 0
    for v_idx, bayes_name in enumerate(BAYESIAN_VARIANTS):
        # modified pattern spaces grow combinatorially with the bar length;
        # a 4-unit bar keeps their exact inference affordable here
        base = ModelConfig.from_name(bayes_name)
        nb = 4 if base.family == "pat" and (base.shift or base.division) else 8
        bayes_cfg = ModelConfig.from_name(bayes_name, bar_length=nb)
        plain_cfg = bayes_cfg.plain()
        base_cfg = ModelConfig.from_name(
            f"{base.family}mm{base.order}", bar_length=nb
        )
        rng = np.random.default_rng([MASTER_SEED, 500 + v_idx])
        base_params = random_params(base_cfg, rng)
        corpus = sample_corpus(build_state_space(base_cfg, base_params), 20, 10, rng)

        if plain_cfg.shift or plain_cfg.division:
            plain_params = attach_modification_presets(
                base_params, plain_cfg, no_shift_mass=1.0, identity_division_mass=1.0
            )
        else:
            plain_params = base_params
        hp = assemble_hyperparams(
            base_params, bayes_cfg, alpha=1e6,
            no_shift_mass=1.0, identity_division_mass=1.0,
        )
        for p_idx, score in enumerate(corpus.pieces):
            perf = synthesize(score, tp, rng)
            want = transcribe(
                plain_cfg, plain_params, perf, tp,
                GibbsConfig(iterations=1, beam_width=None),
            )
            got = transcribe(
                bayes_cfg, hp, perf, tp,
                GibbsConfig(iterations=3, beam_width=None, seed=9000 + p_idx),
            )
            assert got.note_values == want.note_values, (bayes_name, p_idx)
            assert got.onsets == want.onsets, (bayes_name, p_idx)
            assert got.state_tags == want.state_tags, (bayes_name, p_idx)
            assert got.boundary_tag == want.boundary_tag, (bayes_name, p_idx)
            checked += 1
    assert checked == 17 * 20
    record_criterion(
        5,
        "PASS all 17 Bayesian variants reproduce their non-Bayesian "
        "counterparts' paths exactly on 20 pieces each (alpha=1e6, "
        "point-mass shift/division presets)",
    )


def test_criterion_06_noiseless_transcription_is_exact():
    """sigma_t -> 0: transcription recovers every note value exactly."""
    tp = TimingParams.from_bpm(144.0, 1e-6)
    for f_idx, name in enumerate(("notemm1", "metmm1", "patmm1")):
        rng = np.random.default_rng([MASTER_SEED, 600 + f_idx])
        config = ModelConfig.from_name(name)
        params = random_params(config, rng)
        space = build_state_space(config, params)
        total = 0.0
        for _ in range(20):
            score = sample_score(space, 12, rng)
            perf = synthesize(score, tp, rng)
            result = transcribe(config, params, perf, tp)
            total += error_rate(result.note_values, to_note_values(score))
        assert total == 0.0, f"{name}: nonzero error {total}"
    record_criterion(
        6,
        "PASS noiseless-limit error exactly 0 on 20 random scores for each "
        "family (notemm1, metmm1, patmm1) at 144 BPM, sigma_t=1e-6",
    )


# --- criterion 7 fixtures: a diffuse generic model vs repetitive pieces ----

GENERIC_INTERVAL_PROBS = {1: 0.10, 2: 0.30, 3: 0.02, 4: 0.30, 5: 0.02,
                          6: 0.10, 7: 0.02, 8: 0.14}
RARE_LOOPS = [  # two bars each; exactly one generic-rare interval per cycle
    (3, 1, 4, 4, 4),
    (5, 1, 2, 4, 4),
    (7, 1, 4, 4),
    (3, 4, 1, 4, 4),
    (5, 4, 2, 1, 4),
]


def _generic_met_params():
    cfg = ModelConfig.from_name("metmm1")
    params = random_params(cfg, np.random.default_rng(0))
    trans = np.zeros((8, 8))
    for b in range(8):
        for iv, p in GENERIC_INTERVAL_PROBS.items():
            trans[b, (b + iv) % 8] = p
    params.transition = trans
    params.initial = np.full(8, 0.125)
    return cfg, params


def _repetitive_corpus(reps=20):
    pieces, ids = [], []
    for i in range(20):
        loop = RARE_LOOPS[i % len(RARE_LOOPS)]
        loop = loop[i % len(loop):] + loop[: i % len(loop)]  # rotate
        onsets = np.concatenate([[0], np.cumsum(loop * reps)])
        pieces.append(RhythmScore(tuple(int(t) for t in onsets)))
        ids.append(f"rare-{i:02d}")
    return Corpus(tuple(pieces), tuple(ids))


def test_criterion_07_bayesian_adapts_to_repetitive_pieces():
    """Piece-specific learning beats the generic model on repetitive music."""
    cfg, params = _generic_met_params()
    corpus = _repetitive_corpus()
    tp = TimingParams.from_bpm(144.0, 0.04)
    bayes_cfg = ModelConfig.from_name("metmm1b")
    hp = assemble_hyperparams(params, bayes_cfg)
    reports = benchmark(
        {"metmm1": (cfg, params), "metmm1b": (bayes_cfg, hp)},
        corpus,
        tp,
        seeds=tuple(range(10)),
        gibbs=GibbsConfig(iterations=40),
    )
    by_name = {r.model: r for r in reports}
    plain, bayes = by_name["metmm1"], by_name["metmm1b"]
    assert plain.failures == () and bayes.failures == ()
    assert bayes.error_mean < plain.error_mean

    # learned transition rows are sparser than the generic model
    rate = entropy_rate(params.transition)
    worst_entropy = 0.0
    for i, score in enumerate(corpus.pieces):
        rng = np.random.default_rng([MASTER_SEED, 700 + i])
        perf = synthesize(score, tp, rng)
        learned, _ = gibbs_fit(
            bayes_cfg, hp, perf, tp, GibbsConfig(iterations=40, seed=1000 + i)
        )
        mean_entropy = float(
            np.mean([distribution_entropy(row) for row in learned.transition])
        )
        worst_entropy = max(worst_entropy, mean_entropy)
        assert mean_entropy < rate, (corpus.ids[i], mean_entropy, rate)
    record_criterion(
        7,
        f"PASS Bayesian error {bayes.error_mean:.4f} < generic "
        f"{plain.error_mean:.4f} over 10 seeds; every piece's learned row "
        f"entropy (worst {worst_entropy:.2f} bits) < generic rate {rate:.2f} bits",
    )


def _second_order_met_model():
    """A generator with both first- and second-order structure."""
    cfg = ModelConfig.from_name("metmm2")
    params = random_params(cfg, np.random.default_rng(0))
    swap = {1: 2, 2: 1, 3: 4, 4: 3, 5: 6, 6: 5, 7: 8, 8: 7}
    t2 = np.full((8, 8, 8), 0.20 / 6)
    for bpp in range(8):
        for bp in range(8):
            v_prev = interval(bpp, bp, 8)
            t2[bpp, bp, (bp + swap[v_prev]) % 8] = 0.55
            t2[bpp, bp, (bp + 2) % 8] = 0.80 if swap[v_prev] == 2 else 0.25
    t2 /= t2.sum(axis=2, keepdims=True)
    t1 = np.full((8, 8), 0.55 / 7)
    for bp in range(8):
        t1[bp, (bp + 2) % 8] = 0.45
    params.transition2 = t2
    params.transition = t1
    params.initial = np.full(8, 0.125)
    return cfg, params


def _jackknife_gap(nll_a, nll_b, counts):
    """SE of the pooled cross-entropy gap, leaving one piece out at a time."""
    nll_a, nll_b, counts = (
        np.asarray(x, dtype=np.float64) for x in (nll_a, nll_b, counts)
    )
    p = len(counts)
    gap_full = (nll_a.sum() - nll_b.sum()) / counts.sum()
    loo = np.empty(p)
    for i in range(p):
        keep = np.arange(p) != i
        loo[i] = (nll_a[keep].sum() - nll_b[keep].sum()) / counts[keep].sum()
    se = math.sqrt((p - 1) / p * ((loo - loo.mean()) ** 2).sum())
    return gap_full, se


def test_criterion_08_cross_entropy_orders_models():
    """On second-order data: CE(MetMM2) < CE(MetMM1) < CE(MetMM0), gaps > 3 SE."""
    gen_cfg, gen_params = _second_order_met_model()
    rng = np.random.default_rng([MASTER_SEED, 8])
    corpus = sample_corpus(build_state_space(gen_cfg, gen_params), 200, 40, rng)

    nlls, ces = {}, {}
    counts = np.array([p.n_notes for p in corpus.pieces], dtype=np.float64)
    for name in ("metmm0", "metmm1", "metmm2"):
        cfg = ModelConfig.from_name(name)
        params = estimate_params(corpus, cfg)
        space = build_state_space(cfg, params)
        nll = np.array([-sequence_log_prob(space, p) for p in corpus.pieces])
        nlls[name] = nll
        ces[name] = nll.sum() / counts.sum()
        assert ces[name] == pytest.approx(
            cross_entropy(cfg, params, corpus), abs=1e-12
        )

    assert ces["metmm2"] < ces["metmm1"] < ces["metmm0"]
    gap21, se21 = _jackknife_gap(nlls["metmm1"], nlls["metmm2"], counts)
    gap10, se10 = _jackknife_gap(nlls["metmm0"], nlls["metmm1"], counts)
    assert gap21 > 3 * se21, (gap21, se21)
    assert gap10 > 3 * se10, (gap10, se10)
    record_criterion(
        8,
        f"PASS CE ordering {ces['metmm2']:.3f} < {ces['metmm1']:.3f} < "
        f"{ces['metmm0']:.3f} bits/symbol; gaps {gap21:.3f} ({gap21 / se21:.0f} SE) "
        f"and {gap10:.3f} ({gap10 / se10:.0f} SE) both exceed 3 SE (200 pieces)",
    )


def test_criterion_09_beam_search_widens_to_exact():
    """Full-width beam equals exact inference; scores are monotone in width."""
    _, _, _, _, beam_hits, total = _variant_sweep()
    assert beam_hits == total

    cfg = ModelConfig.from_name("metmm1s", bar_length=4)
    violations = 0
    for i in range(100):
        rng = np.random.default_rng([MASTER_SEED, 900 + i])
        params = random_params(cfg, rng)
        space = build_state_space(cfg, params)
        hmm = TranscriptionHmm(space, TimingParams(0.25, 0.2))
        em = hmm.emission_matrix(rng.uniform(0.2, 1.0, size=5))
        prev = -np.inf
        for width in range(1, space.n_states + 1):
            try:
                score = viterbi(space, em, beam_width=width).log_prob
            except InferenceError:
                score = -np.inf
            if score < prev - 1e-12:
                violations += 1
            prev = max(prev, score)
        exact_score = viterbi(space, em).log_prob
        assert prev == pytest.approx(exact_score, rel=1e-9)
    assert violations == 0
    record_criterion(
        9,
        f"PASS beam(width=n_states) == exact on all sweep instances; "
        "beam score non-decreasing in width on 100 random instances "
        "(0 violations)",
    )


def test_criterion_10_entropy_analytics():
    """Entropy rate closed forms and the sparseness contrast."""
    t = np.array([[0.9, 0.1], [0.1, 0.9]])
    rate = entropy_rate(t)
    assert rate == pytest.approx(0.4690, abs=1e-4)

    rng = np.random.default_rng([MASTER_SEED, 10])
    row = rng.dirichlet(np.ones(8))
    iid_err = abs(entropy_rate(np.tile(row, (8, 1))) - distribution_entropy(row))
    assert iid_err < 1e-12

    corpus = _repetitive_corpus(reps=8)
    cfg = ModelConfig.from_name("notemm1")
    params = estimate_params(corpus, cfg)
    study = sparseness_study(cfg, params, corpus, alpha=10.0, n_samples=2000, rng=rng)
    assert study.piece_symbol_entropy.mean() < study.resampled_symbol_entropy.mean()
    assert (
        study.piece_transition_entropy.mean()
        < study.resampled_transition_entropy.mean()
    )
    record_criterion(
        10,
        f"PASS entropy rate {rate:.6f} (target 0.4690 +/- 1e-4); iid deviation "
        f"{iid_err:.1e} < 1e-12; repetitive pieces "
        f"{study.piece_transition_entropy.mean():.2f} bits < model resamples "
        f"{study.resampled_transition_entropy.mean():.2f} bits",
    )


def test_criterion_11_cli_pipeline_is_reproducible(tmp_path, capsys):
    """Same seeds and inputs: byte-identical artifacts across two runs."""
    raw = tmp_path / "raw.json"
    rng = np.random.default_rng([MASTER_SEED, 11])
    gen_cfg = ModelConfig.from_name("metmm1")
    gen = sample_corpus(
        build_state_space(gen_cfg, random_params(gen_cfg, rng)), 6, 20, rng
    )
    raw.write_text(json.dumps(
        [{"id": pid, "onsets": list(p.onsets)} for pid, p in zip(gen.ids, gen.pieces)]
    ))

    def run_pipeline(root):
        root.mkdir()
        corpus = root / "corpus.json"
        params = root / "params.json"
        perf = root / "perf.json"
        trans = root / "trans.json"
        bayes = root / "bayes.json"
        report = root / "report.json"
        steps = [
            ["prepare", str(raw), "--out", str(corpus)],
            ["train", "--corpus", str(corpus), "--model", "metmm1",
             "--out", str(params)],
            ["synth", "--corpus", str(corpus), "--out", str(perf),
             "--seed", "11", "--tempo-bpm", "144", "--sigma-t", "0.03"],
            ["transcribe", "--performances", str(perf), "--model", "metmm1",
             "--params", str(params), "--out", str(trans)],
            ["transcribe", "--performances", str(perf), "--model", "metmm1b",
             "--params", str(params), "--out", str(bayes),
             "--seed", "7", "--iterations", "4"],
            ["eval", "--transcriptions", str(trans), "--truth", str(corpus),
             "--out", str(report)],
        ]
        for argv in steps:
            assert cli.main(argv) == 0, argv
        return [corpus, params, perf, trans, bayes, report]

    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    capsys.readouterr()
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), a.name
    record_criterion(
        11,
        "PASS two seeded CLI runs (prepare/train/synth/transcribe x2/eval) "
        "produced byte-identical artifacts",
    )


def test_criterion_12_runtime_budgets():
    """Gibbs runtimes within budget; pattern models cost far more than chains."""
    rng = np.random.default_rng([MASTER_SEED, 12])
    tp = TimingParams.from_bpm(144.0, 0.03)

    gen_cfg, gen_params = _second_order_met_model()
    gen_space = build_state_space(gen_cfg, gen_params)
    piece = sample_score(gen_space, 300, rng)
    perf = synthesize(piece, tp, rng)

    met_cfg = ModelConfig.from_name("metmm2b")
    met_hp = assemble_hyperparams(gen_params, met_cfg)
    start = time.perf_counter()
    gibbs_fit(met_cfg, met_hp, perf, tp, GibbsConfig(iterations=100, seed=0))
    met_elapsed = time.perf_counter() - start
    assert met_elapsed < 60.0, f"metmm2b took {met_elapsed:.1f}s"

    pat_cfg = ModelConfig.from_name("patmm1b")
    pat_base = random_params(pat_cfg.plain(), rng)
    pat_hp = assemble_hyperparams(pat_base, pat_cfg)
    start = time.perf_counter()
    gibbs_fit(pat_cfg, pat_hp, perf, tp, GibbsConfig(iterations=100, seed=0))
    pat_elapsed = time.perf_counter() - start
    assert pat_elapsed < 1200.0, f"patmm1b took {pat_elapsed:.1f}s"

    bench_corpus = sample_corpus(gen_space, 5, 50, rng, id_prefix="bench")
    models = {}
    for name in ("notemm1", "metmm1", "patmm1"):
        cfg = ModelConfig.from_name(name)
        models[name] = (cfg, estimate_params(bench_corpus, cfg))
    reports = {r.model: r for r in benchmark(models, bench_corpus, tp, seeds=(0,))}
    rt = {name: reports[name].runtime_seconds for name in models}
    assert all(reports[name].failures == () for name in models)
    assert rt["patmm1"] > 3.0 * max(rt["notemm1"], rt["metmm1"])
    assert max(rt["notemm1"], rt["metmm1"]) < 8.0 * min(rt["notemm1"], rt["metmm1"])
    record_criterion(
        12,
        f"PASS metmm2b 100-sweep fit {met_elapsed:.1f}s < 60s; patmm1b "
        f"{pat_elapsed:.1f}s < 1200s; benchmark runtimes note {rt['notemm1']:.2f}s "
        f"~ met {rt['metmm1']:.2f}s << pat {rt['patmm1']:.2f}s",
    )
