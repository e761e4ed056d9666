"""Command-line pipeline: prepare, train, synth, transcribe, eval, study, bench."""
import json

import numpy as np
import pytest

from rhythmscribe import _dp
from rhythmscribe.cli import main
from rhythmscribe.models import ModelConfig, random_params, save_params

RAW = [
    {"id": "alpha", "onsets": [0, 2, 4, 6, 8, 12, 14, 16, 20, 24, 26, 28, 32]},
    {"id": "beta", "onsets": [0, 4, 6, 8, 10, 12, 16, 18, 20, 24, 28, 32]},
    {"id": "gamma", "onsets": [4, 6, 8, 9, 10, 12, 16, 20, 22, 24, 28, 30, 32, 36]},
    {"id": "waltz", "onsets": [0, 2, 4, 6], "meter": "3/4"},
]


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def pipeline(tmp_path):
    paths = {
        "raw": tmp_path / "raw.json",
        "corpus": tmp_path / "corpus.json",
        "params": tmp_path / "params.json",
        "perf": tmp_path / "perf.json",
        "trans": tmp_path / "trans.json",
        "report": tmp_path / "report.json",
    }
    paths["raw"].write_text(json.dumps(RAW))
    assert run("prepare", paths["raw"], "--out", paths["corpus"]) == 0
    assert run("train", "--corpus", paths["corpus"], "--model", "metmm1",
               "--out", paths["params"]) == 0
    return paths


class TestPrepare:
    def test_drops_and_reports(self, tmp_path, capsys):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(RAW))
        out = tmp_path / "corpus.json"
        assert run("prepare", raw, "--out", out) == 0
        data = json.loads(out.read_text())
        assert [p["id"] for p in data["pieces"]] == ["alpha", "beta", "gamma"]
        assert "waltz" in capsys.readouterr().out

    def test_idempotent(self, tmp_path):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(RAW))
        once = tmp_path / "once.json"
        twice = tmp_path / "twice.json"
        assert run("prepare", raw, "--out", once) == 0
        assert run("prepare", once, "--out", twice) == 0
        assert once.read_bytes() == twice.read_bytes()

    @pytest.mark.parametrize("data, field", [
        ({"bar_length": 8}, "'pieces'"),
        ({"pieces": [{"id": "a"}]}, "'onsets'"),
        ([{"id": "a", "onsets": [0, 2, 4]}, {"id": "b"}], "'onsets'"),
        ({"pieces": [[0, 2, 4]]}, "JSON object"),
    ])
    def test_missing_field_is_one_error_line(self, tmp_path, capsys, data, field):
        raw = tmp_path / "bad.json"
        raw.write_text(json.dumps(data))
        assert run("prepare", raw, "--out", tmp_path / "o.json") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and field in err[0]
        assert not (tmp_path / "o.json").exists()

    def test_empty_input_fails(self, tmp_path):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps([{"id": "w", "onsets": [0, 2], "meter": "3/4"}]))
        assert run("prepare", raw, "--out", tmp_path / "c.json") == 1


class TestTrainAndSynth:
    def test_training_is_deterministic(self, pipeline, tmp_path):
        again = tmp_path / "params2.json"
        assert run("train", "--corpus", pipeline["corpus"], "--model", "metmm1",
                   "--out", again) == 0
        assert again.read_bytes() == pipeline["params"].read_bytes()

    def test_pattern_interpolation_flag(self, pipeline, tmp_path):
        full = tmp_path / "lam08.json"
        raw = tmp_path / "lam00.json"
        for path, lam in ((full, 0.8), (raw, 0.0)):
            assert run("train", "--corpus", pipeline["corpus"], "--model", "patmm1",
                       "--pattern-interpolation", lam, "--out", path) == 0
        t_full = json.loads(full.read_text())["transition"]
        t_raw = json.loads(raw.read_text())["transition"]
        assert t_full != t_raw

    def test_synth_seeded_and_deterministic(self, pipeline, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run("synth", "--corpus", pipeline["corpus"], "--out", path,
                       "--seed", 7, "--tempo-bpm", 144, "--sigma-t", 0.02) == 0
        assert a.read_bytes() == b.read_bytes()
        data = json.loads(a.read_text())
        assert data["seed"] == 7
        assert data["tempo_bpm"] == 144 and data["sigma_t"] == 0.02
        assert len(data["items"]) == 3

    def test_synth_rejects_zero_sigma(self, pipeline, tmp_path, capsys):
        code = run("synth", "--corpus", pipeline["corpus"], "--out", tmp_path / "x.json",
                   "--seed", 1, "--tempo-bpm", 144, "--sigma-t", 0)
        assert code == 1
        assert "sigma" in capsys.readouterr().err

    def test_fresh_seed_recorded_when_omitted(self, pipeline, tmp_path):
        out = tmp_path / "p.json"
        assert run("synth", "--corpus", pipeline["corpus"], "--out", out,
                   "--tempo-bpm", 144, "--sigma-t", 0.02) == 0
        assert isinstance(json.loads(out.read_text())["seed"], int)


class TestTranscribeAndEval:
    def _synth(self, pipeline, sigma, out):
        assert run("synth", "--corpus", pipeline["corpus"], "--out", out,
                   "--seed", 5, "--tempo-bpm", 144, "--sigma-t", sigma) == 0

    def test_noiseless_round_trip(self, pipeline, tmp_path, capsys):
        self._synth(pipeline, 1e-6, pipeline["perf"])
        assert run("transcribe", "--performances", pipeline["perf"], "--model", "metmm1",
                   "--params", pipeline["params"], "--out", pipeline["trans"]) == 0
        assert run("eval", "--transcriptions", pipeline["trans"], "--truth",
                   pipeline["corpus"], "--out", pipeline["report"]) == 0
        report = json.loads(pipeline["report"].read_text())
        assert report["error_rate"] == 0.0
        assert set(report["per_piece_error"]) == {"alpha", "beta", "gamma"}

    def test_transcribe_deterministic_and_parallel_identical(self, pipeline, tmp_path):
        self._synth(pipeline, 0.04, pipeline["perf"])
        outs = []
        for jobs in (1, 1, 2):
            out = tmp_path / f"t{len(outs)}.json"
            assert run("transcribe", "--performances", pipeline["perf"], "--model",
                       "metmm1", "--params", pipeline["params"], "--out", out,
                       "--jobs", jobs) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_bayesian_transcription_records_trace_and_seed(self, pipeline, tmp_path):
        self._synth(pipeline, 0.03, pipeline["perf"])
        out = tmp_path / "bayes.json"
        assert run("transcribe", "--performances", pipeline["perf"], "--model", "metmm1b",
                   "--params", pipeline["params"], "--out", out,
                   "--seed", 3, "--iterations", 4) == 0
        data = json.loads(out.read_text())
        assert data["seed"] == 3 and data["iterations"] == 4
        assert len(data["items"][0]["trace"]) == 5
        again = tmp_path / "bayes2.json"
        assert run("transcribe", "--performances", pipeline["perf"], "--model", "metmm1b",
                   "--params", pipeline["params"], "--out", again,
                   "--seed", 3, "--iterations", 4) == 0
        assert again.read_bytes() == out.read_bytes()

    def test_model_params_mismatch_fails(self, pipeline, tmp_path):
        self._synth(pipeline, 0.03, pipeline["perf"])
        with pytest.raises(SystemExit) as exc:
            run("transcribe", "--performances", pipeline["perf"], "--model", "notemm1",
                "--params", pipeline["params"], "--out", tmp_path / "x.json")
        assert exc.value.code == 2

    def test_eval_cross_entropy_mode(self, pipeline, tmp_path, capsys):
        out = tmp_path / "ce.json"
        assert run("eval", "--params", pipeline["params"], "--corpus", pipeline["corpus"],
                   "--model", "metmm1", "--out", out) == 0
        data = json.loads(out.read_text())
        assert 0 < data["cross_entropy"] < 3.0
        assert data["cross_entropy_with_initial"] < data["cross_entropy"]
        assert "bits/symbol" in capsys.readouterr().out

    def test_eval_usage_errors(self, pipeline, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("eval", "--transcriptions", pipeline["trans"], "--out", tmp_path / "x.json")
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            run("eval", "--out", tmp_path / "x.json")

    def test_malformed_inputs_are_one_error_line(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        cases = [
            ({"model": "metmm1"}, "'items'",
             ("eval", "--transcriptions", bad, "--truth", pipeline["corpus"])),
            ({"items": [{"id": "alpha"}]}, "'note_values'",
             ("eval", "--transcriptions", bad, "--truth", pipeline["corpus"])),
            ({"bar_length": 8}, "'pieces'",
             ("eval", "--params", pipeline["params"], "--corpus", bad, "--model", "metmm1")),
            ({"family": "met", "bar_length": 8}, "'order'",
             ("eval", "--params", bad, "--corpus", pipeline["corpus"], "--model", "metmm1")),
            (None, "No such file",
             ("train", "--corpus", tmp_path / "missing.json", "--model", "metmm1")),
        ]
        for data, field, argv in cases:
            if data is not None:
                bad.write_text(json.dumps(data))
            assert run(*argv, "--out", tmp_path / "x.json") == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and field in err[0], err

    def test_eval_of_an_empty_corpus_is_one_error_line(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"bar_length": 8, "pieces": []}))
        out = tmp_path / "ce.json"
        assert run("eval", "--params", pipeline["params"], "--corpus", empty,
                   "--model", "metmm1", "--out", out) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "empty corpus" in err[0], err
        assert not out.exists()

    def test_unknown_model_exits_2(self, pipeline, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("train", "--corpus", pipeline["corpus"], "--model", "polkamm9",
                "--out", tmp_path / "x.json")
        assert exc.value.code == 2


class TestSettingsPrecedence:
    def test_flag_beats_env_beats_config(self, pipeline, tmp_path, monkeypatch):
        cfg = tmp_path / "defaults.json"
        cfg.write_text(json.dumps({"seed": 1, "tempo_bpm": 144.0, "sigma_t": 0.02}))

        def synth(out, *extra):
            assert run("synth", "--corpus", pipeline["corpus"], "--out", out,
                       "--config", cfg, *extra) == 0
            return json.loads(out.read_text())["seed"]

        assert synth(tmp_path / "a.json") == 1  # config file
        monkeypatch.setenv("RHYTHMSCRIBE_SEED", "9")
        assert synth(tmp_path / "b.json") == 9  # env beats config
        assert synth(tmp_path / "c.json", "--seed", 5) == 5  # flag beats env

    def test_env_timing(self, pipeline, tmp_path, monkeypatch):
        monkeypatch.setenv("RHYTHMSCRIBE_TEMPO_BPM", "120")
        monkeypatch.setenv("RHYTHMSCRIBE_SIGMA_T", "0.05")
        out = tmp_path / "p.json"
        assert run("synth", "--corpus", pipeline["corpus"], "--out", out, "--seed", 0) == 0
        data = json.loads(out.read_text())
        assert data["tempo_bpm"] == 120.0 and data["sigma_t"] == 0.05


class TestStudyAndBench:
    def test_study_writes_populations(self, pipeline, tmp_path):
        out = tmp_path / "study.json"
        # the pipeline fixture trained a metrical model; the study needs note params
        nparams = tmp_path / "note.json"
        assert run("train", "--corpus", pipeline["corpus"], "--model", "notemm1",
                   "--out", nparams) == 0
        assert run("study-sparseness", "--corpus", pipeline["corpus"], "--model", "notemm1",
                   "--params", nparams, "--seed", 2, "--n-samples", 100,
                   "--out", out) == 0
        data = json.loads(out.read_text())
        for key in ("piece_symbol_entropy", "piece_transition_entropy",
                    "resampled_symbol_entropy", "resampled_transition_entropy",
                    "dirichlet_entropy"):
            assert key in data
        assert data["seed"] == 2

    def test_study_rejects_a_bar_outside_the_pattern_vocabulary(self, pipeline, tmp_path,
                                                                capsys):
        params = tmp_path / "pat.json"
        cfg = ModelConfig.from_name("patmm1")
        save_params(random_params(cfg, np.random.default_rng(0),
                                  patterns=((0,), (0, 2, 4, 6), (0, 4))), params)
        out = tmp_path / "study.json"
        assert run("study-sparseness", "--corpus", pipeline["corpus"], "--model", "patmm1",
                   "--params", params, "--seed", 2, "--n-samples", 10, "--out", out) == 1
        err = capsys.readouterr().err.strip().splitlines()
        # bar 1 of the first piece plays positions 0, 4 and 6
        assert err == ["error: bar pattern (0, 4, 6) is not in the model's "
                       "3-pattern vocabulary"]
        assert not out.exists()

    def test_bench_summary(self, pipeline, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert run("bench", "--corpus", pipeline["corpus"], "--models", "metmm1,notemm1",
                   "--seeds", "0,1", "--tempo-bpm", 144, "--sigma-t", 0.02,
                   "--out", out) == 0
        data = json.loads(out.read_text())
        assert [r["model"] for r in data["models"]] == ["metmm1", "notemm1"]
        for rep in data["models"]:
            assert rep["n_transcriptions"] == 6
            assert rep["failures"] == []
        text = capsys.readouterr().out
        assert "metmm1" in text and "+/-" in text

    def test_bench_parallel_matches_sequential(self, pipeline, tmp_path):
        seq = tmp_path / "seq.json"
        par = tmp_path / "par.json"
        for out, jobs in ((seq, 1), (par, 2)):
            assert run("bench", "--corpus", pipeline["corpus"], "--models", "metmm1",
                       "--seeds", "0,1", "--tempo-bpm", 144, "--sigma-t", 0.05,
                       "--jobs", jobs, "--out", out) == 0
        a, b = json.loads(seq.read_text()), json.loads(par.read_text())
        for report in a["models"] + b["models"]:
            report.pop("runtime_seconds")
        assert a == b


class TestBeamWidthFlag:
    @pytest.mark.parametrize("flag, want", [
        ((), None),
        (("--beam-width", 0), None),
        (("--beam-width", 4), 4),
    ])
    def test_width_reaches_the_decoder(self, pipeline, tmp_path, monkeypatch, flag, want):
        # a pattern-division model: the one family that once defaulted to a beam
        widths = set()
        real = _dp.viterbi

        def spy(*args, **kwargs):
            widths.add(kwargs.get("beam_width"))
            return real(*args, **kwargs)

        monkeypatch.setattr(_dp, "viterbi", spy)
        params = tmp_path / "pat.json"
        assert run("train", "--corpus", pipeline["corpus"], "--model", "patmm1d",
                   "--out", params) == 0
        assert run("synth", "--corpus", pipeline["corpus"], "--out", pipeline["perf"],
                   "--seed", 0) == 0
        assert run("transcribe", "--performances", pipeline["perf"], "--model", "patmm1d",
                   "--params", params, "--out", pipeline["trans"], *flag) == 0
        assert widths == {want}
        widths.clear()
        assert run("bench", "--corpus", pipeline["corpus"], "--models", "patmm1d",
                   "--tempo-bpm", 144, "--sigma-t", 0.02, "--out", tmp_path / "b.json",
                   *flag) == 0
        assert widths == {want}
