"""Command-line pipeline: prepare, train, synth, transcribe, eval, study, bench."""
import json

import numpy as np
import pytest

from rhythmscribe import _dp, cli, inference
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

    def test_zero_bar_length_is_one_error_line(self, tmp_path, capsys):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(RAW))
        assert run("prepare", raw, "--bar-length", 0, "--out", tmp_path / "c.json") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: bar_length must be >= 1, got 0"]
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("raw, message", [
        ('[{"id": "a", "onsets": ["x", 2, 4]}]',
         "piece a onsets: expected finite numbers, got 'x'"),
        ('[{"id": "a", "onsets": null}]', "piece a onsets: expected a JSON list, got NoneType"),
        ('[{"id": "a", "onsets": [0, 2, Infinity]}]', "piece a onsets: expected finite numbers"),
        ('[{"id": "a", "onsets": [0, NaN, 4]}]', "piece a onsets: expected finite numbers"),
        ('{"pieces": 5}', "pieces: expected a JSON list, got int"),
        ('[{"id": "a", "onsets": [0, 2, 1e300]}]',
         "piece a: its long rests would insert over 1048576 bar-start onsets"),
        ('[{"id": "a", "onsets": [0, 2', "not JSON"),
    ])
    def test_malformed_input_is_one_error_line(self, tmp_path, capsys, raw, message):
        path = tmp_path / "bad.json"
        path.write_text(raw)
        assert run("prepare", path, "--out", tmp_path / "o.json") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
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

    @pytest.mark.parametrize("command, data, message", [
        ("train", {"pieces": 5}, "corpus pieces: expected a JSON list, got int"),
        ("transcribe", {"items": 5}, "performance items: expected a JSON list, got int"),
        ("config", ["epsilon", 0.5], "expected a JSON object, got list"),
        ("eval", {"initial": [1.0]}, "model parameters initial: expected a JSON object, got list"),
    ])
    def test_malformed_structure_is_one_error_line(self, pipeline, tmp_path, capsys,
                                                   command, data, message):
        bad = tmp_path / "bad.json"
        if command == "eval":
            data = {**json.loads(pipeline["params"].read_text()), **data}
        bad.write_text(json.dumps(data))
        argv = {
            "train": ("train", "--corpus", bad, "--model", "metmm1"),
            "transcribe": ("transcribe", "--performances", bad, "--model", "metmm1",
                           "--params", pipeline["params"]),
            "config": ("train", "--corpus", pipeline["corpus"], "--model", "metmm1",
                       "--config", bad),
            "eval": ("eval", "--params", bad, "--corpus", pipeline["corpus"], "--model", "metmm1"),
        }[command]
        out = tmp_path / "x.json"
        assert run(*argv, "--out", out) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
        assert not out.exists()

    def test_params_of_an_unknown_family_are_one_error_line(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(pipeline["params"].read_text()),
                                   "family": "foo"}))
        out = tmp_path / "x.json"
        assert run("eval", "--params", bad, "--corpus", pipeline["corpus"], "--model", "metmm1",
                   "--out", out) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: model parameters family: expected one of "
                       "('note', 'met', 'pat'), got 'foo'"]
        assert not out.exists()

    @pytest.mark.parametrize("bad_file, message", [
        ("params", "model parameters initial: label 'b:99' is not one of b:0..b:7"),
        ("performances", "performances tempo_bpm: expected a finite positive number, got [144]"),
    ])
    def test_bad_table_label_or_recorded_tempo_is_one_error_line(self, pipeline, tmp_path,
                                                                capsys, bad_file, message):
        assert run("synth", "--corpus", pipeline["corpus"], "--seed", 1, "--tempo-bpm", 120,
                   "--sigma-t", 0.03, "--out", pipeline["perf"]) == 0
        files = {"params": pipeline["params"], "performances": pipeline["perf"]}
        data = json.loads(files[bad_file].read_text())
        if bad_file == "params":
            data["initial"] = {**data["initial"], "b:99": 0.0}
        else:
            data["tempo_bpm"] = [144]
        files[bad_file] = tmp_path / "bad.json"
        files[bad_file].write_text(json.dumps(data))
        out = tmp_path / "x.json"
        assert run("transcribe", "--performances", files["performances"], "--model", "metmm1",
                   "--params", files["params"], "--out", out) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {message}"]
        assert not out.exists()

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

    @pytest.mark.parametrize("setting, message", [
        ({"iterations": [3]}, "iterations must be an integer, got [3]"),
        ({"iterations": 2.7}, "iterations must be an integer, got 2.7"),
        ({"jobs": True}, "jobs must be an integer, got True"),
        ({"tempo_bpm": "fast"}, "tempo_bpm: expected a finite number, got 'fast'"),
    ])
    def test_config_value_of_the_wrong_kind_is_one_error_line(self, pipeline, tmp_path, capsys,
                                                              setting, message):
        assert run("synth", "--corpus", pipeline["corpus"], "--seed", 1, "--tempo-bpm", 120,
                   "--sigma-t", 0.03, "--out", pipeline["perf"]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(setting))
        out = tmp_path / "x.json"
        assert run("transcribe", "--performances", pipeline["perf"], "--model", "metmm1b",
                   "--params", pipeline["params"], "--config", cfg, "--seed", 2,
                   "--out", out) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {cfg} {message}"]
        assert not out.exists()

    def test_integral_config_values_keep_working(self, pipeline, tmp_path):
        assert run("synth", "--corpus", pipeline["corpus"], "--seed", 1, "--tempo-bpm", 120,
                   "--sigma-t", 0.03, "--out", pipeline["perf"]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iterations": 2.0, "tempo_bpm": 120}))
        out = tmp_path / "x.json"
        assert run("transcribe", "--performances", pipeline["perf"], "--model", "metmm1b",
                   "--params", pipeline["params"], "--config", cfg, "--seed", 2,
                   "--out", out) == 0
        assert json.loads(out.read_text())["iterations"] == 2

    @pytest.mark.parametrize("key, text, message", [
        ("ITERATIONS", "2.5", "RHYTHMSCRIBE_ITERATIONS must be an integer, got '2.5'"),
        ("JOBS", "x", "RHYTHMSCRIBE_JOBS must be an integer, got 'x'"),
        ("TEMPO_BPM", "fast", "RHYTHMSCRIBE_TEMPO_BPM: expected a finite number, got 'fast'"),
        ("SIGMA_T", "inf", "RHYTHMSCRIBE_SIGMA_T: expected a finite number, got inf"),
    ])
    def test_env_value_of_the_wrong_kind_is_one_error_line(self, pipeline, tmp_path, capsys,
                                                           monkeypatch, key, text, message):
        assert run("synth", "--corpus", pipeline["corpus"], "--seed", 1, "--tempo-bpm", 120,
                   "--sigma-t", 0.03, "--out", pipeline["perf"]) == 0
        monkeypatch.setenv("RHYTHMSCRIBE_" + key, text)
        out = tmp_path / "x.json"
        assert run("transcribe", "--performances", pipeline["perf"], "--model", "metmm1b",
                   "--params", pipeline["params"], "--seed", 2, "--out", out) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["0,1", [0, 1], [0, 1.0]])
    def test_config_seeds_as_a_string_or_a_list(self, pipeline, tmp_path, seeds):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": seeds}))
        out = tmp_path / "bench.json"
        assert run("bench", "--corpus", pipeline["corpus"], "--models", "notemm1",
                   "--config", cfg, "--out", out) == 0
        assert json.loads(out.read_text())["seeds"] == [0, 1]

    @pytest.mark.parametrize("seeds, message", [
        ("x", "seeds: expected comma-separated integers or a list of integers, got 'x'"),
        (5, "seeds: expected comma-separated integers or a list of integers, got 5"),
        ({"a": 1}, "seeds: expected comma-separated integers or a list of integers, "
                   "got {'a': 1}"),
        ([1, 2.5], "seeds must be an integer, got 2.5"),
        ([True], "seeds must be an integer, got True"),
    ])
    def test_config_seeds_of_the_wrong_kind_are_one_error_line(self, pipeline, tmp_path, capsys,
                                                               seeds, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": seeds}))
        out = tmp_path / "bench.json"
        assert run("bench", "--corpus", pipeline["corpus"], "--models", "notemm1",
                   "--config", cfg, "--out", out) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {cfg} {message}"]
        assert not out.exists()

    def test_seeds_flag_and_env_are_refused_by_name(self, pipeline, tmp_path, capsys,
                                                    monkeypatch):
        out = tmp_path / "bench.json"
        monkeypatch.setenv("RHYTHMSCRIBE_SEEDS", "1;2")
        assert run("bench", "--corpus", pipeline["corpus"], "--models", "notemm1",
                   "--out", out) == 1
        assert run("bench", "--corpus", pipeline["corpus"], "--models", "notemm1",
                   "--seeds", "a", "--out", out) == 1
        kind = "expected comma-separated integers or a list of integers"
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: RHYTHMSCRIBE_SEEDS: {kind}, got '1;2'", f"error: --seeds: {kind}, got 'a'"]
        assert not out.exists()

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

    def test_study_rejects_zero_samples(self, pipeline, tmp_path, capsys):
        out = tmp_path / "study.json"
        assert run("study-sparseness", "--corpus", pipeline["corpus"], "--model", "metmm1",
                   "--params", pipeline["params"], "--n-samples", 0, "--out", out) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: n_samples must be >= 1, got 0"]
        assert not out.exists()

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


def test_every_artifact_is_canonical_json(pipeline, tmp_path):
    # the rest of the seeded pipeline, through every writer the CLI has
    p = pipeline
    steps = [
        ("synth", "--corpus", p["corpus"], "--seed", 1, "--tempo-bpm", 144, "--sigma-t", 0.03,
         "--out", p["perf"]),
        ("transcribe", "--performances", p["perf"], "--model", "metmm1b", "--params",
         p["params"], "--iterations", 2, "--seed", 2, "--out", p["trans"]),
        ("eval", "--transcriptions", p["trans"], "--truth", p["corpus"], "--out", p["report"]),
        ("eval", "--params", p["params"], "--corpus", p["corpus"], "--model", "metmm1",
         "--out", tmp_path / "ce.json"),
        ("study-sparseness", "--corpus", p["corpus"], "--model", "metmm1", "--params",
         p["params"], "--seed", 3, "--n-samples", 5, "--out", tmp_path / "study.json"),
        ("bench", "--corpus", p["corpus"], "--models", "metmm1", "--iterations", 2,
         "--out", tmp_path / "bench.json"),
    ]
    for argv in steps:
        assert run(*argv) == 0, argv
    written = sorted(set(tmp_path.glob("*.json")) - {p["raw"]})
    assert len(written) == 8
    for path in written:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n", path.name


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


class TestModificationRows:
    def test_transcribe_keeps_the_params_files_rows_unless_a_mass_is_set(
            self, pipeline, tmp_path, monkeypatch):
        # the file's rows put 0.3 on the zero shift and the identity division
        sd = tmp_path / "sd.json"
        assert run("train", "--corpus", pipeline["corpus"], "--model", "metmm1sd",
                   "--xi0", 0.3, "--zeta0", 0.3, "--out", sd) == 0
        assert run("synth", "--corpus", pipeline["corpus"], "--out", pipeline["perf"],
                   "--seed", 1, "--tempo-bpm", 120, "--sigma-t", 0.03) == 0

        def decode(model, *flags):
            assert run("transcribe", "--performances", pipeline["perf"], "--model", model,
                       "--params", sd, "--iterations", 2, "--seed", 3,
                       "--out", pipeline["trans"], *flags) == 0
            return json.loads(pipeline["trans"].read_text())["items"]

        for model in ("metmm1sd", "metmm1sdb"):
            rows = decode(model)
            assert rows == decode(model, "--xi0", 0.3, "--zeta0", 0.3)
            assert rows != decode(model, "--xi0", 0.9, "--zeta0", 0.9)
        # each mass replaces its own row only
        shift_set = decode("metmm1sd", "--xi0", 0.9)
        assert shift_set == decode("metmm1sd", "--xi0", 0.9, "--zeta0", 0.3)
        assert shift_set != decode("metmm1sd", "--xi0", 0.9, "--zeta0", 0.9)
        # a mass set in the environment replaces the file's row too
        monkeypatch.setenv("RHYTHMSCRIBE_XI0", "0.9")
        monkeypatch.setenv("RHYTHMSCRIBE_ZETA0", "0.9")
        assert decode("metmm1sd") == decode("metmm1sd", "--xi0", 0.9, "--zeta0", 0.9)


    @pytest.mark.parametrize("key, value", [("xi0", 2), ("zeta0", 0), ("xi0", "nan")])
    def test_a_bad_mass_is_one_error_line_naming_the_setting(self, pipeline, tmp_path,
                                                             capsys, key, value):
        out = tmp_path / "bad.json"
        want = [f"error: {key} must be in (0, 1], got {float(value):g}"]
        assert run("train", "--corpus", pipeline["corpus"], "--model", "metmm1sd",
                   f"--{key}", value, "--out", out) == 1
        assert capsys.readouterr().err.strip().splitlines() == want
        assert run("synth", "--corpus", pipeline["corpus"], "--out", pipeline["perf"],
                   "--seed", 0) == 0
        assert run("transcribe", "--performances", pipeline["perf"], "--model", "metmm1sd",
                   "--params", pipeline["params"], f"--{key}", value, "--out", out) == 1
        assert capsys.readouterr().err.strip().splitlines() == want
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag 0", "flag -3", "env 0", "config 0"])
    def test_jobs_below_one_is_one_error_line_naming_jobs(self, pipeline, tmp_path, capsys,
                                                          monkeypatch, source):
        # refused before any work: no worker process and no serial decode
        def forbidden(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("ProcessPoolExecutor", "_transcribe_one", "benchmark_cells"):
            monkeypatch.setattr(cli, name, forbidden)
        kind, value = source.split()
        extra = []
        if kind == "flag":
            extra = ["--jobs", value]
        elif kind == "env":
            monkeypatch.setenv("RHYTHMSCRIBE_JOBS", value)
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"jobs": int(value)}))
            extra = ["--config", cfg]
        assert run("synth", "--corpus", pipeline["corpus"], "--out", pipeline["perf"],
                   "--seed", 0) == 0
        out = tmp_path / "bad.json"
        assert run("transcribe", "--performances", pipeline["perf"], "--model", "metmm1",
                   "--params", pipeline["params"], *extra, "--out", out) == 1
        assert run("bench", "--corpus", pipeline["corpus"], "--models", "metmm1",
                   "--seeds", "1,2", *extra, "--out", out) == 1
        want = f"error: jobs must be at least 1, got {value}"
        assert capsys.readouterr().err.strip().splitlines() == [want, want]
        assert not out.exists()


class TestAlphaSetting:
    @pytest.mark.parametrize("flag, want", [((), 10.0), (("--alpha", 2.5), 2.5)],
                             ids=["default", "flag"])
    def test_alpha_reaches_the_fit_and_the_header(self, pipeline, monkeypatch, flag, want):
        alphas = set()
        real = inference.gibbs_fit

        def spy(config, hp, *args):
            alphas.add(hp.alpha)
            return real(config, hp, *args)

        monkeypatch.setattr(inference, "gibbs_fit", spy)
        assert run("synth", "--corpus", pipeline["corpus"], "--out", pipeline["perf"],
                   "--seed", 0) == 0
        assert run("transcribe", "--performances", pipeline["perf"], "--model", "metmm1b",
                   "--params", pipeline["params"], "--iterations", 2, "--seed", 1,
                   "--out", pipeline["trans"], *flag) == 0
        assert alphas == {want}
        assert json.loads(pipeline["trans"].read_text())["alpha"] == want

    def test_zero_alpha_is_one_error_line_naming_alpha(self, pipeline, tmp_path, capsys):
        assert run("synth", "--corpus", pipeline["corpus"], "--out", pipeline["perf"],
                   "--seed", 0) == 0
        out = tmp_path / "bad.json"
        assert run("transcribe", "--performances", pipeline["perf"], "--model", "metmm1b",
                   "--params", pipeline["params"], "--alpha", 0, "--out", out) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: alpha must be positive and finite, got 0.0"]
        assert not out.exists()
