"""Command-line interface: reproducible corpus-to-report batch runs.

Subcommands form a pipeline: `prepare` normalizes raw onset lists into a
corpus, `train` estimates a generic model, `synth` renders noisy
performances, `transcribe` recovers scores, and `eval`, `study-sparseness`,
and `bench` report metrics.  Every setting resolves as CLI flag, then
RHYTHMSCRIBE_<KEY> environment variable, then `--config` JSON file, then the
built-in default.  Commands that consume randomness take an explicit
`--seed`; when omitted, a seed is generated and recorded in the output
header, so any output can be reproduced.  With a fixed seed, primary outputs
are byte-identical across runs (`bench` reports measured wall-clock times
and is the documented exception).
"""
from __future__ import annotations

import argparse
import os
import sys
import zlib
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .core import (Corpus, integral, json_field, json_list, json_number, json_object,
                   normalize_corpus, read_json, to_note_values, write_json)
from .evaluation import (
    benchmark_cells,
    cross_entropy,
    error_rate,
    sparseness_study,
    summarize_cells,
)
from .inference import (
    DEFAULT_ALPHA,
    DEFAULT_GIBBS_ITERATIONS,
    GibbsConfig,
    Hyperparams,
    transcribe,
)
from .models import ModelConfig, load_params, save_params
from .timing import PerformedCorpus, TimingParams, synthesize
from .training import (
    DEFAULT_EPSILON,
    DEFAULT_NO_MODIFICATION_MASS,
    DEFAULT_PATTERN_INTERPOLATION,
    SmoothingConfig,
    attach_modification_presets,
    estimate_params,
)

ENV_PREFIX = "RHYTHMSCRIBE_"
DEFAULT_TEMPO_BPM = 144.0
DEFAULT_SIGMA_T = 0.04

__all__ = ["main"]


class _Settings:
    """Flag > environment > config file > default, per key."""

    def __init__(self, args):
        self.args = args
        path = self.cfg_path = getattr(args, "config", None)
        self.file_cfg = json_object(read_json(path), path) if path else {}

    def get(self, key: str, default, cast):
        """Setting `key` from a flag, the environment, the config file or
        `default`, in that order, read as `cast` (int, float or `_seeds`);
        a value of the wrong kind is refused with one line naming the flag,
        the variable or the file and key (argparse types int and float
        flags itself)."""
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag if cast in (int, float) else cast(flag, f"--{key}")
        name = ENV_PREFIX + key.upper()
        env = os.environ.get(name)
        if env is not None:
            return _env_number(env, name, cast) if cast in (int, float) else cast(env, name)
        if key in self.file_cfg:
            value, where = self.file_cfg[key], f"{self.cfg_path} {key}"
            if cast is int:
                return integral(value, where)
            if cast is float:
                return float(json_number(value, where))
            return cast(value, where)
        return default


def _env_number(text: str, name: str, cast):
    """An environment string as an int or a finite float; ValueError
    naming the variable if it is not one."""
    if cast is int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {text!r}") from None
    try:
        value = float(text)
    except ValueError:
        value = text
    return float(json_number(value, name))


def _seeds(value, where: str) -> list:
    """Seeds from comma-separated integers or a JSON list of integers;
    ValueError naming `where` for anything else."""
    if isinstance(value, list):
        return [integral(s, where) for s in value]
    try:
        return [int(s) for s in value.split(",") if s.strip()]
    except (AttributeError, ValueError):
        raise ValueError(f"{where}: expected comma-separated integers or a list of "
                         f"integers, got {value!r}") from None


def _derived_rng(seed: int, *keys: str) -> np.random.Generator:
    parts = [int(seed)] + [zlib.crc32(str(k).encode()) for k in keys]
    return np.random.default_rng(np.random.SeedSequence(parts))


def _derived_int(seed: int, *keys: str) -> int:
    parts = [int(seed)] + [zlib.crc32(str(k).encode()) for k in keys]
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _fresh_seed() -> int:
    return int.from_bytes(os.urandom(4), "big") & 0x7FFFFFFF


def _model_config(parser: argparse.ArgumentParser, name: str) -> ModelConfig:
    try:
        return ModelConfig.from_name(name)
    except ValueError as exc:
        parser.error(str(exc))


def _beam_width(settings: _Settings) -> int | None:
    # flag semantics: unset or 0 -> exact, n -> beam of n
    value = settings.get("beam_width", None, int)
    return None if value in (None, 0) else int(value)


def _timing(settings: _Settings, parser, pc: PerformedCorpus | None = None) -> TimingParams:
    file_tempo = pc.tempo_bpm if pc is not None else None
    file_sigma = pc.sigma_t if pc is not None else None
    tempo = settings.get("tempo_bpm", file_tempo, float)
    sigma = settings.get("sigma_t", file_sigma, float)
    if tempo is None or sigma is None:
        parser.error("tempo_bpm and sigma_t must be given (flag, env, config, or recorded in the performance file)")
    return TimingParams.from_bpm(float(tempo), float(sigma))


def cmd_prepare(args, parser) -> int:
    data = read_json(args.input)
    entries = json_field(data, "pieces", args.input) if isinstance(data, dict) else data
    corpus, report = normalize_corpus(json_list(entries, f"{args.input} pieces"),
                                      bar_length=args.bar_length)
    print(report.summary())
    if len(corpus.pieces) == 0:
        print("no pieces survived normalization", file=sys.stderr)
        return 1
    corpus.save(args.out)
    return 0


def cmd_train(args, parser) -> int:
    settings = _Settings(args)
    config = _model_config(parser, args.model)
    corpus = Corpus.load(args.corpus)
    smoothing = SmoothingConfig(
        epsilon=float(settings.get("epsilon", DEFAULT_EPSILON, float)),
        pattern_interpolation=float(
            settings.get("pattern_interpolation", DEFAULT_PATTERN_INTERPOLATION, float)
        ),
    )
    xi0 = float(settings.get("xi0", DEFAULT_NO_MODIFICATION_MASS, float))
    zeta0 = float(settings.get("zeta0", DEFAULT_NO_MODIFICATION_MASS, float))
    params = estimate_params(corpus, config, smoothing, xi0, zeta0)
    save_params(params, args.out)
    return 0


def cmd_synth(args, parser) -> int:
    settings = _Settings(args)
    corpus = Corpus.load(args.corpus)
    tempo = float(settings.get("tempo_bpm", DEFAULT_TEMPO_BPM, float))
    sigma = float(settings.get("sigma_t", DEFAULT_SIGMA_T, float))
    tp = TimingParams.from_bpm(tempo, sigma)
    seed = settings.get("seed", None, int)
    seed = _fresh_seed() if seed is None else int(seed)
    perfs = tuple(
        synthesize(score, tp, _derived_rng(seed, pid, "synth"))
        for pid, score in zip(corpus.ids, corpus.pieces)
    )
    pc = PerformedCorpus(
        performances=perfs,
        ids=corpus.ids,
        sources=corpus.pieces,
        tempo_bpm=tempo,
        sigma_t=sigma,
        bar_length=corpus.bar_length,
    )
    data = pc.to_dict()
    data["seed"] = seed
    write_json(args.out, data)
    return 0


def _transcribe_one(task):
    config, param_obj, perf, tp, run_cfg, pid = task
    try:
        result = transcribe(config, param_obj, perf, tp, run_cfg)
    except Exception as exc:  # noqa: BLE001 - worker boundary
        return pid, None, f"{type(exc).__name__}: {exc}"
    return pid, result.to_dict(), None


def _model_tables(settings, config: ModelConfig, params):
    """What `transcribe` takes for `config`, built around `params`.

    Each shift/division row the config uses is the one `params` holds,
    unless `params` lacks it or its mass (`xi0` on the zero shift, `zeta0`
    on the identity division) is set: then it is the preset row.  A
    Bayesian config gets Hyperparams of concentration `alpha` around these
    tables.
    """
    xi0 = settings.get("xi0", None, float)
    zeta0 = settings.get("zeta0", None, float)
    tables = attach_modification_presets(params, config, *(
        DEFAULT_NO_MODIFICATION_MASS if mass is None else float(mass) for mass in (xi0, zeta0)))
    if config.shift and xi0 is None and params.shift_probs is not None:
        tables.shift_probs = params.shift_probs
    if config.division and zeta0 is None and params.division_probs is not None:
        tables.division_probs = params.division_probs
    if config.bayesian:
        return Hyperparams(tables, float(settings.get("alpha", DEFAULT_ALPHA, float)))
    return tables


def cmd_transcribe(args, parser) -> int:
    settings = _Settings(args)
    config = _model_config(parser, args.model)
    params = load_params(args.params)
    if params.family != config.family or params.order != config.order:
        parser.error(
            f"params file is a {params.family} order-{params.order} model; "
            f"{config.name} needs {config.family} order {config.order}"
        )
    pc = PerformedCorpus.load(args.performances)
    tp = _timing(settings, parser, pc)
    iterations = int(settings.get("iterations", DEFAULT_GIBBS_ITERATIONS, int))
    width = _beam_width(settings)
    jobs = int(settings.get("jobs", 1, int))

    seed = settings.get("seed", None, int)
    if config.bayesian:
        seed = _fresh_seed() if seed is None else int(seed)
    param_obj = _model_tables(settings, config, params)

    tasks = []
    for pid, perf in zip(pc.ids, pc.performances):
        run_cfg = GibbsConfig(iterations=1, beam_width=width)
        if config.bayesian:
            run_cfg = GibbsConfig(
                iterations=iterations,
                beam_width=width,
                seed=_derived_int(seed, pid, "gibbs"),
            )
        tasks.append((config, param_obj, perf, tp, run_cfg, pid))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_transcribe_one, tasks))
    else:
        outcomes = [_transcribe_one(t) for t in tasks]

    items, failures = [], []
    for pid, result, err in outcomes:
        if err is not None:
            failures.append({"id": pid, "error": err})
            print(f"{pid}: {err}", file=sys.stderr)
        else:
            items.append({"id": pid, **result})
    out = {
        "model": config.name,
        "tempo_bpm": tp.tempo_bpm,
        "sigma_t": tp.sigma_t,
        "items": items,
        "failures": failures,
    }
    if config.bayesian:
        out["seed"] = seed
        out["alpha"] = param_obj.alpha
        out["iterations"] = iterations
    write_json(args.out, out)
    return 1 if failures else 0


def cmd_eval(args, parser) -> int:
    if args.transcriptions is not None:
        if args.truth is None:
            parser.error("--transcriptions requires --truth (ground-truth corpus)")
        data = read_json(args.transcriptions)
        truth = Corpus.load(args.truth)
        truth_values = {pid: to_note_values(p) for pid, p in zip(truth.ids, truth.pieces)}
        per_piece, weights = {}, {}
        for item in json_list(json_field(data, "items", args.transcriptions),
                              f"{args.transcriptions} items"):
            pid = json_field(item, "id", "transcription item")
            if pid not in truth_values:
                print(f"no ground truth for piece {pid}", file=sys.stderr)
                return 1
            values = json_field(item, "note_values", "transcription item")
            per_piece[pid] = error_rate(values, truth_values[pid])
            weights[pid] = len(truth_values[pid])
        if not per_piece:
            print("no transcriptions to evaluate", file=sys.stderr)
            return 1
        total = sum(weights.values())
        aggregate = sum(per_piece[p] * weights[p] for p in per_piece) / total
        report = {
            "model": data.get("model"),
            "per_piece_error": per_piece,
            "error_rate": aggregate,
            "n_notes": total,
        }
        write_json(args.out, report)
        print(f"error rate {aggregate:.4f} over {total} notes")
        return 0
    if args.params is None or args.corpus is None:
        parser.error("eval needs either --transcriptions with --truth, or --params with --corpus")
    config = _model_config(parser, args.model)
    params = load_params(args.params)
    corpus = Corpus.load(args.corpus)
    plain = config.plain()
    report = {
        "model": config.name,
        "cross_entropy": cross_entropy(plain, params, corpus),
        "cross_entropy_with_initial": cross_entropy(
            plain, params, corpus, count_initial_symbol=True
        ),
        "n_pieces": len(corpus.pieces),
    }
    write_json(args.out, report)
    print(f"cross entropy {report['cross_entropy']:.4f} bits/symbol")
    return 0


def cmd_study(args, parser) -> int:
    settings = _Settings(args)
    config = _model_config(parser, args.model)
    if config.shift or config.division or config.bayesian:
        parser.error("study-sparseness works on plain model variants")
    params = load_params(args.params)
    corpus = Corpus.load(args.corpus)
    alpha = float(settings.get("alpha", DEFAULT_ALPHA, float))
    seed = settings.get("seed", None, int)
    seed = _fresh_seed() if seed is None else int(seed)
    rng = _derived_rng(seed, "sparseness")
    study = sparseness_study(config, params, corpus, alpha, args.n_samples, rng)
    out = {"model": config.name, "seed": seed, **study.to_dict()}
    write_json(args.out, out)
    return 0


def cmd_bench(args, parser) -> int:
    settings = _Settings(args)
    corpus = Corpus.load(args.corpus)
    train_corpus = Corpus.load(args.train_corpus) if args.train_corpus else corpus
    tempo = float(settings.get("tempo_bpm", DEFAULT_TEMPO_BPM, float))
    sigma = float(settings.get("sigma_t", DEFAULT_SIGMA_T, float))
    tp = TimingParams.from_bpm(tempo, sigma)
    iterations = int(settings.get("iterations", DEFAULT_GIBBS_ITERATIONS, int))
    jobs = int(settings.get("jobs", 1, int))
    seeds = settings.get("seeds", [0], _seeds)
    epsilon = float(settings.get("epsilon", DEFAULT_EPSILON, float))
    smoothing = SmoothingConfig(epsilon=epsilon)

    models = {}
    for name in args.models.split(","):
        config = _model_config(parser, name.strip())
        params = estimate_params(train_corpus, config, smoothing)
        models[config.name] = (config, _model_tables(settings, config, params))

    gibbs = GibbsConfig(iterations=iterations, beam_width=_beam_width(settings))
    if jobs > 1 and len(seeds) > 1:
        n = len(seeds)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(benchmark_cells, [models] * n, [corpus] * n, [tp] * n,
                                   [[s] for s in seeds], [gibbs] * n))
    else:
        chunks = [benchmark_cells(models, corpus, tp, seeds, gibbs)]
    cells = {name: [row for chunk in chunks for row in chunk[name]] for name in models}
    reports = summarize_cells(cells, corpus, seeds)

    out = {
        "tempo_bpm": tempo,
        "sigma_t": sigma,
        "seeds": seeds,
        "models": [r.to_dict() for r in reports],
    }
    write_json(args.out, out)
    failed = 0
    for r in reports:
        line = f"{r.model}: error {r.error_mean:.4f} +/- {r.error_sd:.4f} ({r.runtime_seconds:.1f} s)"
        if r.failures:
            line += f" [{len(r.failures)} failures]"
            failed += len(r.failures)
        print(line)
    return 1 if failed else 0


def _add_common(sp, *names):
    if "config" in names:
        sp.add_argument("--config", help="JSON file of default settings")
    if "seed" in names:
        sp.add_argument("--seed", type=int, help="RNG seed (recorded in output when omitted)")
    if "jobs" in names:
        sp.add_argument("--jobs", type=int, help="parallel workers (default 1)")
    if "timing" in names:
        sp.add_argument("--tempo-bpm", type=float, dest="tempo_bpm")
        sp.add_argument("--sigma-t", type=float, dest="sigma_t", help="onset noise SD in seconds")
    if "gibbs" in names:
        sp.add_argument("--alpha", type=float, help="Dirichlet concentration")
        sp.add_argument("--iterations", type=int, help="Gibbs iterations")
        sp.add_argument("--beam-width", type=int, dest="beam_width",
                        help="beam width for decoding and Gibbs sampling "
                             "(default: exact inference; 0 also means exact)")
        sp.add_argument("--xi0", type=float,
                        help="preset mass on the zero shift; replaces the params' shift "
                             "row only when given (default: the params' row, else "
                             f"{DEFAULT_NO_MODIFICATION_MASS})")
        sp.add_argument("--zeta0", type=float,
                        help="preset mass on the identity division; replaces the params' "
                             "division rows only when given (default: the params' rows, "
                             f"else {DEFAULT_NO_MODIFICATION_MASS})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhythmscribe",
        description="Rhythm transcription: Markov score models over noisy onset times.",
        epilog=f"Settings resolve as: flag > {ENV_PREFIX}<KEY> env var > --config file > default.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("prepare", help="normalize raw onset lists into a corpus")
    sp.add_argument("input", help="raw JSON: list of {id, onsets[, meter]} or {pieces: [...]}")
    sp.add_argument("--out", required=True)
    sp.add_argument("--bar-length", type=int, default=8, dest="bar_length")
    sp.set_defaults(func=cmd_prepare)

    sp = sub.add_parser("train", help="estimate a generic model from a corpus")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--model", required=True, help="model name, e.g. notemm1, metmm2b, patmm1")
    sp.add_argument("--epsilon", type=float, help="additive smoothing")
    sp.add_argument("--pattern-interpolation", type=float, dest="pattern_interpolation")
    sp.add_argument("--xi0", type=float,
                    help="preset mass on the zero shift, written into the shift row of "
                         f"a model with shifts (default {DEFAULT_NO_MODIFICATION_MASS})")
    sp.add_argument("--zeta0", type=float,
                    help="preset mass on the identity division, written into the division "
                         f"rows of a model with divisions (default {DEFAULT_NO_MODIFICATION_MASS})")
    sp.add_argument("--out", required=True)
    _add_common(sp, "config")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("synth", help="render a corpus as noisy performances")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--out", required=True)
    _add_common(sp, "config", "seed", "timing")
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("transcribe", help="decode performances into scores")
    sp.add_argument("--performances", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--params", required=True, help="trained params JSON")
    sp.add_argument("--out", required=True)
    _add_common(sp, "config", "seed", "jobs", "timing", "gibbs")
    sp.set_defaults(func=cmd_transcribe)

    sp = sub.add_parser("eval", help="error rate of transcriptions, or corpus cross entropy")
    sp.add_argument("--transcriptions")
    sp.add_argument("--truth", help="ground-truth corpus JSON")
    sp.add_argument("--model", default="notemm1")
    sp.add_argument("--params")
    sp.add_argument("--corpus")
    sp.add_argument("--out", required=True)
    _add_common(sp, "config")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("study-sparseness", help="entropy populations: pieces vs model samples")
    sp.add_argument("--corpus", required=True)
    sp.add_argument("--model", required=True)
    sp.add_argument("--params", required=True)
    sp.add_argument("--n-samples", type=int, default=200, dest="n_samples")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--out", required=True)
    _add_common(sp, "config", "seed")
    sp.set_defaults(func=cmd_study)

    sp = sub.add_parser("bench", help="error rates and runtimes across model variants")
    sp.add_argument("--corpus", required=True, help="ground-truth corpus to synthesize from")
    sp.add_argument("--train-corpus", dest="train_corpus",
                    help="corpus for generic-model training (default: --corpus)")
    sp.add_argument("--models", required=True, help="comma-separated model names")
    sp.add_argument("--seeds", help="comma-separated synthesis/Gibbs seeds (default 0)")
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--out", required=True)
    _add_common(sp, "config", "jobs", "timing", "gibbs")
    sp.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValueError, OSError) as exc:
        # invalid settings or data (bad masses, non-positive sigma, ...) or
        # an unreadable input file
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
