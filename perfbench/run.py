"""rhythmscribe benchmark: closed-loop transcription workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload decode-augmented --seed 1 --seconds 25 --trace 0

One caller in one process calls `rhythmscribe.transcribe` once per piece and
waits for the result.  A pass transcribes each of the workload's pieces once;
passes repeat until `--seconds` have elapsed, stopping at a pass boundary so
every run weighs the pieces alike.  Every result is checked.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer breakdown with ``--trace 1``.  The line before it (``report ...``)
carries the digest of the decoded note values, the environment and the
figures that are not metrics.  See README.md in this directory.
"""
from __future__ import annotations

import os

# Pinned before numpy loads: the BLAS/OpenMP pools read these at start-up.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

# numpy, the library and the modules here that use them are imported inside
# the functions, so that `setup` times the imports as part of set-up.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / "perfbench-out"
SETUP_SAMPLES = 3
EXACT_LL_TOL = 1e-9


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. no library source)."""


def load_library():
    """Import rhythmscribe from this checkout's source tree, never elsewhere."""
    if not (SRC / "rhythmscribe" / "__init__.py").is_file():
        raise SetupError(f"no library source at {SRC}/rhythmscribe")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rhythmscribe as rs

    if Path(rs.__file__).resolve().parent != (SRC / "rhythmscribe").resolve():
        raise SetupError(f"imported rhythmscribe from {rs.__file__}, not {SRC}")
    return rs


def setup(workload_name: str, seed: int, lengths=None, tracer=None):
    """Import, train the tables, synthesize the pieces and warm up.

    Returns ``(rs, prepared, seconds)``; the seconds cover all of it.
    """
    t0 = time.perf_counter()
    rs = load_library()
    import workloads

    if workload_name not in workloads.WORKLOADS:
        raise SetupError(f"unknown workload {workload_name!r}; "
                         f"one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[workload_name]
    if tracer is None:
        prep = workloads.prepare(rs, workload, seed, lengths)
    else:
        import spans

        with spans.installed(tracer, rs), tracer.record("setup", "setup"):
            prep = workloads.prepare(rs, workload, seed, lengths)
    workloads.warm_up(rs, prep, seed)
    return rs, prep, time.perf_counter() - t0


def setup_probe(workload_name: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter, as a user pays them."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# checks


def uses_beam(rs, config) -> bool:
    """Whether `transcribe` decodes this model with a beam by default.

    A library without `default_beam_width` decodes every model exactly.
    """
    default = getattr(rs, "default_beam_width", None)
    return default is not None and default(config) is not None


def check(rs, prep, piece, result) -> list[str]:
    """Output checks for one transcription; returns the failures found."""
    nb = prep.configs[piece.model].bar_length
    values = list(result.note_values)
    fails = []
    if len(values) != piece.performance.n_notes:
        fails.append(f"{len(values)} notes for a {piece.performance.n_notes}-note performance")
    if any(not 1 <= v <= nb for v in values):
        fails.append(f"note value outside [1, {nb}]")
    onsets = list(result.onsets)
    if len(onsets) != len(values) + 1 or any(
        b - a != v for a, b, v in zip(onsets, onsets[1:], values)
    ):
        fails.append("onsets disagree with note values")
    ll, plp = result.log_likelihood, result.path_log_prob
    if not (math.isfinite(ll) and math.isfinite(plp)):
        fails.append(f"non-finite log-likelihood {ll} / path {plp}")
    elif not uses_beam(rs, prep.configs[piece.model]) and ll < plp - EXACT_LL_TOL * max(1.0, abs(ll)):
        fails.append(f"exact decode with log_likelihood {ll} < path_log_prob {plp}")
    return [f"piece {piece.index} ({piece.model}): {f}" for f in fails]


# ---------------------------------------------------------------------------
# the timed loops


def call(rs, prep, piece):
    """One transcription; an exception is returned, not raised, and counted."""
    import workloads

    try:
        return workloads.transcribe(rs, prep, piece)
    except Exception as exc:  # noqa: BLE001 - a failed piece is a reported outcome
        return exc


def timed_passes(rs, prep, seconds: float):
    """Untraced closed loop: whole passes until `seconds` have elapsed.

    Returns ``(wall, latencies, passes)`` where ``passes[k][i]`` is the
    outcome of piece i in pass k.
    """
    latencies, passes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        outcomes = []
        for piece in prep.pieces:
            t = time.perf_counter()
            outcomes.append(call(rs, prep, piece))
            latencies.append(time.perf_counter() - t)
        passes.append(outcomes)
    return time.perf_counter() - start, latencies, passes


def traced_passes(rs, prep, seconds: float, tracer):
    """Each piece run untraced and traced; which goes first alternates.

    The untraced twin gives the tracing overhead and the digest the traced
    result must match.  Pieces decoded with a beam are decoded exactly as
    well, in the first pass and outside the timed calls, for the beam
    diagnostics.  Returns ``(walls, traced, untraced, beam)``.
    """
    import spans

    walls = {"untraced": 0.0, "traced": 0.0}
    traced, untraced, beam = [], [], []
    start = time.perf_counter()
    with spans.installed(tracer, rs):
        while not traced or time.perf_counter() - start < seconds:
            outcomes = {"untraced": [], "traced": []}
            for piece in prep.pieces:
                order = ("untraced", "traced")
                if (len(traced) + piece.index) % 2:
                    order = order[::-1]
                first_span = len(tracer.spans)
                for mode in order:
                    t = time.perf_counter()
                    if mode == "traced":
                        with tracer.record((len(traced), piece.index)):
                            outcomes[mode].append(call(rs, prep, piece))
                    else:
                        outcomes[mode].append(call(rs, prep, piece))
                    walls[mode] += time.perf_counter() - t
                res = outcomes["traced"][-1]
                if not traced and not isinstance(res, Exception) and any(
                    s["name"].startswith("dp.beam.") for s in tracer.spans[first_span:]
                ):
                    beam.append((res, exact_decode(rs, prep, piece)))
            traced.append(outcomes["traced"])
            untraced.append(outcomes["untraced"])
    return walls, traced, untraced, beam


def exact_decode(rs, prep, piece):
    """The same piece decoded with exact inference (beam width None)."""
    config = prep.configs[piece.model]
    return rs.transcribe(config, prep.tables[piece.model], piece.performance, prep.tp,
                         rs.GibbsConfig(iterations=1, beam_width=None))


# ---------------------------------------------------------------------------
# metrics


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None.

    Returns ``(value, percentile, n)``.
    """
    xs = sorted(values)
    k = len(xs) - 10
    if k < 1:
        return None
    return xs[k - 1], 100.0 * k / len(xs), len(xs)


def note_errors(prep, outcomes) -> int:
    """Decoded note values that differ from the truth; a failed piece is all wrong."""
    wrong = 0
    for piece, out in zip(prep.pieces, outcomes):
        if isinstance(out, Exception):
            wrong += len(piece.truth)
        else:
            wrong += sum(a != b for a, b in zip(out.note_values, piece.truth))
    return wrong


def end_to_end(prep, wall, latencies, passes, setup_samples):
    notes_per_pass = sum(len(p.truth) for p in prep.pieces)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "notes_per_s": (notes_per_pass * len(passes) / wall, "notes/s"),
        "piece_latency_p50_s": (statistics.median(latencies), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }


def quality(prep, outcomes) -> dict:
    """Note error rate of one pass; fixed by the seed, so a report field.

    Its spread across seeds (input variety, 50-80% IQR/median at these
    sizes) is far wider than any regression bound, so it is not a metric;
    a change to decoding shows in it and in the digest.
    """
    notes = sum(len(p.truth) for p in prep.pieces)
    wrong = note_errors(prep, outcomes)
    return {"note_error_rate": wrong / notes, "wrong_notes": wrong, "notes": notes}


def _descendants(tracer, roots):
    ids = {s["id"] for s in roots}
    out = []
    for s in tracer.spans:  # parents precede children in recording order
        if s["parent"] in ids:
            ids.add(s["id"])
            out.append(s)
    return out


def timed_pieces(prep, n_pass: int) -> set:
    """Span piece ids of the traced timed calls (setup spans excluded)."""
    return {(k, p.index) for k in range(n_pass) for p in prep.pieces}


def per_layer(prep, tracer, walls, n_pass, beam):
    """The traced breakdown, per pass of the workload's pieces.

    Layers that some workload never calls report a share of the traced
    piece wall time (``trace.piece_wall_s``) rather than seconds.
    """
    timed = timed_pieces(prep, n_pass)
    own = tracer.self_times(timed)
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        if s["piece"] in timed:
            by_name.setdefault(s["name"], []).append(s)
    wall = walls["traced"]

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names) / n_pass

    def self_s(name):
        return own.get(name, 0.0) / n_pass

    def pct(*names):
        return 100.0 * sum(own.get(n, 0.0) for n in names) / wall

    def edge_steps(name):
        return sum(s["attrs"]["steps"] * s["attrs"]["edges"] for s in by_name.get(name, ()))

    def steps_per_s(name):
        return edge_steps(name) / own[name] if own.get(name) else 0.0

    def per_iteration(*names):
        iterations = len(by_name.get("inference.gibbs_fit", ())) * ((prep.workload.sweeps or 0) + 1)
        inner = _descendants(tracer, by_name.get("inference.gibbs_fit", ()))
        return sum(s["name"] in names for s in inner) / iterations if iterations else 0.0

    builds = by_name.get("models.build_state_space", ())
    gaps = [ex.path_log_prob - res.path_log_prob for res, ex in beam]
    matched = sum(res.state_tags == ex.state_tags and res.boundary_tag == ex.boundary_tag
                  for res, ex in beam)
    setup_own = tracer.self_times({"setup"})
    beam_fns = ("dp.beam.forward", "dp.beam.viterbi", "dp.beam.ffbs")
    return {
        "models.build_state_space.calls": (calls("models.build_state_space"), "count"),
        "models.build_state_space.self_s": (self_s("models.build_state_space"), "s"),
        "models.state_space.edges": (
            statistics.fmean(s["attrs"]["edges"] for s in builds) if builds else 0.0, "count"),
        "timing.emission_matrix.self_s": (self_s("timing.emission_matrix"), "s"),
        "dp.forward.calls": (calls("dp.forward"), "count"),
        "dp.forward.self_s": (self_s("dp.forward"), "s"),
        "dp.forward.edge_steps": (edge_steps("dp.forward") / n_pass, "count"),
        "dp.forward.edge_steps_per_s": (steps_per_s("dp.forward"), "1/s"),
        "dp.viterbi.calls": (calls("dp.viterbi"), "count"),
        "dp.viterbi.self_s": (self_s("dp.viterbi"), "s"),
        "dp.viterbi.edge_steps_per_s": (steps_per_s("dp.viterbi"), "1/s"),
        "dp.beam.calls": (calls(*beam_fns), "count"),
        "dp.beam.self_pct": (pct(*beam_fns), "%"),
        "dp.beam.exact_match_fraction": (matched / len(beam) if beam else 1.0, "fraction"),
        "dp.beam.logprob_gap": (statistics.fmean(gaps) if gaps else 0.0, "nats"),
        "dp.ffbs.calls": (calls("dp.ffbs"), "count"),
        "dp.ffbs.backward_self_pct": (pct("dp.ffbs"), "%"),
        "inference.gather_counts.self_pct": (pct("inference.gather_counts"), "%"),
        "inference.sample_posterior.self_pct": (pct("inference.sample_posterior"), "%"),
        "inference.gibbs_fit.forward_per_sweep": (
            per_iteration("dp.forward", "dp.beam.forward"), "count"),
        "inference.gibbs_fit.builds_per_sweep": (
            per_iteration("models.build_state_space"), "count"),
        "inference.gibbs_fit.self_pct": (pct("inference.gibbs_fit"), "%"),
        "training.estimate_params.self_s": (setup_own.get("training.estimate_params", 0.0), "s"),
        "trace.piece_wall_s": (wall / n_pass, "s"),
        "trace.unattributed_s": (self_s("piece"), "s"),
        "trace.overhead_fraction": (walls["traced"] / walls["untraced"] - 1.0, "fraction"),
    }


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{v: os.environ.get(v) for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------


def failures_of(rs, prep, passes, references) -> dict:
    """``{(pass, piece): [failure, ...]}`` over every outcome in `passes`.

    ``references[k][i]`` is the outcome ``passes[k][i]`` must decode alike.
    """
    found = {}
    for k, (outcomes, refs) in enumerate(zip(passes, references)):
        for piece, out, ref in zip(prep.pieces, outcomes, refs):
            if isinstance(out, Exception):
                fails = [f"raised {type(out).__name__}: {out}"]
            else:
                fails = check(rs, prep, piece, out)
                if not isinstance(ref, Exception) and out.note_values != ref.note_values:
                    fails.append("decoded differently from its reference run")
            if fails:
                found[(k, piece.index)] = fails
    return found


def digest(prep, outcomes) -> str:
    """Hash of every decoded note value of one pass, in piece order."""
    payload = [[p.model, repr(o) if isinstance(o, Exception) else list(o.note_values)]
               for p, o in zip(prep.pieces, outcomes)]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def run(workload_name: str, seed: int, seconds: float, trace: bool, lengths=None,
        setup_samples: int = SETUP_SAMPLES, spans_path=None):
    """One benchmark run; returns ``(report, result)`` without printing."""
    import spans

    tracer = spans.Tracer() if trace else None
    rs, prep, setup_s = setup(workload_name, seed, lengths, tracer)
    report = {"workload": workload_name, "seed": seed, "pieces_per_pass": len(prep.pieces),
              "sweeps": prep.workload.sweeps, "env": environment()}
    if trace:
        walls, passes, twins, beam = traced_passes(rs, prep, seconds, tracer)
        metrics = per_layer(prep, tracer, walls, len(passes), beam)
        # traced calls must decode like their untraced twins, twins like pass 0
        found = failures_of(rs, prep, passes, twins)
        found.update({("untraced",) + key: v for key, v in
                      failures_of(rs, prep, twins, [twins[0]] * len(twins)).items()})
        report.update(
            untraced_digest=digest(prep, twins[0]), beam_pieces=len(beam),
            self_seconds_per_pass={n: t / len(passes) for n, t in sorted(
                tracer.self_times(timed_pieces(prep, len(passes))).items())})
        attempted = 2 * len(passes) * len(prep.pieces)
    else:
        samples = [setup_s] + [setup_probe(workload_name, seed) for _ in range(setup_samples - 1)]
        wall, latencies, passes = timed_passes(rs, prep, seconds)
        metrics = end_to_end(prep, wall, latencies, passes, samples)
        found = failures_of(rs, prep, passes, [passes[0]] * len(passes))
        t = tail(latencies)
        report.update(quality(prep, passes[0]), setup_samples_s=samples, latencies_s=latencies,
                      piece_latency_tail=(None if t is None else
                                          {"value_s": t[0], "percentile": t[1], "n": t[2]}))
        attempted = len(passes) * len(prep.pieces)
    report.update(digest=digest(prep, passes[0]), passes=len(passes),
                  failed_fraction=len(found) / attempted,
                  failures=[f"{key}: {msg}" for key, msgs in found.items() for msg in msgs][:20])
    if trace and spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(tracer.spans))
    result = {
        "correct": not found,
        "attempted": attempted,
        "failed": len(found),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process and print its seconds")
    args = ap.parse_args(argv)
    try:
        if args.setup_only:
            print(setup(args.workload, args.seed)[2])
            return 0
        spans_path = SPANS_DIR / f"spans-{args.workload}-{args.seed}.json"
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             spans_path=spans_path)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
