"""Outside-in tracing: wrap each layer's public functions in timed spans.

The library has no instrumentation of its own, so the benchmark replaces
module attributes with wrappers for the duration of a traced run and puts
the originals back afterwards.  A span records its name, start, end, parent
span and the piece it belongs to; spans stay in memory until the run ends.
A layer's self time is its spans' durations minus the part covered by their
child spans.

Layers and the calls wrapped (the name a caller looks up at call time):

==========  ==============================================================
models      ``inference.build_state_space`` (the name `transcribe` and
            `gibbs_fit` look up)
timing      ``timing.TranscriptionHmm.emission_matrix``
_dp         ``_dp.forward``, ``_dp.viterbi``, ``_dp.ffbs``; a call with a beam
            width is named ``dp.beam.<fn>``, so exact and beam work count apart.
            `ffbs` looks `forward` up in its own module, so its forward pass is
            a child span and the rest of `ffbs` is the backward pass.
inference   ``inference.gibbs_fit``, ``inference.gather_counts``,
            ``inference.sample_posterior``
training    ``training.estimate_params`` and the package-level alias
==========  ==============================================================
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

_DP_FUNCTIONS = ("forward", "viterbi", "ffbs")


class Tracer:
    """In-memory span recorder; off until a piece or phase is entered."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.piece = None
        self.enabled = False

    @contextmanager
    def record(self, piece, name: str = "piece"):
        """Trace everything called inside as children of one root span."""
        self.piece, self.enabled = piece, True
        try:
            with self.span(name):
                yield
        finally:
            self.piece, self.enabled = None, False

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        sid = len(self.spans)
        rec = {"id": sid, "parent": self._stack[-1] if self._stack else None,
               "piece": self.piece, "name": name, "attrs": attrs or {}}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name_of, attrs_of=None, result_attrs=None):
        """`fn` traced as a span named ``name_of(bound_args)``.

        `attrs_of` reads span attributes from the arguments, `result_attrs`
        from the return value.
        """
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs).arguments
            with self.span(name_of(bound), attrs_of(bound) if attrs_of else None) as rec:
                result = fn(*args, **kwargs)
                if result_attrs:
                    rec["attrs"].update(result_attrs(result))
            return result

        return traced

    def self_times(self, pieces=None) -> dict[str, float]:
        """Per-name self seconds over spans of the given pieces (all if None)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            if pieces is None or s["piece"] in pieces:
                own = s["end"] - s["start"] - child[s["id"]]
                out[s["name"]] = out.get(s["name"], 0.0) + own
        return out


def _dp_namer(fn_name: str):
    def name_of(a):
        beam = a.get("beam_width") is not None
        return f"dp.beam.{fn_name}" if beam else f"dp.{fn_name}"
    return name_of


def _dp_attrs(a):
    # edge steps are computed, not measured: steps x edges of the space
    return {"steps": len(a["em"]), "edges": int(a["space"].n_edges)}


@contextmanager
def installed(tracer: Tracer, rs):
    """Swap the wrappers into the library; restore the originals on exit."""
    dp = importlib.import_module("rhythmscribe._dp")
    def fixed(name):
        return lambda a: name

    targets = [
        (rs.inference, "build_state_space", fixed("models.build_state_space"),
         None, lambda space: {"edges": int(space.n_edges)}),
        (rs.timing.TranscriptionHmm, "emission_matrix", fixed("timing.emission_matrix"),
         None, None),
        (rs.inference, "gibbs_fit", fixed("inference.gibbs_fit"), None, None),
        (rs.inference, "gather_counts", fixed("inference.gather_counts"), None, None),
        (rs.inference, "sample_posterior", fixed("inference.sample_posterior"), None, None),
        (rs.training, "estimate_params", fixed("training.estimate_params"), None, None),
        (rs, "estimate_params", fixed("training.estimate_params"), None, None),
    ] + [(dp, f, _dp_namer(f), _dp_attrs, None) for f in _DP_FUNCTIONS]
    saved = []
    try:
        for owner, attr, name_of, attrs_of, result_attrs in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name_of, attrs_of, result_attrs))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
