"""Per-layer tracing from outside the program.

``Tracer.installed()`` replaces the public functions of each layer with
timing wrappers for the duration of a ``with`` block and puts the
originals back afterwards; nothing under ``src/`` changes.  Layer times
are exclusive: a call into another wrapped layer is charged to that
layer, so the layer times of a phase add up to at most its wall time and
the rest is the phase's own (worklist and control) time.  Calls made while
a call of the same layer is open are neither timed again nor counted, so
counts are of outermost calls.

Per-call spans are recorded only for the phases and for the operations of
``symta.ops`` and ``symta.transducer``; the layers below are too busy for
that and are aggregated per phase instead.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

from symta import alphabet, automaton, io, mtbdd, ops, transducer

#: layer -> (owner, attribute names) of the timed functions
TIMED = {
    "mtbdd": (mtbdd.Manager, ("apply", "monadic_apply", "project", "trim_bank",
                              "rename_bank", "from_cube")),
    "index": (automaton.SuperStateIndex, ("tuples", "containing")),
    "alphabet": (alphabet.Alphabet, ("encode", "decode_cube", "decode_pair_cube")),
    "io": (io, ("parse_timbuk_document", "alphabet_from_documents",
                "build_automaton", "build_transducer", "extract_transitions",
                "extract_rules", "write_timbuk", "write_timbuk_transducer")),
}

#: operations that get a span each; the minimise split reads these
SPANNED = {
    "ops": (ops, ("union", "intersection", "determinise", "prune_unreachable",
                  "compute_congruence", "reduce_by_equivalence", "minimise",
                  "downward_simulation", "reduce_by_simulation",
                  "check_inclusion_antichain")),
    "transducer": (transducer, ("apply_step", "compose")),
}

LAYERS = tuple(TIMED)

#: minimise sub-phases: metric suffix -> spanned function
MINIMISE_SPLIT = {"prune_s": "prune_unreachable", "determinise_s": "determinise",
                  "congruence_s": "compute_congruence",
                  "quotient_s": "reduce_by_equivalence"}


class Tracer:
    def __init__(self):
        self.stack: list = []             # open layer frames: [layer, child time]
        self.spans: list[dict] = []
        self.span_stack: list[int] = []
        self.phases: list[dict] = []
        self._reset()

    def _reset(self):
        self.time = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.count = {"index_tuples": 0, "mtbdd_steps": 0, "mtbdd_nodes": 0}

    # -- wrappers ------------------------------------------------------------

    def _timed(self, layer, fn, counts_tuples):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                stack.pop()
                tracer.time[layer] += spent - frame[1]
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][1] += spent
            if counts_tuples:
                tracer.count["index_tuples"] += len(result)
            return result

        return wrapper

    def _spanned(self, layer, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = {"id": len(tracer.spans), "name": name, "layer": layer,
                    "parent": tracer.span_stack[-1] if tracer.span_stack else None,
                    "start": perf_counter()}
            tracer.spans.append(span)
            tracer.span_stack.append(span["id"])
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.span_stack.pop()
                span["end"] = perf_counter()

        return wrapper

    def _counted(self, fn, name):
        tracer = self

        def wrapper(*args):
            tracer.count[name] += 1
            return fn(*args)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function; restore the originals on exit."""
        saved = []

        def patch(owner, attr, wrapper):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

        for layer, (owner, names) in TIMED.items():
            for attr in names:
                patch(owner, attr, self._timed(layer, getattr(owner, attr),
                                               layer == "index"))
        for layer, (owner, names) in SPANNED.items():
            for attr in names:
                patch(owner, attr, self._spanned(layer, attr, getattr(owner, attr)))
        patch(mtbdd.Manager, "node", self._counted(mtbdd.Manager.node, "mtbdd_steps"))
        patch(mtbdd.Manager, "leaf", self._counted(mtbdd.Manager.leaf, "mtbdd_steps"))
        patch(mtbdd.Node, "__init__", self._counted(mtbdd.Node.__init__, "mtbdd_nodes"))
        patch(mtbdd.Leaf, "__init__", self._counted(mtbdd.Leaf.__init__, "mtbdd_nodes"))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- phases --------------------------------------------------------------

    @contextlib.contextmanager
    def phase(self, name):
        """Collect the layer totals of one phase."""
        self._reset()
        first_span = len(self.spans)
        span = {"id": len(self.spans), "name": name, "layer": "phase",
                "parent": None, "start": perf_counter()}
        self.spans.append(span)
        self.span_stack.append(span["id"])
        try:
            yield
        finally:
            self.span_stack.pop()
            span["end"] = perf_counter()
            record = {"phase": name, "wall_s": span["end"] - span["start"],
                      "time_s": self.time, "calls": self.calls,
                      "ops_s": {}, **self.count}
            for s in self.spans[first_span + 1:]:
                record["ops_s"][s["name"]] = (record["ops_s"].get(s["name"], 0.0)
                                              + s["end"] - s["start"])
            self.phases.append(record)


def phase_metrics(record) -> dict:
    """The per-layer metrics of one traced phase, by metric suffix."""
    t = record["time_s"]
    calls = record["calls"]["mtbdd"]
    out = {
        "mtbdd_s": t["mtbdd"], "mtbdd_calls": calls,
        "mtbdd_steps": record["mtbdd_steps"], "mtbdd_nodes": record["mtbdd_nodes"],
        "index_s": t["index"], "index_tuples": record["index_tuples"],
        "tuples_per_apply": record["index_tuples"] / calls if calls else 0.0,
        "alphabet_s": t["alphabet"], "io_s": t["io"],
        "self_s": record["wall_s"] - sum(t.values()),
    }
    if record["phase"] == "minimise":
        for suffix, fn in MINIMISE_SPLIT.items():
            out[suffix] = record["ops_s"].get(fn, 0.0)
    return out
