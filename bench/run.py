"""The symta benchmark: one workload per process.

    python3 bench/run.py --workload reach --seed 1 --seconds 35 --trace 0

Generates the workload's inputs from the seed, writes them as Timbuk
files under ``.bench_out/``, and then runs rounds for ``--seconds``,
starting no round that would end past them.  A round loads the files
into a fresh manager (the ``setup`` phase) and runs every job of the
workload once, each call timed on its own.  A phase's metric is the
median of each of its calls over the rounds, summed over the calls and
divided by the operations in them; ``peak_rss_mb`` is the peak resident
set through the first round.  The last round's results are then checked
against answers computed apart from the program (``check.py``), and one
JSON object is printed as the last line of standard output.

With ``--trace 0`` the object holds the end-to-end metrics.  With
``--trace 1`` untraced and traced rounds alternate, the object holds the
per-layer metrics of the traced rounds plus the tracing overhead, and
the spans and counters go to ``.bench_out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

#: end-to-end metric -> (phase, unit)
END_TO_END = {
    "setup_s": ("setup", "s"), "determinise_s": ("determinise", "s"),
    "minimise_s": ("minimise", "s"), "simulation_s": ("simulation", "s"),
    "inclusion_s": ("inclusion", "s"), "intersection_s": ("intersection", "s"),
    "membership_per_s": ("membership", "terms/s"),
    "apply_step_s": ("apply_step", "s"), "compose_s": ("compose", "s"),
    "write_s": ("write", "s"),
}

#: phases with per-layer metrics
TRACED_PHASES = ("setup", "determinise", "minimise", "simulation", "inclusion",
                 "intersection", "membership", "apply_step", "compose", "write")


def _import_program():
    """Import symta from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "symta", "__init__.py")):
        sys.exit(f"bench: no symta sources under {SRC}")
    sys.path.insert(0, SRC)
    import symta
    if os.path.dirname(os.path.dirname(os.path.abspath(symta.__file__))) != SRC:
        sys.exit("bench: symta was imported from outside this checkout")


class Runner:
    """Loads a workload's files and runs its jobs, optionally traced."""

    def __init__(self, workload, paths):
        from workloads import PHASES
        self.w = workload
        self.paths = paths
        self.by_phase = {p: [j for j in workload.jobs if j.phase == p]
                         for p in PHASES}

    def calls(self, phase):
        """Operations one round makes in a phase (membership: terms)."""
        if phase == "setup":
            return 1
        jobs = self.by_phase[phase]
        if phase == "membership":
            jobs = [t for j in jobs for t in self.w.terms[j.args[0]]]
        return len(jobs) * self.w.repeat.get(phase, 1)

    def load(self):
        from symta import io
        from symta.mtbdd import Manager
        docs = []
        for path in self.paths:
            with open(path, encoding="utf-8") as handle:
                docs.append(io.parse_timbuk_document(handle.read()))
        alphabet = io.alphabet_from_documents(*docs)
        manager = Manager(alphabet.width, banks=3)
        objs = {}
        for doc in docs:
            build = (io.build_automaton if doc.kind == "automaton"
                     else io.build_transducer)
            objs[doc.name] = build(doc, alphabet, manager)
        return objs

    def run_job(self, job, objs):
        from symta import io, ops, transducer
        args = [objs[k] for k in job.args]
        if job.op == "membership":
            aut = args[0]
            return [aut.accepts(t) for t in self.w.terms[job.args[0]]]
        if job.op == "write":
            if isinstance(args[0], transducer.Transducer):
                return io.write_timbuk_transducer(args[0])
            return io.write_timbuk(args[0])
        op = {"determinise": ops.determinise, "minimise": ops.minimise,
              "simulation": ops.reduce_by_simulation,
              "intersection": ops.intersection, "union": ops.union,
              "inclusion": ops.check_inclusion_antichain,
              "apply_step": transducer.apply_step,
              "compose": transducer.compose}[job.op]
        return op(*args)

    def round(self, tracer=None):
        """One fresh load plus every job once: (seconds of each call by
        phase, in a fixed order, and the objects)."""
        phase = tracer.phase if tracer else (lambda name: contextlib.nullcontext())
        seconds, objs = {}, {}

        def timed(name, calls):
            # As timeit does, the cyclic collector is off while a call is
            # timed: a pass costs time in proportion to everything alive,
            # so where the passes fell would decide a phase's time.  The
            # garbage of the call before goes first, and what survives it
            # is frozen, so that each collection only walks what one call
            # made and the peak memory stays that of one call's garbage.
            times = []
            with phase(name):
                for call in calls:
                    gc.collect()
                    gc.freeze()
                    start = perf_counter()
                    call()
                    times.append(perf_counter() - start)
            if tracer:
                # the phase's time without the collections between calls
                tracer.phases[-1]["wall_s"] = sum(times)
            seconds.setdefault(name, []).extend(times)

        def run_into(job):
            objs[job.key] = self.run_job(job, objs)

        gc.disable()
        try:
            timed("setup", [lambda: objs.update(self.load())])
            for name, jobs in self.by_phase.items():
                calls = [functools.partial(run_into, job) for job in jobs]
                timed(name, calls * self.w.repeat.get(name, 1))
        finally:
            gc.unfreeze()
            gc.enable()
        return seconds, objs


def write_inputs(workload, directory):
    """Render every generated document as a Timbuk file; return the paths."""
    import gen
    os.makedirs(directory, exist_ok=True)
    paths = []
    for spec in workload.specs:
        suffix = ".tmb" if spec.kind == "automaton" else ".tmbt"
        path = os.path.join(directory, spec.name + suffix)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(gen.timbuk_text(spec, workload.symbols))
        paths.append(path)
    return paths


def written_texts(objs):
    return {k: v for k, v in objs.items() if k.startswith("txt.")}


def run(workload, seconds, trace, out_dir):
    """Measure one workload; returns the result object to print."""
    import check
    paths = write_inputs(workload, os.path.join(
        out_dir, f"{workload.name}-{workload.seed}"))
    runner = Runner(workload, paths)
    traced_phases = []
    samples, traced, tracer = [], [], None
    first_texts, drift = None, False
    objs = peak_rss_mb = None
    deadline = perf_counter() + seconds
    while True:
        objs = None
        began = perf_counter()
        if trace and samples and len(traced) < len(samples):
            from tracing import Tracer
            tracer = tracer or Tracer()
            with tracer.installed():
                start = len(tracer.phases)
                times, objs = runner.round(tracer)
            traced.append(times)
            traced_phases.append(tracer.phases[start:])
        else:
            times, objs = runner.round()
            samples.append(times)
        if peak_rss_mb is None:
            # later rounds only add the allocator's fragmentation, which
            # differs from run to run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        texts = written_texts(objs)
        first_texts = first_texts or texts
        drift = drift or texts != first_texts
        # stop when another round like this one would end past the deadline
        if (2 * perf_counter() - began >= deadline
                and (not trace or traced)):
            break
    measured = perf_counter()
    errors = check.check_workload(workload, objs)
    if drift:
        errors.append("written results differ between rounds")
    for error in errors:
        print("CHECK FAILED:", error, file=sys.stderr)
    rounds = len(samples) + len(traced)
    print(f"bench: {workload.name} seed {workload.seed}: {rounds} rounds,"
          f" checks took {perf_counter() - measured:.1f} s", file=sys.stderr)
    attempted = rounds * sum(runner.calls(p)
                             for p in ("setup",) + tuple(runner.by_phase))
    if trace:
        metrics = per_layer_metrics(traced_phases, samples, traced)
        dump_trace(tracer, workload, out_dir)
    else:
        metrics = {}
        for name, (phase, unit) in END_TO_END.items():
            value = typical_round(samples, phase) / runner.calls(phase)
            metrics[name] = {"value": 1 / value if unit == "terms/s" else value,
                             "unit": unit}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    return {"correct": not errors, "attempted": attempted, "failed": 0,
            "metrics": metrics}


def typical_round(rounds, phase):
    """Seconds of one round's calls in a phase: each call's median over
    the rounds, summed.  The machine's speed wanders within a second; a
    median per call takes every call at its typical speed, where a median
    of whole phases leaves each phase at the speed of one stretch of time."""
    return sum(statistics.median(call) for call in zip(*(r[phase] for r in rounds)))


def per_layer_metrics(traced_phases, samples, traced):
    from tracing import phase_metrics
    values: dict = {}
    for phases in traced_phases:
        for record in phases:
            if record["phase"] not in TRACED_PHASES:
                continue
            for suffix, value in phase_metrics(record).items():
                values.setdefault(f"{record['phase']}.{suffix}", []).append(value)
    metrics = {}
    for name, vals in values.items():
        suffix = name.split(".", 1)[1]
        unit = "s" if suffix.endswith("_s") else (
            "ratio" if suffix == "tuples_per_apply" else "count")
        metrics[name] = {"value": statistics.median(vals), "unit": unit}
    plain = sum(typical_round(samples, phase) for phase in samples[0])
    slow = sum(typical_round(traced, phase) for phase in traced[0])
    metrics["trace.overhead_pct"] = {"value": 100 * (slow / plain - 1), "unit": "%"}
    return metrics


def dump_trace(tracer, workload, out_dir):
    path = os.path.join(out_dir, f"trace-{workload.name}-{workload.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": workload.seed,
                   "phases": tracer.phases, "spans": tracer.spans}, handle)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The order in which sets and dicts of state names are walked follows
    # the str hashes, which Python randomises per process, and the
    # worklists follow that order.  The hashes are fixed from the seed, so
    # that one seed always means the same work.
    hash_seed = str(args.seed % 2 ** 32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        os.environ["PYTHONHASHSEED"] = hash_seed
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__),
                                  *(sys.argv[1:] if argv is None else argv)])
    _import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r};"
                     f" choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    result = run(workload, args.seconds, args.trace, OUT)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
