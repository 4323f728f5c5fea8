"""The benchmark's workloads: generated inputs plus the jobs run on them.

A workload is a list of generated documents and a list of jobs.  A job
names its phase, the key its result is stored under, the operation, and
the keys of its operands (loaded documents or earlier results).  Every
round runs the same jobs in the same order on a fresh load, so the
rounds of one run are interchangeable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import gen
from check import image_rules

#: Nodes per membership term.
TERM_NODES = 40

#: Phases in execution order.  ``union`` only builds operands for the
#: phases after it and is not reported on its own.
PHASES = ("compose", "apply_step", "determinise", "minimise", "simulation",
          "union", "intersection", "inclusion", "membership", "write")


@dataclass
class Job:
    phase: str
    key: str
    op: str
    args: tuple
    expect: str | None = None   # inclusion only: "holds" or "fails"


@dataclass
class Workload:
    name: str
    seed: int
    symbols: list
    specs: list
    jobs: list = field(default_factory=list)
    terms: dict = field(default_factory=dict)
    #: phase -> how many times its jobs run per round, for phases too
    #: quick to time steadily in one pass
    repeat: dict = field(default_factory=dict)
    #: height up to which apply_step images are compared with
    #: oracle.transducer_image; 0 where the alphabet is too wide to enumerate
    image_height: int = 0
    #: compose results that must relabel every symbol to itself
    identities: tuple = ()

    def add(self, phase, key, op, *args, expect=None):
        self.jobs.append(Job(phase, key, op, args, expect))


def _pair_jobs(w, a, b):
    """Union and intersection of the operands a, b (keys), and five
    inclusion queries: both operands in their union and the intersection
    in b hold by construction; a in b and b in a fail, as the generated
    operands always differ in language.  Returns the union's key."""
    union, inter = f"uni.{a}.{b}", f"int.{a}.{b}"
    w.add("union", union, "union", a, b)
    w.add("intersection", inter, "intersection", a, b)
    for x, y, expect in ((a, union, "holds"), (b, union, "holds"),
                         (inter, b, "holds"), (a, b, "fails"), (b, a, "fails")):
        w.add("inclusion", f"incl.{x}<{y}", "inclusion", x, y, expect=expect)
    return union


# -- reach ------------------------------------------------------------------

#: ``draws`` determinisation-sized draws (n = ``det``) go through
#: determinise and minimise; ``pairs`` relation-sized pairs (n = ``rel``)
#: through everything else.  Many small instances rather than a few large
#: ones: the cost of one instance varies by 10-25% from the next, and a
#: phase's figure is the mean over its instances.
REACH_SIZES = {"full": {"draws": 12, "det": 10, "pairs": 24, "rel": 8,
                        "terms": 50},
               "tiny": {"draws": 2, "det": 3, "pairs": 2, "rel": 4, "terms": 10}}


def reach(seed: int, scale: str = "full") -> Workload:
    size = REACH_SIZES[scale]
    rng = random.Random(seed)
    symbols = gen.ranked(["a", "b"], ["g", "h"], ["f", "k"])
    t = gen.relabelling_transducer(rng, "T", "t", 2, 1, symbols)
    s = gen.relabelling_transducer(rng, "S", "u", 2, 2, symbols)
    w = Workload("reach", seed, symbols, [t, s], image_height=3,
                 repeat={"compose": 40})
    w.add("compose", "comp.T.S", "compose", "T", "S")
    w.add("compose", "comp.T.T", "compose", "T", "T")
    for i in range(size["draws"]):
        d = gen.reach_draw(rng, f"D{i}", f"d{i}_", size["det"], symbols)
        w.specs.append(d)
        w.add("determinise", f"det.D{i}", "determinise", d.name)
        w.add("minimise", f"min.D{i}", "minimise", d.name)
        for key in (f"det.D{i}", f"min.D{i}"):
            w.add("write", f"txt.{key}", "write", key)
    for i in range(size["pairs"]):
        a, b = gen.reach_pair(rng, (f"A{i}", f"B{i}"), (f"a{i}_", f"b{i}_"),
                              size["rel"], symbols)
        w.specs += [a, b]
        w.add("apply_step", f"img.T.A{i}", "apply_step", "T", a.name)
        w.add("simulation", f"sim.A{i}", "simulation", a.name)
        union = _pair_jobs(w, a.name, b.name)
        w.terms[union] = gen.sample_terms(rng, a.rules | b.rules,
                                          a.finals + b.finals, symbols,
                                          size["terms"], TERM_NODES)
        w.add("membership", f"mem.{union}", "membership", union)
        for key in (f"sim.A{i}", f"int.A{i}.B{i}", f"img.T.A{i}"):
            w.add("write", f"txt.{key}", "write", key)
    w.add("write", "txt.comp.T.S", "write", "comp.T.S")
    return w


# -- wide-alphabet ----------------------------------------------------------

WIDE_SIZES = {"full": {"sets": 2, "exponent": 9, "states": 4, "terms": 40},
              "tiny": {"sets": 2, "exponent": 4, "states": 3, "terms": 10}}


def wide_alphabet(seed: int, scale: str = "full") -> Workload:
    size = WIDE_SIZES[scale]
    rng = random.Random(seed)
    inner = 2 ** size["exponent"] - 2
    symbols = gen.ranked(["c", "d"], [f"u{i}" for i in range(inner // 2)],
                         [f"b{i}" for i in range(inner - inner // 2)])
    perm, inv = gen.permutation_transducer(rng, "P", symbols)
    w = Workload("wide-alphabet", seed, symbols, [perm, inv],
                 repeat={"simulation": 2},
                 identities=("comp.P.Pinv",))
    w.add("compose", "comp.P.Pinv", "compose", "P", "Pinv")
    w.add("compose", "comp.P.P", "compose", "P", "P")
    for i in range(size["sets"]):
        a = gen.wide_automaton(rng, f"A{i}", f"a{i}_", size["states"], symbols)
        b = gen.wide_automaton(rng, f"B{i}", f"b{i}_", size["states"], symbols)
        w.specs += [a, b]
        w.add("apply_step", f"img.P.A{i}", "apply_step", "P", a.name)
        w.add("apply_step", f"img.Pinv.img.P.A{i}", "apply_step", "Pinv",
              f"img.P.A{i}")
        w.add("determinise", f"det.A{i}", "determinise", a.name)
        w.add("minimise", f"min.A{i}", "minimise", a.name)
        w.add("simulation", f"sim.A{i}", "simulation", a.name)
        w.add("simulation", f"sim.B{i}", "simulation", b.name)
        union = _pair_jobs(w, a.name, b.name)
        w.terms[union] = gen.sample_terms(rng, a.rules | b.rules,
                                          a.finals + b.finals, symbols,
                                          size["terms"], TERM_NODES)
        w.add("membership", f"mem.{union}", "membership", union)
    w.add("write", "txt.img.P.A0", "write", "img.P.A0")
    return w


# -- transduce --------------------------------------------------------------

TRANSDUCE_SIZES = {"full": {"pairs": 8, "sets": 20, "rel": 8, "states": 3,
                            "terms": 50},
                   "tiny": {"pairs": 1, "sets": 1, "rel": 3, "states": 2,
                            "terms": 10}}


def transduce(seed: int, scale: str = "full") -> Workload:
    """Several pairs of multi-state transducers T, S are composed (T∘T and
    T∘S) and the compositions applied to reach automata.  The op suite
    runs on the images of the same automata under a one-state relabelling
    R: a multi-state transducer pairs every state with a shape-dependent
    transducer state, and the sizes of such images, and the cost of
    reading terms with them, varied too much between seeds for their
    times to be compared."""
    size = TRANSDUCE_SIZES[scale]
    rng = random.Random(seed)
    symbols = gen.ranked(["c", "d"], [f"u{i}" for i in range(4)],
                         [f"b{i}" for i in range(4)])
    relabel, _ = gen.permutation_transducer(rng, "R", symbols)
    w = Workload("transduce", seed, symbols, [relabel], image_height=3,
                 repeat={"compose": 2})
    pairs = []
    for j in range(size["pairs"]):
        t = gen.relabelling_transducer(rng, f"T{j}", f"t{j}_", size["states"], 1,
                                       symbols)
        s = gen.relabelling_transducer(rng, f"S{j}", f"s{j}_", size["states"], 2,
                                       symbols)
        w.specs += [t, s]
        w.add("compose", f"comp.T{j}.T{j}", "compose", t.name, t.name)
        w.add("compose", f"comp.T{j}.S{j}", "compose", t.name, s.name)
        pairs.append((t, s))
    for i in range(size["sets"]):
        a, b = gen.reach_pair(rng, (f"A{i}", f"B{i}"), (f"a{i}_", f"b{i}_"),
                              size["rel"], symbols)
        w.specs += [a, b]
        if i < len(pairs):
            t, s = pairs[i]
            w.add("apply_step", f"I{i}", "apply_step",
                  f"comp.{t.name}.{t.name}", a.name)
            w.add("apply_step", f"K{i}", "apply_step",
                  f"comp.{t.name}.{s.name}", b.name)
            w.add("write", f"txt.I{i}", "write", f"I{i}")
        w.add("apply_step", f"J{i}", "apply_step", "R", a.name)
        w.add("apply_step", f"L{i}", "apply_step", "R", b.name)
        w.add("determinise", f"det.J{i}", "determinise", f"J{i}")
        w.add("minimise", f"min.J{i}", "minimise", f"J{i}")
        w.add("simulation", f"sim.J{i}", "simulation", f"J{i}")
        union = _pair_jobs(w, f"J{i}", f"L{i}")
        rules = image_rules(a.rules | b.rules, relabel.rules)
        finals = [f"{p}|{q}" for p in a.finals + b.finals
                  for q in relabel.finals]
        w.terms[union] = gen.sample_terms(rng, rules, finals, symbols,
                                          size["terms"], TERM_NODES)
        w.add("membership", f"mem.{union}", "membership", union)
        for key in (f"det.J{i}", f"min.J{i}", f"int.J{i}.L{i}"):
            w.add("write", f"txt.{key}", "write", key)
    w.add("write", "txt.comp.T0.S0", "write", "comp.T0.S0")
    return w


WORKLOADS = {"reach": reach, "wide-alphabet": wide_alphabet,
             "transduce": transduce}
