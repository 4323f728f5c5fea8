"""Expected answers for every benchmark operation, computed apart from the
program.

The program's results are written as Timbuk text, read back here by the
benchmark's own reader, and compared with answers that ``symta.oracle``
computes on explicit rule lists.  Where a result names its states by
provenance (the product pairs of intersection, ``apply_step`` and
``compose``, the macrostates of ``determinise``, the classes of a
quotient) the comparison is exact, rule for rule.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

from symta import Alphabet, io, oracle, transducer

import gen


@dataclass
class TransModel:
    """Explicit transducer: rules are (in symbol, sources, out symbol, target)."""

    states: frozenset
    finals: frozenset
    rules: frozenset


# -- the benchmark's own Timbuk reader --------------------------------------

_RULE = re.compile(r"^(\w+)(?:\(([^)]*)\))?\s*(?:/\s*(\w+)\s*)?->\s*(\S+)$")


def read_timbuk(text: str, alphabet):
    """Read a document the program wrote into an ExplicitTA or a TransModel.

    Only the canonical layout the writer emits is accepted: one section
    keyword per line, one rule per line.
    """
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines[0].startswith("Ops"):
        raise ValueError("document does not start with Ops")
    kind, _ = lines[1].split(maxsplit=1)
    states = lines[2].split()[1:] if lines[2].startswith("States") else None
    if states is None or not lines[3].startswith("Final States"):
        raise ValueError("missing States / Final States")
    finals = lines[3].split()[2:]
    if lines[4] != "Transitions":
        raise ValueError("missing Transitions")
    rules = set()
    for line in lines[5:]:
        match = _RULE.match(line)
        if match is None:
            raise ValueError(f"unreadable rule {line!r}")
        sym, sources, out, target = match.groups()
        src = tuple(s.strip() for s in sources.split(",")) if sources else ()
        if (kind == "Transducer") != (out is not None):
            raise ValueError(f"rule {line!r} does not fit a {kind}")
        rules.add((sym, src, out, target) if out else (sym, src, target))
    if kind == "Transducer":
        return TransModel(frozenset(states), frozenset(finals), frozenset(rules))
    return oracle.ExplicitTA(alphabet, frozenset(states), frozenset(finals),
                             frozenset(rules))


def model_of(spec, alphabet):
    """Explicit model of a generated input."""
    if spec.kind == "transducer":
        return TransModel(frozenset(spec.states), frozenset(spec.finals),
                          frozenset(spec.rules))
    return oracle.ExplicitTA(alphabet, frozenset(spec.states),
                             frozenset(spec.finals), frozenset(spec.rules))


# -- helpers ----------------------------------------------------------------

def _pair(p, q):
    return f"{p}|{q}"


def _renamed(x, rename):
    """Rules, states and finals of a result with its names mapped through
    ``rename`` (result name -> provenance name)."""
    if isinstance(x, TransModel):
        rules = {(f, tuple(rename[s] for s in src), g, rename[t])
                 for f, src, g, t in x.rules}
    else:
        rules = {(f, tuple(rename[s] for s in src), rename[t])
                 for f, src, t in x.rules}
    return (frozenset(rename[s] for s in x.states),
            frozenset(rename[s] for s in x.finals), frozenset(rules))


def _reachable_part(alphabet, states, finals, rules):
    """Restrict an explicit product to its bottom-up reachable pairs."""
    plain = frozenset((r[0], r[1], r[-1]) for r in rules)
    reached = oracle.explicit_reachable(
        oracle.ExplicitTA(alphabet, frozenset(states), frozenset(finals), plain))
    kept = frozenset(r for r in rules if all(s in reached for s in r[1]))
    return reached, frozenset(q for q in finals if q in reached), kept


def _compare(label, actual, expected, errors):
    names = ("states", "finals", "rules")
    for name, got, want in zip(names, actual, expected):
        if got != want:
            missing = sorted(want - got, key=str)[:2]
            extra = sorted(got - want, key=str)[:2]
            errors.append(f"{label}: {name} differ (missing {missing},"
                          f" unexpected {extra})")
            return


def _deterministic(label, x, errors):
    seen = set()
    for sym, src, _ in x.rules:
        if (sym, src) in seen:
            errors.append(f"{label}: nondeterministic at {sym}{src}")
            return
        seen.add((sym, src))


def accepts_all(x, terms) -> list[bool]:
    """``oracle.accepts_term`` for many terms, sharing one bottom-up pass
    over all their subterms."""
    order: dict = {}

    def collect(t):
        for child in t[1]:
            collect(child)
        order[t] = None

    for t in terms:
        collect(t)
    reach = oracle.reachable_map(x, list(order))
    return [bool(reach[t] & x.finals) for t in terms]


def _same_language(label, x, y, terms, errors):
    if accepts_all(x, terms) != accepts_all(y, terms):
        errors.append(f"{label}: languages differ on a sample term")


def _sim_classes(x):
    sim = oracle.explicit_downward_simulation(x)
    return {frozenset(r for r in x.states if (q, r) in sim and (r, q) in sim)
            for q in x.states}


def find_witness(x, y, per_state=4, rounds=12):
    """A term in L(x) but not in L(y), found by explicit bottom-up search
    over pairs (state of x, exact state set of y on the same term), keeping
    a few terms per state of x; None when the search runs out."""
    xrules = x.rule_map()
    yrules = y.rule_map()
    have: dict = {q: [] for q in x.states}
    seen = set()
    for _ in range(rounds):
        grown = []
        for (sym, src), targets in sorted(xrules.items()):
            options = [have[s] for s in src]
            for combo in itertools.product(*options):
                t = (sym, tuple(c[0] for c in combo))
                if t in seen:
                    continue
                seen.add(t)
                ystates = set()
                for ysrc in itertools.product(*(c[1] for c in combo)):
                    ystates |= yrules.get((sym, ysrc), frozenset())
                ystates = frozenset(ystates)
                for q in sorted(targets):
                    if q in x.finals and not ystates & y.finals:
                        return t
                    grown.append((q, t, ystates))
        if not grown:
            return None
        for q, t, ystates in grown:
            if len(have[q]) < per_state:
                have[q].append((t, ystates))
    return None


# -- one check per operation kind -------------------------------------------

def check_determinise(label, x, got, origins, errors):
    det = oracle.explicit_determinise(x)
    rename = {name: "+".join(sorted(members)) for name, members in origins.items()}
    _compare(label, _renamed(got, rename), (det.states, det.finals, det.rules),
             errors)
    _deterministic(label, got, errors)


def check_minimise(label, x, got, terms, errors):
    want = oracle.minimal_state_count(x)
    if len(got.states) != want:
        errors.append(f"{label}: {len(got.states)} states, minimal is {want}")
    _deterministic(label, got, errors)
    _same_language(label, x, got, terms, errors)


def check_simulation(label, x, got, origins, errors):
    classes = _sim_classes(x)
    if {frozenset(m) for m in origins.values()} != classes:
        errors.append(f"{label}: classes differ from mutual simulation")
        return
    cls = {q: "{" + ",".join(sorted(block)) + "}" for block in classes for q in block}
    expected = (frozenset(cls.values()), frozenset(cls[q] for q in x.finals),
                frozenset((f, tuple(cls[s] for s in src), cls[t])
                          for f, src, t in x.rules))
    rename = {name: "{" + ",".join(sorted(m)) + "}" for name, m in origins.items()}
    _compare(label, _renamed(got, rename), expected, errors)


def check_product(label, expected_rules, states, finals, got, origins, alphabet,
                  errors):
    """Reachable part of an explicit product against a product result whose
    states carry their pair of operand names."""
    expected = _reachable_part(alphabet, states, finals, expected_rules)
    rename = {name: _pair(*pair) for name, pair in origins.items()}
    _compare(label, _renamed(got, rename), expected, errors)


def check_intersection(label, x1, x2, got, origins, errors):
    prod = oracle.explicit_intersection(x1, x2)
    check_product(label, prod.rules, prod.states, prod.finals, got, origins,
                  x1.alphabet, errors)


def image_rules(rules, tr_rules) -> set:
    """Rules (output symbol, source pairs, target pair) of the image of an
    automaton's rules under a transducer's, by explicit rule matching."""
    chained = oracle.chain_rules({(f, src, f, t) for f, src, t in rules},
                                 tr_rules)
    return {(g, src, t) for _, src, g, t in chained}


def check_apply_step(label, tr, x, got, origins, errors, image_height):
    rules = image_rules(x.rules, tr.rules)
    states = {_pair(p, q) for p in x.states for q in tr.states}
    finals = {_pair(p, q) for p in x.finals for q in tr.finals}
    check_product(label, rules, states, finals, got, origins, x.alphabet, errors)
    if image_height:
        image = oracle.transducer_image(tr.rules, tr.finals, x, image_height)
        if oracle.language_upto(got, image_height) != image:
            errors.append(f"{label}: image differs from transducer_image"
                          f" up to height {image_height}")


def check_compose(label, t1, t2, got, origins, alphabet, errors):
    rules = oracle.chain_rules(t1.rules, t2.rules)
    states = {_pair(p, q) for p in t1.states for q in t2.states}
    finals = {_pair(p, q) for p in t1.finals for q in t2.finals}
    check_product(label, rules, states, finals, got, origins, alphabet, errors)


def check_identity(label, got, symbols, errors):
    """A permutation composed with its inverse relabels every symbol to
    itself and to nothing else."""
    pairs = {(f, g) for f, _, g, _ in got.rules}
    if pairs != {(s, s) for s, _ in symbols}:
        errors.append(f"{label}: not the identity relabelling")


def check_union(label, x1, x2, got, rename, errors):
    expected = (x1.states | x2.states, x1.finals | x2.finals, x1.rules | x2.rules)
    _compare(label, _renamed(got, rename), expected, errors)


def check_inclusion(label, x1, x2, answer, expect, errors):
    if expect == "holds":
        if answer is not True:
            errors.append(f"{label}: inclusion that holds by construction"
                          f" reported as failing")
        return
    witness = find_witness(x1, x2)
    if witness is None:
        errors.append(f"{label}: no witness term found for a failing inclusion")
    elif not (oracle.accepts_term(x1, witness)
              and not oracle.accepts_term(x2, witness)):
        errors.append(f"{label}: witness term does not separate the languages")
    elif answer is not False:
        errors.append(f"{label}: inclusion reported, but a witness term exists")


def check_membership(label, x, terms, answers, errors):
    expected = accepts_all(x, terms)
    if answers != expected:
        wrong = sum(a != e for a, e in zip(answers, expected))
        errors.append(f"{label}: {wrong} of {len(terms)} membership answers wrong")


# -- a whole workload -------------------------------------------------------

def explicit_model(obj, symbols, alphabet):
    """Explicit view of a result, read from its diagrams.

    The cubes come from ``io.extract_transitions`` / ``extract_rules``;
    they are expanded into symbols here, from the documented encoding
    (codewords count up over distinct names in declaration order, most
    significant bit first), so the cost is that of the rules found and not
    of the alphabet.
    """
    names = list(dict.fromkeys(s for s, _ in symbols))
    ranked = set(symbols)
    width = obj.alphabet.width

    def decode(cube, arity):
        codes = [0]
        for bit in cube:
            codes = ([2 * c for c in codes] + [2 * c + 1 for c in codes]
                     if bit is None else [2 * c + bit for c in codes])
        return [names[c] for c in codes
                if c < len(names) and (names[c], arity) in ranked]

    name = obj.state_name
    states = frozenset(name(q) for q in obj.states)
    finals = frozenset(name(q) for q in obj.finals)
    rules = set()
    if isinstance(obj, transducer.Transducer):
        for tc in io.extract_rules(obj):
            src = tuple(name(q) for q in tc.source)
            outs = decode(tc.cube[1::2], len(src))
            for f in decode(tc.cube[0::2], len(src)):
                rules.update((f, src, g, name(t)) for g in outs for t in tc.targets)
        return TransModel(states, finals, frozenset(rules))
    for tc in io.extract_transitions(obj):
        src = tuple(name(q) for q in tc.source)
        for f in decode(tc.cube, len(src)):
            rules.update((f, src, name(t)) for t in tc.targets)
    return oracle.ExplicitTA(alphabet, states, finals, frozenset(rules))


def _same_model(a, b):
    return (a.states, a.finals, a.rules) == (b.states, b.finals, b.rules)


def _origin_names(res, *machines):
    """Result state name -> provenance in operand names: a frozenset of
    names for subset and quotient states, a pair of names for products."""
    out = {}
    for sid in res.states:
        origin = res.origins[sid]
        if isinstance(origin, tuple):
            out[res.state_name(sid)] = tuple(m.state_name(q)
                                             for m, q in zip(machines, origin))
        else:
            out[res.state_name(sid)] = frozenset(machines[0].state_name(q)
                                                 for q in origin)
    return out


def check_workload(workload, objs) -> list[str]:
    """Check the results of the last round; returns the failures found."""
    alphabet = Alphabet()
    for sym, arity in workload.symbols:
        alphabet.add_symbol(sym, arity)
    alphabet.freeze()
    rng = random.Random(f"check-{workload.seed}")
    models = {spec.name: model_of(spec, alphabet) for spec in workload.specs}
    errors: list[str] = []
    for job in workload.jobs:
        label = f"{workload.name}/{job.key}"
        ins = [models[k] for k in job.args]
        machines = [objs[k] for k in job.args]
        res = objs[job.key]
        if job.op == "inclusion":
            check_inclusion(label, *ins, res, job.expect, errors)
            continue
        if job.op == "membership":
            check_membership(label, ins[0], workload.terms[job.args[0]], res, errors)
            continue
        if job.op == "write":
            try:
                written = read_timbuk(res, alphabet)
            except ValueError as exc:
                errors.append(f"{label}: written text unreadable: {exc}")
                continue
            if not _same_model(written, ins[0]):
                errors.append(f"{label}: written text differs from the result")
            continue
        got = models[job.key] = explicit_model(res, workload.symbols, alphabet)
        if job.op == "determinise":
            check_determinise(label, ins[0], got, _origin_names(res, *machines),
                              errors)
        elif job.op == "minimise":
            terms = gen.sample_terms(rng, ins[0].rules, ins[0].finals,
                                     workload.symbols, 40, 30)
            check_minimise(label, ins[0], got, terms, errors)
        elif job.op == "simulation":
            check_simulation(label, ins[0], got, _origin_names(res, *machines),
                             errors)
        elif job.op == "intersection":
            check_intersection(label, *ins, got, _origin_names(res, *machines),
                               errors)
        elif job.op == "union":
            rename = {}
            for name in got.states:
                sid = res.state_id(name)
                owner = machines[0] if machines[0].has_state_id(sid) else machines[1]
                rename[name] = owner.state_name(sid)
            check_union(label, *ins, got, rename, errors)
        elif job.op == "apply_step":
            tr, aut = ins
            check_apply_step(label, tr, aut, got,
                             _origin_names(res, machines[1], machines[0]),
                             errors, workload.image_height)
        elif job.op == "compose":
            check_compose(label, *ins, got, _origin_names(res, *machines),
                          alphabet, errors)
            if job.key in workload.identities:
                check_identity(label, got, workload.symbols, errors)
    return errors
