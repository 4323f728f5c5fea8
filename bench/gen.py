"""Seeded input generators for the benchmark workloads.

Everything here is plain data: symbol lists, state lists and explicit rule
sets.  The Timbuk text the program loads is rendered from these lists by
the benchmark's own writer, and the checks build their expected answers
from the same lists, so neither side depends on the other.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass
class AutSpec:
    """An automaton as lists: rules are (symbol, sources, target)."""

    name: str
    states: list
    finals: list
    rules: set

    kind = "automaton"


@dataclass
class TransSpec:
    """A relabelling transducer: rules are (in symbol, sources, out symbol, target)."""

    name: str
    states: list
    finals: list
    rules: set

    kind = "transducer"


def ranked(nullary, unary, binary):
    """Symbol list [(name, arity)] in declaration order."""
    return ([(s, 0) for s in nullary] + [(s, 1) for s in unary]
            + [(s, 2) for s in binary])


# -- the reach-n family -----------------------------------------------------

def reach_skeleton(rng: random.Random, n: int, symbols) -> list:
    """A random deterministic skeleton: rules (symbol, source indices,
    target index, spine?) over states 0..n-1 on distinct left-hand sides.
    State 0 is reached by both nullary symbols and a unary glue rule, every
    state i >= 1 by a spine rule from earlier states, and 2n further rules
    go anywhere.  Non-nullary symbols are spread evenly over the rules."""
    leaves = [s for s, k in symbols if k == 0]
    inner = [(s, k) for s, k in symbols if k > 0]
    glue = next(s for s, k in inner if k == 1)
    rules = [(leaves[0], (), 0, True), (leaves[1], (), 0, True),
             (glue, (0,), 0, True)]
    used = {(glue, (0,))}
    order = [inner[j % len(inner)] for j in range(3 * n - 1)]
    rng.shuffle(order)

    def fresh_lhs(sources_below: int):
        first = order.pop()
        for attempt in range(1000):
            sym, arity = first if attempt == 0 else rng.choice(inner)
            src = tuple(rng.randrange(sources_below) for _ in range(arity))
            if (sym, src) not in used:
                used.add((sym, src))
                return sym, src
        raise RuntimeError("no free left-hand side")

    for i in range(1, n):
        rules.append((*fresh_lhs(i), i, True))
    for _ in range(2 * n):
        rules.append((*fresh_lhs(n), rng.randrange(n), False))
    return rules


def reach_automaton(rng: random.Random, name: str, prefix: str, skeleton,
                    finals) -> AutSpec:
    """A reach-n draw with controlled nondeterminism.

    The skeleton's n states become 2n: each gets two copies, and every
    skeleton rule becomes one rule per combination of source copies.
    Spine rules send a combination to the copy named by its first source
    (the glue rule to both copies), so every one of the 3n non-empty
    subsets of a copy pair is a reachable macrostate; the further rules
    pick one copy at random, or both for exactly a fifth of them.  The
    determinised automaton therefore has exactly 3n states whatever the
    seed, which keeps the cost of one draw close to that of the next (a
    plain random draw varies a hundredfold in determinised size between
    seeds at n=20).  Both copies of a final skeleton state are final, so
    the language is that of the skeleton with the given finals.
    """
    def copy(q, c):
        return f"{prefix}{q}_{c}"

    rules = set()
    extra = []
    for sym, src, target, spine in skeleton:
        for combo in itertools.product((0, 1), repeat=len(src)):
            sources = tuple(copy(q, c) for q, c in zip(src, combo))
            if not spine:
                extra.append((sym, sources, target))
            elif not src:
                rules.add((sym, sources, copy(target, len(rules) % 2)))
            elif target == 0:
                rules.update((sym, sources, copy(0, c)) for c in (0, 1))
            else:
                rules.add((sym, sources, copy(target, combo[0])))
    both = set(rng.sample(range(len(extra)), len(extra) // 5))
    for j, (sym, sources, target) in enumerate(extra):
        for c in ((0, 1) if j in both else (rng.randrange(2),)):
            rules.add((sym, sources, copy(target, c)))
    n = 1 + max(t for _, _, t, _ in skeleton)
    states = [copy(q, c) for q in range(n) for c in (0, 1)]
    return AutSpec(name, states, [copy(q, c) for q in finals for c in (0, 1)],
                   rules)


def reach_draw(rng: random.Random, name: str, prefix: str, n: int,
               symbols) -> AutSpec:
    """One reach-n automaton with a fifth of the skeleton states final."""
    skeleton = reach_skeleton(rng, n, symbols)
    finals = sorted(rng.sample(range(n), max(1, n // 5)))
    return reach_automaton(rng, name, prefix, skeleton, finals)


def reach_pair(rng: random.Random, names, prefixes, n: int, symbols):
    """Two reach-n automata A, B with the same rules up to state names and
    different final sets of equal size.  Neither language contains the
    other (every skeleton state is reachable), and a product of A and B
    holds exactly the four pairs of copies of each skeleton state, so its
    size does not depend on the draw; intersections of independent draws
    took up to three times as long on one seed as on another."""
    skeleton = reach_skeleton(rng, n, symbols)
    size = max(1, n // 5)
    fa = sorted(rng.sample(range(n), size))
    fb = fa
    while fb == fa:
        fb = sorted(rng.sample(range(n), size))
    a = reach_automaton(rng, names[0], prefixes[0], skeleton, fa)
    cut = len(prefixes[0])

    def rename(q):
        return prefixes[1] + q[cut:]

    b = AutSpec(names[1], [rename(q) for q in a.states],
                [f"{prefixes[1]}{q}_{c}" for q in fb for c in (0, 1)],
                {(f, tuple(rename(q) for q in src), rename(t))
                 for f, src, t in a.rules})
    return a, b


# -- the wide-alphabet family -----------------------------------------------

def wide_automaton(rng: random.Random, name: str, prefix: str, n: int,
                   symbols) -> AutSpec:
    """n states; every symbol draws its own targets.

    The first nullary symbol reaches every state, so every pair of states
    of two such automata is reachable in their product and its size does
    not depend on the draw.  Each unary symbol gets a rule from each state
    with probability 1/2, each binary symbol two rules from random state
    pairs, and a quarter of the rules have two targets.  No two symbols
    need share a target set, so the diagrams keep thousands of nodes.
    """
    states = [f"{prefix}{i}" for i in range(n)]

    def targets():
        return rng.sample(states, 2 if rng.random() < 0.25 else 1)

    rules = {(symbols[0][0], (), q) for q in states}
    for sym, arity in symbols[1:]:
        if arity == 0:
            draws = [()]
        elif arity == 1:
            draws = [(q,) for q in states if rng.random() < 0.5]
        else:
            draws = [(rng.choice(states), rng.choice(states)) for _ in range(2)]
        for src in draws:
            for t in targets():
                rules.add((sym, src, t))
    finals = sorted(rng.sample(states, max(1, n // 4)))
    return AutSpec(name, states, finals, rules)


def permutation_transducer(rng: random.Random, name: str, symbols
                           ) -> tuple[TransSpec, TransSpec]:
    """One-state relabelling by a random arity-preserving permutation, and
    its inverse."""
    forward = {}
    for arity in sorted({k for _, k in symbols}):
        group = [s for s, k in symbols if k == arity]
        image = group[:]
        rng.shuffle(image)
        forward.update(zip(group, image))
    arity_of = dict(symbols)

    def spec(tag, mapping):
        rules = {(f, ("t",) * arity_of[f], g, "t") for f, g in mapping.items()}
        return TransSpec(tag, ["t"], ["t"], rules)

    inverse = {g: f for f, g in forward.items()}
    return spec(name, forward), spec(name + "inv", inverse)


def relabelling_transducer(rng: random.Random, name: str, prefix: str, n: int,
                           shift: int, symbols) -> TransSpec:
    """n states, deterministic and total.  Every tuple of source states
    relabels the symbols of its arity by a random permutation of their
    own and moves to state (sum of the source state indices + shift) mod
    n.  The state reached on a term depends on its shape only, so the
    draw changes the labels of an image and not its size; images of
    deterministic automata stay deterministic."""
    states = [f"{prefix}{i}" for i in range(n)]
    groups: dict[int, list] = {}
    for sym, arity in symbols:
        groups.setdefault(arity, []).append(sym)
    rules = set()
    for arity, group in groups.items():
        for src in itertools.product(range(n), repeat=arity):
            image = group[:]
            rng.shuffle(image)
            target = states[(sum(src) + shift) % n]
            for f, g in zip(group, image):
                rules.add((f, tuple(states[i] for i in src), g, target))
    finals = sorted(rng.sample(states, max(1, n // 2)))
    return TransSpec(name, states, finals, rules)


# -- Timbuk text ------------------------------------------------------------

def _lhs(sym, sources):
    return f"{sym}({','.join(sources)})" if sources else sym


def timbuk_text(spec, symbols) -> str:
    """The spec as a Timbuk document, rules in sorted order."""
    head = "Automaton" if spec.kind == "automaton" else "Transducer"
    lines = ["Ops " + " ".join(f"{s}:{k}" for s, k in symbols), "",
             f"{head} {spec.name}",
             "States " + " ".join(spec.states),
             "Final States " + " ".join(spec.finals),
             "Transitions"]
    for rule in sorted(spec.rules):
        if spec.kind == "automaton":
            sym, src, tgt = rule
            lines.append(f"{_lhs(sym, src)} -> {tgt}")
        else:
            f, src, g, tgt = rule
            lines.append(f"{_lhs(f, src)} / {g} -> {tgt}")
    return "\n".join(lines) + "\n"


# -- terms ------------------------------------------------------------------

def shortest_terms(rules) -> dict:
    """A least-height term reaching each reachable state, by explicit
    bottom-up fixpoint over (symbol, sources, target) rules."""
    found: dict = {}
    changed = True
    while changed:
        changed = False
        for sym, src, tgt in sorted(rules):
            if tgt not in found and all(s in found for s in src):
                found[tgt] = (sym, tuple(found[s] for s in src))
                changed = True
    return found


def _size(t) -> int:
    return 1 + sum(_size(c) for c in t[1])


def sample_terms(rng: random.Random, rules, finals, symbols, count: int,
                 nodes: int) -> list:
    """Terms of about ``nodes`` nodes each, grown top-down from random final
    states along random rules, the node budget split evenly between the
    children and shortest terms used once it runs out.  Every other one
    has its root relabelled to a random symbol of the same arity, so the
    sample holds both accepted and rejected terms while every term still
    has to be read to its root.  Fixing the size keeps the cost of the
    sample steady from one seed to the next."""
    short = shortest_terms(rules)
    size = {q: _size(t) for q, t in short.items()}
    into: dict = {}
    for sym, src, tgt in sorted(rules):
        if src and all(q in short for q in src):
            into.setdefault(tgt, []).append((sym, src))
    roots = sorted(q for q in finals if q in short) or sorted(short)
    by_arity: dict[int, list] = {}
    for sym, arity in symbols:
        by_arity.setdefault(arity, []).append(sym)

    def grow(state, budget):
        if budget <= size[state] or state not in into:
            return short[state]
        sym, src = rng.choice(into[state])
        share = (budget - 1) // len(src)
        return (sym, tuple(grow(q, share) for q in src))

    out = []
    for i in range(count):
        sym, children = grow(rng.choice(roots), nodes)
        if i % 2:
            sym = rng.choice(by_arity[len(children)])
        out.append((sym, children))
    return out

