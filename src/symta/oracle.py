"""Explicit-representation reference implementations.

Everything here enumerates plain rule sets and terms; nothing touches a
decision diagram.  These functions are deliberately naive and serve as
ground truth for the symbolic operations, so they must stay independent
of the code paths they check.  Sizes are guarded; the explicit route is
for small instances only.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .alphabet import Alphabet
from .automaton import TreeAutomaton
from .io import extract_transitions
from .mtbdd import Manager
from .terms import Term

MAX_HEIGHT = 4
MAX_ORACLE_STATES = 6

#: Explicit rule: (symbol name, source state tuple, one target state).
Rule = tuple[str, tuple[str, ...], str]


@dataclass(frozen=True)
class ExplicitTA:
    """Enumerated automaton over state names; rules are single-target."""

    alphabet: Alphabet
    states: frozenset
    finals: frozenset
    rules: frozenset

    def rule_map(self) -> dict:
        """(symbol name, source tuple) -> frozenset of targets."""
        out: dict[tuple[str, tuple[str, ...]], set] = {}
        for name, src, tgt in self.rules:
            out.setdefault((name, src), set()).add(tgt)
        return {k: frozenset(v) for k, v in out.items()}


def to_explicit(aut: TreeAutomaton) -> ExplicitTA:
    """Expand every extracted cube into per-symbol, per-target rules."""
    rules = set()
    for tc in extract_transitions(aut):
        src = tuple(aut.state_name(q) for q in tc.source)
        for sym in aut.alphabet.decode_cube(tc.cube, len(tc.source)):
            for target in tc.targets:
                rules.add((sym.name, src, aut.state_name(target)))
    return ExplicitTA(
        alphabet=aut.alphabet,
        states=frozenset(aut.state_names),
        finals=frozenset(aut.final_names()),
        rules=frozenset(rules),
    )


def from_explicit(x: ExplicitTA, manager: Manager | None = None,
                  name: str = "A") -> TreeAutomaton:
    """Round-trip support: build the symbolic automaton back."""
    aut = TreeAutomaton(x.alphabet, manager, name=name)
    for state in sorted(x.states):
        aut.add_state(state)
    for state in sorted(x.finals):
        aut.set_final(state)
    for (sym_name, src), targets in sorted(x.rule_map().items()):
        aut.insert_transition(sym_name, src, targets)
    return aut


# -- term enumeration ----------------------------------------------------------

def all_terms_upto(alphabet: Alphabet, height: int) -> list[Term]:
    """Every ground term of height <= ``height``, shortest first.

    The list is closed under subterms and children precede parents.
    """
    if height > MAX_HEIGHT:
        raise ValueError(f"height {height} exceeds the enumeration cap {MAX_HEIGHT}")
    seen: set[Term] = set()
    known: list[Term] = []
    for _ in range(height):
        new: list[Term] = []
        for sym in alphabet.symbols:
            for combo in itertools.product(known, repeat=sym.arity):
                t = (sym.name, combo)
                if t not in seen:
                    seen.add(t)
                    new.append(t)
        known.extend(new)
    return known


def reachable_map(x: ExplicitTA, terms) -> dict:
    """Per term, the set of states the explicit automaton reaches on it.

    Terms must be closed under subterms (as ``all_terms_upto`` output is).
    """
    rules = x.rule_map()
    reach: dict[Term, frozenset] = {}
    for t in terms:
        name, children = t
        states: set = set()
        child_sets = [reach[c] for c in children]
        for combo in itertools.product(*child_sets):
            states |= rules.get((name, combo), frozenset())
        reach[t] = frozenset(states)
    return reach


def accepts_term(x: ExplicitTA, t: Term) -> bool:
    # post-order with an explicit stack, so deep terms need no recursion
    subterms: list[Term] = []
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            subterms.append(node)
        else:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node[1]))
    # keep subterm-closure order, drop duplicates
    ordered = list(dict.fromkeys(subterms))
    return bool(reachable_map(x, ordered)[t] & x.finals)


def language_upto(x: ExplicitTA, height: int) -> set:
    """All accepted ground terms of height <= ``height``.

    Bottom-up enumeration of the whole term universe with a per-term
    reachable-state table; acceptance is a final-set intersection test.
    """
    terms = all_terms_upto(x.alphabet, height)
    reach = reachable_map(x, terms)
    return {t for t in terms if reach[t] & x.finals}


# -- explicit constructions -------------------------------------------------------

def _completed(x: ExplicitTA) -> tuple[ExplicitTA, str]:
    """Add a sink state and every missing transition into it."""
    sink = "_sink"
    while sink in x.states:
        sink = "_" + sink
    states = sorted(x.states) + [sink]
    rules = set(x.rules)
    rule_map = x.rule_map()
    for sym in x.alphabet.symbols:
        for combo in itertools.product(states, repeat=sym.arity):
            if not rule_map.get((sym.name, combo)):
                rules.add((sym.name, combo, sink))
    return ExplicitTA(x.alphabet, frozenset(states), x.finals,
                      frozenset(rules)), sink


def explicit_union(x1: ExplicitTA, x2: ExplicitTA) -> ExplicitTA:
    """Product construction over completed operands; preserves determinism."""
    if x1.alphabet is not x2.alphabet:
        raise ValueError("operands must share one alphabet")
    c1, _ = _completed(x1)
    c2, _ = _completed(x2)
    finals = {_pair(p, q) for p in c1.states for q in c2.states
              if p in c1.finals or q in c2.finals}
    return _product(c1, c2, finals)


def explicit_intersection(x1: ExplicitTA, x2: ExplicitTA) -> ExplicitTA:
    if x1.alphabet is not x2.alphabet:
        raise ValueError("operands must share one alphabet")
    finals = {_pair(p, q) for p in x1.finals for q in x2.finals}
    return _product(x1, x2, finals)


def _pair(p: str, q: str) -> str:
    return f"{p}|{q}"


def _product(x1: ExplicitTA, x2: ExplicitTA, finals) -> ExplicitTA:
    by_symbol1: dict = {}
    by_symbol2: dict = {}
    for name, src, tgt in x1.rules:
        by_symbol1.setdefault(name, []).append((src, tgt))
    for name, src, tgt in x2.rules:
        by_symbol2.setdefault(name, []).append((src, tgt))
    rules = set()
    for name, list1 in by_symbol1.items():
        for (src1, tgt1) in list1:
            for (src2, tgt2) in by_symbol2.get(name, ()):
                if len(src1) != len(src2):
                    continue
                src = tuple(_pair(a, b) for a, b in zip(src1, src2))
                rules.add((name, src, _pair(tgt1, tgt2)))
    states = frozenset(_pair(p, q) for p in x1.states for q in x2.states)
    return ExplicitTA(x1.alphabet, states, frozenset(finals), frozenset(rules))


def explicit_reachable(x: ExplicitTA) -> frozenset:
    """Least fixpoint of bottom-up reachability."""
    reached: set = set()
    changed = True
    while changed:
        changed = False
        for name, src, tgt in x.rules:
            if tgt not in reached and all(s in reached for s in src):
                reached.add(tgt)
                changed = True
    return frozenset(reached)


def explicit_is_empty(x: ExplicitTA) -> bool:
    return not (explicit_reachable(x) & x.finals)


def explicit_determinise(x: ExplicitTA) -> ExplicitTA:
    """Subset construction; states of the result are frozensets of names.

    Only reachable, non-empty macrostates are produced; state names are
    the sorted member lists joined with '+'.
    """
    rule_map = x.rule_map()
    by_arity: dict[int, list] = {}
    for (name, src), targets in rule_map.items():
        by_arity.setdefault(len(src), []).append((name, src, targets))
    macro_names: dict[frozenset, str] = {}

    def macro_name(macro: frozenset) -> str:
        return macro_names.setdefault(macro, "+".join(sorted(macro)))

    macros: list[frozenset] = []
    queue: list[frozenset] = []
    for name, src, targets in by_arity.get(0, ()):
        if targets and targets not in macro_names:
            macro_name(targets)
            macros.append(targets)
            queue.append(targets)
    rules = set()
    for name, src, targets in by_arity.get(0, ()):
        if targets:
            rules.add((name, (), macro_name(targets)))
    processed: set[tuple] = set()
    while queue:
        queue.pop()
        for arity, entries in by_arity.items():
            if arity == 0:
                continue
            for combo in itertools.product(macros, repeat=arity):
                if combo in processed:
                    continue
                processed.add(combo)
                per_symbol: dict[str, set] = {}
                for name, src, targets in entries:
                    if all(src[i] in combo[i] for i in range(arity)):
                        per_symbol.setdefault(name, set()).update(targets)
                for name, union in per_symbol.items():
                    macro = frozenset(union)
                    if macro not in macro_names:
                        macro_name(macro)
                        macros.append(macro)
                        queue.append(macro)
                    rules.add((name, tuple(macro_name(c) for c in combo),
                               macro_names[macro]))
    states = frozenset(macro_names[m] for m in macros)
    finals = frozenset(macro_names[m] for m in macros if m & x.finals)
    return ExplicitTA(x.alphabet, states, finals, frozenset(rules))


def minimal_state_count(x: ExplicitTA) -> int:
    """States of the minimal reachable DFTA for L(x).

    Convention: the congruence is computed over the completed subset
    automaton, with the sink an ordinary non-final state; the count is the
    number of classes containing at least one real (non-sink) state.  A
    class of dead real states therefore counts once, and the pure sink
    class not at all.
    """
    det = explicit_determinise(x)
    completed, sink = _completed(det)
    rule_map = completed.rule_map()
    states = sorted(completed.states)

    def delta(name: str, combo) -> str:
        targets = rule_map.get((name, combo))
        assert targets is not None and len(targets) == 1
        return next(iter(targets))

    classes = {q: (q in completed.finals) for q in states}
    while True:
        signature = {}
        for q in states:
            rows = []
            for sym in completed.alphabet.symbols:
                for spot in range(sym.arity):
                    for siblings in itertools.product(states,
                                                      repeat=sym.arity - 1):
                        combo = siblings[:spot] + (q,) + siblings[spot:]
                        rows.append(classes[delta(sym.name, combo)])
                if sym.arity == 0:
                    rows.append(classes[delta(sym.name, ())])
            signature[q] = (classes[q], tuple(rows))
        labels = {}
        new_classes = {}
        for q in states:
            new_classes[q] = labels.setdefault(signature[q], len(labels))
        if len(set(new_classes.values())) == len(set(classes.values())):
            classes = new_classes
            break
        classes = new_classes
    real_classes = {classes[q] for q in states if q != sink}
    return len(real_classes)


def explicit_downward_simulation(x: ExplicitTA) -> frozenset:
    """Greatest downward simulation on state names, by direct fixpoint."""
    states = sorted(x.states)
    by_target: dict[str, list] = {q: [] for q in states}
    for name, src, tgt in x.rules:
        by_target[tgt].append((name, src))
    sim = {(p, q) for p in states for q in states}
    changed = True
    while changed:
        changed = False
        for (q, r) in sorted(sim):
            for name, src_q in by_target[q]:
                ok = False
                for name_r, src_r in by_target[r]:
                    if name_r == name and len(src_r) == len(src_q) and all(
                            (a, b) in sim for a, b in zip(src_q, src_r)):
                        ok = True
                        break
                if not ok:
                    sim.discard((q, r))
                    changed = True
                    break
    return frozenset(sim)


def satisfies_downward_simulation(x: ExplicitTA, relation) -> bool:
    """Direct quantification of the defining implication."""
    for (q, r) in relation:
        for name, src_q, tgt in x.rules:
            if tgt != q:
                continue
            if not any(name_r == name and len(src_r) == len(src_q) and all(
                    (a, b) in relation for a, b in zip(src_q, src_r))
                       for name_r, src_r, tgt_r in x.rules if tgt_r == r):
                return False
    return True


def explicit_decide(kind: str, *operands: ExplicitTA):
    """Reference answers for small instances; guarded against blow-up."""
    for x in operands:
        if len(x.states) > MAX_ORACLE_STATES:
            raise ValueError(
                f"oracle guard: {len(x.states)} states > {MAX_ORACLE_STATES}")
    if kind == "union":
        return explicit_union(*operands)
    if kind == "intersection":
        return explicit_intersection(*operands)
    if kind == "determinise":
        return explicit_determinise(operands[0])
    if kind == "reachable":
        return explicit_reachable(operands[0])
    if kind == "is_empty":
        return explicit_is_empty(operands[0])
    if kind == "minimal_count":
        return minimal_state_count(operands[0])
    if kind == "simulation":
        return explicit_downward_simulation(operands[0])
    raise ValueError(f"unknown oracle kind {kind!r}")


# -- transducer oracles ------------------------------------------------------------

#: Explicit transduction rule: (f, sources, g, target).
TransRule = tuple[str, tuple[str, ...], str, str]


def transducer_image(rules, finals, x: ExplicitTA, height: int) -> set:
    """tau(L(x)) up to ``height`` by direct relational evaluation.

    ``rules`` are explicit transduction rules; per input term the set of
    (state, output term) pairs is computed bottom-up.
    """
    terms = all_terms_upto(x.alphabet, height)
    reach_in = reachable_map(x, terms)
    pairs: dict[Term, set] = {}
    for t in terms:
        name, children = t
        out: set = set()
        child_pairs = [pairs[c] for c in children]
        for f, src, g, tgt in rules:
            if f != name or len(src) != len(children):
                continue
            options = []
            for i in range(len(children)):
                options.append([o for (q, o) in child_pairs[i] if q == src[i]])
            for combo in itertools.product(*options):
                out.add((tgt, (g, tuple(combo))))
        pairs[t] = out
    image = set()
    for t in terms:
        if not (reach_in[t] & x.finals):
            continue
        for (q, out_term) in pairs[t]:
            if q in finals:
                image.add(out_term)
    return image


def chain_rules(rules1, rules2) -> set:
    """Explicit composition by intermediate-symbol matching."""
    out = set()
    for f, src1, g, tgt1 in rules1:
        for g2, src2, h, tgt2 in rules2:
            if g2 != g or len(src2) != len(src1):
                continue
            src = tuple(_pair(a, b) for a, b in zip(src1, src2))
            out.add((f, src, h, _pair(tgt1, tgt2)))
    return out


# -- random instances ---------------------------------------------------------------

_NAMES = "abcdefgh"


def random_alphabet(rng: random.Random, max_symbols: int = 4,
                    max_arity: int = 2) -> Alphabet:
    """Small ranked alphabet with at least one nullary symbol; sometimes a
    name carries two arities, exercising shared codewords."""
    alphabet = Alphabet()
    count = rng.randint(2, max_symbols)
    used = set()
    for i in range(count):
        if i == 0:
            arity = 0
        else:
            arity = rng.randint(0, max_arity)
        if i > 0 and rng.random() < 0.25:
            name = rng.choice(sorted({n for n, _ in used}))
        else:
            name = _NAMES[i]
        if (name, arity) in used:
            name = _NAMES[i]
        if (name, arity) in used:
            continue
        used.add((name, arity))
        alphabet.add_symbol(name, arity)
    return alphabet.freeze()


def random_automaton(rng: random.Random, alphabet: Alphabet,
                     manager: Manager | None = None, max_states: int = 5,
                     name: str = "R") -> TreeAutomaton:
    """Seeded random NFTA; finals may be empty, rules may be sparse."""
    aut = TreeAutomaton(alphabet, manager, name=name)
    n = rng.randint(1, max_states)
    names = [f"q{i}" for i in range(n)]
    for state in names:
        aut.add_state(state)
    for state in names:
        if rng.random() < 0.4:
            aut.set_final(state)
    for sym in alphabet.symbols:
        if sym.arity == 0:
            count = 1 if rng.random() < 0.85 else 0
        else:
            count = rng.randint(0, min(3, n ** sym.arity))
        for _ in range(count):
            src = tuple(rng.choice(names) for _ in range(sym.arity))
            size = 1 if rng.random() < 0.7 else min(2, n)
            targets = rng.sample(names, size)
            aut.insert_transition(sym, src, targets)
    return aut


def random_transducer(rng: random.Random, alphabet: Alphabet,
                      manager: Manager | None = None, max_states: int = 3,
                      name: str = "T") -> "Transducer":
    from .transducer import Transducer
    tr = Transducer(alphabet, manager, name=name)
    n = rng.randint(1, max_states)
    names = [f"p{i}" for i in range(n)]
    for state in names:
        tr.add_state(state)
    for state in names:
        if rng.random() < 0.6:
            tr.set_final(state)
    by_arity: dict[int, list] = {}
    for sym in alphabet.symbols:
        by_arity.setdefault(sym.arity, []).append(sym)
    for sym in alphabet.symbols:
        count = rng.randint(0, 2) if sym.arity else (1 if rng.random() < 0.9 else 0)
        for _ in range(count):
            src = tuple(rng.choice(names) for _ in range(sym.arity))
            out = rng.choice(by_arity[sym.arity])
            tr.insert_rule(sym, src, out, (rng.choice(names),))
    return tr


def explicit_transducer_rules(tr) -> set:
    """Explicit (f, sources, g, target) view of a symbolic transducer."""
    from .io import extract_rules
    rules = set()
    for tc in extract_rules(tr):
        src = tuple(tr.state_name(q) for q in tc.source)
        for f, g in tr.alphabet.decode_pair_cube(tc.cube, len(tc.source)):
            for target in tc.targets:
                rules.add((f.name, src, g.name, tr.state_name(target)))
    return rules
