"""Language and structural operations on MTBDD-backed tree automata.

Every operation here works through Apply/MonadicApply with purpose-built
leaf functors; the worklists run over super-states, never over individual
symbols, which is what makes the operations insensitive to alphabet size.
Result automata name their states ``s0..sk`` in discovery order, so output
files are reproducible.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import partial
from operator import itemgetter

from .automaton import TreeAutomaton


def _require_compatible(a1: TreeAutomaton, a2: TreeAutomaton):
    if a1.alphabet is not a2.alphabet:
        raise ValueError("operands must share one alphabet")
    if a1.manager is not a2.manager:
        raise ValueError("operands must be registered to one manager")


def _result(a: TreeAutomaton, name: str) -> TreeAutomaton:
    return TreeAutomaton(a.alphabet, a.manager, name=name)


class _StateAllocator:
    """Hands out result states named s0..sk in first-come order."""

    def __init__(self, res: TreeAutomaton):
        self.res = res
        self.count = 0

    def fresh(self) -> int:
        sid = self.res.add_state(f"s{self.count}")
        self.count += 1
        return sid

    def adopt(self, sid: int) -> int:
        self.res.adopt_state(sid, f"s{self.count}")
        self.count += 1
        return sid


# -- the worklist step ----------------------------------------------------------

def _rows_holding(index, n, states, item, family) -> set:
    """The pairs (sp, combo) of a stored arity-n tuple ``sp`` holding a
    member of ``states`` at some position i and a tuple ``combo`` with
    ``item`` at i and a member of ``family(sp[j])`` at every other j.

    The step of every worklist here: the rows that a dequeued ``item``
    lets fire hold one of its states at a fixed position, and meet the
    items already known at the others.  The cost is in the rows returned.
    """
    rows = set()
    for q in states:
        for i in range(n):
            for sp in index.containing(q, n, i):
                choices = [family(p) for p in sp]
                choices[i] = (item,)
                rows.update((sp, combo) for combo in itertools.product(*choices))
    return rows


# -- union -----------------------------------------------------------------

def union(a1: TreeAutomaton, a2: TreeAutomaton) -> TreeAutomaton:
    """Language union by sharing both transition functions.

    States and finals are unioned, every non-initial super-state root is
    reused as-is, and only the two initial roots are merged, costing a
    single Apply no matter how large the alphabet is.  The result may be
    nondeterministic even for deterministic inputs.
    """
    _require_compatible(a1, a2)
    m = a1.manager
    res = _result(a1, "union")
    alloc = _StateAllocator(res)
    for aut in (a1, a2):
        for sid in aut.states:
            if not res.has_state_id(sid):
                alloc.adopt(sid)
            if sid in aut.finals:
                res.finals.add(sid)
    for sp, root in a1.index.items():
        if sp != ():
            res.index.set(sp, root, m.bottom)
    for sp, root in a2.index.items():
        if sp == ():
            continue
        prev = res.index.get(sp)
        if prev is None or prev is root:
            res.index.set(sp, root, m.bottom)
        else:
            # operands sharing states: unite the rule sets leafwise
            res.index.set(sp, m.union(prev, root), m.bottom)
    init = m.union(a1.initial_root(), a2.initial_root())
    res.index.set((), init, m.bottom)
    return res


# -- intersection ------------------------------------------------------------

def _product(left, right, res, combine):
    """Pair reachability over two super-state indices, filling ``res``.

    Result states ``s0..sk`` name reachable pairs of operand states in
    discovery order (recorded in ``res.origins``), final when both
    components are.  Each row is ``combine(root1, root2, meet)``, where the
    Apply functor ``meet`` maps two leaves to the ids of their pairs.  It
    allocates an id only on a pair's first sight, so ``combine`` may share
    one compute table across the run.

    A pair of stored rows is combined once, at the dequeue of the last of
    its component pairs: ``_rows_holding`` draws the right tuple from the
    partners dequeued with each left component.  Rows go in sorted order.
    """
    m = left.manager
    alloc = _StateAllocator(res)
    pair_id: dict[tuple[int, int], int] = {}
    queue: deque[tuple[int, int]] = deque()

    def meet(lhs, rhs):
        out = set()
        for qa in sorted(lhs):
            for qb in sorted(rhs):
                sid = pair_id.get((qa, qb))
                if sid is None:
                    sid = alloc.fresh()
                    pair_id[(qa, qb)] = sid
                    res.origins[sid] = (qa, qb)
                    queue.append((qa, qb))
                out.add(sid)
        return out

    res.index.set((), combine(left.initial_root(), right.initial_root(), meet),
                  m.bottom)
    done: dict[int, list[int]] = {}  # left state -> right partners dequeued
    while queue:
        qa, qb = queue.popleft()
        done.setdefault(qa, []).append(qb)
        if qa in left.finals and qb in right.finals:
            res.finals.add(pair_id[(qa, qb)])
        for n in left.index.arities():
            rows = _rows_holding(left.index, n, (qa,), qb, lambda p: done.get(p, ()))
            for sp1, sp2 in sorted(rows):
                root2 = right.index.get(sp2)
                if root2 is not None:
                    row = combine(left.index.get(sp1), root2, meet)
                    res.index.set(tuple(map(pair_id.get, zip(sp1, sp2))), row, m.bottom)
    return res


def intersection(a1: TreeAutomaton, a2: TreeAutomaton) -> TreeAutomaton:
    """Product automaton simulating a parallel run of both operands.

    Product states are discovered lazily from the initial super-states by
    an Apply whose functor forms the Cartesian product of the two leaf
    sets; pairs involving the sink never appear because the empty set has
    an empty product.  Only reachable product states are generated.
    """
    _require_compatible(a1, a2)
    return _product(a1, a2, _result(a1, "intersection"),
                    partial(a1.manager.apply, cache={}))


# -- determinisation -----------------------------------------------------------

def determinise(a: TreeAutomaton) -> TreeAutomaton:
    """Subset construction over macrostates, working leafwise.

    A row unites the diagrams of the stored super-states a macrostate tuple
    holds, and a monadic pass interns each union leaf as one macrostate;
    the empty one is the sink and is never created.  A dequeued macrostate
    meets only the tuples ``_rows_holding`` finds for it, and their rows
    are the ones folded, in ascending order.  Tuples are taken in
    lexicographic order of macrostate indices, as a full enumeration would
    meet them, which keeps the ``s0..sk`` naming.
    """
    m = a.manager
    res = _result(a, "determinise")
    alloc = _StateAllocator(res)
    position: dict[frozenset, int] = {}   # macrostate -> index into members
    members: list[frozenset] = []
    macro_sid: list[int] = []             # index -> result state id
    macros_of: dict[int, list[int]] = {}  # state -> indices of its macrostates
    queue: deque[int] = deque()

    def collect_sets(leaf):
        if not leaf:
            return leaf
        pos = position.get(leaf)
        if pos is None:
            pos = len(members)
            position[leaf] = pos
            members.append(leaf)
            macro_sid.append(alloc.fresh())
            res.origins[macro_sid[pos]] = leaf
            queue.append(pos)
            if leaf & a.finals:
                res.finals.add(macro_sid[pos])
        return frozenset({macro_sid[pos]})

    cache: dict = {}
    res.index.set((), m.monadic_apply(a.initial_root(), collect_sets, cache),
                  m.bottom)
    indexed = 0                           # macrostates entered in macros_of
    processed: set[tuple[int, ...]] = set()
    while queue:
        current = queue.popleft()
        for n in a.index.arities():
            # only the macrostates that exist when the pass starts take part
            for k in range(indexed, len(members)):
                for q in members[k]:
                    macros_of.setdefault(q, []).append(k)
            indexed = len(members)
            rows = _rows_holding(a.index, n, members[current], current,
                                 lambda p: macros_of.get(p, ()))
            for combo, group in itertools.groupby(
                    sorted((combo, sp) for sp, combo in rows), itemgetter(0)):
                if combo in processed:
                    continue
                processed.add(combo)
                root = m.bottom
                for _, sp in group:
                    root = m.union(root, a.index.get(sp))
                res.index.set(tuple(macro_sid[k] for k in combo),
                              m.monadic_apply(root, collect_sets, cache), m.bottom)
    return res


# -- complementation -----------------------------------------------------------

def complement(a: TreeAutomaton) -> TreeAutomaton:
    """Determinise, materialise completeness, and invert the final states.

    The virtual sink becomes a genuine (accepting) state of the result so
    that membership queries on the complement are total without any
    special-casing: every missing transition is redirected to it.
    """
    d = determinise(a)
    m = a.manager
    res = _result(a, "complement")
    alloc = _StateAllocator(res)
    for sid in d.states:
        alloc.adopt(sid)
        if sid not in d.finals:
            res.finals.add(sid)
    sink = alloc.fresh()
    res.finals.add(sink)

    def fill(leaf):
        return leaf if leaf else frozenset({sink})

    all_states = list(d.states) + [sink]
    cache: dict = {}
    for n in a.alphabet.arities():
        for sp in itertools.product(all_states, repeat=n):
            root = d.index.get(sp) or m.bottom
            res.index.set(sp, m.monadic_apply(root, fill, cache), m.bottom)
    return res


# -- pruning and emptiness ---------------------------------------------------

def _reachable(a: TreeAutomaton):
    """States with a witness term, yielded lazily in discovery order.

    Simulates runs over all trees: the initial root's leaves are reached,
    and so are the leaves of a super-state's root once all of its
    components are, which ``_rows_holding`` finds at the dequeue of the
    last of them; rows are taken in ascending order.
    """
    m = a.manager
    reached: set[int] = set()
    queue: deque[int] = deque()
    for leaf in m.leaf_values(a.initial_root()):
        queue.extend(sorted(leaf))
    while queue:
        q = queue.popleft()
        if q in reached:
            continue
        reached.add(q)
        yield q
        for n in a.index.arities():
            rows = _rows_holding(a.index, n, (q,), q, lambda p: {p} & reached)
            for sp, _ in sorted(rows):
                for leaf in m.leaf_values(a.index.get(sp)):
                    queue.extend(sorted(leaf))


def prune_unreachable(a: TreeAutomaton) -> TreeAutomaton:
    """Drop states with no witness term, keeping the language.

    The reachable states keep their ids, and every super-state whose
    components are all reachable keeps (shares) its root.
    """
    m = a.manager
    res = _result(a, "prune")
    alloc = _StateAllocator(res)
    for sid in _reachable(a):
        alloc.adopt(sid)
        if sid in a.finals:
            res.finals.add(sid)
    for sp, root in a.index.items():
        if all(res.has_state_id(q) for q in sp):
            res.index.set(sp, root, m.bottom)
    return res


def is_empty(a: TreeAutomaton) -> bool:
    """Emptiness via reachability, answering as soon as a final state turns up."""
    return not any(q in a.finals for q in _reachable(a))


# -- quotienting ---------------------------------------------------------------

@dataclass
class QuotientMap:
    """Total map from state ids to class indices, classes partitioning Q."""

    class_of: dict[int, int]
    representatives: list[int]  # class index -> least member id

    @classmethod
    def from_classes(cls, classes) -> "QuotientMap":
        blocks = [sorted(block) for block in classes]
        blocks.sort(key=lambda b: b[0])
        class_of = {}
        reps = []
        for idx, block in enumerate(blocks):
            reps.append(block[0])
            for q in block:
                if q in class_of:
                    raise ValueError(f"state {q} appears in two classes")
                class_of[q] = idx
        return cls(class_of, reps)

    @classmethod
    def identity(cls, states) -> "QuotientMap":
        return cls.from_classes([q] for q in states)

    def __len__(self):
        return len(self.representatives)


def reduce_by_equivalence(a: TreeAutomaton, quotient: QuotientMap) -> TreeAutomaton:
    """Quotient automaton: classes become states, targets are rewritten to
    class ids, and colliding source tuples are united leafwise."""
    missing = [q for q in a.states if q not in quotient.class_of]
    if missing:
        raise ValueError(f"quotient is not total; missing states {missing}")
    m = a.manager
    res = _result(a, "reduce")
    alloc = _StateAllocator(res)
    class_state = [alloc.fresh() for _ in quotient.representatives]
    for q in a.states:
        res.origins.setdefault(class_state[quotient.class_of[q]],
                               set()).add(q)
    for q in a.states:
        if q in a.finals:
            res.finals.add(class_state[quotient.class_of[q]])

    def relabel(acc, leaf):
        return acc | {class_state[quotient.class_of[q]] for q in leaf}

    cache: dict = {}
    for sp, root in a.index.items():
        mapped = tuple(class_state[quotient.class_of[q]] for q in sp)
        prev = res.index.get(mapped) or m.bottom
        res.index.set(mapped, m.apply(prev, root, relabel, cache), m.bottom)
    return res


def compute_congruence(a: TreeAutomaton) -> QuotientMap:
    """Coarsest congruence of a reachable DFTA, for minimisation.

    Moore-style partition refinement over the automaton completed by a
    virtual sink, which starts in the class of the non-final states.  Each
    round relabels every stored row's targets to their class ids with one
    monadic Apply, sending the sink's class to bottom, so a missing and a
    dead target compare equal; diagrams are canonical, so the relabelled
    root is the row's signature.  A state's new class is its old one with
    the set of (position, other components, relabelled root) over the rows
    holding it, rows relabelled to bottom left out, and the sink's is its
    old class with the empty set.  The other components are states, not
    classes: two states of one class may still lead apart beside two
    others of one class, crosswise.  Refinement stops when a round splits
    no class, or when every class, the sink's included, has one member.
    """
    m = a.manager
    # class 0 is always the sink's: at first the class of the non-final states
    class_of = {q: int(q in a.finals) for q in a.states}
    count = len(set(class_of.values()) | {0})

    def relabel(leaf):
        if len(leaf) > 1:
            raise ValueError(
                "congruence computation requires a deterministic automaton")
        return {class_of[q] for q in leaf} - {0}

    while count <= len(class_of):
        signature: dict[int, set] = {q: set() for q in class_of}
        cache: dict = {}  # one table a round: relabel reads this round's classes
        for sp, root in a.index.items():
            row = m.monadic_apply(root, relabel, cache)
            if row is not m.bottom:
                for i, q in enumerate(sp):
                    signature[q].add((i, sp[:i] + sp[i + 1:], row))
        ids = {(0, frozenset()): 0}
        class_of = {q: ids.setdefault((class_of[q], frozenset(signature[q])),
                                      len(ids))
                    for q in class_of}
        if len(ids) == count:
            break
        count = len(ids)

    blocks: dict[int, list[int]] = {}
    for q, c in class_of.items():
        blocks.setdefault(c, []).append(q)
    return QuotientMap.from_classes(blocks.values())


def minimise(a: TreeAutomaton) -> TreeAutomaton:
    """Prune, determinise, compute the congruence, and quotient by it."""
    d = determinise(prune_unreachable(a))
    res = reduce_by_equivalence(d, compute_congruence(d))
    res.name = "minimise"
    return res


# -- downward simulation --------------------------------------------------------

def downward_simulation(a: TreeAutomaton) -> frozenset:
    """Greatest downward simulation as a set of ordered state-id pairs.

    Starts from Q x Q.  For each super-state the diagrams of all tuples
    that currently simulate it componentwise are united, and a refinement
    functor deletes (q, r) whenever q sits in the left leaf but r is
    missing from the right one.  Repeats to the fixpoint.
    """
    m = a.manager
    states = list(a.states)
    partners: dict[int, set[int]] = {p: set(states) for p in states}

    def refine(left, right):
        nonlocal changed
        for q in left:
            lost = partners[q] - right
            if lost:
                partners[q] -= lost
                changed = True
        return frozenset()

    rows = list(a.index.items())  # sorted once: the index does not change
    cache: dict = {}  # partners only shrink, so a repeated pair is a no-op
    changed = True
    while changed:
        changed = False
        for sp, root in rows:
            tmp = a.index.unite(m, [partners[q] for q in sp])
            m.apply(root, tmp, refine, cache)
    return frozenset((p, q) for p in states for q in partners[p])


def reduce_by_simulation(a: TreeAutomaton) -> TreeAutomaton:
    """Quotient by mutual downward simulation; language preserved.

    The simulation is a preorder, so two states simulate each other exactly
    when the same states simulate them: a class is the states that share
    one set of simulating states.
    """
    above: dict[int, set[int]] = {q: set() for q in a.states}
    for p, q in downward_simulation(a):
        above[p].add(q)
    classes: dict[frozenset, list[int]] = {}
    for q in a.states:
        classes.setdefault(frozenset(above[q]), []).append(q)
    return reduce_by_equivalence(a, QuotientMap.from_classes(classes.values()))


# -- language inclusion ----------------------------------------------------------

class Antichain:
    """Pairs (left state, partner set) with subset-minimal sets per state.

    Inserting a pair whose partner set is a superset of a stored one is a
    no-op; inserting a subset evicts the stored supersets.  At all times
    no two stored sets for one state are comparable by inclusion.
    """

    def __init__(self):
        self._families: dict[int, list[frozenset]] = {}

    def insert(self, state: int, partners: frozenset) -> bool:
        """Store the pair unless it is subsumed; True when stored."""
        family = self._families.setdefault(state, [])
        for kept in family:
            if kept <= partners:
                return False
        family[:] = [kept for kept in family if not partners <= kept]
        family.append(partners)
        return True

    def contains(self, state: int, partners: frozenset) -> bool:
        return partners in self._families.get(state, ())

    def family(self, state: int) -> tuple:
        return tuple(self._families.get(state, ()))

    def items(self):
        for state in sorted(self._families):
            for partners in self._families[state]:
                yield state, partners


def check_inclusion_antichain(a1: TreeAutomaton, a2: TreeAutomaton) -> bool:
    """Antichain-based inclusion test, no determinisation required.

    Explores pairs (q, D): a state of ``a1`` and the exact set of ``a2``
    states reachable over some common tree.  A pair with a final q and no
    final partner refutes inclusion.  Per left state only subset-minimal
    partner sets are kept: a new pair is dropped when a stored subset
    exists, and stored supersets are evicted on insertion.  A dequeued
    pair meets the others through ``_rows_holding``, as in Bouajjani et
    al.'s upward antichain algorithm (CIAA 2008).
    """
    _require_compatible(a1, a2)
    m = a1.manager
    antichain = Antichain()
    work: deque[tuple[int, frozenset]] = deque()

    def collect_products(left, right):
        for q in sorted(left):
            if antichain.insert(q, right):
                work.append((q, right))
        return frozenset()

    cache: dict = {}  # a repeated pair finds a subset of its set stored
    m.apply(a1.initial_root(), a2.initial_root(), collect_products, cache)
    while work:
        q, partners = work.popleft()
        if not antichain.contains(q, partners):
            continue  # superseded by a smaller partner set
        if q in a1.finals and not (partners & a2.finals):
            return False
        for n in a1.index.arities():
            rows = _rows_holding(a1.index, n, (q,), partners, antichain.family)
            for sp1, combo in sorted(rows, key=itemgetter(0)):
                # a partner set evicted since is covered by its evictor
                if all(map(antichain.contains, sp1, combo)):
                    m.apply(a1.index.get(sp1), a2.index.unite(m, combo),
                            collect_products, cache)
    return True


def check_inclusion_classical(a1: TreeAutomaton, a2: TreeAutomaton) -> bool:
    """Textbook inclusion: empty(L(a1) intersected with the complement of L(a2))."""
    _require_compatible(a1, a2)
    return is_empty(intersection(a1, complement(a2)))
