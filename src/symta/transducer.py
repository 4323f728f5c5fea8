"""Relabelling tree transducers over paired variable banks.

A relabelling transducer rewrites node labels but never the tree shape.
Its rules live in MTBDDs over two interleaved banks: the input symbol on
bank 0 and the output symbol on bank 1.  A third bank is reserved as
scratch space for composition, so a transducer-capable manager always
carries three banks.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

from .alphabet import Alphabet, Symbol
from .automaton import StateMachine, TreeAutomaton
from .mtbdd import Cube, Manager, Ref

#: Bank roles inside a transducer-capable manager.
INPUT_BANK = 0
OUTPUT_BANK = 1
SCRATCH_BANK = 2


def transducer_manager(alphabet: Alphabet) -> Manager:
    """A manager with the three banks transducer work needs."""
    return Manager(alphabet.width, banks=3)


class Transducer(StateMachine):
    """States, finals, and a super-state index of pair-cube diagrams."""

    def __init__(self, alphabet: Alphabet, manager: Manager | None = None,
                 name: str = "T"):
        if manager is None:
            manager = transducer_manager(alphabet)
        if manager.banks != 3:
            raise ValueError("transducers need a manager with three banks")
        super().__init__(alphabet, manager, name)

    def _resolve_named(self, symbol: str | Symbol, arity: int) -> Symbol:
        if isinstance(symbol, Symbol):
            return self.alphabet.symbol(symbol.name, symbol.arity)
        return self.alphabet.symbol(symbol, arity)

    def insert_rule(self, in_symbol: str | Symbol, source: Sequence[str],
                    out_symbol: str | Symbol, targets: Iterable[str]):
        """Store f(source) -> targets(g); overwrite per (pair, source).

        Relabelling preserves the shape, so both symbols must carry the
        source tuple's arity.
        """
        f = self._resolve_named(in_symbol, len(source))
        g = self._resolve_named(out_symbol, len(source))
        if f.arity != g.arity or f.arity != len(source):
            raise ValueError(f"arity mismatch: {f} / {g} with {len(source)} sources")
        src = tuple(self.state_id(s) for s in source)
        tgt = frozenset(self.state_id(t) for t in targets)
        if not tgt:
            raise ValueError("target set must be non-empty")
        self._store(src, self.alphabet.encode_pair(f, g),
                    (INPUT_BANK, OUTPUT_BANK), tgt)

    def insert_rule_cube(self, input_cube: Cube, source: Sequence[str],
                         output_cube: Cube, targets: Iterable[str]):
        """Cube-level rule: whole sets of symbol pairs in one insertion."""
        src = tuple(self.state_id(s) for s in source)
        tgt = frozenset(self.state_id(t) for t in targets)
        if not tgt:
            raise ValueError("target set must be non-empty")
        self._store(src, self.alphabet.pair_cube(input_cube, output_cube),
                    (INPUT_BANK, OUTPUT_BANK), tgt)

    def get_rule(self, in_symbol: str | Symbol, source: Sequence[str],
                 out_symbol: str | Symbol) -> frozenset:
        """Target names for one fully specified (f, source, g) triple."""
        f = self._resolve_named(in_symbol, len(source))
        g = self._resolve_named(out_symbol, len(source))
        src = tuple(self.state_id(s) for s in source)
        ids = self._collect_targets(self.index.get(src),
                                    self.alphabet.encode_pair(f, g),
                                    (INPUT_BANK, OUTPUT_BANK))
        return frozenset(self._name_of[q] for q in ids)

    def __repr__(self):
        return (f"<Transducer {self.name}: {len(self._ids)} states,"
                f" {len(self.index)} super-states>")


class _PairDiscovery:
    """Worklist of product pairs shared by the two product-style traversals."""

    def __init__(self, res, finals1, finals2):
        from .ops import _StateAllocator
        self.res = res
        self.alloc = _StateAllocator(res)
        self.finals1 = finals1
        self.finals2 = finals2
        self.pair_id: dict[tuple[int, int], int] = {}
        self.queue: deque[tuple[int, int]] = deque()
        self.done: set[tuple[int, int]] = set()

    def intersect(self, left, right):
        out = set()
        for qa in sorted(left):
            for qb in sorted(right):
                sid = self.pair_id.get((qa, qb))
                if sid is None:
                    sid = self.alloc.fresh()
                    self.pair_id[(qa, qb)] = sid
                    self.res.origins[sid] = (qa, qb)
                    self.queue.append((qa, qb))
                out.add(sid)
        return out

    def settle(self, qa, qb):
        self.done.add((qa, qb))
        if qa in self.finals1 and qb in self.finals2:
            self.res.finals.add(self.pair_id[(qa, qb)])


def _product_traverse(left_machine, right_machine, discovery, combine, res):
    """Intersection-style reachability over two super-state indices,
    applying ``combine`` to each reachable pair of roots."""
    m = left_machine.manager
    res.index.set((), combine(left_machine.initial_root(),
                              right_machine.initial_root()), m.bottom)
    while discovery.queue:
        qa, qb = discovery.queue.popleft()
        discovery.settle(qa, qb)
        for n in left_machine.index.arities():
            if n == 0 or not right_machine.index.tuples(n):
                continue
            for sp1 in left_machine.index.containing(qa, n):
                for sp2 in right_machine.index.containing(qb, n):
                    if all((sp1[i], sp2[i]) in discovery.done for i in range(n)):
                        product_sp = tuple(discovery.pair_id[(sp1[i], sp2[i])]
                                           for i in range(n))
                        root = combine(left_machine.index.get(sp1),
                                       right_machine.index.get(sp2))
                        res.index.set(product_sp, root, m.bottom)
    return res


def apply_step(tr: Transducer, a: TreeAutomaton) -> TreeAutomaton:
    """One transduction step: the image automaton of L(a) under ``tr``.

    Both are traversed in parallel like an intersection; per product pair
    the diagrams are intersected over the paired banks, the input bank is
    trimmed away, and the output bank is renamed back onto the input bank.
    """
    if tr.alphabet is not a.alphabet:
        raise ValueError("operands must share one alphabet")
    if tr.manager is not a.manager:
        raise ValueError("operands must be registered to one manager")
    m = tr.manager
    res = TreeAutomaton(a.alphabet, m, name="image")
    discovery = _PairDiscovery(res, a.finals, tr.finals)

    def relabel(root_a: Ref, root_t: Ref) -> Ref:
        tmp = m.apply(root_a, root_t, discovery.intersect)
        tmp = m.trim_bank(tmp, INPUT_BANK)
        return m.rename_bank(tmp, OUTPUT_BANK, INPUT_BANK)

    return _product_traverse(a, tr, discovery, relabel, res)


def compose(t1: Transducer, t2: Transducer) -> Transducer:
    """The transducer applying ``t1`` first and ``t2`` second.

    ``t2``'s diagrams are moved onto (output-bank, scratch-bank), matched
    against ``t1``'s output bank, the shared middle symbols are trimmed
    away, and the scratch bank is renamed back to the output bank.
    """
    if t1.alphabet is not t2.alphabet:
        raise ValueError("operands must share one alphabet")
    if t1.manager is not t2.manager:
        raise ValueError("operands must be registered to one manager")
    m = t1.manager
    res = Transducer(t1.alphabet, m, name="compose")
    discovery = _PairDiscovery(res, t1.finals, t2.finals)

    def chain(root1: Ref, root2: Ref) -> Ref:
        tmp = m.rename_bank(root2, OUTPUT_BANK, SCRATCH_BANK)
        tmp = m.rename_bank(tmp, INPUT_BANK, OUTPUT_BANK)
        tmp = m.apply(root1, tmp, discovery.intersect)
        tmp = m.trim_bank(tmp, OUTPUT_BANK)
        return m.rename_bank(tmp, SCRATCH_BANK, OUTPUT_BANK)

    return _product_traverse(t1, t2, discovery, chain, res)


def identity_transducer(alphabet: Alphabet, manager: Manager | None = None
                        ) -> Transducer:
    """One-state transducer relabelling every symbol to itself."""
    tr = Transducer(alphabet, manager, name="identity")
    tr.add_state("i")
    tr.set_final("i")
    for sym in alphabet.symbols:
        tr.insert_rule(sym, ("i",) * sym.arity, sym, ("i",))
    return tr
