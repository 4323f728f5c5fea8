"""Relabelling tree transducers over paired variable banks.

A relabelling transducer rewrites node labels but never the tree shape.
Its rules live in MTBDDs over two interleaved banks: the input symbol on
bank 0 and the output symbol on bank 1.  A third bank is reserved as
scratch space for composition, so a transducer-capable manager always
carries three banks.

A transduction step and a composition are product traversals: they run
the pair worklist of :mod:`symta.ops` (the one intersection uses) with a
root combiner that intersects over the paired banks, trims the matched
bank and renames the remaining one.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .alphabet import Alphabet, Symbol
from .automaton import StateMachine, TreeAutomaton
from .mtbdd import Cube, Manager, Ref
from .ops import _product, _require_compatible

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

    def insert_rule(self, in_symbol: str | Symbol, source: Sequence[str],
                    out_symbol: str | Symbol, targets: Iterable[str]):
        """Store f(source) -> targets(g); overwrite per (pair, source).

        Relabelling preserves the shape, so both symbols must carry the
        source tuple's arity.
        """
        f = self._resolve(in_symbol, len(source))
        g = self._resolve(out_symbol, len(source))
        self._store(source, self.alphabet.encode_pair(f, g),
                    (INPUT_BANK, OUTPUT_BANK), targets)

    def insert_rule_cube(self, input_cube: Cube, source: Sequence[str],
                         output_cube: Cube, targets: Iterable[str]):
        """Cube-level rule: whole sets of symbol pairs in one insertion."""
        self._store(source, self.alphabet.pair_cube(input_cube, output_cube),
                    (INPUT_BANK, OUTPUT_BANK), targets)

    def get_rule(self, in_symbol: str | Symbol, source: Sequence[str],
                 out_symbol: str | Symbol) -> frozenset:
        """Target names for one fully specified (f, source, g) triple."""
        f = self._resolve(in_symbol, len(source))
        g = self._resolve(out_symbol, len(source))
        src = tuple(self.state_id(s) for s in source)
        m = self.manager
        ids = m.evaluate(self.index.get(src) or m.bottom,
                         self.alphabet.encode_pair(f, g), (INPUT_BANK, OUTPUT_BANK))
        return frozenset(self._name_of[q] for q in ids)

    def __repr__(self):
        return (f"<Transducer {self.name}: {len(self._ids)} states,"
                f" {len(self.index)} super-states>")


def apply_step(tr: Transducer, a: TreeAutomaton) -> TreeAutomaton:
    """One transduction step: the image automaton of L(a) under ``tr``.

    Both are traversed in parallel like an intersection; per product pair
    the diagrams are intersected over the paired banks, the input bank is
    trimmed away, and the output bank is renamed back onto the input bank.
    """
    _require_compatible(tr, a)
    m = tr.manager

    def relabel(root_a: Ref, root_t: Ref, meet) -> Ref:
        tmp = m.apply(root_a, root_t, meet)
        tmp = m.trim_bank(tmp, INPUT_BANK)
        return m.rename_bank(tmp, OUTPUT_BANK, INPUT_BANK)

    return _product(a, tr, TreeAutomaton(a.alphabet, m, name="image"), relabel)


def compose(t1: Transducer, t2: Transducer) -> Transducer:
    """The transducer applying ``t1`` first and ``t2`` second.

    ``t2``'s diagrams are moved onto (output-bank, scratch-bank), matched
    against ``t1``'s output bank, the shared middle symbols are trimmed
    away, and the scratch bank is renamed back to the output bank.
    """
    _require_compatible(t1, t2)
    m = t1.manager

    def chain(root1: Ref, root2: Ref, meet) -> Ref:
        tmp = m.rename_bank(root2, OUTPUT_BANK, SCRATCH_BANK)
        tmp = m.rename_bank(tmp, INPUT_BANK, OUTPUT_BANK)
        tmp = m.apply(root1, tmp, meet)
        tmp = m.trim_bank(tmp, OUTPUT_BANK)
        return m.rename_bank(tmp, SCRATCH_BANK, OUTPUT_BANK)

    return _product(t1, t2, Transducer(t1.alphabet, m, name="compose"), chain)


def identity_transducer(alphabet: Alphabet, manager: Manager | None = None
                        ) -> Transducer:
    """One-state transducer relabelling every symbol to itself."""
    tr = Transducer(alphabet, manager, name="identity")
    tr.add_state("i")
    tr.set_final("i")
    for sym in alphabet.symbols:
        tr.insert_rule(sym, ("i",) * sym.arity, sym, ("i",))
    return tr
