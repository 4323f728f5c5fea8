"""Nondeterministic bottom-up finite tree automata over a shared MTBDD.

The transition function maps super-states (tuples of source states) to
MTBDD roots indexed by the binary symbol encoding, with the target state
set in the terminal.  Completeness is virtual: a missing super-state, or a
symbol mapped to the bottom terminal, means every such transition goes to
the implicit rejecting sink.  Automata registered to one manager draw
their state ids from that manager, so their leaf sets never alias and
cross-automaton Apply is sound.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from .alphabet import Alphabet, Symbol
from .mtbdd import Manager, Ref
from .terms import Term


class SuperStateIndex:
    """Arity-bucketed sparse map from source tuples to MTBDD roots.

    An entry exists iff its root is not the bottom constant, so the stored
    arity-n tuples are exactly the super-states with at least one
    transition.
    """

    def __init__(self):
        self._buckets: dict[int, dict[tuple[int, ...], Ref]] = {}

    def get(self, source: tuple[int, ...]) -> Ref | None:
        bucket = self._buckets.get(len(source))
        return None if bucket is None else bucket.get(source)

    def set(self, source: tuple[int, ...], root: Ref, bottom: Ref):
        bucket = self._buckets.setdefault(len(source), {})
        if root is bottom:
            bucket.pop(source, None)
        else:
            bucket[source] = root

    def arities(self) -> list[int]:
        return sorted(n for n, bucket in self._buckets.items() if bucket)

    def tuples(self, arity: int) -> list[tuple[int, ...]]:
        return sorted(self._buckets.get(arity, ()))

    def containing(self, state: int, arity: int) -> list[tuple[int, ...]]:
        return [sp for sp in self.tuples(arity) if state in sp]

    def items(self):
        for arity in self.arities():
            bucket = self._buckets[arity]
            for sp in sorted(bucket):
                yield sp, bucket[sp]

    def __len__(self):
        return sum(len(b) for b in self._buckets.values())


class StateMachine:
    """Shared plumbing of automata and transducers: the name registry,
    final set, and super-state index bound to one manager."""

    def __init__(self, alphabet: Alphabet, manager: Manager, name: str):
        if not alphabet.frozen:
            raise ValueError("alphabet must be frozen first")
        if manager.width != alphabet.width:
            raise ValueError(
                f"manager width {manager.width} != alphabet width {alphabet.width}")
        self.alphabet = alphabet
        self.manager = manager
        self.name = name
        self.finals: set[int] = set()
        self.index = SuperStateIndex()
        #: optional provenance of result states: product pairs for the
        #: product constructions, member sets for subset and quotient ones
        self.origins: dict[int, object] = {}
        self._ids: list[int] = []          # registration order
        self._id_of: dict[str, int] = {}
        self._name_of: dict[int, str] = {}

    # -- state registry --------------------------------------------------

    def add_state(self, name: str) -> int:
        """Register a fresh state under a local name; returns its id."""
        return self.adopt_state(self.manager.new_state_id(), name)

    def adopt_state(self, sid: int, name: str) -> int:
        """Bind an existing manager state id under a local name.

        This is how operation results share states (and therefore MTBDD
        roots) with their operands.
        """
        if name in self._id_of:
            raise ValueError(f"duplicate state name {name!r}")
        if not self.manager.owns_state(sid):
            raise ValueError(f"state id {sid} was never allocated by this manager")
        if sid in self._name_of:
            raise ValueError(f"state id {sid} already registered here")
        self._ids.append(sid)
        self._id_of[name] = sid
        self._name_of[sid] = name
        return sid

    @property
    def states(self) -> tuple[int, ...]:
        return tuple(self._ids)

    @property
    def state_names(self) -> tuple[str, ...]:
        return tuple(self._name_of[sid] for sid in self._ids)

    def has_state(self, name: str) -> bool:
        return name in self._id_of

    def has_state_id(self, sid: int) -> bool:
        return sid in self._name_of

    def state_id(self, name: str) -> int:
        sid = self._id_of.get(name)
        if sid is None:
            raise KeyError(f"unknown state {name!r}")
        return sid

    def state_name(self, sid: int) -> str:
        name = self._name_of.get(sid)
        if name is None:
            raise KeyError(f"state id {sid} not registered in this automaton")
        return name

    def set_final(self, name: str):
        self.finals.add(self.state_id(name))

    def final_names(self) -> tuple[str, ...]:
        return tuple(self._name_of[sid] for sid in self._ids if sid in self.finals)

    # -- shared index access ------------------------------------------------

    def super_states(self, arity: int) -> list[tuple[int, ...]]:
        """Stored arity-n source tuples, lexicographically by state ids."""
        return self.index.tuples(arity)

    def initial_root(self) -> Ref:
        return self.index.get(()) or self.manager.bottom

    def stats(self) -> dict:
        """Size summary: states, finals, super-states per arity, node count."""
        roots = [root for _, root in self.index.items()]
        per_arity = {n: len(self.index.tuples(n)) for n in self.index.arities()}
        return {
            "states": len(self._ids),
            "finals": len(self.finals),
            "super_states": per_arity,
            "mtbdd_nodes": self.manager.node_count(*roots),
        }

    def _store(self, src: tuple[int, ...], cube, banks, targets: frozenset):
        """Write ``targets`` over the cube of ``src``'s stored root."""
        m = self.manager
        old = self.index.get(src) or m.bottom
        self.index.set(src, m.from_cube(cube, m.leaf(targets), banks, onto=old),
                       m.bottom)

    def _collect_targets(self, root: Ref | None, cube, banks) -> frozenset:
        """Project a root onto a cube and gather the surviving leaves."""
        if root is None:
            return frozenset()
        m = self.manager
        projected = m.project(root, cube, banks)
        collected: set[int] = set()

        def collect(leaf):
            collected.update(leaf)
            return leaf

        m.monadic_apply(projected, collect)
        return frozenset(collected)


class TreeAutomaton(StateMachine):
    """A bottom-up NFTA: named states, finals, and the super-state index
    holding the symbolic transition function on the input bank."""

    def __init__(self, alphabet: Alphabet, manager: Manager | None = None,
                 name: str = "A"):
        if manager is None:
            manager = Manager(alphabet.width if alphabet.frozen else 0)
        super().__init__(alphabet, manager, name)

    def _resolve(self, symbol: str | Symbol, arity: int) -> Symbol:
        if isinstance(symbol, Symbol):
            if symbol.arity != arity:
                raise ValueError(f"symbol {symbol} used with arity {arity}")
            return self.alphabet.symbol(symbol.name, symbol.arity)
        return self.alphabet.symbol(symbol, arity)

    def insert_transition(self, symbol: str | Symbol, source: Sequence[str],
                          targets: Iterable[str]):
        """Set the target set for (symbol, source); last write wins.

        Realised by writing the symbol's codeword over the stored root of
        the source tuple, which rebuilds only that codeword's path.
        """
        sym = self._resolve(symbol, len(source))
        src = tuple(self.state_id(s) for s in source)
        tgt = frozenset(self.state_id(t) for t in targets)
        if not tgt:
            raise ValueError("target set must be non-empty; absence encodes the sink")
        self._store(src, self.alphabet.encode(sym), (0,), tgt)

    def get_transition(self, symbol: str | Symbol, source: Sequence[str]) -> frozenset:
        """Targets of (symbol, source) as a frozenset of state names.

        Total by virtual completeness: unseen super-states yield the empty
        set.
        """
        sym = self._resolve(symbol, len(source))
        src = tuple(self.state_id(s) for s in source)
        ids = self._targets_ids(sym, src)
        return frozenset(self._name_of[q] for q in ids)

    def _targets_ids(self, sym: Symbol, src: tuple[int, ...]) -> frozenset:
        return self._collect_targets(self.index.get(src),
                                     self.alphabet.encode(sym), (0,))

    # -- term membership ---------------------------------------------------

    def accepts(self, t: Term) -> bool:
        """True iff some state reachable at the root of ``t`` is final."""
        return bool(self.reachable_states(t) & self.finals)

    def reachable_states(self, t: Term) -> frozenset:
        """The set of states the automaton can reach reading ``t`` bottom-up.

        Walks the term with an explicit stack, so depth is unbounded.  Equal
        subterms are evaluated once: each distinct subterm gets a number,
        keyed by its name and its children's numbers, so telling subterms
        apart costs time linear in the term and never hashes a deep tuple.
        A subterm object met again is not walked again.
        """
        numbers: dict[tuple, int] = {}    # (name, child numbers) -> number
        seen: dict[int, int] = {}         # id of a walked subterm -> number
        reached: list[frozenset] = []     # number -> states
        finished: list[int] = []          # numbers of finished subterms
        stack: list[tuple[Term, Symbol | None]] = [(t, None)]
        while stack:
            node, sym = stack.pop()
            name, children = node
            if sym is None:  # first visit
                number = seen.get(id(node))
                if number is not None:
                    finished.append(number)
                    continue
                sym = self.alphabet.symbol(name, len(children))
                if children:  # evaluate the children first
                    stack.append((node, sym))
                    stack.extend([(c, None) for c in reversed(children)])
                    continue
            split = len(finished) - len(children)
            key = (name, tuple(finished[split:]))
            del finished[split:]
            number = numbers.get(key)
            if number is None:
                states: set[int] = set()
                for combo in itertools.product(*[reached[k] for k in key[1]]):
                    states |= self._targets_ids(sym, combo)
                number = numbers[key] = len(reached)
                reached.append(frozenset(states))
            seen[id(node)] = number
            finished.append(number)
        return reached[finished[0]]

    def __repr__(self):
        return (f"<TreeAutomaton {self.name}: {len(self._ids)} states,"
                f" {len(self.index)} super-states>")
