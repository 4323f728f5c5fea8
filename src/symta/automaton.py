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

import bisect
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

    A position index maps (arity, position, state) to the stored tuples
    carrying that state at that position, in ascending order, so
    ``containing`` and ``unite`` cost time in the tuples they return or
    fold rather than in the whole bucket.  An arity's position index is
    built on its first lookup and kept current by ``set`` from then on;
    indices that are only written (results under construction) never pay
    for it.
    """

    def __init__(self):
        self._buckets: dict[int, dict[tuple[int, ...], Ref]] = {}
        #: arity -> one {state: ascending tuples} map per position
        self._positions: dict[int, list[dict[int, list[tuple[int, ...]]]]] = {}

    def get(self, source: tuple[int, ...]) -> Ref | None:
        bucket = self._buckets.get(len(source))
        return None if bucket is None else bucket.get(source)

    def set(self, source: tuple[int, ...], root: Ref, bottom: Ref):
        bucket = self._buckets.setdefault(len(source), {})
        positions = self._positions.get(len(source))
        if root is bottom:
            if bucket.pop(source, None) is not None and positions is not None:
                for by_state, q in zip(positions, source):
                    row = by_state[q]
                    del row[bisect.bisect_left(row, source)]
        else:
            if source not in bucket and positions is not None:
                for by_state, q in zip(positions, source):
                    bisect.insort(by_state.setdefault(q, []), source)
            bucket[source] = root

    def _positions_of(self, arity: int) -> list[dict[int, list[tuple[int, ...]]]]:
        positions = self._positions.get(arity)
        if positions is None:
            positions = [{} for _ in range(arity)]
            for sp in sorted(self._buckets.get(arity, ())):
                for by_state, q in zip(positions, sp):
                    by_state.setdefault(q, []).append(sp)
            self._positions[arity] = positions
        return positions

    def arities(self) -> list[int]:
        return sorted(n for n, bucket in self._buckets.items() if bucket)

    def tuples(self, arity: int) -> list[tuple[int, ...]]:
        return sorted(self._buckets.get(arity, ()))

    def containing(self, state: int, arity: int,
                   position: int) -> list[tuple[int, ...]]:
        """Stored arity-n tuples holding ``state`` at ``position``, in
        ascending order."""
        return list(self._positions_of(arity)[position].get(state, ()))

    def unite(self, manager: Manager, sets: Sequence) -> Ref:
        """Union of the roots of the stored tuples of arity ``len(sets)``
        whose i-th component lies in ``sets[i]``; bottom when none does.

        Only the tuples listed under the smallest set's position are
        tested.  Handles are canonical, so the fold order does not change
        the result.
        """
        bucket = self._buckets.get(len(sets))
        if not bucket:
            return manager.bottom
        if not sets:
            return bucket[()]
        i = min(range(len(sets)), key=lambda j: len(sets[j]))
        by_state = self._positions_of(len(sets))[i]
        union = manager.bottom
        for q in sets[i]:
            for sp in by_state.get(q, ()):
                if all(p in members for p, members in zip(sp, sets)):
                    union = manager.union(union, bucket[sp])
        return union

    def items(self):
        for arity in self.arities():
            bucket = self._buckets[arity]
            for sp in sorted(bucket):
                yield sp, bucket[sp]

    def __len__(self):
        return sum(len(b) for b in self._buckets.values())


class StateMachine:
    """Shared plumbing of automata and transducers: the name registry,
    final set, and super-state index bound to one manager.  A subclass
    sets its document ``kind`` and the ``banks`` its rules' symbols go on,
    one symbol per bank, interleaved bit by bit in a rule's cube."""

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

    def _resolve(self, symbol: str | Symbol, arity: int) -> Symbol:
        """The registered symbol of this name (or Symbol) at ``arity``."""
        if isinstance(symbol, Symbol):
            if symbol.arity != arity:
                raise ValueError(f"symbol {symbol} used with arity {arity}")
            return self.alphabet.symbol(symbol.name, symbol.arity)
        return self.alphabet.symbol(symbol, arity)

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

    def _insert(self, symbols: Sequence[str | Symbol], source: Sequence[str],
                targets: Iterable[str]):
        """Set the targets of one symbol per bank over the named source."""
        self._store(source, self._encode(symbols, len(source)), targets)

    def _lookup(self, symbols: Sequence[str | Symbol],
                source: Sequence[str]) -> frozenset:
        """Target names of one symbol per bank over the named source."""
        cube = self._encode(symbols, len(source))
        ids = self._targets(cube, tuple(self.state_id(s) for s in source))
        return frozenset(self._name_of[q] for q in ids)

    def _store(self, source: Sequence[str], cube, targets: Iterable[str]):
        """Write the named targets over the cube of the named source's root,
        which rebuilds only the cube's paths; the last write wins."""
        src = tuple(self.state_id(s) for s in source)
        tgt = frozenset(self.state_id(t) for t in targets)
        if not tgt:
            raise ValueError("target set must be non-empty; absence encodes the sink")
        m = self.manager
        old = self.index.get(src) or m.bottom
        self.index.set(src, m.from_cube(cube, m.leaf(tgt), self.banks, onto=old),
                       m.bottom)

    def _targets(self, cube, src_ids: tuple[int, ...]) -> frozenset:
        """Target ids of a total cube at a tuple of source ids, or none."""
        m = self.manager
        return m.evaluate(self.index.get(src_ids) or m.bottom, cube, self.banks)

    def __repr__(self):
        return (f"<{type(self).__name__} {self.name}: {len(self._ids)} states,"
                f" {len(self.index)} super-states>")


class TreeAutomaton(StateMachine):
    """A bottom-up NFTA: named states, finals, and the super-state index
    holding the symbolic transition function on the input bank."""

    banks = (0,)
    kind = "automaton"

    def __init__(self, alphabet: Alphabet, manager: Manager | None = None,
                 name: str = "A"):
        if manager is None:
            manager = Manager(alphabet.width if alphabet.frozen else 0)
        super().__init__(alphabet, manager, name)

    def _encode(self, symbols, arity: int):
        return self.alphabet.encode(self._resolve(symbols[0], arity))

    def _labels(self, cube, arity: int, order: dict):
        """(sort key, name, suffix) of each symbol the cube covers."""
        return [(order[s], s.name, "") for s in self.alphabet.decode_cube(cube, arity)]

    def insert_transition(self, symbol: str | Symbol, source: Sequence[str],
                          targets: Iterable[str]):
        """Set the target set for (symbol, source); last write wins."""
        self._insert((symbol,), source, targets)

    def get_transition(self, symbol: str | Symbol, source: Sequence[str]) -> frozenset:
        """Targets of (symbol, source) as a frozenset of state names."""
        return self._lookup((symbol,), source)

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
                cube = self.alphabet.encode(sym)
                states: set[int] = set()
                for combo in itertools.product(*[reached[k] for k in key[1]]):
                    states |= self._targets(cube, combo)
                number = numbers[key] = len(reached)
                reached.append(frozenset(states))
            seen[id(node)] = number
            finished.append(number)
        return reached[finished[0]]
