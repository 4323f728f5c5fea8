"""Shared reduced ordered multi-terminal BDDs with set-valued terminals.

A :class:`Manager` owns every diagram node it ever creates.  Internal
decision nodes are hash-consed through a unique table keyed by
``(variable, low, high)`` and terminals are interned in a leaf pool keyed
by the terminal's state set, so structurally equal functions are always
represented by the very same object: handle identity doubles as function
equality (canonicity).  Reduction is enforced on construction; no node has
equal children, and variable indices strictly increase from the root
towards the leaves on every path.

Variables are global indices ``0 .. num_vars-1`` arranged in interleaved
banks: index ``bit * banks + bank`` is bit ``bit`` of bank ``bank``.  A
plain automaton manager uses one bank; a transducer-capable manager
allocates three up front (input, output, and a scratch bank for
composition).

The interned empty set is the distinguished bottom terminal: it stands for
the implicit rejecting sink of a virtually complete automaton, and sparse
diagrams simply never mention it.  Apply functors should map a pair of
empty sets back to the empty set; returning anything else is legal but
densifies the diagram.

A manager and the diagrams it owns form one mutation unit.  Operations
that may intern nodes must not run concurrently; the whole unit may be
handed from thread to thread, and read-only evaluation is safe only while
no interning operation is in flight.  Distinct managers are fully
independent.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable, Sequence

#: Sorts after every real variable index, so ``min`` based descent works.
LEAF_LEVEL = sys.maxsize

#: Cube entry meaning "don't care".
X = None

#: A cube: one entry per variable position, each 0, 1 or X (None).
Cube = tuple  # tuple[int | None, ...]

ApplyOp = Callable[[frozenset, frozenset], Iterable[int]]
MonadicOp = Callable[[frozenset], Iterable[int]]


class Leaf:
    """Interned terminal carrying a frozenset of state ids."""

    __slots__ = ("manager", "value")
    var = LEAF_LEVEL

    def __init__(self, manager: "Manager", value: frozenset):
        self.manager = manager
        self.value = value

    def __repr__(self):
        inner = ",".join(str(q) for q in sorted(self.value))
        return f"<leaf {{{inner}}}>"


class Node:
    """Internal decision node; ``low`` is the 0-branch, ``high`` the 1-branch."""

    __slots__ = ("manager", "var", "low", "high")

    def __init__(self, manager: "Manager", var: int, low, high):
        self.manager = manager
        self.var = var
        self.low = low
        self.high = high

    def __repr__(self):
        return f"<node v{self.var}>"


#: Anything a diagram operation accepts or returns.
Ref = Node | Leaf


class Manager:
    """Node store for a family of shared MTBDDs.

    ``width`` is the number of boolean variables per bank, ``banks`` how
    many interleaved banks exist.  Width 0 is legal: every diagram is then
    a bare terminal and all operations must (and do) accept that.

    The manager also hands out state ids for the automata registered to
    it, which keeps leaf sets of different automata in one manager
    disjoint by construction.  Managers are arena-style: dead nodes are
    never collected, a whole manager is dropped at once.
    """

    def __init__(self, width: int, banks: int = 1):
        if width < 0:
            raise ValueError(f"width must be non-negative, got {width}")
        if banks < 1:
            raise ValueError(f"banks must be positive, got {banks}")
        self.width = width
        self.banks = banks
        self.num_vars = width * banks
        empty = frozenset()
        self.bottom = Leaf(self, empty)
        self._leaves: dict[frozenset, Leaf] = {empty: self.bottom}
        self._unique: dict[tuple, Node] = {}
        self._next_state = 0
        #: top-level apply/monadic_apply invocations, for instrumentation
        self.apply_calls = 0

    # -- state id allocation -------------------------------------------------

    def new_state_id(self) -> int:
        sid = self._next_state
        self._next_state += 1
        return sid

    def owns_state(self, sid: int) -> bool:
        return 0 <= sid < self._next_state

    # -- node construction ---------------------------------------------------

    def leaf(self, states: Iterable[int]) -> Leaf:
        """Intern a state set; equal sets always yield the same handle."""
        value = frozenset(states)
        ref = self._leaves.get(value)
        if ref is None:
            ref = Leaf(self, value)
            self._leaves[value] = ref
        return ref

    def node(self, var: int, low: Ref, high: Ref) -> Ref:
        """Reduced, hash-consed internal node (or ``low`` when children agree)."""
        if low is high:
            return low
        if not 0 <= var < self.num_vars:
            raise ValueError(f"variable {var} outside 0..{self.num_vars - 1}")
        if var >= low.var or var >= high.var:
            raise ValueError("variable order violated")
        key = (var, low, high)
        ref = self._unique.get(key)
        if ref is None:
            ref = Node(self, var, low, high)
            self._unique[key] = ref
        return ref

    def var_index(self, bit: int, bank: int = 0) -> int:
        if not 0 <= bit < self.width:
            raise ValueError(f"bit {bit} outside 0..{self.width - 1}")
        if not 0 <= bank < self.banks:
            raise ValueError(f"bank {bank} outside 0..{self.banks - 1}")
        return bit * self.banks + bank

    def _bindings(self, cube: Cube, banks: Sequence[int]) -> list[tuple[int, int]]:
        """Translate a cube over the given banks into (variable, bit) pairs."""
        k = len(banks)
        if len(cube) != self.width * k:
            raise ValueError(
                f"cube width {len(cube)} does not match {self.width} bits"
                f" over {k} bank(s)")
        out = []
        for j, bit in enumerate(cube):
            if bit is X:
                continue
            if bit not in (0, 1):
                raise ValueError(f"cube entry {bit!r} is not 0, 1 or X")
            out.append((self.var_index(j // k, banks[j % k]), bit))
        return out

    def from_cube(self, cube: Cube, leaf: Leaf, banks: Sequence[int] = (0,),
                  onto: Ref | None = None) -> Ref:
        """Diagram mapping every assignment compatible with ``cube`` to ``leaf``.

        All other assignments keep their value in ``onto`` (bottom by
        default), so this writes one cube over an existing root.
        Don't-care positions produce no decision node, so one cube can
        stand for a whole set of symbols.

        Only the paths of ``onto`` inside the cube are rebuilt: at a level
        the cube binds, the other child is reused as it is, so a total
        codeword costs one ``node`` call per bound variable however large
        ``onto`` is.  Canonicity makes the result the same handle as
        merging a one-cube diagram over ``onto`` with ``apply``.
        """
        self._check_owned(leaf)
        if onto is None:
            onto = self.bottom
        self._check_owned(onto)
        bindings = self._bindings(cube, banks)
        cache: dict[tuple, Ref] = {}

        def rec(a: Ref, k: int) -> Ref:
            if k == len(bindings):
                return leaf
            key = (a, k)
            res = cache.get(key)
            if res is None:
                var, bit = bindings[k]
                if a.var < var:  # a level the cube leaves free
                    res = self.node(a.var, rec(a.low, k), rec(a.high, k))
                elif a.var == var:
                    if bit == 1:
                        res = self.node(var, a.low, rec(a.high, k + 1))
                    else:
                        res = self.node(var, rec(a.low, k + 1), a.high)
                elif bit == 1:  # a level the root skips
                    res = self.node(var, a, rec(a, k + 1))
                else:
                    res = self.node(var, rec(a, k + 1), a)
                cache[key] = res
            return res

        return rec(onto, 0)

    # -- core recursions -----------------------------------------------------

    def _check_owned(self, ref: Ref):
        if ref.manager is not self:
            raise ValueError("diagram belongs to a different manager")

    def apply(self, lhs: Ref, rhs: Ref, op: ApplyOp) -> Ref:
        """Combine two diagrams leafwise: result(a) = op(lhs(a), rhs(a)).

        ``op`` receives leaf values (frozensets) and may be stateful; it is
        invoked at most once per distinct pair of nodes.  The compute cache
        lives only for this call, precisely because functors may carry
        state.
        """
        self._check_owned(lhs)
        self._check_owned(rhs)
        self.apply_calls += 1
        cache: dict[tuple, Ref] = {}

        def rec(a: Ref, b: Ref) -> Ref:
            key = (a, b)
            res = cache.get(key)
            if res is None:
                if a.var == LEAF_LEVEL and b.var == LEAF_LEVEL:
                    res = self.leaf(op(a.value, b.value))
                else:
                    var = a.var if a.var < b.var else b.var
                    a0, a1 = (a.low, a.high) if a.var == var else (a, a)
                    b0, b1 = (b.low, b.high) if b.var == var else (b, b)
                    res = self.node(var, rec(a0, b0), rec(a1, b1))
                cache[key] = res
            return res

        return rec(lhs, rhs)

    def monadic_apply(self, root: Ref, op: MonadicOp) -> Ref:
        """Rewrite every distinct leaf of ``root`` through ``op`` (visited once)."""
        self._check_owned(root)
        self.apply_calls += 1
        cache: dict[Ref, Ref] = {}

        def rec(a: Ref) -> Ref:
            res = cache.get(a)
            if res is None:
                if a.var == LEAF_LEVEL:
                    res = self.leaf(op(a.value))
                else:
                    res = self.node(a.var, rec(a.low), rec(a.high))
                cache[a] = res
            return res

        return rec(root)

    def project(self, root: Ref, cube: Cube, banks: Sequence[int] = (0,)) -> Ref:
        """Keep ``root``'s values on assignments compatible with ``cube``.

        Everything else maps to bottom.  This fuses the construction of a
        projection BDD with its application.
        """
        self._check_owned(root)
        bindings = self._bindings(cube, banks)
        cache: dict[tuple, Ref] = {}

        def rec(a: Ref, k: int) -> Ref:
            if k == len(bindings):
                return a
            key = (a, k)
            res = cache.get(key)
            if res is None:
                var, bit = bindings[k]
                if a.var < var:
                    res = self.node(a.var, rec(a.low, k), rec(a.high, k))
                else:
                    child = rec(a.high if (a.var == var and bit == 1)
                                else a.low if a.var == var else a, k + 1)
                    if bit == 1:
                        res = self.node(var, self.bottom, child)
                    else:
                        res = self.node(var, child, self.bottom)
                cache[key] = res
            return res

        return rec(root, 0)

    def trim_bank(self, root: Ref, bank: int) -> Ref:
        """Eliminate one bank by uniting the branches of each of its nodes.

        For every assignment to the remaining variables the result holds
        the union of ``root``'s values over all assignments to the trimmed
        bank; colliding state sets are united.
        """
        self._check_owned(root)
        if not 0 <= bank < self.banks:
            raise ValueError(f"bank {bank} outside 0..{self.banks - 1}")
        cache: dict[Ref, Ref] = {}

        def rec(a: Ref) -> Ref:
            if a.var == LEAF_LEVEL:
                return a
            res = cache.get(a)
            if res is None:
                low, high = rec(a.low), rec(a.high)
                if a.var % self.banks == bank:
                    res = self.apply(low, high, lambda x, y: x | y)
                else:
                    res = self.node(a.var, low, high)
                cache[a] = res
            return res

        return rec(root)

    def rename_bank(self, root: Ref, src_bank: int, dst_bank: int) -> Ref:
        """Move every variable of ``src_bank`` to the same bit of ``dst_bank``.

        The destination bank must not occur in ``root``.  With interleaved
        banks the mapping is monotone, so the structure is simply rebuilt.
        """
        self._check_owned(root)
        for bank in (src_bank, dst_bank):
            if not 0 <= bank < self.banks:
                raise ValueError(f"bank {bank} outside 0..{self.banks - 1}")
        support = self.support(root)
        if not any(v % self.banks == src_bank for v in support):
            return root  # nothing to rename
        if any(v % self.banks == dst_bank for v in support):
            raise ValueError(f"destination bank {dst_bank} already occurs in root")
        delta = dst_bank - src_bank
        cache: dict[Ref, Ref] = {}

        def rec(a: Ref) -> Ref:
            if a.var == LEAF_LEVEL:
                return a
            res = cache.get(a)
            if res is None:
                var = a.var + delta if a.var % self.banks == src_bank else a.var
                res = self.node(var, rec(a.low), rec(a.high))
                cache[a] = res
            return res

        return rec(root)

    # -- inspection ----------------------------------------------------------

    def evaluate(self, root: Ref, assignment: Sequence[int]) -> frozenset:
        """Value of the function at a total 0/1 assignment to all variables."""
        self._check_owned(root)
        if len(assignment) != self.num_vars:
            raise ValueError(
                f"assignment has {len(assignment)} entries, expected {self.num_vars}")
        for bit in assignment:
            if bit not in (0, 1):
                raise ValueError(f"assignment entry {bit!r} is not 0 or 1")
        ref = root
        while ref.var != LEAF_LEVEL:
            ref = ref.high if assignment[ref.var] else ref.low
        return ref.value

    def iter_nodes(self, *roots: Ref):
        """Distinct internal nodes reachable from the roots, depth first."""
        seen = set()
        stack = [r for r in roots]
        while stack:
            ref = stack.pop()
            if ref.var == LEAF_LEVEL or id(ref) in seen:
                continue
            seen.add(id(ref))
            yield ref
            stack.append(ref.high)
            stack.append(ref.low)

    def node_count(self, *roots: Ref) -> int:
        """Number of distinct internal nodes reachable from the roots."""
        return sum(1 for _ in self.iter_nodes(*roots))

    def support(self, root: Ref) -> frozenset:
        """Variable indices occurring in the diagram."""
        return frozenset(n.var for n in self.iter_nodes(root))

    def leaf_values(self, root: Ref) -> list[frozenset]:
        """Distinct leaf values in 0-before-1 depth-first discovery order."""
        out: list[frozenset] = []
        seen: set = set()

        def rec(a: Ref):
            if id(a) in seen:
                return
            seen.add(id(a))
            if a.var == LEAF_LEVEL:
                out.append(a.value)
            else:
                rec(a.low)
                rec(a.high)

        self._check_owned(root)
        rec(root)
        return out

    def to_dot(self, roots, state_name=None) -> str:
        """Debug rendering: circles for decision nodes (labelled with the
        variable index), boxes for terminals listing the state set, dashed
        edges for 0 and solid for 1.

        ``roots`` maps a label to a diagram (or is a single diagram).
        """
        if isinstance(roots, (Node, Leaf)):
            roots = {"root": roots}
        name_of = state_name or str
        ids: dict[int, str] = {}
        lines = ["digraph mtbdd {"]

        def visit(a: Ref) -> str:
            tag = ids.get(id(a))
            if tag is not None:
                return tag
            tag = f"n{len(ids)}"
            ids[id(a)] = tag
            if a.var == LEAF_LEVEL:
                inner = ",".join(name_of(q) for q in sorted(a.value))
                lines.append(f'  {tag} [shape=box, label="{{{inner}}}"];')
            else:
                lines.append(f'  {tag} [shape=circle, label="{a.var}"];')
                lines.append(f"  {tag} -> {visit(a.low)} [style=dashed];")
                lines.append(f"  {tag} -> {visit(a.high)};")
            return tag

        for label, root in roots.items():
            self._check_owned(root)
            tag = f"r{len(lines)}"
            lines.append(f'  {tag} [shape=plaintext, label="{label}"];')
            lines.append(f"  {tag} -> {visit(root)};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def cube_from_text(text: str) -> Cube:
    """Parse a cube like ``"01X"`` into a tuple over {0, 1, X}."""
    out = []
    for ch in text:
        if ch == "0":
            out.append(0)
        elif ch == "1":
            out.append(1)
        elif ch in "Xx*":
            out.append(X)
        else:
            raise ValueError(f"bad cube character {ch!r}")
    return tuple(out)


def cube_to_text(cube: Cube) -> str:
    return "".join("X" if bit is X else str(bit) for bit in cube)


def cube_covers(cube: Cube, assignment: Sequence[int]) -> bool:
    """True when the total assignment is compatible with the cube."""
    if len(cube) != len(assignment):
        raise ValueError("cube and assignment widths differ")
    return all(bit is X or bit == a for bit, a in zip(cube, assignment))
