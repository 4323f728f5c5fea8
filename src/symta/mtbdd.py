"""Shared reduced ordered multi-terminal BDDs with set-valued terminals.

A :class:`Manager` owns every diagram node it ever creates.  Internal
decision nodes are hash-consed through one unique table per variable,
keyed by ``(low, high)``, and terminals are interned in a leaf pool keyed
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

Every diagram recursion (``apply``, ``monadic_apply``, ``union``,
``relational_product``, ``from_cube``, ``from_cubes``, ``leaf_values``)
steps to a strictly later variable at each level, so it recurses at most
``num_vars + 1`` deep whatever the diagrams' sizes.

A manager and the diagrams it owns form one mutation unit.  Operations
that may intern nodes must not run concurrently; the whole unit may be
handed from thread to thread, and read-only evaluation is safe only while
no interning operation is in flight.  Distinct managers are fully
independent.
"""

from __future__ import annotations

import bisect
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
    never collected, a whole manager is dropped at once.  So bulk input
    goes through :meth:`from_cubes`, which interns only the nodes of its
    result, and each variable has its own unique table, so growing one
    table never rehashes the nodes of every other variable.
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
        #: per variable: (low, high) -> node
        self._unique: list[dict[tuple, Node]] = [{} for _ in range(self.num_vars)]
        #: unordered pair of handles -> their union, kept for the manager's life
        self._union_table: dict[tuple, Ref] = {}
        self._next_state = 0
        #: top-level apply, monadic_apply, union and relational_product calls
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
        table = self._unique[var]
        ref = table.get((low, high))
        if ref is None:
            ref = table[low, high] = Node(self, var, low, high)
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
        stand for a whole set of symbols.  To build a diagram from many
        total cubes at once, :meth:`from_cubes` interns no dead path.

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

    def from_cubes(self, entries: Iterable[tuple[Cube, Leaf]],
                   banks: Sequence[int] = (0,)) -> Ref:
        """Diagram mapping each total 0/1 cube of ``entries`` to its leaf
        and every other assignment to bottom; a repeated cube keeps its
        last leaf.

        The handle is the one folding ``from_cube(cube, leaf, banks,
        onto=root)`` over ``entries`` returns, but the diagram is built
        bottom-up from the sorted cubes, split at each variable in turn,
        so every node interned is a node of the result.
        """
        k = len(banks)
        n = self.width * k
        variables = [self.var_index(j // k, banks[j % k]) for j in range(n)]
        table: dict[Cube, Leaf] = {}
        for cube, leaf in entries:
            self._check_owned(leaf)
            if len(cube) != n or not set(cube) <= {0, 1}:
                raise ValueError(f"cube {cube!r} is not a total 0/1 cube of width {n}")
            table[cube] = leaf
        cubes = sorted(table)
        bottom, node = self.bottom, self.node

        def rec(lo: int, hi: int, depth: int) -> Ref:
            if lo == hi:
                return bottom
            if hi - lo == 1:  # one cube left: its path, built upwards
                cube = cubes[lo]
                ref = table[cube]
                for d in range(n - 1, depth - 1, -1):
                    ref = (node(variables[d], bottom, ref) if cube[d]
                           else node(variables[d], ref, bottom))
                return ref
            # cubes[lo:hi] share their first ``depth`` bits; find the 1s
            mid = bisect.bisect_left(cubes, cubes[lo][:depth] + (1,), lo, hi)
            return node(variables[depth], rec(lo, mid, depth + 1),
                        rec(mid, hi, depth + 1))

        return rec(0, len(cubes), 0)

    # -- core recursions -----------------------------------------------------

    def _check_owned(self, ref: Ref):
        if ref.manager is not self:
            raise ValueError("diagram belongs to a different manager")

    def apply(self, lhs: Ref, rhs: Ref, op: ApplyOp,
              cache: dict | None = None) -> Ref:
        """Combine two diagrams leafwise: result(a) = op(lhs(a), rhs(a)).

        ``op`` receives leaf values (frozensets) and may be stateful.
        ``cache`` is the compute table: it maps each visited pair of handles
        to its result, so ``op`` is invoked at most once per distinct pair
        of leaves.  By default it is fresh and lives only for this call.

        A caller may pass one table to a run of calls, which then visits a
        pair of handles once across the run.  Calls may share a table only
        if they share one ``op`` that, given a pair of leaf values again,
        returns what it returned the first time and has no further effect.
        A pair found in the table was fully visited before, so every leaf
        pair below it has met ``op`` already: the first calls of each leaf
        pair come in the order fresh tables would give.  The one table
        that outlives every run is :meth:`union`'s, allowed because its
        functor is fixed and stateless.
        """
        self._check_owned(lhs)
        self._check_owned(rhs)
        self.apply_calls += 1
        if cache is None:
            cache = {}

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

    def monadic_apply(self, root: Ref, op: MonadicOp,
                      cache: dict | None = None) -> Ref:
        """Rewrite every distinct leaf of ``root`` through ``op`` (visited once).

        ``cache`` is the compute table, fresh by default; calls may share
        one under the condition :meth:`apply` states.
        """
        self._check_owned(root)
        self.apply_calls += 1
        if cache is None:
            cache = {}

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

        Everything else maps to bottom.  One Apply does it: the mask is
        ``root`` with bottom written over the cube, so ``x - mask`` leaves
        ``x`` inside the cube and nothing outside it.
        """
        mask = self.from_cube(cube, self.bottom, banks, onto=root)
        return self.apply(root, mask, lambda x, y: x - y)

    def union(self, lhs: Ref, rhs: Ref) -> Ref:
        """The handle ``apply(lhs, rhs, lambda x, y: x | y)`` returns, counted
        as one Apply, memoised for the manager's life by the unordered pair
        of handles: handles are canonical and the arena frees no node."""
        self._check_owned(lhs)
        self._check_owned(rhs)
        self.apply_calls += 1
        return self._unite(lhs, rhs)

    def _unite(self, a: Ref, b: Ref) -> Ref:
        if a is b or b is self.bottom:
            return a
        if a is self.bottom:
            return b
        key = (a, b) if id(a) < id(b) else (b, a)
        res = self._union_table.get(key)
        if res is None:
            if a.var == b.var == LEAF_LEVEL:
                res = self.leaf(a.value | b.value)
            else:
                var = a.var if a.var < b.var else b.var
                a0, a1 = (a.low, a.high) if a.var == var else (a, a)
                b0, b1 = (b.low, b.high) if b.var == var else (b, b)
                res = self.node(var, self._unite(a0, b0), self._unite(a1, b1))
            self._union_table[key] = res
        return res

    def relational_product(self, lhs: Ref, rhs: Ref, op: ApplyOp,
                           trim: int | None = None,
                           move: tuple[int, int] | None = None,
                           shift: int = 0, cache: dict | None = None) -> Ref:
        """The handle of ``apply(lhs, rhs, op)`` with bank ``trim`` united
        away (``trim_bank``) and bank ``move[0]`` moved onto ``move[1]``
        (``rename_bank``), made in one pass that interns no intermediate.

        ``rhs`` is read with every variable ``shift`` banks up, and
        ``move``'s destination must be ``trim`` or occur in neither operand.
        Pairs are visited, and ``op`` called, exactly as by ``apply``; the
        trimmed levels unite through the union table.  This is the
        relational product ("AndExists") of Burch, Clarke and Long.
        ``cache`` is the compute table, fresh by default; calls may share
        one under the condition :meth:`apply` states, and only with one
        ``trim``, ``move`` and ``shift``.
        """
        self._check_owned(lhs)
        self._check_owned(rhs)
        src, dst = move or (None, None)
        for bank in (trim, src, dst):
            if bank is not None and not 0 <= bank < self.banks:
                raise ValueError(f"bank {bank} outside 0..{self.banks - 1}")
        self.apply_calls += 1
        banks, delta = self.banks, dst - src if move else 0
        unite, node = self._unite, self.node
        if cache is None:
            cache = {}

        def rec(a: Ref, b: Ref) -> Ref:
            key = (a, b)
            res = cache.get(key)
            if res is None:
                if a.var == LEAF_LEVEL and b.var == LEAF_LEVEL:
                    res = self.leaf(op(a.value, b.value))
                else:
                    b_var = b.var + shift
                    var = a.var if a.var < b_var else b_var
                    a0, a1 = (a.low, a.high) if a.var == var else (a, a)
                    b0, b1 = (b.low, b.high) if b_var == var else (b, b)
                    low, high = rec(a0, b0), rec(a1, b1)
                    bank = var % banks
                    if bank == trim:
                        res = unite(low, high)
                    else:
                        res = node(var + delta if bank == src else var, low, high)
                cache[key] = res
            return res

        return rec(lhs, rhs)

    def trim_bank(self, root: Ref, bank: int) -> Ref:
        """Eliminate one bank by uniting the branches of each of its nodes.

        For every assignment to the remaining variables the result holds
        the union of ``root``'s values over all assignments to the trimmed
        bank; colliding state sets are united.
        """
        return self.relational_product(root, self.bottom, lambda x, _: x, trim=bank)

    def rename_bank(self, root: Ref, src_bank: int, dst_bank: int) -> Ref:
        """Move every variable of ``src_bank`` to the same bit of ``dst_bank``.

        The destination bank must not occur in ``root``.  With interleaved
        banks the mapping is monotone, so the structure is simply rebuilt.
        """
        occurring = {v % self.banks for v in self.support(root)}
        if src_bank in occurring and dst_bank in occurring:
            raise ValueError(f"destination bank {dst_bank} already occurs in root")
        return self.relational_product(root, self.bottom, lambda x, _: x,
                                       move=(src_bank, dst_bank))

    # -- inspection ----------------------------------------------------------

    def evaluate(self, root: Ref, assignment: Sequence[int],
                 banks: Sequence[int] | None = None) -> frozenset:
        """Value of the function at a 0/1 assignment to the given banks.

        ``assignment`` is laid out like a cube over ``banks`` (all banks by
        default, where entry ``i`` is variable ``i``).  Variables of other
        banks stay free and their values are united, so a diagram that
        tests only the given banks is read along one path of at most
        ``width * len(banks)`` nodes.
        """
        self._check_owned(root)
        banks = range(self.banks) if banks is None else banks
        if any(not 0 <= bank < self.banks for bank in banks):
            raise ValueError(f"banks {tuple(banks)} outside 0..{self.banks - 1}")
        k = len(banks)
        if len(assignment) != self.width * k:
            raise ValueError(
                f"assignment has {len(assignment)} entries, expected {self.width * k}")
        for bit in assignment:
            if bit not in (0, 1):
                raise ValueError(f"assignment entry {bit!r} is not 0 or 1")
        slot_of = {bank: i for i, bank in enumerate(banks)}
        values: list[frozenset] = []
        seen: set[Ref] = set()  # free-variable nodes already branched on
        stack = [root]
        while stack:
            ref = stack.pop()
            while ref.var != LEAF_LEVEL:
                slot = slot_of.get(ref.var % self.banks)
                if slot is not None:
                    bit = assignment[ref.var // self.banks * k + slot]
                    ref = ref.high if bit else ref.low
                elif ref in seen:
                    break
                else:  # a free variable: both branches count
                    seen.add(ref)
                    stack.append(ref.high)
                    ref = ref.low
            else:
                values.append(ref.value)
        return values[0] if len(values) == 1 else frozenset().union(*values)

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
