import pytest

from symta import Alphabet, Manager, TreeAutomaton
from symta.mtbdd import LEAF_LEVEL


@pytest.fixture
def mixed_alphabet():
    """Six symbols over four names; b and c carry two arities each, so the
    encoding packs them into two bits: a=00, b=01, c=10, d=11."""
    alphabet = Alphabet()
    for name, arity in [("a", 0), ("b", 0), ("b", 2), ("c", 0), ("c", 1), ("d", 1)]:
        alphabet.add_symbol(name, arity)
    return alphabet.freeze()


@pytest.fixture
def sample_automaton(mixed_alphabet):
    """Three states, five rules; the running example used across modules.

    b -> {q1,q2}, c -> {q2}, d(q2) -> {q3}, b(q1,q3) -> {q1,q2},
    c(q3) -> {q1,q2}; q3 is final.
    """
    aut = TreeAutomaton(mixed_alphabet, Manager(mixed_alphabet.width))
    for q in ("q1", "q2", "q3"):
        aut.add_state(q)
    aut.set_final("q3")
    aut.insert_transition("b", (), ["q1", "q2"])
    aut.insert_transition("c", (), ["q2"])
    aut.insert_transition("d", ("q2",), ["q3"])
    aut.insert_transition("b", ("q1", "q3"), ["q1", "q2"])
    aut.insert_transition("c", ("q3",), ["q1", "q2"])
    return aut


def function_table(manager, root):
    """The represented function as a list indexed by the assignment read as
    a binary number, variable 0 most significant.  Independent of apply:
    pure structural expansion."""
    n = manager.num_vars

    def rec(ref, var):
        if var == n:
            assert ref.var == manager.bottom.var  # must be a terminal here
            return [ref.value]
        if ref.var == var:
            return rec(ref.low, var + 1) + rec(ref.high, var + 1)
        half = rec(ref, var + 1)
        return half + half

    return rec(root, 0)


# -- the apply, trim and rename chain that Manager.relational_product fuses --

def reference_trim(m, root, bank):
    """Unite the branches of every node of ``bank`` with one apply each."""
    cache = {}

    def rec(a):
        if a.var == LEAF_LEVEL:
            return a
        res = cache.get(a)
        if res is None:
            low, high = rec(a.low), rec(a.high)
            res = (m.apply(low, high, lambda x, y: x | y) if a.var % m.banks == bank
                   else m.node(a.var, low, high))
            cache[a] = res
        return res

    return rec(root)


def reference_rename(m, root, src, dst):
    """Rebuild ``root`` with every variable of bank ``src`` moved to ``dst``."""
    cache = {}

    def rec(a):
        if a.var == LEAF_LEVEL:
            return a
        res = cache.get(a)
        if res is None:
            var = a.var + dst - src if a.var % m.banks == src else a.var
            res = m.node(var, rec(a.low), rec(a.high))
            cache[a] = res
        return res

    return rec(root)


def reference_relabel(m, root_a, root_t, op):
    """The apply_step layout: match bank 0, trim it, move bank 1 onto it."""
    return reference_rename(m, reference_trim(m, m.apply(root_a, root_t, op), 0), 1, 0)


def reference_chain(m, root1, root2, op):
    """The compose layout: lift ``root2`` one bank up, match bank 1, trim
    it, and move bank 2 onto it."""
    lifted = reference_rename(m, reference_rename(m, root2, 1, 2), 0, 1)
    return reference_rename(m, reference_trim(m, m.apply(root1, lifted, op), 1), 2, 1)
