import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symta.mtbdd import (
    LEAF_LEVEL,
    Leaf,
    Manager,
    X,
    cube_covers,
    cube_from_text,
    cube_to_text,
)

from conftest import function_table

UNION = lambda x, y: x | y


def assignments(n):
    return itertools.product((0, 1), repeat=n)


# -- leaf interning ---------------------------------------------------------

def test_empty_set_is_the_bottom_terminal():
    m = Manager(2)
    assert m.leaf([]) is m.bottom
    assert m.bottom.value == frozenset()


def test_equal_sets_intern_to_one_handle():
    m = Manager(2)
    assert m.leaf([1, 2]) is m.leaf([2, 1])
    assert m.leaf([2, 1, 1]) is m.leaf([1, 2])


def test_distinct_sets_get_distinct_handles():
    m = Manager(2)
    assert m.leaf([2]) is not m.leaf([1, 2])


# -- cube construction --------------------------------------------------------

def test_cube_01_maps_only_that_assignment(mixed_alphabet):
    m = Manager(2)
    root = m.from_cube(cube_from_text("01"), m.leaf([1, 2]))
    values = {a: m.evaluate(root, a) for a in assignments(2)}
    assert values[(0, 1)] == frozenset({1, 2})
    for a in ((0, 0), (1, 0), (1, 1)):
        assert values[a] == frozenset()


def test_all_dont_care_cube_is_a_bare_terminal():
    m = Manager(3)
    leaf = m.leaf([7])
    root = m.from_cube((X, X, X), leaf)
    assert root is leaf  # zero decision nodes


def test_half_open_cube_matches_both_completions():
    m = Manager(2)
    root = m.from_cube(cube_from_text("1X"), m.leaf([3]))
    # oracle: exhaustive evaluation over the four assignments
    for a in assignments(2):
        expected = frozenset({3}) if a[0] == 1 else frozenset()
        assert m.evaluate(root, a) == expected


def test_cube_width_must_match():
    m = Manager(2)
    with pytest.raises(ValueError):
        m.from_cube((0,), m.leaf([1]))


def test_width_zero_manager_works_throughout():
    m = Manager(0)
    leaf = m.leaf([4])
    root = m.from_cube((), leaf)
    assert root is leaf
    assert m.evaluate(root, ()) == frozenset({4})
    assert m.apply(root, m.bottom, UNION) is root
    assert m.monadic_apply(root, lambda v: v) is root
    assert m.project(root, ()) is root


OVERWRITE = lambda x, y: x if not y else y


def _random_cube(rng, length, dont_care=0.3):
    return tuple(X if rng.random() < dont_care else rng.randint(0, 1)
                 for _ in range(length))


def test_from_cube_onto_root_is_the_overwrite_apply_handle():
    """Writing a cube onto a root gives the very handle of merging the
    one-cube diagram over it with an overwrite functor."""
    rng = random.Random(20240)
    for trial in range(400):
        width, banks = rng.randint(0, 12), rng.randint(1, 3)
        m = Manager(width, banks)
        every_bank = tuple(range(banks))
        root = m.bottom
        for _ in range(rng.randint(0, 12)):
            cube = _random_cube(rng, width * banks, dont_care=0.5)
            root = m.apply(root, m.from_cube(cube, m.leaf([rng.randint(0, 3)]),
                                             every_bank), UNION)
        for _ in range(4):
            some_banks = tuple(sorted(rng.sample(every_bank,
                                                 rng.randint(1, banks))))
            cube = _random_cube(rng, width * len(some_banks))
            leaf = m.leaf(rng.sample(range(5), rng.randint(1, 2)))
            expected = m.apply(root, m.from_cube(cube, leaf, some_banks), OVERWRITE)
            assert m.from_cube(cube, leaf, some_banks, onto=root) is expected, trial
            root = expected


def test_from_cube_onto_rejects_foreign_root():
    m1, m2 = Manager(2), Manager(2)
    with pytest.raises(ValueError):
        m1.from_cube((0, 1), m1.leaf([1]), onto=m2.from_cube((1, 1), m2.leaf([1])))


# -- apply ----------------------------------------------------------------------

def _ranged_diagram(m, entries):
    """Union diagram from (cube text, states) pairs; the test-side builder."""
    root = m.bottom
    for cube, states in entries:
        root = m.apply(root, m.from_cube(cube_from_text(cube), m.leaf(states)),
                       UNION)
    return root


def test_apply_union_with_bottom_is_identity():
    m = Manager(2)
    f = _ranged_diagram(m, [("01", {1, 2}), ("10", {2})])
    assert m.apply(f, m.bottom, UNION) is f


def test_apply_union_pointwise_against_enumeration():
    m = Manager(2)
    f = _ranged_diagram(m, [("01", {1, 2}), ("10", {2})])
    g = _ranged_diagram(m, [("01", {2})])
    result = m.apply(f, g, UNION)
    for a in assignments(2):
        assert m.evaluate(result, a) == m.evaluate(f, a) | m.evaluate(g, a)


def test_apply_idempotent_union_returns_same_handle(sample_automaton):
    aut = sample_automaton
    m = aut.manager
    root = aut.initial_root()
    assert m.apply(root, root, UNION) is root


def test_apply_rejects_foreign_roots():
    m1, m2 = Manager(2), Manager(2)
    f = m1.from_cube((0, 1), m1.leaf([1]))
    g = m2.from_cube((0, 1), m2.leaf([1]))
    with pytest.raises(ValueError):
        m1.apply(f, g, UNION)
    with pytest.raises(ValueError):
        m2.monadic_apply(f, lambda v: v)


def test_apply_functor_called_once_per_node_pair():
    m = Manager(4)
    f = _ranged_diagram(m, [("0X0X", {1}), ("1X1X", {2}), ("0X1X", {3})])
    g = _ranged_diagram(m, [("X0X0", {4}), ("X1X1", {5})])
    seen = []

    def counting(x, y):
        seen.append((x, y))
        return x | y

    m.apply(f, g, counting)
    assert len(seen) == len(set(seen))  # no pair handled twice


def test_apply_cache_does_not_leak_across_calls():
    m = Manager(2)
    f = _ranged_diagram(m, [("01", {1})])
    calls = []

    def op(x, y):
        calls.append(1)
        return x | y

    m.apply(f, f, op)
    first = len(calls)
    m.apply(f, f, op)
    assert len(calls) == 2 * first  # per-call cache only


# -- monadic apply -----------------------------------------------------------------

def test_monadic_identity_returns_same_handle():
    m = Manager(2)
    f = _ranged_diagram(m, [("01", {1, 2}), ("1X", {3})])
    assert m.monadic_apply(f, lambda v: v) is f


def test_monadic_collect_sees_each_distinct_leaf_once():
    m = Manager(2)
    f = _ranged_diagram(m, [("01", {1, 2})])
    bag = []

    def collect(v):
        bag.append(v)
        return v

    m.monadic_apply(f, collect)
    assert bag.count(frozenset({1, 2})) == 1
    assert bag.count(frozenset()) <= 1


def test_monadic_constant_rewrite_to_bottom():
    m = Manager(2)
    f = m.from_cube((X, X), m.leaf([9]))
    assert m.monadic_apply(f, lambda v: frozenset()) is m.bottom


# -- project -----------------------------------------------------------------------

def test_project_keeps_only_the_cube(sample_automaton):
    aut = sample_automaton
    m = aut.manager
    root = aut.initial_root()
    projected = m.project(root, cube_from_text("01"))
    q1, q2 = aut.state_id("q1"), aut.state_id("q2")
    assert m.evaluate(projected, (0, 1)) == frozenset({q1, q2})
    for a in ((0, 0), (1, 0), (1, 1)):
        assert m.evaluate(projected, a) == frozenset()


def test_project_full_cube_is_identity():
    m = Manager(3)
    f = _ranged_diagram(m, [("01X", {1}), ("110", {2})])
    assert m.project(f, (X, X, X)) is f


def test_project_disjoint_cube_gives_bottom():
    m = Manager(2)
    f = _ranged_diagram(m, [("01", {1})])
    assert m.project(f, cube_from_text("11")) is m.bottom


def test_project_constrains_variables_absent_from_the_diagram():
    m = Manager(2)
    constant = m.from_cube((X, X), m.leaf([5]))
    projected = m.project(constant, cube_from_text("01"))
    for a in assignments(2):
        expected = frozenset({5}) if a == (0, 1) else frozenset()
        assert m.evaluate(projected, a) == expected


# -- trim and rename ------------------------------------------------------------------

def test_trim_absent_bank_returns_same_handle():
    m = Manager(2, banks=2)
    # diagram over bank 0 only
    root = m.from_cube((0, 1), m.leaf([1]), banks=(0,))
    assert m.trim_bank(root, 1) is root


def test_trim_unites_colliding_state_sets():
    m = Manager(2, banks=2)
    a, b = m.leaf([1]), m.leaf([2])
    # x=0,y=11 -> {1} and x=1,y=11 -> {2}; trimming x must give y=11 -> {1,2}
    f = m.apply(
        m.from_cube((0, X, 1, 1), m.leaf([1]), banks=(0, 1)),
        m.from_cube((1, X, 1, 1), m.leaf([2]), banks=(0, 1)),
        UNION)
    trimmed = m.trim_bank(f, 0)
    assert m.support(trimmed).isdisjoint({m.var_index(0, 0), m.var_index(1, 0)})
    for xa in assignments(2):
        for ya in assignments(2):
            full = (xa[0], ya[0], xa[1], ya[1])
            expected = frozenset().union(
                *(m.evaluate(f, (x0, ya[0], x1, ya[1]))
                  for x0, x1 in assignments(2)))
            assert m.evaluate(trimmed, full) == expected


def test_rename_without_source_bank_is_identity():
    m = Manager(2, banks=2)
    root = m.from_cube((0, 1), m.leaf([1]), banks=(1,))
    assert m.rename_bank(root, 0, 1) is root


def test_rename_moves_the_function_between_banks():
    m = Manager(2, banks=2)
    root = m.from_cube((0, 1), m.leaf([4]), banks=(1,))
    renamed = m.rename_bank(root, 1, 0)
    for xa in assignments(2):
        for ya in assignments(2):
            full = (xa[0], ya[0], xa[1], ya[1])
            expected = frozenset({4}) if xa == (0, 1) else frozenset()
            assert m.evaluate(renamed, full) == expected


def test_rename_round_trip_returns_same_handle():
    m = Manager(3, banks=2)
    f = m.from_cube((0, 1, X), m.leaf([1, 5]), banks=(0,))
    assert m.rename_bank(m.rename_bank(f, 0, 1), 1, 0) is f


def test_rename_rejects_occupied_destination():
    m = Manager(2, banks=2)
    both = m.apply(m.from_cube((0, 1), m.leaf([1]), banks=(0,)),
                   m.from_cube((1, 0), m.leaf([2]), banks=(1,)), UNION)
    with pytest.raises(ValueError):
        m.rename_bank(both, 0, 1)


# -- evaluate ---------------------------------------------------------------------

def test_evaluate_bottom_everywhere():
    m = Manager(2)
    for a in assignments(2):
        assert m.evaluate(m.bottom, a) == frozenset()


def test_evaluate_rejects_partial_assignments():
    m = Manager(3)
    f = m.from_cube((0, 1, X), m.leaf([1]))
    with pytest.raises(ValueError):
        m.evaluate(f, (0, 1))
    with pytest.raises(ValueError):
        m.evaluate(f, (0, 1, 2))


def test_evaluate_sample_initial_root(sample_automaton):
    aut = sample_automaton
    m = aut.manager
    root = aut.initial_root()
    q1, q2 = aut.state_id("q1"), aut.state_id("q2")
    assert m.evaluate(root, (0, 1)) == frozenset({q1, q2})
    assert m.evaluate(root, (0, 0)) == frozenset()


# -- structural invariants -------------------------------------------------------------

def _random_entries(rng, width, count):
    entries = []
    for _ in range(count):
        cube = "".join(rng.choice("01X") for _ in range(width))
        states = frozenset(rng.sample(range(5), rng.randint(1, 3)))
        entries.append((cube, states))
    return entries


@pytest.mark.parametrize("width", [0, 1, 2, 4, 6])
def test_canonicity_same_function_same_handle(width):
    rng = random.Random(width)
    m = Manager(width)
    for _ in range(30):
        entries = _random_entries(rng, width, rng.randint(1, 4))
        f = _ranged_diagram(m, entries)
        shuffled = entries[:]
        rng.shuffle(shuffled)
        g = _ranged_diagram(m, shuffled)
        assert f is g  # union is commutative, so equal functions


@pytest.mark.parametrize("width", [1, 2, 4])
def test_canonicity_exhaustive_iff(width):
    rng = random.Random(10 + width)
    m = Manager(width)
    for _ in range(40):
        f = _ranged_diagram(m, _random_entries(rng, width, rng.randint(1, 3)))
        g = _ranged_diagram(m, _random_entries(rng, width, rng.randint(1, 3)))
        pointwise_equal = function_table(m, f) == function_table(m, g)
        assert pointwise_equal == (f is g)


def test_no_node_with_equal_children_after_operations():
    rng = random.Random(99)
    m = Manager(5)
    roots = [
        _ranged_diagram(m, _random_entries(rng, 5, rng.randint(1, 5)))
        for _ in range(10)
    ]
    roots.append(m.apply(roots[0], roots[1], UNION))
    roots.append(m.monadic_apply(roots[2], lambda v: frozenset(q + 1 for q in v)))
    for node in m.iter_nodes(*roots):
        assert node.low is not node.high
        for child in (node.low, node.high):
            assert child.var > node.var  # variables strictly increase


@given(st.lists(st.tuples(st.text(alphabet="01X", min_size=3, max_size=3),
                          st.frozensets(st.integers(0, 3), min_size=1, max_size=3)),
                min_size=1, max_size=5),
       st.lists(st.tuples(st.text(alphabet="01X", min_size=3, max_size=3),
                          st.frozensets(st.integers(0, 3), min_size=1, max_size=3)),
                min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_apply_pointwise_property(entries_f, entries_g):
    m = Manager(3)
    f = _ranged_diagram(m, entries_f)
    g = _ranged_diagram(m, entries_g)
    op = lambda x, y: (x | y) - (x & y)  # symmetric difference, maps (0,0) to 0
    result = m.apply(f, g, op)
    tf, tg, tr = (function_table(m, r) for r in (f, g, result))
    assert tr == [op(a, b) for a, b in zip(tf, tg)]


# -- dot dump --------------------------------------------------------------------------

def test_manager_dot_dump_is_valid_dot(sample_automaton):
    from dot_check import validate_dot
    aut = sample_automaton
    text = aut.manager.to_dot({"init": aut.initial_root()})
    validate_dot(text)
    assert "shape=box" in text and "style=dashed" in text


def test_cube_text_round_trip():
    assert cube_to_text(cube_from_text("01X")) == "01X"
    assert cube_covers(cube_from_text("0X"), (0, 1))
    assert not cube_covers(cube_from_text("0X"), (1, 1))
