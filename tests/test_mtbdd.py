import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symta.io import _split_cubes
from symta.mtbdd import (
    LEAF_LEVEL,
    Leaf,
    Manager,
    X,
    cube_covers,
    cube_from_text,
    cube_to_text,
)

from conftest import (
    function_table,
    reference_chain,
    reference_relabel,
    reference_rename,
    reference_trim,
)

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


# -- union table and relational product -------------------------------------------

def _random_root(rng, m, banks, count, dont_care=0.5):
    """Cubes over ``banks`` written one over another onto bottom."""
    root = m.bottom
    for _ in range(count):
        cube = _random_cube(rng, m.width * len(banks), dont_care)
        root = m.from_cube(cube, m.leaf(rng.sample(range(6), rng.randint(1, 2))),
                           banks, onto=root)
    return root


def test_union_is_the_apply_union_handle():
    rng = random.Random(7310)
    for trial in range(300):
        width, banks = rng.randint(0, 6), rng.randint(1, 3)
        m = Manager(width, banks)
        every_bank = tuple(range(banks))
        f = _random_root(rng, m, every_bank, rng.randint(0, 6))
        g = _random_root(rng, m, every_bank, rng.randint(0, 6))
        united = m.union(f, g)
        assert united is m.apply(f, g, UNION), trial
        assert m.union(g, f) is united, trial
        assert m.union(f, m.bottom) is f and m.union(m.bottom, f) is f, trial
        assert m.union(f, f) is f, trial
        assert m.union(united, f) is m.apply(united, f, UNION), trial


def test_repeated_union_interns_nothing_and_counts_one_apply():
    rng = random.Random(7311)
    m = Manager(5, banks=2)
    f = _random_root(rng, m, (0, 1), 6)
    g = _random_root(rng, m, (0, 1), 6)
    united = m.union(f, g)
    nodes, leaves, calls = len(m._unique), len(m._leaves), m.apply_calls
    assert m.union(g, f) is united
    assert (len(m._unique), len(m._leaves)) == (nodes, leaves)
    assert m.apply_calls == calls + 1


def _recording_meet():
    """A stateful functor like the product's: each new pair of leaf states
    gets the next id, so the ids depend on the order of the calls."""
    calls, ids = [], {}

    def meet(x, y):
        calls.append((x, y))
        return {ids.setdefault((p, q), len(ids)) for p in sorted(x) for q in sorted(y)}

    return calls, meet


def test_relational_product_is_the_apply_trim_rename_chain():
    rng = random.Random(7312)
    for trial in range(300):
        m = Manager(rng.randint(0, 4), banks=3)
        if trial % 2:  # compose: two transducers, the right one lifted a bank
            lhs = _random_root(rng, m, (0, 1), rng.randint(0, 5))
            rhs = _random_root(rng, m, (0, 1), rng.randint(0, 5))
            layout = {"trim": 1, "move": (2, 1), "shift": 1}
            reference = reference_chain
        else:  # apply_step: an automaton against a transducer
            lhs = _random_root(rng, m, (0,), rng.randint(0, 5))
            rhs = _random_root(rng, m, (0, 1), rng.randint(0, 5))
            layout = {"trim": 0, "move": (1, 0)}
            reference = reference_relabel
        expected_calls, meet = _recording_meet()
        expected = reference(m, lhs, rhs, meet)
        calls, meet = _recording_meet()
        assert m.relational_product(lhs, rhs, meet, **layout) is expected, trial
        assert calls == expected_calls, trial


def test_trim_and_rename_wrappers_agree_with_the_references():
    rng = random.Random(7313)
    for trial in range(200):
        m = Manager(rng.randint(0, 4), banks=3)
        root = _random_root(rng, m, (0, 1), rng.randint(0, 6))
        bank = rng.randint(0, 2)
        assert m.trim_bank(root, bank) is reference_trim(m, root, bank), trial
        assert m.rename_bank(root, 1, 2) is reference_rename(m, root, 1, 2), trial


def _recording_collect():
    """The monadic counterpart of ``_recording_meet``: each new leaf value
    gets the next id."""
    calls, ids = [], {}

    def collect(x):
        calls.append(x)
        return {ids.setdefault(x, len(ids))}

    return calls, collect


def test_a_shared_compute_table_is_a_run_of_fresh_ones():
    """A run of calls sharing one table and one id-allocating functor
    returns the handles fresh tables give, calls the functor at most once
    per pair of leaves across the run, and makes the first call of each
    pair in the order fresh tables do: apply, monadic_apply, and
    relational_product in both bank layouts."""
    rng = random.Random(7315)
    layouts = {"apply_step": ((0,), {"trim": 0, "move": (1, 0)}),
               "compose": ((0, 1), {"trim": 1, "move": (2, 1), "shift": 1})}
    for trial in range(200):
        m = Manager(rng.randint(0, 4), banks=3)
        name = rng.choice(("apply", "monadic_apply") + tuple(layouts))
        lhs_banks, layout = layouts.get(name, ((0, 1), {}))
        lefts = [_random_root(rng, m, lhs_banks, rng.randint(0, 4)) for _ in range(4)]
        rights = [_random_root(rng, m, (0, 1), rng.randint(0, 4)) for _ in range(4)]
        run = [(rng.choice(lefts), rng.choice(rights)) for _ in range(8)]
        if name == "monadic_apply":
            run = [(f,) for f, _ in run]
            method, recording = m.monadic_apply, _recording_collect
        else:
            method = m.apply if name == "apply" else m.relational_product
            recording = _recording_meet
        fresh_calls, op = recording()
        expected = [method(*roots, op, **layout) for roots in run]
        shared_calls, op = recording()
        table = {}
        got = [method(*roots, op, cache=table, **layout) for roots in run]
        assert all(x is y for x, y in zip(got, expected)), (trial, name)
        assert len(shared_calls) == len(set(shared_calls)), (trial, name)
        assert shared_calls == list(dict.fromkeys(fresh_calls)), (trial, name)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_diagram_recursions_stay_within_num_vars_levels():
    """Each recursion steps to a strictly later variable per level, so
    none needs more than num_vars + 1 frames, plus a few for the leaf
    functor and interning.  The Timbuk writer's cube splitting is held to
    the same bound."""
    m = Manager(16, banks=3)
    rng = random.Random(7314)
    cubes = [tuple(rng.randint(0, 1) for _ in range(m.num_vars)) for _ in range(4)]
    pair_cubes = [tuple(rng.randint(0, 1) for _ in range(2 * m.width)) for _ in range(4)]
    leaf = m.leaf([1])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + m.num_vars + 30)
    try:
        f = m.from_cube(cubes[0], leaf, (0, 1, 2))
        f = m.from_cube(cubes[1], m.leaf([2]), (0, 1, 2), onto=f)
        g = m.from_cube(cubes[2], m.leaf([3]), (0, 1, 2))
        u = m.apply(f, g, UNION)
        assert m.union(f, g) is u
        m.monadic_apply(u, lambda v: frozenset(q + 1 for q in v))
        assert set(m.leaf_values(u)) == {frozenset(), frozenset({1}),
                                         frozenset({2}), frozenset({3})}
        t1 = m.from_cube(pair_cubes[0], leaf, (0, 1))
        t1 = m.from_cube(pair_cubes[1], m.leaf([2]), (0, 1), onto=t1)
        t2 = m.from_cube(pair_cubes[2], leaf, (0, 1))
        t2 = m.from_cube(pair_cubes[3], m.leaf([4]), (0, 1), onto=t2)
        m.relational_product(t1, t2, UNION, trim=1, move=(2, 1), shift=1)
        a = m.from_cube(cubes[3][:m.width], leaf, (0,))
        m.relational_product(a, t1, UNION, trim=0, move=(1, 0))
        m.trim_bank(u, 1)
        m.rename_bank(t1, 1, 2)
        assert len(list(_split_cubes(u, list(range(m.num_vars))))) == 3
    finally:
        sys.setrecursionlimit(limit)


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


def test_evaluate_over_banks_gathers_the_projected_leaves():
    """A codeword over some banks reads the union of the leaves that
    projecting onto it keeps: the other banks' variables stay free."""
    rng = random.Random(8101)
    for trial in range(300):
        width, banks = rng.randint(0, 8), rng.randint(1, 3)
        m = Manager(width, banks)
        every_bank = tuple(range(banks))
        root = m.bottom
        for _ in range(rng.randint(0, 10)):
            cube = _random_cube(rng, width * banks, dont_care=0.5)
            root = m.from_cube(cube, m.leaf(rng.sample(range(6), rng.randint(1, 2))),
                               every_bank, onto=root)
        for _ in range(4):
            some_banks = tuple(sorted(rng.sample(every_bank, rng.randint(1, banks))))
            codeword = tuple(rng.randint(0, 1) for _ in range(width * len(some_banks)))
            expected = frozenset().union(
                *m.leaf_values(m.project(root, codeword, some_banks)))
            assert m.evaluate(root, codeword, some_banks) == expected, trial
        full = tuple(rng.randint(0, 1) for _ in range(m.num_vars))
        assert m.evaluate(root, full) == m.evaluate(root, full, every_bank), trial


def test_evaluate_checks_the_banks_layout():
    m = Manager(2, banks=2)
    assert m.evaluate(m.bottom, (0, 1), (1,)) == frozenset()
    with pytest.raises(ValueError):
        m.evaluate(m.bottom, (0, 1), (2,))  # no such bank
    with pytest.raises(ValueError):
        m.evaluate(m.bottom, (0, 1), (0, 1))  # two banks need four entries


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
