import inspect
import itertools
import random
from collections import deque
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symta import Manager, TreeAutomaton, parse_timbuk
from symta.automaton import SuperStateIndex
from symta.io import write_timbuk
from symta.ops import (
    Antichain,
    QuotientMap,
    _StateAllocator,
    _rows_holding,
    check_inclusion_antichain,
    check_inclusion_classical,
    complement,
    compute_congruence,
    determinise,
    downward_simulation,
    intersection,
    is_empty,
    minimise,
    prune_unreachable,
    reduce_by_equivalence,
    reduce_by_simulation,
    union,
)
from symta.oracle import (
    all_terms_upto,
    explicit_downward_simulation,
    explicit_is_empty,
    language_upto,
    minimal_state_count,
    random_alphabet,
    random_automaton,
    random_transducer,
    satisfies_downward_simulation,
    to_explicit,
)
from symta.transducer import (
    INPUT_BANK,
    OUTPUT_BANK,
    SCRATCH_BANK,
    Transducer,
    apply_step,
    compose,
    transducer_manager,
)

SEEDS = 30


def lang(aut, height=3):
    return language_upto(to_explicit(aut), height)


def pair(seed, max_states=5):
    rng = random.Random(seed)
    alphabet = random_alphabet(rng)
    manager = Manager(alphabet.width)
    return (random_automaton(rng, alphabet, manager, max_states),
            random_automaton(rng, alphabet, manager, max_states))


def single(seed, max_states=5):
    return pair(seed, max_states)[0]


def make(text, alphabet=None, manager=None):
    return parse_timbuk(text, alphabet=alphabet, manager=manager)


ONLY_A = ("Ops a:0 b:0\nAutomaton A\nStates qa\nFinal States qa\n"
          "Transitions\na -> qa\n")
ONLY_B = ("Ops a:0 b:0\nAutomaton B\nStates qb\nFinal States qb\n"
          "Transitions\nb -> qb\n")


def a_and_b_automata():
    a = make(ONLY_A)
    b = make(ONLY_B, alphabet=a.alphabet, manager=a.manager)
    return a, b


# -- union -------------------------------------------------------------------

def test_union_with_empty_language_is_no_op():
    a, _ = a_and_b_automata()
    empty = TreeAutomaton(a.alphabet, a.manager, name="none")
    assert lang(union(a, empty)) == lang(a)


def test_union_with_renamed_copy_is_idempotent():
    a, _ = a_and_b_automata()
    copy = make(ONLY_A.replace("qa", "qz"), alphabet=a.alphabet,
                manager=a.manager)
    assert lang(union(a, copy)) == lang(a)


def test_union_against_oracle_randomised():
    for seed in range(SEEDS):
        a1, a2 = pair(seed)
        assert lang(union(a1, a2)) == lang(a1) | lang(a2), seed


def test_union_costs_one_apply_and_reuses_roots():
    a1, a2 = pair(3)
    manager = a1.manager
    before = manager.apply_calls
    merged = union(a1, a2)
    assert manager.apply_calls == before + 1
    for sp, root in a1.index.items():
        if sp != ():
            assert merged.index.get(sp) is root


# -- intersection -----------------------------------------------------------------

def test_intersection_with_itself_preserves_language():
    for seed in (0, 5, 9):
        a = single(seed)
        assert lang(intersection(a, a)) == lang(a)


def test_intersection_of_disjoint_singletons_is_empty():
    a, b = a_and_b_automata()
    result = intersection(a, b)
    assert is_empty(result)
    assert lang(result) == set()


def test_intersection_against_oracle_randomised():
    for seed in range(SEEDS):
        a1, a2 = pair(seed)
        assert lang(intersection(a1, a2)) == lang(a1) & lang(a2), seed


def test_intersection_only_generates_reachable_pairs():
    a, b = a_and_b_automata()
    result = intersection(a, b)
    # the only leaf products are empty, so no product state is created
    assert result.states == ()


# -- determinisation ----------------------------------------------------------------

def test_determinise_is_unambiguous():
    for seed in range(SEEDS):
        d = determinise(single(seed))
        for _, root in d.index.items():
            for leaf in d.manager.leaf_values(root):
                assert len(leaf) <= 1


def test_determinise_preserves_language():
    for seed in range(SEEDS):
        a = single(seed)
        assert lang(determinise(a)) == lang(a), seed


def test_determinise_sample_first_macrostates(sample_automaton):
    aut = sample_automaton
    d = determinise(aut)
    by_b = d.get_transition("b", ())
    by_c = d.get_transition("c", ())
    assert len(by_b) == 1 and len(by_c) == 1 and by_b != by_c
    (mb,) = by_b
    (mc,) = by_c
    assert d.origins[d.state_id(mb)] == \
        frozenset({aut.state_id("q1"), aut.state_id("q2")})
    assert d.origins[d.state_id(mc)] == frozenset({aut.state_id("q2")})
    # d(q1) has no rule and d(q2) -> q3, so both macrostates meet at {q3}
    assert d.get_transition("d", (mb,)) == d.get_transition("d", (mc,))


def test_determinise_keeps_deterministic_input_small():
    det_text = ("Ops a:0 f:1\nAutomaton D\nStates p0 p1\nFinal States p1\n"
                "Transitions\na -> p0\nf(p0) -> p1\nf(p1) -> p0\n")
    d = make(det_text)
    again = determinise(d)
    assert len(again.states) <= len(d.states)
    assert lang(again) == lang(d)


# -- complementation ----------------------------------------------------------------

def test_complement_is_exclusive_or_on_all_terms():
    for seed in range(SEEDS):
        a = single(seed)
        comp = complement(a)
        for t in all_terms_upto(a.alphabet, 3):
            assert comp.accepts(t) != a.accepts(t), (seed, t)


def test_double_complement_restores_language():
    for seed in (1, 4, 11):
        a = single(seed)
        assert lang(complement(complement(a))) == lang(a)


def test_complement_of_empty_language_accepts_everything():
    a, _ = a_and_b_automata()
    empty = TreeAutomaton(a.alphabet, a.manager)
    comp = complement(empty)
    universe = set(all_terms_upto(a.alphabet, 3))
    assert lang(comp) == universe


# -- pruning and emptiness -------------------------------------------------------------

def test_prune_removes_isolated_state():
    text = ("Ops a:0\nAutomaton A\nStates q u\nFinal States q\n"
            "Transitions\na -> q\n")
    pruned = prune_unreachable(make(text))
    assert len(pruned.states) == 1


def test_prune_keeps_all_sample_states(sample_automaton):
    pruned = prune_unreachable(sample_automaton)
    assert len(pruned.states) == 3
    assert lang(pruned) == lang(sample_automaton)


def test_prune_matches_oracle_reachable_set():
    from symta.oracle import explicit_reachable
    for seed in range(SEEDS):
        a = single(seed)
        x = to_explicit(a)
        pruned = prune_unreachable(a)
        survivors = {a.state_name(q) for q in pruned.states}
        assert survivors == set(explicit_reachable(x)), seed
        assert lang(pruned) == lang(a)


def test_emptiness_cases():
    no_finals = make("Ops a:0\nAutomaton A\nStates q\nFinal States\n"
                     "Transitions\na -> q\n")
    assert is_empty(no_finals)
    one_leaf = make("Ops a:0\nAutomaton A\nStates qf\nFinal States qf\n"
                    "Transitions\na -> qf\n")
    assert not is_empty(one_leaf)
    for seed in range(SEEDS):
        a = single(seed)
        assert is_empty(a) == explicit_is_empty(to_explicit(a)), seed


# -- quotients ---------------------------------------------------------------------

def test_identity_quotient_gives_isomorphic_automaton(sample_automaton):
    aut = sample_automaton
    quotient = QuotientMap.identity(aut.states)
    reduced = reduce_by_equivalence(aut, quotient)
    assert len(reduced.states) == len(aut.states)
    assert lang(reduced) == lang(aut)


def test_quotient_merging_equivalent_states_keeps_language():
    text = ("Ops a:0 b:0 g:1\nAutomaton A\nStates p q r\nFinal States r\n"
            "Transitions\na -> p\nb -> q\ng(p) -> r\ng(q) -> r\n")
    aut = make(text)
    p, q, r = (aut.state_id(n) for n in ("p", "q", "r"))
    quotient = QuotientMap.from_classes([{p, q}, {r}])
    assert lang(reduce_by_equivalence(aut, quotient)) == lang(aut)


def test_collapsing_everything_overapproximates():
    for seed in range(10):
        a = single(seed)
        if not a.states:
            continue
        quotient = QuotientMap.from_classes([set(a.states)])
        collapsed = reduce_by_equivalence(a, quotient)
        assert lang(collapsed) >= lang(a), seed


def test_partial_quotient_rejected(sample_automaton):
    aut = sample_automaton
    partial = QuotientMap.from_classes([{aut.state_id("q1")}])
    with pytest.raises(ValueError):
        reduce_by_equivalence(aut, partial)


# -- congruence and minimisation ---------------------------------------------------------

def test_congruence_single_accepting_state():
    aut = make("Ops a:0\nAutomaton A\nStates q\nFinal States q\n"
               "Transitions\na -> q\n")
    assert len(compute_congruence(aut)) == 1


def test_congruence_merges_twin_states():
    text = ("Ops a:0 b:0\nAutomaton A\nStates p q\nFinal States\n"
            "Transitions\na -> p\nb -> q\n")
    aut = make(text)
    # p and q are both non-final dead ends: one class
    assert len(compute_congruence(aut)) == 1


def test_congruence_rejects_nondeterministic_input(sample_automaton):
    with pytest.raises(ValueError, match="requires a deterministic automaton"):
        compute_congruence(sample_automaton)


def test_congruence_identity_on_minimal_input():
    text = ("Ops a:0 f:1\nAutomaton A\nStates p0 p1\nFinal States p1\n"
            "Transitions\na -> p0\nf(p0) -> p1\nf(p1) -> p0\n")
    aut = make(text)
    quotient = compute_congruence(aut)
    assert len(quotient) == len(aut.states)


def test_congruence_on_minimal_input_relabels_each_row_once():
    """States told apart by one round stop the refinement there: a minimal
    DFTA whose every state has its own outgoing rule costs one monadic
    Apply per stored row, where the pair loop made one Apply per row,
    position and class mate in every round."""
    k = 8
    text = ["Ops " + " ".join(f"a{i}:0 g{i}:1" for i in range(k)),
            "Automaton M", "States " + " ".join(f"q{i}" for i in range(k)),
            "Final States q0", "Transitions"]
    text += [f"a{i} -> q{i}" for i in range(k)]
    text += [f"g{i}(q{i}) -> q0" for i in range(k)]
    aut = make("\n".join(text) + "\n")
    before = aut.manager.apply_calls
    assert len(compute_congruence(aut)) == k
    assert aut.manager.apply_calls - before <= len(aut.index)


def test_congruence_keeps_apart_states_that_differ_on_one_sibling():
    """a and b meet c and d crosswise: f(a,c) and f(b,d) are final, f(a,d)
    and f(b,c) dead.  Rows keyed by the classes of the other components
    would hold {a, b} and {c, d} together; keyed by the components
    themselves, all six states stay apart, as in the minimal DFTA."""
    aut = make("Ops a:0 b:0 c:0 d:0 f:2\nAutomaton X\nStates a b c d x y\n"
               "Final States x\nTransitions\na -> a\nb -> b\nc -> c\n"
               "d -> d\nf(a,c) -> x\nf(b,d) -> x\nf(a,d) -> y\nf(b,c) -> y\n")
    assert len(compute_congruence(aut)) == 6 == \
        minimal_state_count(to_explicit(aut))


def _reference_congruence(a):
    """The pair-substitution loop: pairs of states (and a virtual sink)
    start related when both or neither are final, and a pair is dropped
    when substituting one state for the other in a stored super-state
    changes the class of some target, until a round drops nothing."""
    sink = -1
    m = a.manager
    states = list(a.states)
    universe = states + [sink]
    eq = {(p, q) for p in universe for q in universe
          if (p in a.finals) == (q in a.finals)}
    while True:
        prev = frozenset(eq)
        mates = {p: sorted(q for (x, q) in prev if x == p) for p in universe}
        rep = {p: min(mates[p]) for p in universe}

        def target_class(leaf):
            return rep[next(iter(leaf))] if leaf else rep[sink]

        for n in a.index.arities():
            for sp in a.index.tuples(n):
                root = a.index.get(sp)
                for i, qi in enumerate(sp):
                    for q in mates[qi]:
                        if q == qi or (q, qi) not in eq:
                            continue
                        other = a.index.get(sp[:i] + (q,) + sp[i + 1:]) or m.bottom
                        hit = []

                        def refine(left, right):
                            if target_class(left) != target_class(right):
                                hit.append(True)
                            return frozenset()

                        m.apply(root, other, refine)
                        if hit:
                            eq.discard((q, qi))
                            eq.discard((qi, q))
        if frozenset(eq) == prev:
            break
    blocks, placed = [], set()
    for p in states:
        if p not in placed:
            block = {p} | {q for q in states if (p, q) in eq}
            placed |= block
            blocks.append(block)
    return QuotientMap.from_classes(blocks)


def _dead_states(a):
    """States from which no context reaches a final state."""
    live = set(a.finals)
    grew = True
    while grew:
        grew = False
        for sp, root in a.index.items():
            if any(leaf & live for leaf in a.manager.leaf_values(root)):
                grew |= not live.issuperset(sp)
                live.update(sp)
    return set(a.states) - live


def test_congruence_agrees_with_the_pair_loop_and_the_oracle():
    """Signature refinement finds the classes the pair loop finds, and as
    many as the oracle's minimal DFTA has, on 500 random determinised
    automata and on determinised doubled skeletons with dead states."""
    for seed in range(500):
        rng = random.Random(seed)
        alphabet = random_alphabet(rng, max_symbols=5)
        a = random_automaton(rng, alphabet, Manager(alphabet.width),
                             max_states=5)
        d = determinise(prune_unreachable(a))
        quotient = compute_congruence(d)
        assert quotient == _reference_congruence(d), seed
        assert len(quotient) == minimal_state_count(to_explicit(a)), seed
    dead = 0
    for seed in range(12):
        n = 4 + seed
        lines = write_timbuk(_doubled_skeleton(random.Random(seed), n)).split("\n")
        # a symbol e into a non-final state z that e keeps: z is dead
        lines = [line + {"Ops": " e:1", "States": " z"}.get(line.split(" ")[0], "")
                 for line in lines if line]
        lines += [f"e(q{q}_{c}) -> z" for q in range(0, n, 2) for c in (0, 1)]
        skeleton = "\n".join(lines + ["e(z) -> z", ""])
        d = determinise(make(skeleton))
        dead += len(_dead_states(d))
        quotient = compute_congruence(d)
        assert quotient == _reference_congruence(d), seed
        assert len(quotient) == minimal_state_count(to_explicit(d)), seed
    assert dead


def test_minimise_fixpoint_and_oracle_count():
    for seed in range(SEEDS):
        a = single(seed)
        small = minimise(a)
        assert lang(small) == lang(a), seed
        assert len(small.states) == minimal_state_count(to_explicit(a)), seed
        again = minimise(small)
        assert len(again.states) == len(small.states), seed


def test_minimise_confluent_with_determinise():
    for seed in (2, 7, 13):
        a = single(seed)
        assert len(minimise(a).states) == len(minimise(determinise(a)).states)


# -- downward simulation -------------------------------------------------------------

def test_simulation_contains_identity():
    for seed in range(10):
        a = single(seed)
        sim = downward_simulation(a)
        assert all((q, q) in sim for q in a.states), seed


def test_state_without_incoming_rules_is_simulated_by_all():
    text = ("Ops a:0 g:1\nAutomaton A\nStates q u\nFinal States q\n"
            "Transitions\na -> q\ng(u) -> q\n")
    aut = make(text)
    u = aut.state_id("u")
    sim = downward_simulation(aut)
    assert all((u, q) in sim for q in aut.states)


def test_simulation_equals_bruteforce_fixpoint():
    for seed in range(SEEDS):
        a = single(seed)
        sim = {(a.state_name(p), a.state_name(q))
               for p, q in downward_simulation(a)}
        assert sim == set(explicit_downward_simulation(to_explicit(a))), seed


def test_simulation_is_transitive_and_satisfies_definition():
    for seed in range(15):
        a = single(seed)
        sim = downward_simulation(a)
        for (p, q) in sim:
            for (q2, r) in sim:
                if q == q2:
                    assert (p, r) in sim
        named = {(a.state_name(p), a.state_name(q)) for p, q in sim}
        assert satisfies_downward_simulation(to_explicit(a), named)


def test_reduce_by_simulation_merges_duplicates():
    text = ("Ops a:0 g:1\nAutomaton A\nStates p q r\nFinal States r\n"
            "Transitions\na -> p\na -> q\ng(p) -> r\ng(q) -> r\n")
    aut = make(text)
    reduced = reduce_by_simulation(aut)
    assert len(reduced.states) == 2
    assert lang(reduced) == lang(aut)


def test_reduce_by_simulation_preserves_language():
    for seed in range(SEEDS):
        a = single(seed)
        reduced = reduce_by_simulation(a)
        assert lang(reduced) == lang(a), seed
        assert len(reduced.states) <= len(a.states)


def test_reduce_by_simulation_idempotent_on_reduced_input():
    for seed in (0, 6, 12):
        reduced = reduce_by_simulation(single(seed))
        again = reduce_by_simulation(reduced)
        assert len(again.states) == len(reduced.states)
        assert lang(again) == lang(reduced)


# -- inclusion ---------------------------------------------------------------------

def test_inclusion_reflexive():
    for seed in (0, 3, 8):
        a = single(seed)
        assert check_inclusion_antichain(a, a)
        assert check_inclusion_classical(a, a)


def test_inclusion_of_disjoint_singletons_fails():
    a, b = a_and_b_automata()
    assert not check_inclusion_antichain(a, b)
    assert not check_inclusion_classical(a, b)


def test_empty_language_included_in_anything():
    a, b = a_and_b_automata()
    empty = TreeAutomaton(a.alphabet, a.manager)
    assert check_inclusion_antichain(empty, b)
    assert check_inclusion_classical(empty, a)


def test_union_operand_is_included_in_union():
    for seed in (4, 10):
        a1, a2 = pair(seed)
        merged = union(a1, a2)
        assert check_inclusion_antichain(a1, merged), seed


def test_antichain_agrees_with_classical_and_enumeration():
    for seed in range(SEEDS):
        a1, a2 = pair(seed)
        anti = check_inclusion_antichain(a1, a2)
        classical = check_inclusion_classical(a1, a2)
        assert anti == classical, seed
        witness = lang(a1) - lang(a2)
        if witness:
            assert not anti, seed


def test_antichain_agrees_with_classical_on_many_seeds():
    """500 seeded pairs, both directions: the antichain answers as the
    classical check does, and no whenever the height-3 languages show a
    witness."""
    for seed in range(1000, 1500):
        a1, a2 = pair(seed, max_states=4)
        for left, right in ((a1, a2), (a2, a1)):
            anti = check_inclusion_antichain(left, right)
            assert anti == check_inclusion_classical(left, right), seed
            if lang(left) - lang(right):
                assert not anti, seed


def test_automaton_and_its_determinisation_include_each_other():
    for seed in range(60):
        a = single(2000 + seed, max_states=6)
        d = determinise(a)
        assert check_inclusion_antichain(a, d), seed
        assert check_inclusion_antichain(d, a), seed


@given(st.lists(st.tuples(st.integers(0, 2),
                          st.frozensets(st.integers(0, 4), max_size=4)),
                max_size=25))
@settings(max_examples=80, deadline=None)
def test_antichain_invariant_after_every_insertion(insertions):
    store = Antichain()
    for state, partners in insertions:
        stored = store.insert(state, partners)
        if not stored:
            assert any(kept <= partners for kept in store.family(state))
        families = {}
        for q, kept in store.items():
            families.setdefault(q, []).append(kept)
        for kept_sets in families.values():
            for left in kept_sets:
                for right in kept_sets:
                    assert left is right or not (left <= right or right <= left)


# -- discovery order of the indexed worklists ----------------------------------

def test_rows_holding_is_the_filtered_product():
    """_rows_holding equals a brute-force filter of every stored tuple
    against the product of its families, on seeded random indices with
    arities 0-3, a state in no stored tuple, and empty families."""
    rng = random.Random(404)
    for trial in range(200):
        states = list(range(rng.randint(1, 5)))
        index = SuperStateIndex()
        for _ in range(rng.randint(0, 25)):
            arity = rng.randrange(4)
            index.set(tuple(rng.choice(states) for _ in range(arity)), object(), None)
        unused = len(states)  # a state in no stored tuple
        items = ["x0", "x1", "x2", "x3"]
        families = {q: rng.sample(items, rng.randint(0, 3))
                    for q in states + [unused]}
        for n in range(4):
            pool = states + [unused]
            holding = rng.sample(pool, rng.randint(1, min(3, len(pool))))
            item = rng.choice(items)
            expected = set()
            for sp in index.tuples(n):
                for combo in itertools.product(*({item, *families[p]} for p in sp)):
                    if any(sp[i] in holding and combo[i] == item
                           and all(combo[j] in families[sp[j]]
                                   for j in range(n) if j != i)
                           for i in range(n)):
                        expected.add((sp, combo))
            got = _rows_holding(index, n, holding, item, families.__getitem__)
            assert got == expected, (trial, n)


def _reference_determinise(a):
    """The full enumeration: every tuple of known macrostates holding the
    dequeued one, in lexicographic order, united whether or not any stored
    super-state matches it."""
    m = a.manager
    res = TreeAutomaton(a.alphabet, m, name="determinise")
    alloc = _StateAllocator(res)
    position, members, macro_sid, queue = {}, [], [], deque()

    def collect_sets(leaf):
        if not leaf:
            return leaf
        if leaf not in position:
            position[leaf] = len(members)
            members.append(leaf)
            macro_sid.append(alloc.fresh())
            res.origins[macro_sid[-1]] = leaf
            queue.append(position[leaf])
            if leaf & a.finals:
                res.finals.add(macro_sid[-1])
        return frozenset({macro_sid[position[leaf]]})

    res.index.set((), m.monadic_apply(a.initial_root(), collect_sets), m.bottom)
    processed = set()
    while queue:
        current = queue.popleft()
        for n in a.index.arities():
            if n == 0:
                continue
            for combo in itertools.product(range(len(members)), repeat=n):
                if current not in combo or combo in processed:
                    continue
                processed.add(combo)
                tmp = a.index.unite(m, [members[i] for i in combo])
                if tmp is not m.bottom:
                    res.index.set(tuple(macro_sid[i] for i in combo),
                                  m.monadic_apply(tmp, collect_sets), m.bottom)
    return res


def _reference_product(left, right, res, combine):
    """The pair worklist that recombines, at each dequeue, every stored row
    pair whose rows hold the dequeued states anywhere, once all of its
    component pairs are settled."""
    m = left.manager
    alloc = _StateAllocator(res)
    pair_id, queue = {}, deque()

    def meet(lhs, rhs):
        out = set()
        for pair in ((qa, qb) for qa in sorted(lhs) for qb in sorted(rhs)):
            if pair not in pair_id:
                pair_id[pair] = alloc.fresh()
                res.origins[pair_id[pair]] = pair
                queue.append(pair)
            out.add(pair_id[pair])
        return out

    res.index.set((), combine(left.initial_root(), right.initial_root(), meet),
                  m.bottom)
    done = set()
    while queue:
        qa, qb = queue.popleft()
        done.add((qa, qb))
        if qa in left.finals and qb in right.finals:
            res.finals.add(pair_id[(qa, qb)])
        for n in left.index.arities():
            if n == 0:
                continue
            for sp1 in [sp for sp in left.index.tuples(n) if qa in sp]:
                for sp2 in [sp for sp in right.index.tuples(n) if qb in sp]:
                    if all(pair in done for pair in zip(sp1, sp2)):
                        root = combine(left.index.get(sp1), right.index.get(sp2),
                                       meet)
                        res.index.set(tuple(pair_id[p] for p in zip(sp1, sp2)),
                                      root, m.bottom)
    return res


def _reference_intersection(left, right):
    res = TreeAutomaton(left.alphabet, left.manager, name="intersection")
    return _reference_product(left, right, res, left.manager.apply)


def _reference_apply_step(tr, a):
    m = tr.manager
    relabel = partial(m.relational_product, trim=INPUT_BANK,
                      move=(OUTPUT_BANK, INPUT_BANK))
    return _reference_product(a, tr, TreeAutomaton(a.alphabet, m, name="image"),
                              relabel)


def _reference_compose(t1, t2):
    m = t1.manager
    chain = partial(m.relational_product, trim=OUTPUT_BANK,
                    move=(SCRATCH_BANK, OUTPUT_BANK), shift=1)
    return _reference_product(t1, t2, Transducer(t1.alphabet, m, name="compose"),
                              chain)


def _reference_prune(a):
    """Reachability by the all-components-reached walk over every stored
    tuple holding the dequeued state anywhere, ascending."""
    m = a.manager
    res = TreeAutomaton(a.alphabet, m, name="prune")
    alloc = _StateAllocator(res)
    reached, queue = set(), deque()
    for leaf in m.leaf_values(a.initial_root()):
        queue.extend(sorted(leaf))
    while queue:
        q = queue.popleft()
        if q in reached:
            continue
        reached.add(q)
        alloc.adopt(q)
        if q in a.finals:
            res.finals.add(q)
        for n in a.index.arities():
            for sp in [sp for sp in a.index.tuples(n) if n and q in sp]:
                if all(c in reached for c in sp):
                    for leaf in m.leaf_values(a.index.get(sp)):
                        queue.extend(sorted(leaf))
    for sp, root in a.index.items():
        if all(res.has_state_id(q) for q in sp):
            res.index.set(sp, root, m.bottom)
    return res


def _doubled_skeleton(rng, n):
    """A random deterministic skeleton over states 0..n-1 (every state
    reached by a rule from earlier ones, plus 2n rules on free left-hand
    sides) whose states are doubled: a rule holds for every combination of
    source copies and goes to the copy of its first source (the glue rule
    g(0) to both), further rules to a random copy or to both, so every
    non-empty subset of a copy pair is a macrostate: 3n of them."""
    text = ["Ops a:0 b:0 g:1 h:1 f:2 k:2", "Automaton D",
            "States " + " ".join(f"q{q}_{c}" for q in range(n) for c in (0, 1)),
            "Final States " + " ".join(f"q{q}_{c}" for q in range(0, n, 5)
                                       for c in (0, 1)),
            "Transitions", "a -> q0_0", "b -> q0_1"]
    used = {("g", (0,))}
    rules = [("g", (0,), 0, True)]
    for target in list(range(1, n)) + [None] * (2 * n):
        while True:
            sym = rng.choice("ghfk")
            below = target if target is not None else n
            src = tuple(rng.randrange(below) for _ in range(1 if sym in "gh" else 2))
            if (sym, src) not in used:
                break
        used.add((sym, src))
        rules.append((sym, src, rng.randrange(n) if target is None else target,
                      target is not None))
    for sym, src, target, spine in rules:
        for combo in itertools.product((0, 1), repeat=len(src)):
            lhs = f"{sym}({','.join(f'q{q}_{c}' for q, c in zip(src, combo))})"
            if spine and target == 0:
                copies = (0, 1)
            elif spine:
                copies = (combo[0],)
            else:
                copies = (0, 1) if rng.random() < 0.2 else (rng.randrange(2),)
            text += [f"{lhs} -> q{target}_{c}" for c in copies]
    return make("\n".join(text) + "\n")


def test_determinise_unites_once_per_result_row(monkeypatch):
    """On a doubled skeleton of 20 states determinise folds and interns
    exactly the macrostate tuples that become rows of its result, not every
    tuple of macrostates (60^2 of them per binary symbol here): one
    monadic pass per non-nullary row plus one for the initial root, and no
    call of ``SuperStateIndex.unite``, whose rows it already has."""
    a = _doubled_skeleton(random.Random(20), 20)
    calls = {"monadic_apply": 0, "unite": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(Manager, "monadic_apply")
    counted(SuperStateIndex, "unite")
    d = determinise(a)
    assert len(d.states) == 60
    rows = sum(len(d.index.tuples(n)) for n in d.index.arities() if n)
    assert calls == {"monadic_apply": rows + 1, "unite": 0}


def test_indexed_worklists_keep_the_reference_naming():
    """determinise, intersection, prune_unreachable, apply_step and
    compose name their states, write their files and record origins
    exactly as the full enumerations do, on random automata with arities
    0-3 and, in some, a state that only occurs in sources and so lies in
    no macrostate and no pair; the transducers are random too."""
    for seed in range(220):
        rng = random.Random(seed)
        alphabet = random_alphabet(rng, max_symbols=5, max_arity=3)
        manager = Manager(alphabet.width)
        a = random_automaton(rng, alphabet, manager, max_states=6, name="A")
        b = random_automaton(rng, alphabet, manager, max_states=6, name="B")
        ranked = [s for s in alphabet.symbols if s.arity]
        if ranked and seed % 2:
            sym = rng.choice(ranked)
            a.add_state("z")
            src = ["z"] + [rng.choice(a.state_names) for _ in range(sym.arity - 1)]
            rng.shuffle(src)
            a.insert_transition(sym, src, [a.state_names[0]])
        if seed % 20 == 0:  # many macrostates and pairs
            a = _doubled_skeleton(rng, 6)
            b = make(write_timbuk(a).replace("Automaton D", "Automaton E")
                     .replace("q", "r"), alphabet=a.alphabet, manager=a.manager)
        m3 = transducer_manager(alphabet)
        t1, t2 = (random_transducer(rng, alphabet, m3, name=n) for n in "TU")
        c = random_automaton(rng, alphabet, m3, max_states=6, name="C")
        for got, expected in ((determinise(a), _reference_determinise(a)),
                              (intersection(a, b), _reference_intersection(a, b)),
                              (intersection(b, a), _reference_intersection(b, a)),
                              (prune_unreachable(a), _reference_prune(a)),
                              (apply_step(t1, c), _reference_apply_step(t1, c)),
                              (compose(t1, t2), _reference_compose(t1, t2))):
            assert write_timbuk(got) == write_timbuk(expected), seed
            assert _named_origins(got) == _named_origins(expected), seed


def _named_origins(res):
    return {res.state_name(sid): origin for sid, origin in res.origins.items()}


def _sharing_ops_outputs(seed):
    """Written texts, origins, simulation relations and inclusion answers
    of every operation that shares a compute table, on one seeded instance
    in fresh managers."""
    rng = random.Random(seed)
    alphabet = random_alphabet(rng, max_symbols=5, max_arity=3)
    manager = Manager(alphabet.width)
    a = random_automaton(rng, alphabet, manager, max_states=6, name="A")
    b = random_automaton(rng, alphabet, manager, max_states=6, name="B")
    m3 = transducer_manager(alphabet)
    t1, t2 = (random_transducer(rng, alphabet, m3, name=n) for n in "TU")
    c = random_automaton(rng, alphabet, m3, max_states=6, name="C")
    d = determinise(a)
    results = [d, complement(a), minimise(a), reduce_by_simulation(a),
               intersection(a, b), apply_step(t1, c), compose(t1, t2)]
    relations = [{(x.state_name(p), x.state_name(q))
                  for p, q in downward_simulation(x)} for x in (a, d)]
    answers = [check(x, y) for check in (check_inclusion_antichain,
                                         check_inclusion_classical)
               for x, y in ((a, b), (b, a), (a, d), (d, a))]
    return ([(write_timbuk(r), _named_origins(r)) for r in results],
            relations, answers)


def test_shared_compute_tables_change_no_output(monkeypatch):
    """Every operation gives the same output whether its Apply calls share
    one compute table or each starts from a fresh one, as they all did
    before the tables were shared."""
    shared = [_sharing_ops_outputs(seed) for seed in range(200)]
    for name in ("apply", "monadic_apply", "relational_product"):
        original = getattr(Manager, name)
        signature = inspect.signature(original)

        def fresh(*args, _original=original, _signature=signature, **kwargs):
            bound = _signature.bind(*args, **kwargs)
            bound.arguments.pop("cache", None)
            return _original(*bound.args, **bound.kwargs)
        monkeypatch.setattr(Manager, name, fresh)
    for seed, outputs in enumerate(shared):
        assert _sharing_ops_outputs(seed) == outputs, seed
