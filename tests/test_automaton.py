import itertools
import random

import pytest

from symta import Alphabet, Manager, TreeAutomaton, parse_term
from symta.io import alphabet_from_documents, build_automaton, parse_timbuk_document
from symta.ops import union


def small_alphabet():
    alphabet = Alphabet()
    alphabet.add_symbol("a", 0)
    alphabet.add_symbol("g", 1)
    alphabet.add_symbol("f", 2)
    return alphabet.freeze()


def test_insert_then_initial_root_evaluates(sample_automaton):
    aut = sample_automaton
    q1, q2 = aut.state_id("q1"), aut.state_id("q2")
    assert aut.manager.evaluate(aut.initial_root(), (0, 1)) == frozenset({q1, q2})


def test_insert_overwrites_per_symbol_and_source():
    alphabet = small_alphabet()
    aut = TreeAutomaton(alphabet)
    aut.add_state("q1")
    aut.add_state("q2")
    aut.insert_transition("a", (), ["q1"])
    aut.insert_transition("a", (), ["q2"])
    assert aut.get_transition("a", ()) == frozenset({"q2"})


def test_insert_keeps_other_symbols_at_sink():
    alphabet = small_alphabet()
    aut = TreeAutomaton(alphabet)
    aut.add_state("q")
    aut.insert_transition("a", (), ["q"])
    assert aut.get_transition("g", ("q",)) == frozenset()
    assert aut.get_transition("f", ("q", "q")) == frozenset()


def test_insert_validates_inputs():
    alphabet = small_alphabet()
    aut = TreeAutomaton(alphabet)
    aut.add_state("q")
    with pytest.raises(KeyError):
        aut.insert_transition("f", ("q",), ["q"])  # arity mismatch
    with pytest.raises(KeyError):
        aut.insert_transition("a", (), ["nope"])   # unregistered state
    with pytest.raises(ValueError):
        aut.insert_transition("a", (), [])         # empty target set


def test_get_transition_on_sample(sample_automaton):
    aut = sample_automaton
    assert aut.get_transition("c", ("q3",)) == frozenset({"q1", "q2"})
    assert aut.get_transition("a", ()) == frozenset()
    assert aut.get_transition("b", ("q2", "q2")) == frozenset()  # unseen source


def test_get_transition_total_over_all_sources(sample_automaton):
    aut = sample_automaton
    names = aut.state_names
    for sym in aut.alphabet.symbols:
        for source in itertools.product(names, repeat=sym.arity):
            aut.get_transition(sym, source)  # never raises


def test_super_states_listing(sample_automaton):
    aut = sample_automaton
    q1, q3 = aut.state_id("q1"), aut.state_id("q3")
    assert aut.super_states(2) == [(q1, q3)]
    assert aut.super_states(5) == []


def test_accepts_single_leaf():
    alphabet = small_alphabet()
    aut = TreeAutomaton(alphabet)
    aut.add_state("q0")
    aut.set_final("q0")
    aut.insert_transition("a", (), ["q0"])
    assert aut.accepts(parse_term("a"))
    assert not aut.accepts(parse_term("g(a)"))


def test_accepts_two_step_chain(sample_automaton):
    # c -> q2, then d(q2) -> q3 which is final
    assert sample_automaton.accepts(parse_term("d(c)"))
    assert not sample_automaton.accepts(parse_term("c"))


def test_accepts_branching_run():
    alphabet = small_alphabet()
    aut = TreeAutomaton(alphabet)
    for q in ("qa", "qg", "q1"):
        aut.add_state(q)
    aut.set_final("q1")
    aut.insert_transition("a", (), ["qa"])
    aut.insert_transition("g", ("qa",), ["qg"])
    aut.insert_transition("f", ("qa", "qa"), ["q1"])
    aut.insert_transition("f", ("q1", "qg"), ["q1"])
    assert aut.accepts(parse_term("f(f(a,a),g(a))"))
    assert not aut.accepts(parse_term("f(g(a),a)"))


def test_accepts_rejects_unknown_symbols(sample_automaton):
    with pytest.raises(KeyError):
        sample_automaton.accepts(parse_term("z"))
    with pytest.raises(KeyError):
        sample_automaton.accepts(parse_term("d(c,c)"))


def test_fresh_automaton_language_is_empty():
    aut = TreeAutomaton(small_alphabet())
    assert aut.finals == set()
    assert not aut.accepts(parse_term("a"))


def test_registry_validation():
    aut = TreeAutomaton(small_alphabet())
    aut.add_state("q")
    with pytest.raises(ValueError):
        aut.add_state("q")
    with pytest.raises(KeyError):
        aut.set_final("unknown")


def test_shared_manager_enables_union_and_foreign_rejects():
    alphabet = small_alphabet()
    manager = Manager(alphabet.width)
    a1 = TreeAutomaton(alphabet, manager)
    a2 = TreeAutomaton(alphabet, manager)
    for aut, final in ((a1, "p"), (a2, "r")):
        aut.add_state(final)
        aut.set_final(final)
        aut.insert_transition("a", (), [final])
    both = union(a1, a2)
    assert both.finals == {a1.state_id("p"), a2.state_id("r")}

    stranger = TreeAutomaton(alphabet, Manager(alphabet.width))
    stranger.add_state("s")
    with pytest.raises(ValueError):
        union(a1, stranger)


def test_manager_width_must_match_alphabet():
    alphabet = small_alphabet()
    with pytest.raises(ValueError):
        TreeAutomaton(alphabet, Manager(alphabet.width + 1))


def test_accepts_agrees_with_explicit_language():
    import random

    from symta.oracle import (all_terms_upto, language_upto, random_alphabet,
                              random_automaton, to_explicit)
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        alphabet = random_alphabet(rng)
        aut = random_automaton(rng, alphabet, Manager(alphabet.width))
        accepted = language_upto(to_explicit(aut), 3)
        for t in all_terms_upto(alphabet, 3):
            assert aut.accepts(t) == (t in accepted), (seed, t)


def test_stats_summary(sample_automaton):
    info = sample_automaton.stats()
    assert info["states"] == 3
    assert info["finals"] == 1
    assert info["super_states"] == {0: 1, 1: 2, 2: 1}
    assert info["mtbdd_nodes"] > 0


@pytest.mark.parametrize("banks", [1, 3])
def test_loading_is_path_local_in_node_calls(banks):
    """One rule per symbol of a 2^12-symbol alphabet, all on one super-state
    with random targets, so the stored diagram grows large: each insertion
    must still make at most num_vars + 1 node calls, not walk the diagram."""
    rng = random.Random(12)
    names = [f"s{i}" for i in range(1 << 12)]
    text = "\n".join([
        "Ops " + " ".join(f"{name}:0" for name in names),
        "Automaton W",
        "States q0 q1 q2 q3",
        "Final States q0",
        "Transitions",
        *(f"{name} -> q{rng.randint(0, 3)}" for name in names),
    ]) + "\n"
    doc = parse_timbuk_document(text)
    alphabet = alphabet_from_documents(doc)
    manager = Manager(alphabet.width, banks)
    budget = len(names) * (manager.num_vars + 1)
    calls = 0
    node = manager.node

    def counted(*args):
        nonlocal calls
        calls += 1
        if calls > budget:
            raise AssertionError(f"more than {budget} node calls")
        return node(*args)

    manager.node = counted
    aut = build_automaton(doc, alphabet, manager)
    assert manager.node_count(aut.initial_root()) > 1000  # a large diagram
    for name in ("s0", "s1234", names[-1]):
        assert aut.get_transition(name, ()) == {
            rule.target for rule in doc.rules if rule.symbol == name}


def _source_tuples(machine, arity):
    return itertools.product(machine.state_names, repeat=arity)


def test_point_lookups_agree_between_one_and_three_banks():
    """get_transition reads the same targets from a 1-bank and a 3-bank
    manager, and the explicit rules of the oracle; get_rule reads a
    transducer's explicit rules; an apply_step image, whose rows went
    through bank trimming and renaming, answers like its 1-bank copy."""
    from symta.oracle import (explicit_transducer_rules, from_explicit,
                              random_alphabet, random_automaton,
                              random_transducer, to_explicit)
    from symta.transducer import apply_step, transducer_manager

    for seed in range(12):
        alphabet = random_alphabet(random.Random(seed), max_symbols=5)
        one = random_automaton(random.Random(seed), alphabet, Manager(alphabet.width))
        three = random_automaton(random.Random(seed), alphabet,
                                 Manager(alphabet.width, banks=3))
        rules = to_explicit(one).rule_map()
        for sym in alphabet.symbols:
            for src in _source_tuples(one, sym.arity):
                expected = rules.get((sym.name, src), frozenset())
                assert one.get_transition(sym, src) == expected, (seed, sym, src)
                assert three.get_transition(sym, src) == expected, (seed, sym, src)

        rng = random.Random(seed)
        tr = random_transducer(rng, alphabet, transducer_manager(alphabet))
        rule_set = explicit_transducer_rules(tr)
        for f in alphabet.symbols:
            for src in _source_tuples(tr, f.arity):
                for g in alphabet.symbols:
                    if g.arity != f.arity:
                        continue
                    expected = {t for (f_name, s, g_name, t) in rule_set
                                if (f_name, s, g_name) == (f.name, src, g.name)}
                    assert tr.get_rule(f, src, g) == expected, (seed, f, src, g)

        image = apply_step(tr, random_automaton(rng, alphabet, tr.manager))
        copy = from_explicit(to_explicit(image), Manager(alphabet.width))
        for sym in alphabet.symbols:
            for src in _source_tuples(image, sym.arity):
                assert image.get_transition(sym, src) == \
                    copy.get_transition(sym, src), (seed, sym, src)


def _check_unite(aut, rng, label):
    """unite against the sorted fold of the union functor over the stored
    tuples whose components lie in random sets, empty sets and an arity
    without a bucket included."""
    m, states = aut.manager, aut.states
    for arity in range(5):
        for _ in range(6):
            sets = [frozenset(q for q in states if rng.random() < 0.6)
                    for _ in range(arity)]
            if arity and rng.random() < 0.3:
                sets[rng.randrange(arity)] = frozenset()
            expected = m.bottom
            for sp in aut.index.tuples(arity):
                if all(sp[i] in sets[i] for i in range(arity)):
                    expected = m.apply(expected, aut.index.get(sp),
                                       lambda x, y: x | y)
            assert aut.index.unite(m, sets) is expected, (label, arity)
            if not all(sets):
                assert expected is m.bottom
    assert aut.index.unite(m, [frozenset(states)] * 5) is m.bottom


def test_unite_is_the_fold_of_the_selected_rows():
    from symta.oracle import random_alphabet, random_automaton

    rng = random.Random(515)
    for trial in range(60):
        alphabet = random_alphabet(rng)
        aut = random_automaton(rng, alphabet, Manager(alphabet.width))
        _check_unite(aut, rng, trial)


def test_position_index_follows_overwrites_and_removals():
    """containing at each position equals a filter of the sorted stored
    tuples after random writes, overwrites and bottom removals, both for
    arities whose position index was built before the writes (kept current
    by set) and for ones first looked up after them; unite still folds the
    selected rows."""
    from symta.oracle import random_alphabet, random_automaton

    rng = random.Random(707)
    for trial in range(80):
        alphabet = random_alphabet(rng, max_arity=3)
        aut = random_automaton(rng, alphabet, Manager(alphabet.width))
        aut.add_state("unused")  # a state in no stored tuple
        m, states, index = aut.manager, aut.states, aut.index
        roots = [root for _, root in index.items()] + [m.leaf({q}) for q in states]
        for arity in rng.sample(range(4), 2):  # built before the writes
            if arity:
                index.containing(states[0], arity, arity - 1)
        for _ in range(40):
            arity = rng.randrange(4)
            stored = index.tuples(arity)
            if stored and rng.random() < 0.35:
                index.set(rng.choice(stored), m.bottom, m.bottom)
                continue
            sp = tuple(rng.choice(states[:-1]) for _ in range(arity))
            index.set(sp, m.bottom if rng.random() < 0.1 else rng.choice(roots),
                      m.bottom)
        for arity in range(4):
            stored = index.tuples(arity)
            for q in states:
                for i in range(arity):
                    assert index.containing(q, arity, i) == \
                        [sp for sp in stored if sp[i] == q], (trial, arity, q, i)
        _check_unite(aut, rng, trial)
