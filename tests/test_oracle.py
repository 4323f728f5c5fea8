import random

import pytest

from symta import Alphabet, Manager, TreeAutomaton, parse_term, parse_timbuk
from symta import oracle
from symta.oracle import (
    ExplicitTA,
    accepts_term,
    all_terms_upto,
    explicit_decide,
    explicit_determinise,
    explicit_downward_simulation,
    explicit_is_empty,
    explicit_union,
    from_explicit,
    language_upto,
    random_alphabet,
    random_automaton,
    satisfies_downward_simulation,
    to_explicit,
)


def test_to_explicit_counts_rules(sample_automaton):
    x = to_explicit(sample_automaton)
    assert len(x.rules) == 8  # 2 + 1 + 1 + 2 + 2 single-target rules
    assert ("d", ("q2",), "q3") in x.rules


def test_to_explicit_empty_automaton():
    alphabet = Alphabet()
    alphabet.add_symbol("a", 0)
    aut = TreeAutomaton(alphabet.freeze())
    assert to_explicit(aut).rules == frozenset()


def test_explicit_round_trip_identity():
    for seed in range(15):
        rng = random.Random(seed)
        alphabet = random_alphabet(rng)
        aut = random_automaton(rng, alphabet, Manager(alphabet.width))
        x = to_explicit(aut)
        again = to_explicit(from_explicit(x))
        assert again.rules == x.rules and again.finals == x.finals


def test_language_of_single_leaf():
    aut = parse_timbuk("Ops a:0 b:0\nAutomaton A\nStates q\nFinal States q\n"
                       "Transitions\na -> q\n")
    assert language_upto(to_explicit(aut), 1) == {parse_term("a")}


def test_language_empty_without_finals():
    aut = parse_timbuk("Ops a:0 f:1\nAutomaton A\nStates q\nFinal States\n"
                       "Transitions\na -> q\nf(q) -> q\n")
    for h in (1, 2, 3):
        assert language_upto(to_explicit(aut), h) == set()


def test_language_contains_two_step_term(sample_automaton):
    lang = language_upto(to_explicit(sample_automaton), 2)
    assert parse_term("d(c)") in lang


def test_language_height_guard():
    aut = parse_timbuk("Ops a:0\nAutomaton A\nStates q\nFinal States q\n"
                       "Transitions\na -> q\n")
    with pytest.raises(ValueError):
        language_upto(to_explicit(aut), 5)


def test_accepts_term_agrees_with_symbolic(sample_automaton):
    x = to_explicit(sample_automaton)
    for text in ("a", "c", "d(c)", "d(d(c))", "b(b,d(c))", "c(d(c))"):
        t = parse_term(text)
        assert accepts_term(x, t) == sample_automaton.accepts(t)


@pytest.mark.parametrize("final", ["odd", "even"])
def test_accepts_term_on_a_deep_unary_term(final):
    """The oracle walks a term of height 2,000 without recursion and agrees
    with the symbolic membership: the term is accepted when the final
    state is the one an odd number of f's reaches, rejected otherwise."""
    alphabet = Alphabet()
    alphabet.add_symbol("a", 0)
    alphabet.add_symbol("f", 1)
    alphabet.freeze()
    aut = TreeAutomaton(alphabet, Manager(alphabet.width))
    aut.add_state("even")
    aut.add_state("odd")
    aut.set_final(final)
    aut.insert_transition("a", (), ["even"])
    aut.insert_transition("f", ("even",), ["odd"])
    aut.insert_transition("f", ("odd",), ["even"])
    t = ("a", ())
    for _ in range(1999):  # height 2,000 with 1,999 f's
        t = ("f", (t,))
    assert aut.accepts(t) == (final == "odd")
    assert accepts_term(to_explicit(aut), t) == aut.accepts(t)


def test_all_terms_upto_counts():
    alphabet = Alphabet()
    alphabet.add_symbol("a", 0)
    alphabet.add_symbol("f", 2)
    alphabet.freeze()
    terms = all_terms_upto(alphabet, 3)
    # height 1: a; height 2: f(a,a); height 3: f over {a, f(a,a)} minus known
    assert len(terms) == 1 + 1 + 3
    assert len(terms) == len(set(terms))


def test_explicit_union_preserves_determinism():
    # two deterministic automata stay deterministic through the product
    d1 = parse_timbuk("Ops a:0 f:1\nAutomaton A\nStates p0 p1\nFinal States p1\n"
                      "Transitions\na -> p0\nf(p0) -> p1\nf(p1) -> p0\n")
    d2 = parse_timbuk("Ops a:0 f:1\nAutomaton B\nStates r\nFinal States r\n"
                      "Transitions\na -> r\nf(r) -> r\n",
                      alphabet=d1.alphabet, manager=d1.manager)
    product = explicit_union(to_explicit(d1), to_explicit(d2))
    seen = {}
    for name, src, tgt in product.rules:
        assert seen.setdefault((name, src), tgt) == tgt
    lang = language_upto(product, 3)
    expected = language_upto(to_explicit(d1), 3) | language_upto(to_explicit(d2), 3)
    assert lang == expected


def test_explicit_simulation_on_two_state_chain():
    # upper covers lower's single rule, so lower is simulated by upper
    aut = parse_timbuk(
        "Ops a:0 g:1\nAutomaton A\nStates low up\nFinal States up\n"
        "Transitions\na -> low\na -> up\ng(up) -> up\n")
    x = to_explicit(aut)
    sim = explicit_downward_simulation(x)
    assert sim == frozenset({("low", "low"), ("up", "up"), ("low", "up")})
    assert satisfies_downward_simulation(x, sim)


def test_explicit_emptiness():
    alive = parse_timbuk("Ops a:0\nAutomaton A\nStates q\nFinal States q\n"
                         "Transitions\na -> q\n")
    assert not explicit_is_empty(to_explicit(alive))
    dead = parse_timbuk("Ops a:0 f:1\nAutomaton A\nStates q r\nFinal States r\n"
                        "Transitions\na -> q\n")
    assert explicit_is_empty(to_explicit(dead))


def test_explicit_determinise_is_deterministic():
    for seed in range(10):
        rng = random.Random(500 + seed)
        alphabet = random_alphabet(rng)
        aut = random_automaton(rng, alphabet, Manager(alphabet.width))
        det = explicit_determinise(to_explicit(aut))
        seen = {}
        for name, src, tgt in det.rules:
            assert seen.setdefault((name, src), tgt) == tgt
        assert language_upto(det, 3) == language_upto(to_explicit(aut), 3)


def test_decide_dispatcher_and_guard():
    aut = parse_timbuk("Ops a:0\nAutomaton A\nStates q\nFinal States q\n"
                       "Transitions\na -> q\n")
    x = to_explicit(aut)
    assert explicit_decide("is_empty", x) is False
    assert explicit_decide("reachable", x) == frozenset({"q"})
    big = ExplicitTA(x.alphabet, frozenset(f"s{i}" for i in range(9)),
                     frozenset(), frozenset())
    with pytest.raises(ValueError):
        explicit_decide("is_empty", big)
    with pytest.raises(ValueError):
        explicit_decide("nonsense", x)
