import itertools
import random

import pytest

from symta import (
    Manager,
    TimbukParseError,
    extract_rules,
    extract_transitions,
    parse_timbuk,
    parse_timbuk_transducer,
    to_dot,
    write_timbuk,
    write_timbuk_transducer,
)
from symta import apply_step, compose
from symta.io import (
    alphabet_from_documents,
    build_automaton,
    build_transducer,
    parse_timbuk_document,
)
from symta.mtbdd import cube_covers, cube_to_text
from symta.oracle import random_alphabet, random_automaton, random_transducer, \
    to_explicit
from symta.transducer import transducer_manager

from conftest import function_table
from dot_check import validate_dot

SAMPLE_DOC = """\
Ops a:0 b:0 b:2 c:0 c:1 d:1

Automaton A
States q1 q2 q3
Final States q3
Transitions
b -> q1
b -> q2
c -> q2
d(q2) -> q3
b(q1,q3) -> q1
b(q1,q3) -> q2
c(q3) -> q1
c(q3) -> q2
"""


def test_minimal_document():
    aut = parse_timbuk("Ops a:0\nAutomaton tiny\nStates q0\n"
                       "Final States q0\nTransitions\na -> q0\n")
    assert aut.state_names == ("q0",)
    assert aut.get_transition("a", ()) == frozenset({"q0"})


def test_sample_document_matches_fixture(sample_automaton):
    parsed = parse_timbuk(SAMPLE_DOC)
    for sym in parsed.alphabet.symbols:
        for source in itertools.product(parsed.state_names, repeat=sym.arity):
            assert parsed.get_transition(sym, source) == \
                sample_automaton.get_transition(sym, source)


def test_rules_with_one_lhs_accumulate_in_any_order():
    head = "Ops a:0 f:1\nAutomaton A\nStates p q\nFinal States p\nTransitions\n"
    one = parse_timbuk(head + "a -> p\na -> q\nf(p) -> q\n")
    two = parse_timbuk(head + "f(p) -> q\na -> q\na -> p\n")
    assert one.get_transition("a", ()) == two.get_transition("a", ()) == \
        frozenset({"p", "q"})


def test_nullary_lhs_with_and_without_parentheses():
    head = "Ops a:0\nAutomaton A\nStates q\nFinal States q\nTransitions\n"
    assert parse_timbuk(head + "a -> q\n").get_transition("a", ()) == \
        parse_timbuk(head + "a() -> q\n").get_transition("a", ())


def test_comments_crlf_and_state_annotations():
    text = ("Ops a:0 f:1 % trailing words\r\n"
            "Automaton A\r\n"
            "States q0:0 q1 % annotated state\r\n"
            "Final States q1\r\n"
            "Transitions\r\n"
            "a -> q0\r\n"
            "f(q0) -> q1\r\n")
    aut = parse_timbuk(text)
    assert aut.get_transition("f", ("q0",)) == frozenset({"q1"})


@pytest.mark.parametrize("text,line", [
    ("Ops a:0\nAutomaton A\nStates q\nFinal States q\nTransitions\nz -> q\n", 6),
    ("Ops a:0\nAutomaton A\nStates q\nFinal States q\nTransitions\na -> zz\n", 6),
    ("Ops f:2\nAutomaton A\nStates q\nFinal States q\nTransitions\nf(q) -> q\n", 6),
    ("Ops a:0\nAutomaton A\nStates q\nFinal States nope\nTransitions\n", 4),
    ("Ops a:b\nAutomaton A\nStates q\nFinal States\nTransitions\n", 1),
])
def test_errors_carry_line_numbers(text, line):
    with pytest.raises(TimbukParseError) as err:
        parse_timbuk(text)
    assert err.value.line == line


def test_arity_mismatch_is_reported():
    text = ("Ops f:2 a:0\nAutomaton A\nStates q0 q1\nFinal States q1\n"
            "Transitions\na -> q0\nf(q0) -> q1\n")
    with pytest.raises(TimbukParseError):
        parse_timbuk(text)


def test_write_expands_target_sets(sample_automaton):
    text = write_timbuk(sample_automaton)
    rules = [line for line in text.splitlines() if "->" in line]
    assert len(rules) == 8  # 2 + 1 + 1 + 2 + 2 single-target lines


def test_write_contains_empty_final_line():
    aut = parse_timbuk("Ops a:0\nAutomaton A\nStates q\nFinal States\n"
                       "Transitions\na -> q\n")
    assert "\nFinal States\n" in write_timbuk(aut)


def test_round_trip_is_isomorphic(sample_automaton):
    text = write_timbuk(sample_automaton)
    again = parse_timbuk(text)
    assert write_timbuk(again) == text
    assert to_explicit(again).rules == to_explicit(sample_automaton).rules


def test_round_trip_random_automata():
    for seed in range(25):
        rng = random.Random(seed)
        alphabet = random_alphabet(rng)
        aut = random_automaton(rng, alphabet, Manager(alphabet.width))
        parsed = parse_timbuk(write_timbuk(aut))
        assert to_explicit(parsed).rules == to_explicit(aut).rules
        assert frozenset(parsed.final_names()) == frozenset(aut.final_names())


# -- extraction -----------------------------------------------------------------

def test_extract_constant_root_single_cube():
    aut = parse_timbuk("Ops a:0 b:0\nAutomaton A\nStates q\nFinal States q\n"
                       "Transitions\na -> q\nb -> q\n")
    cubes = extract_transitions(aut)
    assert len(cubes) == 1
    assert cube_to_text(cubes[0].cube) == "X"


def test_extract_sample_initial_cubes(sample_automaton):
    aut = sample_automaton
    initial = [(cube_to_text(tc.cube),
                frozenset(aut.state_name(q) for q in tc.targets))
               for tc in extract_transitions(aut) if tc.source == ()]
    assert initial == [("01", frozenset({"q1", "q2"})), ("10", frozenset({"q2"}))]


def _random_machine(kind, rng):
    alphabet = random_alphabet(rng)
    if kind == "automaton":
        return random_automaton(rng, alphabet, Manager(alphabet.width))
    return random_transducer(rng, alphabet, transducer_manager(alphabet))


def test_extracted_cubes_disjoint_and_covering():
    """Per super-state the cubes are disjoint and cover exactly the
    assignments to the machine's banks that have targets; a transducer's
    cubes interleave its input and output bits, and its diagrams ignore
    the scratch bank."""
    for kind, seed in itertools.product(("automaton", "transducer"), range(10)):
        machine = _random_machine(kind, random.Random(100 + seed))
        m = machine.manager
        extracted = [m.var_index(bit, bank)
                     for bit in range(m.width) for bank in machine.banks]
        by_source = {}
        for tc in extract_transitions(machine):
            by_source.setdefault(tc.source, []).append(tc)
        for source, cubes in by_source.items():
            root = machine.index.get(source)
            table = function_table(m, root)
            for bits in itertools.product((0, 1), repeat=m.num_vars):
                value = table[int("".join(map(str, bits)), 2)] if bits else table[0]
                point = [bits[v] for v in extracted]
                hits = [tc for tc in cubes if cube_covers(tc.cube, point)]
                if value:
                    assert len(hits) == 1 and hits[0].targets == value
                else:
                    assert not hits


def test_reinserting_extracted_cubes_reproduces_transitions():
    """Writing the extracted cubes into an empty machine over the same
    states gives the same root handle for every super-state: symbol by
    symbol for an automaton, whole pair cubes for a transducer."""
    for kind, seed in itertools.product(("automaton", "transducer"), range(8)):
        machine = _random_machine(kind, random.Random(40 + seed))
        alphabet = machine.alphabet
        rebuilt = type(machine)(alphabet, machine.manager, name="rebuilt")
        for sid, name in zip(machine.states, machine.state_names):
            rebuilt.adopt_state(sid, name)
        for tc in extract_transitions(machine):
            source = tuple(machine.state_name(q) for q in tc.source)
            targets = [machine.state_name(q) for q in tc.targets]
            if kind == "automaton":
                for sym in alphabet.decode_cube(tc.cube, len(tc.source)):
                    rebuilt.insert_transition(sym, source, targets)
            else:
                input_cube, output_cube = alphabet.split_pair_cube(tc.cube)
                rebuilt.insert_rule_cube(input_cube, source, output_cube, targets)
        assert [sp for sp, _ in rebuilt.index.items()] == \
            [sp for sp, _ in machine.index.items()]
        for sp, root in machine.index.items():
            assert rebuilt.index.get(sp) is root


# -- transducer documents -----------------------------------------------------------

TRANSDUCER_DOC = """\
Ops a:0 b:0 f:1 g:1

Transducer T
States p0 p1
Final States p1
Transitions
a / b -> p0
f(p0) / g -> p1
g(p0) / g -> p1
"""


def test_transducer_round_trip():
    tr = parse_timbuk_transducer(TRANSDUCER_DOC)
    text = write_timbuk_transducer(tr)
    again = parse_timbuk_transducer(text)
    assert write_timbuk_transducer(again) == text
    assert tr.get_rule("a", (), "b") == frozenset({"p0"})
    assert tr.get_rule("f", ("p0",), "g") == frozenset({"p1"})
    assert tr.get_rule("f", ("p0",), "f") == frozenset()


def test_transducer_arity_mismatch_rejected():
    text = ("Ops f:1 g:2\nTransducer T\nStates q\nFinal States q\n"
            "Transitions\nf(q) / g -> q\n")
    with pytest.raises(TimbukParseError):
        parse_timbuk_transducer(text)


def test_rule_kind_must_match_header():
    with pytest.raises(TimbukParseError):
        parse_timbuk("Ops a:0\nAutomaton A\nStates q\nFinal States q\n"
                     "Transitions\na / a -> q\n")
    doc = parse_timbuk_document(TRANSDUCER_DOC)
    assert doc.kind == "transducer"
    with pytest.raises(TimbukParseError) as err:
        build_automaton(doc, None)
    assert err.value.line == 3  # the Transducer keyword, after a blank line


def test_transducer_builder_rejects_an_automaton_document():
    with pytest.raises(TimbukParseError) as err:
        build_transducer(parse_timbuk_document(SAMPLE_DOC), None)
    assert err.value.line == 3  # the Automaton keyword, after a blank line


RELABEL_DOC = """\
Ops a:0 b:0 f:1 g:1

Transducer R
States r
Final States r
Transitions
a / a -> r
a / b -> r
b / a -> r
f(r) / g -> r
g(r) / f -> r
g(r) / g -> r
"""

IMAGE_SOURCE_DOC = """\
Ops a:0 b:0 f:1 g:1

Automaton A
States q0 q1
Final States q1
Transitions
a -> q0
b -> q0
f(q0) -> q1
g(q0) -> q1
g(q1) -> q1
"""


def test_transducer_results_have_pinned_canonical_text():
    """Compositions and an image written byte for byte as before."""
    docs = [parse_timbuk_document(text)
            for text in (TRANSDUCER_DOC, RELABEL_DOC, IMAGE_SOURCE_DOC)]
    alphabet = alphabet_from_documents(*docs)
    m = transducer_manager(alphabet)
    t = build_transducer(docs[0], alphabet, m)
    r = build_transducer(docs[1], alphabet, m)
    a = build_automaton(docs[2], alphabet, m)
    head = "Ops a:0 b:0 f:1 g:1\n\n"
    assert write_timbuk_transducer(compose(t, t)) == (
        head + "Transducer compose\nStates\nFinal States\nTransitions\n")
    assert write_timbuk_transducer(compose(t, r)) == (
        head + "Transducer compose\nStates s0 s1\nFinal States s1\nTransitions\n"
        "a / a -> s0\nf(s0) / f -> s1\nf(s0) / g -> s1\n"
        "g(s0) / f -> s1\ng(s0) / g -> s1\n")
    assert write_timbuk(apply_step(t, a)) == (
        head + "Automaton image\nStates s0 s1\nFinal States s1\nTransitions\n"
        "b -> s0\ng(s0) -> s1\n")


def test_extract_rules_covers_pairs():
    tr = parse_timbuk_transducer(TRANSDUCER_DOC)
    pairs = set()
    for tc in extract_rules(tr):
        for f, g in tr.alphabet.decode_pair_cube(tc.cube, len(tc.source)):
            pairs.add((f.name, g.name, tc.source))
    p0 = tr.state_id("p0")
    assert ("a", "b", ()) in pairs
    assert ("f", "g", (p0,)) in pairs and ("g", "g", (p0,)) in pairs


# -- DOT -------------------------------------------------------------------------

def test_dot_single_rule_automaton():
    aut = parse_timbuk("Ops a:0\nAutomaton A\nStates q0\nFinal States q0\n"
                       "Transitions\na -> q0\n")
    text = to_dot(aut)
    validate_dot(text)
    assert text.count("shape=record") == 1
    assert '-> "q0" [label="a"]' in text


def test_dot_sample_structure(sample_automaton):
    text = to_dot(sample_automaton)
    validate_dot(text)
    assert '"q3" [shape=doublecircle];' in text
    assert '"q1" [shape=circle];' in text
    # the binary super-state has two position edges and two labelled exits
    assert '[label="1"]' in text and '[label="2"]' in text


def test_dot_random_outputs_parse():
    for seed in range(6):
        rng = random.Random(7000 + seed)
        alphabet = random_alphabet(rng)
        aut = random_automaton(rng, alphabet, Manager(alphabet.width))
        validate_dot(to_dot(aut))
