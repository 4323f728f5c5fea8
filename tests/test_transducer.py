import random

import pytest

from symta import Alphabet, Manager, TreeAutomaton
from symta.io import extract_rules, extract_transitions, write_timbuk
from symta.mtbdd import cube_from_text, cube_to_text
from symta.ops import _product
from symta.oracle import (
    all_terms_upto,
    chain_rules,
    explicit_transducer_rules,
    language_upto,
    random_alphabet,
    random_automaton,
    random_transducer,
    to_explicit,
    transducer_image,
)
from symta.transducer import (
    Transducer,
    apply_step,
    compose,
    identity_transducer,
    transducer_manager,
)

from conftest import reference_chain, reference_relabel


def four_letter_alphabet():
    """Four nullary names, two-bit codes: p=00, q=01, r=10, s=11."""
    alphabet = Alphabet()
    for name in "pqrs":
        alphabet.add_symbol(name, 0)
    return alphabet.freeze()


def relabel_pair():
    """The two-rule transducer used for the worked single-pair examples:
    inputs 0X relabel to 1X reaching u3, input 10 relabels to 01 reaching u7."""
    alphabet = four_letter_alphabet()
    manager = transducer_manager(alphabet)
    tr = Transducer(alphabet, manager)
    tr.add_state("u3")
    tr.add_state("u7")
    tr.set_final("u3")
    tr.set_final("u7")
    tr.insert_rule_cube(cube_from_text("0X"), (), cube_from_text("1X"), ["u3"])
    tr.insert_rule_cube(cube_from_text("10"), (), cube_from_text("01"), ["u7"])
    return tr


def random_setup(seed, with_second=False):
    rng = random.Random(seed)
    alphabet = random_alphabet(rng)
    manager = transducer_manager(alphabet)
    aut = random_automaton(rng, alphabet, manager)
    t1 = random_transducer(rng, alphabet, manager)
    if with_second:
        return aut, t1, random_transducer(rng, alphabet, manager)
    return aut, t1


def image_lang(aut, height=3):
    return language_upto(to_explicit(aut), height)


# -- rule storage ------------------------------------------------------------------

def test_identity_rule_round_trips():
    alphabet = four_letter_alphabet()
    tr = Transducer(alphabet)
    tr.add_state("q")
    tr.insert_rule("p", (), "p", ["q"])
    assert tr.get_rule("p", (), "p") == frozenset({"q"})
    assert tr.get_rule("p", (), "q") == frozenset()


def test_two_cube_rules_share_one_root():
    tr = relabel_pair()
    cubes = {cube_to_text(tc.cube) for tc in extract_rules(tr)}
    assert cubes == {"01XX", "1001"}  # interleaved input/output positions
    assert len(tr.super_states(0)) == 1


def test_rule_arity_mismatch_rejected():
    alphabet = Alphabet()
    alphabet.add_symbol("f", 1)
    alphabet.add_symbol("g", 2)
    alphabet.freeze()
    tr = Transducer(alphabet)
    tr.add_state("q")
    with pytest.raises((ValueError, KeyError)):
        tr.insert_rule("f", ("q",), "g", ["q"])


def test_cube_rule_equals_exploded_symbol_rules():
    alphabet = four_letter_alphabet()
    manager = transducer_manager(alphabet)
    bulk = Transducer(alphabet, manager)
    bulk.add_state("u")
    bulk.insert_rule_cube(cube_from_text("0X"), (), cube_from_text("1X"), ["u"])
    exploded = Transducer(alphabet, manager)
    exploded.add_state("u2")
    for f in ("p", "q"):
        for g in ("r", "s"):
            exploded.insert_rule(f, (), g, ["u2"])
    # canonical diagrams differ only in the leaf, so cube sets must agree
    assert {cube_to_text(tc.cube) for tc in extract_rules(bulk)} == \
        {cube_to_text(tc.cube) for tc in extract_rules(exploded)}


# -- transduction step -----------------------------------------------------------------

def test_single_pair_step_relabels_cubes():
    tr = relabel_pair()
    alphabet = tr.alphabet
    aut = TreeAutomaton(alphabet, tr.manager)
    aut.add_state("A0")
    aut.add_state("B0")
    aut.insert_transition("q", (), ["A0"])  # code 01
    aut.insert_transition("r", (), ["B0"])  # code 10
    image = apply_step(tr, aut)
    got = {cube_to_text(tc.cube): tc.targets for tc in extract_transitions(image)}
    assert set(got) == {"1X", "01"}
    # 01 -> A0 meets 0X/1X -> u3; 10 -> B0 meets 10/01 -> u7
    a_pair = image.state_id("s0")
    b_pair = image.state_id("s1")
    assert got["1X"] == frozenset({a_pair})
    assert got["01"] == frozenset({b_pair})


def test_identity_transducer_preserves_language():
    for seed in range(12):
        rng = random.Random(seed)
        alphabet = random_alphabet(rng)
        manager = transducer_manager(alphabet)
        aut = random_automaton(rng, alphabet, manager)
        image = apply_step(identity_transducer(alphabet, manager), aut)
        assert image_lang(image) == image_lang(aut), seed


def test_step_matches_relational_oracle():
    for seed in range(20):
        aut, tr = random_setup(seed)
        image = apply_step(tr, aut)
        expected = transducer_image(explicit_transducer_rules(tr),
                                    frozenset(tr.final_names()),
                                    to_explicit(aut), 3)
        assert image_lang(image) == expected, seed


def test_step_on_empty_language_yields_empty_language():
    alphabet = four_letter_alphabet()
    manager = transducer_manager(alphabet)
    empty = TreeAutomaton(alphabet, manager)
    image = apply_step(identity_transducer(alphabet, manager), empty)
    assert image_lang(image) == set()


def test_images_preserve_shapes():
    def shape(t):
        return ("*", tuple(shape(c) for c in t[1]))

    for seed in range(10):
        aut, tr = random_setup(100 + seed)
        in_shapes = {shape(t) for t in image_lang(aut)}
        out_shapes = {shape(t) for t in image_lang(apply_step(tr, aut))}
        assert out_shapes <= in_shapes, seed


# -- composition -----------------------------------------------------------------------

def test_self_composition_worked_example():
    tr = relabel_pair()
    composed = compose(tr, tr)
    rules = {}
    for tc in extract_rules(composed):
        inp, out = composed.alphabet.split_pair_cube(tc.cube)
        rules[cube_to_text(inp)] = (cube_to_text(out), tc.targets)
    # chaining: 0X feeds 1X into the second copy's 10 rule, and vice versa
    assert set(rules) == {"0X", "10"}
    out1, targets1 = rules["0X"]
    out2, targets2 = rules["10"]
    assert out1 == "01" and out2 == "1X"
    assert targets1 == frozenset({composed.state_id("s0")})
    assert targets2 == frozenset({composed.state_id("s1")})


def test_compose_with_identity_behaves_like_original():
    for seed in range(8):
        aut, tr = random_setup(200 + seed)
        ident = identity_transducer(tr.alphabet, tr.manager)
        left = apply_step(compose(ident, tr), aut)
        right = apply_step(tr, aut)
        assert image_lang(left) == image_lang(right), seed


def test_compose_matches_sequential_application():
    for seed in range(20):
        aut, t1, t2 = random_setup(300 + seed, with_second=True)
        composed = apply_step(compose(t1, t2), aut)
        sequential = apply_step(t2, apply_step(t1, aut))
        assert image_lang(composed) == image_lang(sequential), seed


def _reachable_rules(rules):
    """Chained rules restricted to sources built from reachable states; the
    symbolic composition only ever materialises those."""
    reachable = set()
    changed = True
    while changed:
        changed = False
        for _, src, _, tgt in rules:
            if tgt not in reachable and all(s in reachable for s in src):
                reachable.add(tgt)
                changed = True
    return {(f, src, g, tgt) for f, src, g, tgt in rules
            if all(s in reachable for s in src)}


def test_compose_matches_explicit_rule_chaining():
    for seed in range(12):
        _, t1, t2 = random_setup(400 + seed, with_second=True)
        composed = compose(t1, t2)

        def pair_name(sid):
            qa, qb = composed.origins[sid]
            return f"{t1.state_name(qa)}|{t2.state_name(qb)}"

        got = {(f, tuple(pair_name(composed.state_id(s)) for s in src), g,
                pair_name(composed.state_id(tgt)))
               for f, src, g, tgt in explicit_transducer_rules(composed)}
        chained = chain_rules(explicit_transducer_rules(t1),
                              explicit_transducer_rules(t2))
        assert got == _reachable_rules(chained), seed


def test_compose_associativity_through_images():
    for seed in range(6):
        rng = random.Random(500 + seed)
        alphabet = random_alphabet(rng)
        manager = transducer_manager(alphabet)
        aut = random_automaton(rng, alphabet, manager)
        t1, t2, t3 = (random_transducer(rng, alphabet, manager) for _ in range(3))
        left = apply_step(compose(compose(t1, t2), t3), aut)
        right = apply_step(compose(t1, compose(t2, t3)), aut)
        assert image_lang(left) == image_lang(right), seed


def test_written_results_equal_the_apply_trim_rename_chain():
    """The fused product leaves the functor calls, hence the s0..sk names,
    and the written documents as the unfused chain had them."""
    for seed in range(200):
        aut, t1, t2 = random_setup(600 + seed, with_second=True)
        m = aut.manager
        image = _product(aut, t1, TreeAutomaton(aut.alphabet, m, name="image"),
                         lambda ra, rt, meet: reference_relabel(m, ra, rt, meet))
        assert write_timbuk(apply_step(t1, aut)) == write_timbuk(image), seed
        chained = _product(t1, t2, Transducer(t1.alphabet, m, name="compose"),
                           lambda r1, r2, meet: reference_chain(m, r1, r2, meet))
        assert write_timbuk(compose(t1, t2)) == write_timbuk(chained), seed


# -- guardrails ------------------------------------------------------------------------

def test_transducer_requires_three_banks():
    alphabet = four_letter_alphabet()
    with pytest.raises(ValueError):
        Transducer(alphabet, Manager(alphabet.width, banks=2))


def test_apply_step_requires_shared_manager():
    alphabet = four_letter_alphabet()
    tr = Transducer(alphabet)
    aut = TreeAutomaton(alphabet, Manager(alphabet.width, banks=3))
    with pytest.raises(ValueError):
        apply_step(tr, aut)
