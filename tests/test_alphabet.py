import random

import pytest

from symta.alphabet import Alphabet, Symbol
from symta.mtbdd import X, cube_covers, cube_from_text, cube_to_text


def test_name_major_codeword_assignment(mixed_alphabet):
    codes = {s: cube_to_text(mixed_alphabet.encode(s))
             for s in mixed_alphabet.symbols}
    assert codes[Symbol("a", 0)] == "00"
    assert codes[Symbol("b", 0)] == "01"
    assert codes[Symbol("b", 2)] == "01"  # arities share the name's codeword
    assert codes[Symbol("c", 0)] == "10"
    assert codes[Symbol("c", 1)] == "10"
    assert codes[Symbol("d", 1)] == "11"


def test_single_name_alphabet_has_width_zero():
    alphabet = Alphabet()
    alphabet.add_symbol("f", 2)
    alphabet.freeze()
    assert alphabet.width == 0
    assert alphabet.encode(Symbol("f", 2)) == ()


def test_five_names_need_three_bits():
    alphabet = Alphabet()
    for name in "abcde":
        alphabet.add_symbol(name, 0)
    assert alphabet.freeze().width == 3


def test_duplicate_symbol_rejected():
    alphabet = Alphabet()
    alphabet.add_symbol("f", 1)
    with pytest.raises(ValueError):
        alphabet.add_symbol("f", 1)
    alphabet.add_symbol("f", 2)  # same name, new arity is fine


def test_registration_after_freeze_rejected():
    alphabet = Alphabet()
    alphabet.add_symbol("f", 0)
    alphabet.freeze()
    with pytest.raises(ValueError):
        alphabet.add_symbol("g", 0)


def test_width_override_only_upward():
    alphabet = Alphabet()
    for name in "abc":
        alphabet.add_symbol(name, 0)
    with pytest.raises(ValueError):
        alphabet.freeze(width=1)


def test_width_override_leaves_spare_codes():
    alphabet = Alphabet()
    alphabet.add_symbol("a", 0)
    alphabet.freeze(width=4)
    assert alphabet.width == 4
    assert cube_to_text(alphabet.encode(Symbol("a", 0))) == "0000"


def test_encode_unknown_symbol_rejected(mixed_alphabet):
    with pytest.raises(KeyError):
        mixed_alphabet.encode(Symbol("z", 0))
    with pytest.raises(KeyError):
        mixed_alphabet.symbol("b", 1)


def test_decode_full_dont_care_lists_everything(mixed_alphabet):
    assert mixed_alphabet.decode_cube((X, X)) == list(mixed_alphabet.symbols)


def test_decode_with_arity_filter(mixed_alphabet):
    assert mixed_alphabet.decode_cube(cube_from_text("01"), arity=2) == \
        [Symbol("b", 2)]


def test_decode_half_cube(mixed_alphabet):
    assert mixed_alphabet.decode_cube(cube_from_text("1X")) == \
        [Symbol("c", 0), Symbol("c", 1), Symbol("d", 1)]


def test_decode_rejects_wrong_width(mixed_alphabet):
    with pytest.raises(ValueError):
        mixed_alphabet.decode_cube((0, 1, 0))


def test_decode_of_encode_returns_codeword_sharers(mixed_alphabet):
    for sym in mixed_alphabet.symbols:
        sharers = mixed_alphabet.decode_cube(mixed_alphabet.encode(sym))
        assert sym in sharers
        code = mixed_alphabet.encode(sym)
        assert all(mixed_alphabet.encode(other) == code for other in sharers)


def test_pair_encoding_interleaves(mixed_alphabet):
    b2 = mixed_alphabet.symbol("b", 2)
    assert mixed_alphabet.encode_pair(b2, b2) == (0, 0, 1, 1)


def test_identity_pairs_agree_positionwise(mixed_alphabet):
    for sym in mixed_alphabet.symbols:
        pair = mixed_alphabet.encode_pair(sym, sym)
        assert pair[0::2] == pair[1::2]
        # restricted to the input bank this is just the plain encoding
        assert pair[0::2] == mixed_alphabet.encode(sym)


def test_pair_cube_allows_dont_care_output(mixed_alphabet):
    cube = mixed_alphabet.pair_cube(cube_from_text("0X"), cube_from_text("1X"))
    assert cube == (0, 1, X, X)
    inp, out = mixed_alphabet.split_pair_cube(cube)
    assert cube_to_text(inp) == "0X" and cube_to_text(out) == "1X"


def test_pair_encoding_rejects_arity_mismatch(mixed_alphabet):
    with pytest.raises(ValueError):
        mixed_alphabet.encode_pair(mixed_alphabet.symbol("b", 2),
                                   mixed_alphabet.symbol("d", 1))


def test_total_cube_decodes_to_codeword_owners(mixed_alphabet):
    for code, names in [("00", {"a"}), ("01", {"b"}), ("10", {"c"}), ("11", {"d"})]:
        found = {s.name for s in mixed_alphabet.decode_cube(cube_from_text(code))}
        assert found == names


def test_decode_cube_matches_a_covering_scan():
    """Against a brute-force scan of every symbol: alphabets frozen wider
    than needed leave codes without symbols, and names carry several
    arities."""
    rng = random.Random(114)
    for trial in range(150):
        alphabet = Alphabet()
        names = rng.randint(1, 40)
        for i in range(names):
            for arity in rng.sample(range(4), rng.randint(1, 3)):
                alphabet.add_symbol(f"s{i}", arity)
        alphabet.freeze((names - 1).bit_length() + rng.randint(0, 3))
        for _ in range(20):
            dont_care = rng.choice((0.2, 0.5, 0.9))
            cube = tuple(X if rng.random() < dont_care else rng.randint(0, 1)
                         for _ in range(alphabet.width))
            for arity in (None, 0, 1, 2, 3):
                expected = [
                    s for s in alphabet.symbols
                    if (arity is None or s.arity == arity)
                    and cube_covers(cube, alphabet.encode(s))]
                assert alphabet.decode_cube(cube, arity) == expected, trial
