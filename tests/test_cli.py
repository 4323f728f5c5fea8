import random

import pytest

from symta.cli import main

from dot_check import validate_dot

LOOP = """\
Ops a:0 f:1
Automaton L
States q0 q1
Final States q1
Transitions
a -> q0
f(q0) -> q1
f(q1) -> q0
"""

SINGLE = """\
Ops a:0 f:1
Automaton S
States p
Final States p
Transitions
a -> p
"""

SAMPLE = """\
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
c(q3) -> q1
c(q3) -> q2
"""

SAMPLE_T = """\
Ops a:0 b:0 b:2 c:0 c:1 d:1
Transducer T
States q1 q2
Final States q2
Transitions
a / b -> q1
b / c -> q1
c(q1) / d -> q2
b(q1,q2) / b -> q2
d(q2) / c -> q2
"""

IDENTITY_T = """\
Ops a:0 f:1
Transducer I
States i
Final States i
Transitions
a / a -> i
f(i) / f -> i
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("loop.tmb", LOOP), ("single.tmb", SINGLE),
                       ("sample.tmb", SAMPLE), ("ident.tmbt", IDENTITY_T)]:
        path = tmp_path / name
        path.write_text(text)
        paths[name] = str(path)
    paths["dir"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_inclusion_in_self(files, capsys):
    code, out, _ = run(capsys, "incl", files["loop.tmb"], files["loop.tmb"])
    assert (code, out) == (0, "yes\n")


def test_inclusion_failure_and_method_flag(files, capsys):
    for method in ("antichain", "classical"):
        code, out, _ = run(capsys, "incl", files["loop.tmb"], files["single.tmb"],
                           "--method", method)
        assert (code, out) == (1, "no\n")


def test_member_two_step_chain(files, capsys):
    code, out, _ = run(capsys, "member", files["sample.tmb"], "-t", "d(c)")
    assert (code, out) == (0, "yes\n")
    code, out, _ = run(capsys, "member", files["sample.tmb"], "-t", "c")
    assert (code, out) == (1, "no\n")


@pytest.mark.parametrize("height, expected", [(10_000, (0, "yes\n")),
                                              (10_001, (1, "no\n"))])
def test_member_on_a_very_deep_term(files, capsys, height, expected):
    # LOOP accepts f^k(a) exactly for odd k; the term has k + 1 nodes.
    deep = "f(" * (height - 1) + "a" + ")" * (height - 1)
    code, out, _ = run(capsys, "member", files["loop.tmb"], "-t", deep)
    assert (code, out) == expected


def test_union_output_includes_operand(files, capsys, tmp_path):
    out_path = str(tmp_path / "u.tmb")
    code, _, _ = run(capsys, "union", files["loop.tmb"], files["single.tmb"],
                     "-o", out_path)
    assert code == 0
    code, out, _ = run(capsys, "incl", files["loop.tmb"], out_path)
    assert (code, out) == (0, "yes\n")


def test_is_empty_answers(files, capsys, tmp_path):
    code, out, _ = run(capsys, "is-empty", files["loop.tmb"])
    assert (code, out) == (1, "nonempty\n")
    dead = tmp_path / "dead.tmb"
    dead.write_text("Ops a:0\nAutomaton D\nStates q\nFinal States\n"
                    "Transitions\na -> q\n")
    code, out, _ = run(capsys, "is-empty", str(dead))
    assert (code, out) == (0, "empty\n")


def test_minimise_twice_is_byte_identical(files, capsys, tmp_path):
    first = tmp_path / "m1.tmb"
    second = tmp_path / "m2.tmb"
    assert run(capsys, "minimise", files["sample.tmb"], "-o", str(first))[0] == 0
    assert run(capsys, "minimise", str(first), "-o", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_transform_verbs_write_to_stdout(files, capsys):
    code, out, _ = run(capsys, "determinise", files["sample.tmb"])
    assert code == 0
    assert out.startswith("Ops a:0 b:0 b:2 c:0 c:1 d:1\n")
    assert "Automaton" in out


def test_check_oracle_passes_on_language_verbs(files, capsys):
    for verb, inputs in [("union", ["loop.tmb", "single.tmb"]),
                         ("intersect", ["loop.tmb", "single.tmb"]),
                         ("determinise", ["sample.tmb"]),
                         ("complement", ["loop.tmb"]),
                         ("prune", ["sample.tmb"]),
                         ("minimise", ["sample.tmb"]),
                         ("reduce-sim", ["sample.tmb"])]:
        argv = [verb] + [files[i] for i in inputs] + ["--check-oracle"]
        code, _, err = run(capsys, *argv)
        assert code == 0, (verb, err)


def test_apply_trans_and_compose(files, capsys, tmp_path):
    out_path = str(tmp_path / "img.tmb")
    code, _, _ = run(capsys, "apply-trans", files["ident.tmbt"],
                     files["loop.tmb"], "-o", out_path, "--check-oracle")
    assert code == 0
    code, out, _ = run(capsys, "incl", out_path, files["loop.tmb"])
    assert (code, out) == (0, "yes\n")

    comp_path = str(tmp_path / "ii.tmbt")
    code, _, _ = run(capsys, "compose", files["ident.tmbt"], files["ident.tmbt"],
                     "-o", comp_path)
    assert code == 0
    assert "Transducer" in open(comp_path).read()


def test_dot_verb_emits_valid_graph(files, capsys):
    code, out, _ = run(capsys, "dot", files["sample.tmb"])
    assert code == 0
    validate_dot(out)


def test_stats_verb(files, capsys):
    code, out, _ = run(capsys, "stats", files["sample.tmb"])
    assert code == 0
    lines = out.splitlines()
    assert "states 3" in lines
    assert "finals 1" in lines
    assert "arity 1 super-states 2" in lines
    assert any(line.startswith("mtbdd-nodes ") for line in lines)


def test_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "stats", "/nonexistent/path.tmb")
    assert code == 3
    assert "i/o error" in err


def test_bad_format_is_exit_4_with_line(files, capsys, tmp_path):
    bad = tmp_path / "bad.tmb"
    bad.write_text("Ops a:0\nAutomaton A\nStates q\nFinal States q\n"
                   "Transitions\nzzz -> q\n")
    code, _, err = run(capsys, "stats", str(bad))
    assert code == 4
    assert "line 6" in err


def test_member_with_undeclared_symbol_is_format_error(files, capsys):
    code, _, err = run(capsys, "member", files["sample.tmb"], "-t", "zz(a)")
    assert code == 4
    assert "format error" in err


def test_member_with_malformed_term_is_format_error(files, capsys):
    code, _, err = run(capsys, "member", files["sample.tmb"], "-t", "d(c")
    assert code == 4


def test_unknown_verb_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["frobnicate"])
    assert exit_info.value.code == 2


def test_transducer_where_automaton_expected(files, capsys):
    code, _, err = run(capsys, "stats", files["ident.tmbt"])
    assert code == 4


@pytest.mark.parametrize("argv", [["determinise", "ident.tmbt"],
                                  ["compose", "loop.tmb", "loop.tmb"],
                                  ["apply-trans", "loop.tmb", "loop.tmb"],
                                  ["apply-trans", "ident.tmbt", "ident.tmbt"]])
def test_document_of_the_wrong_kind_is_exit_4_with_a_line(files, capsys, argv):
    code, _, err = run(capsys, argv[0], *[files[name] for name in argv[1:]])
    assert code == 4
    assert "line" in err


def _mutant(rng, text):
    """The text with one to three random edits: a character deleted, inserted
    or replaced (from characters the format gives meaning to), or a line
    deleted, duplicated or swapped with another."""
    chars = "abcdq123():,->/ \n%"
    for _ in range(rng.randint(1, 3)):
        lines = text.split("\n")
        kind = rng.randrange(6)
        pos = rng.randrange(len(text) + 1)
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        if kind == 0:
            text = text[:pos] + text[pos + 1:]
        elif kind == 1:
            text = text[:pos] + rng.choice(chars) + text[pos:]
        elif kind == 2:
            text = text[:pos] + rng.choice(chars) + text[pos + 1:]
        elif kind == 3:
            text = "\n".join(lines[:i] + lines[i + 1:])
        elif kind == 4:
            text = "\n".join(lines[:i] + [lines[i]] + lines[i:])
        else:
            lines[i], lines[j] = lines[j], lines[i]
            text = "\n".join(lines)
    return text


def test_parser_mutants_exit_0_or_4_with_a_line(capsys, tmp_path):
    """Malformed input is a format error that names its line, never an
    internal error: 600 seeded mutants of SAMPLE through determinise."""
    rng = random.Random(1)
    path = tmp_path / "mutant.tmb"
    codes = {0: 0, 4: 0}
    for trial in range(600):
        text = _mutant(rng, SAMPLE)
        path.write_text(text)
        code, _, err = run(capsys, "determinise", str(path))
        assert code in codes, (trial, code, err, text)
        if code == 4:
            assert "line" in err, (trial, err, text)
        codes[code] += 1
    assert codes[0] and codes[4]


def test_transducer_parser_mutants_exit_0_or_4_with_a_line(files, capsys, tmp_path):
    """The same for transducer documents: 600 seeded mutants of SAMPLE_T,
    each composed with itself and applied to SAMPLE."""
    rng = random.Random(1)
    path = str(tmp_path / "mutant.tmbt")
    codes = {0: 0, 4: 0}
    for trial in range(600):
        text = _mutant(rng, SAMPLE_T)
        with open(path, "w") as handle:
            handle.write(text)
        for argv in (["compose", path, path],
                     ["apply-trans", path, files["sample.tmb"]]):
            code, _, err = run(capsys, *argv)
            assert code in codes, (trial, argv[0], code, err, text)
            if code == 4:
                assert "line" in err, (trial, argv[0], err, text)
            codes[code] += 1
    assert codes[0] and codes[4]
