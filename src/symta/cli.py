"""Command-line front end over .tmb / .tmbt files.

Answers go to stdout, diagnostics to stderr; the exit code is the only
success/failure channel.  Codes: 0 ok / yes / empty, 1 no / nonempty,
2 usage, 3 I/O error, 4 format error, 5 internal invariant breach (this
includes a failed --check-oracle cross-validation).
"""

from __future__ import annotations

import argparse
import sys

from . import io as tio
from . import ops, oracle
from .mtbdd import Manager
from .terms import parse_term
from .transducer import apply_step, compose

ORACLE_HEIGHT = 3


class InternalCheckError(Exception):
    pass


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load(paths: list[str], builders: list):
    """Build each file with its builder over one alphabet and one manager;
    the manager has the transducer banks if a transducer is among them."""
    docs = [tio.parse_timbuk_document(_read(p)) for p in paths]
    alphabet = tio.alphabet_from_documents(*docs)
    banks = 3 if any(doc.kind == "transducer" for doc in docs) else 1
    manager = Manager(alphabet.width, banks=banks)
    return [build(doc, alphabet, manager) for build, doc in zip(builders, docs)]


def _check_language(result, inputs, expected_of):
    """--check-oracle support: compare the result's language at height 3
    against a set computed purely explicitly from the inputs."""
    explicit_inputs = [oracle.to_explicit(a) for a in inputs]
    expected = expected_of(explicit_inputs)
    actual = oracle.language_upto(oracle.to_explicit(result), ORACLE_HEIGHT)
    if actual != expected:
        raise InternalCheckError(
            f"oracle cross-check failed: {len(actual)} accepted terms,"
            f" expected {len(expected)}")


def _write_result(aut, args, inputs=None, expected_of=None):
    if getattr(args, "check_oracle", False) and expected_of is not None:
        _check_language(aut, inputs, expected_of)
    _emit(tio.write_timbuk(aut), args.output)
    return 0


def _lang(x):
    return oracle.language_upto(x, ORACLE_HEIGHT)


def _universe(x):
    return set(oracle.all_terms_upto(x.alphabet, ORACLE_HEIGHT))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except tio.TimbukParseError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        # bad terms, unknown symbols or states in user-supplied data
        print(f"format error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # invariant breach inside the library
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


def run():
    sys.exit(main())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symta",
        description="Operations on tree automata with MTBDD transition functions.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(verb, handler, *, inputs=1, output=True, check=False, extra=None):
        p = sub.add_parser(verb)
        for i in range(inputs):
            p.add_argument(f"input{i}" if inputs > 1 else "input")
        if output:
            p.add_argument("-o", "--output", default=None,
                           help="output file (default: stdout)")
        if check:
            p.add_argument("--check-oracle", action="store_true",
                           help="cross-validate the result language at height 3")
        if extra:
            extra(p)
        p.set_defaults(handler=handler)
        return p

    add("union", _cmd_union, inputs=2, check=True)
    add("intersect", _cmd_intersect, inputs=2, check=True)
    add("determinise", _cmd_determinise, check=True)
    add("complement", _cmd_complement, check=True)
    add("prune", _cmd_prune, check=True)
    add("minimise", _cmd_minimise, check=True)
    add("reduce-sim", _cmd_reduce_sim, check=True)
    add("is-empty", _cmd_is_empty, output=False)
    add("incl", _cmd_incl, inputs=2, output=False,
        extra=lambda p: p.add_argument("--method", default="antichain",
                                       choices=("antichain", "classical")))
    add("member", _cmd_member, output=False,
        extra=lambda p: p.add_argument("-t", "--term", required=True))
    add("apply-trans", _cmd_apply_trans, inputs=2, check=True)
    add("compose", _cmd_compose, inputs=2)
    add("dot", _cmd_dot)
    add("stats", _cmd_stats, output=False)
    return parser


def _cmd_union(args):
    a1, a2 = _load([args.input0, args.input1], [tio.build_automaton] * 2)
    return _write_result(ops.union(a1, a2), args, [a1, a2],
                         lambda xs: _lang(xs[0]) | _lang(xs[1]))


def _cmd_intersect(args):
    a1, a2 = _load([args.input0, args.input1], [tio.build_automaton] * 2)
    return _write_result(ops.intersection(a1, a2), args, [a1, a2],
                         lambda xs: _lang(xs[0]) & _lang(xs[1]))


def _cmd_determinise(args):
    (a,) = _load([args.input], [tio.build_automaton])
    return _write_result(ops.determinise(a), args, [a], lambda xs: _lang(xs[0]))


def _cmd_complement(args):
    (a,) = _load([args.input], [tio.build_automaton])
    return _write_result(ops.complement(a), args, [a],
                         lambda xs: _universe(xs[0]) - _lang(xs[0]))


def _cmd_prune(args):
    (a,) = _load([args.input], [tio.build_automaton])
    return _write_result(ops.prune_unreachable(a), args, [a],
                         lambda xs: _lang(xs[0]))


def _cmd_minimise(args):
    (a,) = _load([args.input], [tio.build_automaton])
    return _write_result(ops.minimise(a), args, [a], lambda xs: _lang(xs[0]))


def _cmd_reduce_sim(args):
    (a,) = _load([args.input], [tio.build_automaton])
    return _write_result(ops.reduce_by_simulation(a), args, [a],
                         lambda xs: _lang(xs[0]))


def _cmd_is_empty(args):
    (a,) = _load([args.input], [tio.build_automaton])
    if ops.is_empty(a):
        print("empty")
        return 0
    print("nonempty")
    return 1


def _cmd_incl(args):
    a1, a2 = _load([args.input0, args.input1], [tio.build_automaton] * 2)
    if args.method == "antichain":
        holds = ops.check_inclusion_antichain(a1, a2)
    else:
        holds = ops.check_inclusion_classical(a1, a2)
    print("yes" if holds else "no")
    return 0 if holds else 1


def _cmd_member(args):
    (a,) = _load([args.input], [tio.build_automaton])
    accepted = a.accepts(parse_term(args.term))
    print("yes" if accepted else "no")
    return 0 if accepted else 1


def _cmd_apply_trans(args):
    tr, aut = _load([args.input0, args.input1],
                    [tio.build_transducer, tio.build_automaton])
    result = apply_step(tr, aut)
    if args.check_oracle:
        rules = oracle.explicit_transducer_rules(tr)
        finals = frozenset(tr.final_names())
        expected = oracle.transducer_image(rules, finals,
                                           oracle.to_explicit(aut), ORACLE_HEIGHT)
        actual = oracle.language_upto(oracle.to_explicit(result), ORACLE_HEIGHT)
        if actual != expected:
            raise InternalCheckError("oracle cross-check failed for apply-trans")
    _emit(tio.write_timbuk(result), args.output)
    return 0


def _cmd_compose(args):
    t1, t2 = _load([args.input0, args.input1], [tio.build_transducer] * 2)
    _emit(tio.write_timbuk(compose(t1, t2)), args.output)
    return 0


def _cmd_dot(args):
    (a,) = _load([args.input], [tio.build_automaton])
    _emit(tio.to_dot(a), args.output)
    return 0


def _cmd_stats(args):
    (a,) = _load([args.input], [tio.build_automaton])
    info = a.stats()
    print(f"states {info['states']}")
    print(f"finals {info['finals']}")
    for arity in sorted(info["super_states"]):
        print(f"arity {arity} super-states {info['super_states'][arity]}")
    print(f"mtbdd-nodes {info['mtbdd_nodes']}")
    return 0


if __name__ == "__main__":
    run()
