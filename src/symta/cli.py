"""Command-line front end over .tmb / .tmbt files.

Answers go to stdout, diagnostics to stderr; the exit code is the only
success/failure channel.  Codes: 0 ok / yes / empty, 1 no / nonempty,
2 usage, 3 I/O error, 4 format error, 5 internal invariant breach (this
includes a failed --check-oracle cross-validation).

The verbs that write a result file are rows of :data:`TRANSFORMS`, one
table keyed by verb name; a single handler loads, runs, checks and
writes for all of them.
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


def _load(args, *builders):
    """Build each input file named in ``args`` with its builder over one
    alphabet and one manager; the manager has the transducer banks if a
    transducer is among them."""
    paths = [args.input] if len(builders) == 1 else [args.input0, args.input1]
    docs = [tio.parse_timbuk_document(_read(p)) for p in paths]
    alphabet = tio.alphabet_from_documents(*docs)
    banks = 3 if any(doc.kind == "transducer" for doc in docs) else 1
    manager = Manager(alphabet.width, banks=banks)
    return [build(doc, alphabet, manager) for build, doc in zip(builders, docs)]


def _lang(aut) -> set:
    return oracle.language_upto(oracle.to_explicit(aut), ORACLE_HEIGHT)


def _universe(aut) -> set:
    return set(oracle.all_terms_upto(aut.alphabet, ORACLE_HEIGHT))


def _image(tr, aut) -> set:
    return oracle.transducer_image(oracle.explicit_transducer_rules(tr),
                                   frozenset(tr.final_names()),
                                   oracle.to_explicit(aut), ORACLE_HEIGHT)


def _check_language(result, expected: set):
    """--check-oracle support: compare the result's language at height 3
    against a set computed purely explicitly from the inputs."""
    actual = _lang(result)
    if actual != expected:
        raise InternalCheckError(
            f"oracle cross-check failed: {len(actual)} accepted terms,"
            f" expected {len(expected)}")


_AUT, _TR = tio.build_automaton, tio.build_transducer

#: The result-writing verbs: verb -> (a builder per input file, the
#: operation over the built inputs, the language its result must have at
#: height 3 computed from the same inputs, or None for no --check-oracle).
TRANSFORMS = {
    "union": ((_AUT, _AUT), ops.union, lambda a, b: _lang(a) | _lang(b)),
    "intersect": ((_AUT, _AUT), ops.intersection,
                  lambda a, b: _lang(a) & _lang(b)),
    "determinise": ((_AUT,), ops.determinise, _lang),
    "complement": ((_AUT,), ops.complement, lambda a: _universe(a) - _lang(a)),
    "prune": ((_AUT,), ops.prune_unreachable, _lang),
    "minimise": ((_AUT,), ops.minimise, _lang),
    "reduce-sim": ((_AUT,), ops.reduce_by_simulation, _lang),
    "apply-trans": ((_TR, _AUT), apply_step, _image),
    "compose": ((_TR, _TR), compose, None),
}


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

    def add_transforms(over_transducers: bool):
        for verb, (builders, _, expected) in TRANSFORMS.items():
            if (_TR in builders) == over_transducers:
                add(verb, _cmd_transform, inputs=len(builders),
                    check=expected is not None)

    # `symta -h` lists the answering verbs between the automaton and the
    # transducer transforms.
    add_transforms(False)
    add("is-empty", _cmd_is_empty, output=False)
    add("incl", _cmd_incl, inputs=2, output=False,
        extra=lambda p: p.add_argument("--method", default="antichain",
                                       choices=("antichain", "classical")))
    add("member", _cmd_member, output=False,
        extra=lambda p: p.add_argument("-t", "--term", required=True))
    add_transforms(True)
    add("dot", _cmd_dot)
    add("stats", _cmd_stats, output=False)
    return parser


def _cmd_transform(args):
    builders, operation, expected = TRANSFORMS[args.verb]
    inputs = _load(args, *builders)
    result = operation(*inputs)
    if getattr(args, "check_oracle", False):
        _check_language(result, expected(*inputs))
    _emit(tio.write_timbuk(result), args.output)
    return 0


def _answer(holds: bool, yes: str, no: str) -> int:
    print(yes if holds else no)
    return 0 if holds else 1


def _cmd_is_empty(args):
    (a,) = _load(args, _AUT)
    return _answer(ops.is_empty(a), "empty", "nonempty")


def _cmd_incl(args):
    a1, a2 = _load(args, _AUT, _AUT)
    if args.method == "antichain":
        holds = ops.check_inclusion_antichain(a1, a2)
    else:
        holds = ops.check_inclusion_classical(a1, a2)
    return _answer(holds, "yes", "no")


def _cmd_member(args):
    (a,) = _load(args, _AUT)
    return _answer(a.accepts(parse_term(args.term)), "yes", "no")


def _cmd_dot(args):
    (a,) = _load(args, _AUT)
    _emit(tio.to_dot(a), args.output)
    return 0


def _cmd_stats(args):
    (a,) = _load(args, _AUT)
    info = a.stats()
    print(f"states {info['states']}")
    print(f"finals {info['finals']}")
    for arity in sorted(info["super_states"]):
        print(f"arity {arity} super-states {info['super_states'][arity]}")
    print(f"mtbdd-nodes {info['mtbdd_nodes']}")
    return 0


if __name__ == "__main__":
    run()
