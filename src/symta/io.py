"""Timbuk-family text import/export, transition extraction, DOT rendering.

Grammar (tokens separated by whitespace; ``%`` starts a comment running to
the end of the line; LF and CRLF are both accepted, LF is emitted)::

    Ops <name>:<arity> ...
    Automaton <name>            (or: Transducer <name>)
    States <name>[:<n>] ...     (the :<n> suffix is accepted and ignored)
    Final States <name> ...
    Transitions
    f(q1,...,qn) -> q           (automaton rule; nullary: "a" or "a()")
    f(q1,...,qn) / g -> q       (transducer rule)

Several lines with one left-hand side accumulate their targets, so the
order of rule lines never matters.  The writer is canonical: symbols in
registration order, states in id order, one line per single target.

Automata and transducers share one codec.  A rule carries one symbol per
bank of its machine (``StateMachine.banks``): the automaton's symbol on
bank 0, or the transducer's input and output symbols on banks 0 and 1.
Building, extraction and writing read that layout, so each has a single
routine for both kinds: ``build_transducer`` and ``build_automaton`` only
name the class, and ``extract_rules`` and ``write_timbuk_transducer`` are
aliases of ``extract_transitions`` and ``write_timbuk``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .alphabet import Alphabet
from .automaton import StateMachine, TreeAutomaton
from .mtbdd import Cube, LEAF_LEVEL, Manager, Ref
from .transducer import Transducer


class TimbukParseError(ValueError):
    """Syntax or semantic error in a document, with a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# -- tokenizing ----------------------------------------------------------------

#: the last branch catches the lone ``-`` and ``>`` no other branch takes
_TOKEN = re.compile(r"->|[():,/]|[^\s():,/%>\-]+|\S")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        found = _TOKEN.findall(line.split("%", 1)[0])
        if "-" in found or ">" in found:
            bad = next(tok for tok in found if tok in ("-", ">"))
            raise TimbukParseError(f"bad character {bad!r}", lineno)
        tokens.extend([(tok, lineno) for tok in found])
    return tokens


# -- documents -------------------------------------------------------------------

@dataclass
class TimbukRule:
    line: int
    symbol: str
    sources: tuple[str, ...]
    target: str
    out_symbol: str | None = None  # set for transducer rules

    @property
    def symbols(self) -> tuple[str, ...]:
        """The rule's symbols, one per bank of its machine."""
        if self.out_symbol is None:
            return (self.symbol,)
        return (self.symbol, self.out_symbol)


@dataclass
class TimbukDocument:
    kind: str                      # "automaton" | "transducer"
    name: str
    line: int                      # line of the kind keyword
    ops: list[tuple[str, int, int]] = field(default_factory=list)  # name, arity, line
    states: list[tuple[str, int]] = field(default_factory=list)    # name, line
    finals: list[tuple[str, int]] = field(default_factory=list)
    rules: list[TimbukRule] = field(default_factory=list)


class _TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    @property
    def line(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return self.tokens[-1][1] if self.tokens else 1

    def next(self, expect: str | None = None) -> str:
        if self.pos >= len(self.tokens):
            raise TimbukParseError(
                f"unexpected end of input (expected {expect or 'a token'})", self.line)
        tok, line = self.tokens[self.pos]
        if expect is not None and tok != expect:
            raise TimbukParseError(f"expected {expect!r}, found {tok!r}", line)
        self.pos += 1
        return tok

    def next_name(self, what: str) -> str:
        tok = self.next(None)
        if tok in ("(", ")", ",", ":", "/", "->"):
            raise TimbukParseError(
                f"expected {what}, found {tok!r}", self.tokens[self.pos - 1][1])
        return tok


def parse_timbuk_document(text: str) -> TimbukDocument:
    """Parse the textual structure; no symbol or state resolution yet."""
    ts = _TokenStream(_tokenize(text))
    ts.next("Ops")
    ops: list[tuple[str, int, int]] = []
    while ts.peek() not in ("Automaton", "Transducer", None):
        line = ts.line
        name = ts.next_name("a symbol declaration")
        ts.next(":")
        arity_tok = ts.next()
        if not arity_tok.isdigit():
            raise TimbukParseError(f"arity must be a number, found {arity_tok!r}", line)
        ops.append((name, int(arity_tok), line))
    # the loop above stops at a kind keyword or at the end, where next raises
    line = ts.line
    kind_tok = ts.next()
    doc = TimbukDocument(kind=kind_tok.lower(), name=ts.next_name("a name"),
                         line=line, ops=ops)
    ts.next("States")
    while ts.peek() not in ("Final", None):
        line = ts.line
        doc.states.append((ts.next_name("a state"), line))
        if ts.peek() == ":":
            ts.next(":")
            ts.next()  # optional arity annotation, ignored
    ts.next("Final")
    ts.next("States")
    while ts.peek() not in ("Transitions", None):
        line = ts.line
        doc.finals.append((ts.next_name("a final state"), line))
    ts.next("Transitions")
    while ts.peek() is not None:
        doc.rules.append(_parse_rule(ts, doc.kind == "transducer"))
    return doc


def _parse_rule(ts: _TokenStream, transducer: bool) -> TimbukRule:
    line = ts.line
    symbol = ts.next_name("a symbol")
    sources: list[str] = []
    if ts.peek() == "(":
        ts.next("(")
        if ts.peek() == ")":
            ts.next(")")
        else:
            while True:
                sources.append(ts.next_name("a state"))
                if ts.peek() == ",":
                    ts.next(",")
                    continue
                ts.next(")")
                break
    out_symbol = None
    if transducer:
        ts.next("/")
        out_symbol = ts.next_name("an output symbol")
    elif ts.peek() == "/":
        raise TimbukParseError("'/' rule in an Automaton document", ts.line)
    ts.next("->")
    target = ts.next_name("a target state")
    return TimbukRule(line, symbol, tuple(sources), target, out_symbol)


# -- building --------------------------------------------------------------------

def alphabet_from_documents(*docs: TimbukDocument) -> Alphabet:
    """One frozen alphabet covering every declaration, in document order."""
    alphabet = Alphabet()
    seen = set()
    for doc in docs:
        for name, arity, line in doc.ops:
            if (name, arity) in seen:
                continue
            seen.add((name, arity))
            try:
                alphabet.add_symbol(name, arity)
            except ValueError as exc:
                raise TimbukParseError(str(exc), line) from exc
    return alphabet.freeze()


def _declare_states(machine, doc: TimbukDocument):
    for name, line in doc.states:
        try:
            machine.add_state(name)
        except ValueError as exc:
            raise TimbukParseError(str(exc), line) from exc
    for name, line in doc.finals:
        try:
            machine.set_final(name)
        except KeyError as exc:
            raise TimbukParseError(f"undeclared final state {name!r}", line) from exc


def _build(cls, doc: TimbukDocument, alphabet: Alphabet,
           manager: Manager | None):
    if doc.kind != cls.kind:
        raise TimbukParseError(
            f"expected {cls.kind.capitalize()} in the header, found"
            f" {doc.kind.capitalize()}", doc.line)
    machine = cls(alphabet, manager, name=doc.name)
    _declare_states(machine, doc)
    ids = machine._id_of
    # source ids -> one symbol per bank -> target ids
    grouped: dict[tuple[int, ...], dict[tuple[str, ...], set[int]]] = {}
    for rule in doc.rules:
        arity = len(rule.sources)
        symbols = rule.symbols
        for name in symbols:
            if alphabet.get(name, arity) is None:
                raise TimbukParseError(
                    f"no declaration of symbol {name!r} with arity {arity}", rule.line)
        for state in rule.sources + (rule.target,):
            if state not in ids:
                raise TimbukParseError(f"undeclared state {state!r}", rule.line)
        by_symbols = grouped.setdefault(tuple(ids[q] for q in rule.sources), {})
        by_symbols.setdefault(symbols, set()).add(ids[rule.target])
    m = machine.manager
    for source, by_symbols in grouped.items():
        entries = [(machine._encode(symbols, len(source)), m.leaf(targets))
                   for symbols, targets in by_symbols.items()]
        machine.index.set(source, m.from_cubes(entries, machine.banks), m.bottom)
    return machine


def build_automaton(doc: TimbukDocument, alphabet: Alphabet,
                    manager: Manager | None = None) -> TreeAutomaton:
    return _build(TreeAutomaton, doc, alphabet, manager)


def build_transducer(doc: TimbukDocument, alphabet: Alphabet,
                     manager: Manager | None = None) -> Transducer:
    return _build(Transducer, doc, alphabet, manager)


def _parse(cls, text: str, alphabet: Alphabet | None, manager: Manager | None):
    doc = parse_timbuk_document(text)
    if alphabet is None:
        alphabet = alphabet_from_documents(doc)
    return _build(cls, doc, alphabet, manager)


def parse_timbuk(text: str, alphabet: Alphabet | None = None,
                 manager: Manager | None = None) -> TreeAutomaton:
    return _parse(TreeAutomaton, text, alphabet, manager)


def parse_timbuk_transducer(text: str, alphabet: Alphabet | None = None,
                            manager: Manager | None = None) -> Transducer:
    return _parse(Transducer, text, alphabet, manager)


# -- extraction -------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionCube:
    """One extracted entry: a symbol cube, a source tuple, a target set."""

    cube: Cube
    source: tuple[int, ...]
    targets: frozenset


def _split_cubes(root: Ref, variables: list[int]):
    """Cube splitting with test symbols: start all don't-care, bind a
    variable only when the two bindings disagree, 0 before 1.  An explicit
    stack walks the diagram, each entry jumping straight to its node's
    variable and padding the variables skipped on the way with X."""
    depth_of = {var: depth for depth, var in enumerate(variables)}
    stack = [(root, ())]
    while stack:
        ref, prefix = stack.pop()
        if ref.var == LEAF_LEVEL:
            if ref.value:
                yield prefix + (None,) * (len(variables) - len(prefix)), ref.value
            continue
        depth = depth_of.get(ref.var)
        if depth is None:
            raise ValueError("diagram uses variables outside the given banks")
        prefix += (None,) * (depth - len(prefix))
        stack.append((ref.high, prefix + (1,)))
        stack.append((ref.low, prefix + (0,)))


def extract_transitions(machine: StateMachine) -> list[TransitionCube]:
    """Explicit view of the whole transition function as disjoint cubes.

    A cube interleaves the machine's banks bit by bit: for a transducer,
    input and output bits alternate.  Per super-state the cubes are
    pairwise disjoint and jointly cover exactly the assignments with a
    non-bottom value.
    """
    m = machine.manager
    variables = [m.var_index(bit, bank)
                 for bit in range(m.width) for bank in machine.banks]
    out = []
    for sp, root in machine.index.items():
        for cube, value in _split_cubes(root, variables):
            out.append(TransitionCube(cube, sp, value))
    return out


extract_rules = extract_transitions


# -- writing ---------------------------------------------------------------------

def _section(keyword: str, entries) -> str:
    body = " ".join(entries)
    return f"{keyword} {body}" if body else keyword


def _render_lhs(name: str, sources) -> str:
    if not sources:
        return name
    return f"{name}({','.join(sources)})"


def write_timbuk(machine: StateMachine) -> str:
    """Canonical document; parsing it back gives an isomorphic machine."""
    lines = [
        _section("Ops", (f"{s.name}:{s.arity}" for s in machine.alphabet.symbols)),
        "",
        f"{machine.kind.capitalize()} {machine.name}",
        _section("States", machine.state_names),
        _section("Final States", machine.final_names()),
        "Transitions",
    ]
    order = {sym: i for i, sym in enumerate(machine.alphabet.symbols)}
    labels: dict = {}  # (cube, arity) -> labels; cubes recur across super-states
    entries = []
    for tc in extract_transitions(machine):
        arity = len(tc.source)
        covered = labels.get((tc.cube, arity))
        if covered is None:
            covered = labels[tc.cube, arity] = machine._labels(tc.cube, arity, order)
        targets = sorted(tc.targets)
        for key, name, suffix in covered:
            for target in targets:
                entries.append((arity, tc.source, key, target, name, suffix))
    entries.sort()
    for arity, source, _, target, name, suffix in entries:
        sources = [machine.state_name(q) for q in source]
        lines.append(f"{_render_lhs(name, sources)}{suffix}"
                     f" -> {machine.state_name(target)}")
    return "\n".join(lines) + "\n"


write_timbuk_transducer = write_timbuk


# -- DOT -----------------------------------------------------------------------

def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(aut: TreeAutomaton) -> str:
    """Bipartite rendering: circles for states (double for finals),
    record-shaped rectangles with one box per position for super-states;
    edges into a super-state carry the 1-based position, edges out of it
    the symbol names of the cube being taken."""
    lines = ["digraph automaton {", "  rankdir=LR;"]
    for sid in aut.states:
        shape = "doublecircle" if sid in aut.finals else "circle"
        lines.append(f"  {_quote(aut.state_name(sid))} [shape={shape}];")
    cubes_by_sp: dict[tuple[int, ...], list[TransitionCube]] = {}
    for tc in extract_transitions(aut):
        cubes_by_sp.setdefault(tc.source, []).append(tc)
    for k, (sp, _) in enumerate(aut.index.items()):
        node = f"sp{k}"
        boxes = "|".join(f"<p{i}>" for i in range(len(sp))) if sp else ""
        lines.append(f"  {node} [shape=record, label={_quote(boxes)}];")
        for i, q in enumerate(sp):
            lines.append(
                f"  {_quote(aut.state_name(q))} -> {node} [label=\"{i + 1}\"];")
        for tc in cubes_by_sp.get(sp, ()):
            symbols = aut.alphabet.decode_cube(tc.cube, len(sp))
            label = ",".join(s.name for s in symbols)
            for target in sorted(tc.targets):
                lines.append(f"  {node} -> {_quote(aut.state_name(target))}"
                             f" [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
