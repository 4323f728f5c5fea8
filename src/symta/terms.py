"""Ground terms as nested tuples: ``(symbol name, (child, ...))``.

The textual grammar is ``name`` or ``name(t,...,t)``, whitespace
insensitive; nullary symbols may be written with or without ``()``.
"""

from __future__ import annotations

#: Term = tuple[str, tuple[Term, ...]]
Term = tuple


def term(name: str, *children: Term) -> Term:
    return (name, tuple(children))


def term_height(t: Term) -> int:
    """Height counted in nodes: a single leaf has height 1."""
    best = 0
    stack = [(t, 1)]
    while stack:
        (_, children), depth = stack.pop()
        best = max(best, depth)
        stack.extend((c, depth + 1) for c in children)
    return best


def format_term(t: Term) -> str:
    out = []
    stack: list = [t]  # terms still to write, and literal punctuation
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        name, children = item
        out.append(name)
        if children:
            out.append("(")
            stack.append(")")
            for i, c in enumerate(reversed(children)):
                if i:
                    stack.append(",")
                stack.append(c)
    return "".join(out)


def parse_term(text: str) -> Term:
    """Parse with an explicit stack of open nodes, so depth is unbounded."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def name_token() -> str:
        nonlocal pos
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] in "_'"):
            pos += 1
        if pos == start:
            raise ValueError(f"expected a symbol name at position {start}: {text!r}")
        return text[start:pos]

    open_nodes: list[tuple[str, list]] = []  # names awaiting their ")"
    while True:
        skip_ws()
        name = name_token()
        skip_ws()
        if pos < len(text) and text[pos] == "(":
            pos += 1
            skip_ws()
            if pos >= len(text) or text[pos] != ")":
                open_nodes.append((name, []))
                continue  # parse the first child
            pos += 1
        done: Term = (name, ())
        # Hand the finished term to its parent, closing parents as we go.
        while open_nodes:
            open_nodes[-1][1].append(done)
            skip_ws()
            if pos >= len(text):
                raise ValueError(f"unterminated term: {text!r}")
            if text[pos] == ",":
                pos += 1
                break  # parse the next sibling
            if text[pos] != ")":
                raise ValueError(f"unexpected {text[pos]!r} at position {pos}: {text!r}")
            pos += 1
            parent, children = open_nodes.pop()
            done = (parent, tuple(children))
        else:
            break

    skip_ws()
    if pos != len(text):
        raise ValueError(f"trailing input at position {pos}: {text!r}")
    return done
