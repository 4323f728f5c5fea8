"""Ranked alphabets and their binary symbol encoding.

Symbols are (name, arity) pairs; the pair is the identity, so one name may
carry several arities.  Codewords are per *name*: symbols that differ only
in arity share a codeword and are told apart by the arity of the
super-state they are used with.  Codewords are assigned at freeze time by
sequential binary counting over distinct names in first-registration
order, which keeps encodings reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .mtbdd import X, Cube


@dataclass(frozen=True)
class Symbol:
    name: str
    arity: int

    def __str__(self):
        return f"{self.name}:{self.arity}"


class Alphabet:
    """Registry of ranked symbols plus the encoding map."""

    def __init__(self):
        self._symbols: list[Symbol] = []
        self._by_key: dict[tuple[str, int], Symbol] = {}
        self._names: list[str] = []  # distinct names, first-registration order
        self._codes: dict[str, int] = {}
        #: name -> codeword, filled at freeze time
        self._codewords: dict[str, Cube] = {}
        #: code -> (registration index, symbol) of every symbol it names
        self._by_code: dict[int, list[tuple[int, Symbol]]] = {}
        self._width: int | None = None

    # -- registration ----------------------------------------------------

    def add_symbol(self, name: str, arity: int) -> Symbol:
        if self._width is not None:
            raise ValueError("alphabet is frozen")
        if not name:
            raise ValueError("symbol name must be non-empty")
        if arity < 0:
            raise ValueError(f"arity must be non-negative, got {arity}")
        key = (name, arity)
        if key in self._by_key:
            raise ValueError(f"duplicate symbol {name}:{arity}")
        sym = Symbol(name, arity)
        self._by_key[key] = sym
        self._symbols.append(sym)
        if name not in self._codes:
            self._codes[name] = len(self._names)
            self._names.append(name)
        return sym

    def freeze(self, width: int | None = None) -> "Alphabet":
        """Fix codewords.  ``width`` may only widen the minimum encoding."""
        if self._width is not None:
            raise ValueError("alphabet is already frozen")
        needed = max(len(self._names) - 1, 0).bit_length()
        if width is None:
            width = needed
        elif width < needed:
            raise ValueError(f"width {width} below required {needed}")
        self._width = width
        for name, code in self._codes.items():
            self._codewords[name] = tuple((code >> (width - 1 - i)) & 1
                                          for i in range(width))
        for i, sym in enumerate(self._symbols):
            self._by_code.setdefault(self._codes[sym.name], []).append((i, sym))
        return self

    @property
    def frozen(self) -> bool:
        return self._width is not None

    @property
    def width(self) -> int:
        if self._width is None:
            raise ValueError("alphabet is not frozen yet")
        return self._width

    # -- lookup ------------------------------------------------------------

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        return tuple(self._symbols)

    def symbol(self, name: str, arity: int) -> Symbol:
        sym = self._by_key.get((name, arity))
        if sym is None:
            raise KeyError(f"unknown symbol {name}:{arity}")
        return sym

    def get(self, name: str, arity: int) -> Symbol | None:
        return self._by_key.get((name, arity))

    def arities(self) -> list[int]:
        return sorted({s.arity for s in self._symbols})

    # -- encoding ------------------------------------------------------------

    def encode(self, symbol: Symbol) -> Cube:
        """Total 0/1 cube of the symbol's codeword, most significant bit first."""
        if (symbol.name, symbol.arity) not in self._by_key:
            raise KeyError(f"unknown symbol {symbol}")
        if self._width is None:
            raise ValueError("alphabet is not frozen yet")
        return self._codewords[symbol.name]

    def decode_cube(self, cube: Cube, arity: int | None = None) -> list[Symbol]:
        """Registered symbols whose codeword is compatible with the cube,
        optionally filtered by arity, in registration order.

        Looks up the codes the cube covers, or scans the registered codes
        when the cube covers more codes than there are.
        """
        n = self.width
        if len(cube) != n:
            raise ValueError(f"cube width {len(cube)} != alphabet width {n}")
        mask = value = 0
        free = []
        for i, bit in enumerate(cube):
            weight = 1 << (n - 1 - i)
            if bit is X:
                free.append(weight)
            elif bit == 1:
                mask |= weight
                value |= weight
            elif bit == 0:
                mask |= weight
            else:
                return []  # an entry other than 0, 1 or X covers no codeword
        if 1 << len(free) <= len(self._by_code):
            codes = [value]
            for weight in free:
                codes += [code | weight for code in codes]
        else:
            codes = [code for code in self._by_code if code & mask == value]
        hits = [entry for code in codes for entry in self._by_code.get(code, ())
                if arity is None or entry[1].arity == arity]
        hits.sort()
        return [sym for _, sym in hits]

    def encode_pair(self, fst: Symbol, snd: Symbol) -> Cube:
        """Interleaved cube (a1, b1, ..., an, bn) for a relabelling pair.

        Relabelling preserves arity, so the two symbols must agree on it.
        """
        if fst.arity != snd.arity:
            raise ValueError(f"arity mismatch: {fst} vs {snd}")
        return self.pair_cube(self.encode(fst), self.encode(snd))

    def pair_cube(self, input_cube: Cube, output_cube: Cube) -> Cube:
        """Interleave an input-bank cube with an output-bank cube."""
        if len(input_cube) != self.width or len(output_cube) != self.width:
            raise ValueError("pair cubes must both have the alphabet width")
        return tuple(itertools.chain.from_iterable(zip(input_cube, output_cube)))

    def split_pair_cube(self, cube: Cube) -> tuple[Cube, Cube]:
        """Inverse of :meth:`pair_cube`."""
        if len(cube) != 2 * self.width:
            raise ValueError(f"pair cube width {len(cube)} != {2 * self.width}")
        return cube[0::2], cube[1::2]

    def decode_pair_cube(self, cube: Cube, arity: int | None = None
                         ) -> list[tuple[Symbol, Symbol]]:
        """Symbol pairs covered by an interleaved pair cube.

        A pair cube constrains the two halves independently, so the covered
        pairs are the product of the two decodings (restricted to equal
        arity, as relabelling requires).
        """
        inp, out = self.split_pair_cube(cube)
        pairs = []
        for f in self.decode_cube(inp, arity):
            for g in self.decode_cube(out, f.arity if arity is None else arity):
                if f.arity == g.arity:
                    pairs.append((f, g))
        return pairs
