"""Parser, printer and evaluator for the group-construction mini-language.

Grammar (left-associative, whitespace optional around operators):

    expr  := term (" x " term)*
    term  := atom (" wr " "C" INT)?
    atom  := ("S"|"A"|"C"|"D"|"Q") INT
           | "UT(" INT ",2)"
           | "corpus:" NAME
           | "perm:" CYCLES
           | "cayley:" PATH
           | "(" expr ")"
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Union

from .errors import OrderCapExceeded, ParseError
from .groups import (
    DEFAULT_ORDER_CAP,
    Group,
    PermutationGenSet,
    from_cayley_file,
    from_permutations,
    named_group,
)
from .corpus import corpus_group
from .products import direct_product, wreath_cyclic


@dataclass(frozen=True)
class FamilyAtom:
    family: str
    param: int


@dataclass(frozen=True)
class UTAtom:
    n: int


@dataclass(frozen=True)
class CorpusAtom:
    name: str


@dataclass(frozen=True)
class PermAtom:
    # each generator is a tuple of cycles; each cycle a tuple of 1-based points
    generators: tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class CayleyAtom:
    path: str


@dataclass(frozen=True)
class Product:
    left: "GroupSpec"
    right: "GroupSpec"


@dataclass(frozen=True)
class Wreath:
    bottom: "GroupSpec"
    top: int


GroupSpec = Union[FamilyAtom, UTAtom, CorpusAtom, PermAtom, CayleyAtom, Product, Wreath]

_FAMILY_LETTERS = "SACDQ"

# Deepest nesting a spec may have: parentheses, products and wreaths each
# add a level.  Deeper specs would exhaust the recursion of the parser,
# the printer or the evaluator.
MAX_SPEC_DEPTH = 100


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.open = 0  # parentheses open at pos

    def nest(self, depth: int) -> int:
        if depth >= MAX_SPEC_DEPTH:
            raise ParseError(f"spec nests deeper than {MAX_SPEC_DEPTH} levels", self.pos)
        return depth + 1

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def take(self, token: str):
        if not self.startswith(token):
            raise ParseError(f"expected {token!r}", self.pos, (token,))
        self.pos += len(token)

    def take_int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start, ("INT",))
        return int(self.text[start : self.pos])

    def take_name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a name", start, ("NAME",))
        return self.text[start : self.pos]

    def take_path(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and not self.text[self.pos].isspace() and self.text[self.pos] != ")":
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a file path", start, ("PATH",))
        return self.text[start : self.pos]


def parse_spec(text: str) -> GroupSpec:
    """Parse mini-language text into an abstract group spec."""
    sc = _Scanner(text)
    node, _ = _parse_expr(sc)
    sc.skip_ws()
    if sc.pos != len(text):
        raise ParseError("trailing input", sc.pos, ("end of input",))
    return node


def _parse_expr(sc: _Scanner) -> tuple[GroupSpec, int]:
    # each _parse_* returns the node and its nesting depth
    node, depth = _parse_term(sc)
    while True:
        sc.skip_ws()
        if sc.peek() == "x":
            # no atom starts with lowercase x, so this is the product operator
            sc.pos += 1
            right, right_depth = _parse_term(sc)
            node, depth = Product(node, right), sc.nest(max(depth, right_depth))
        else:
            break
    return node, depth


def _parse_term(sc: _Scanner) -> tuple[GroupSpec, int]:
    atom, depth = _parse_atom(sc)
    sc.skip_ws()
    if sc.startswith("wr"):
        sc.pos += 2
        sc.skip_ws()
        sc.take("C")
        top = sc.take_int()
        return Wreath(atom, top), sc.nest(depth)
    return atom, depth


def _parse_atom(sc: _Scanner) -> tuple[GroupSpec, int]:
    sc.skip_ws()
    ch = sc.peek()
    if ch == "(":
        # bound the open parentheses before recursing into them
        sc.open = sc.nest(sc.open)
        sc.pos += 1
        node, depth = _parse_expr(sc)
        sc.skip_ws()
        sc.take(")")
        sc.open -= 1
        return node, sc.nest(depth)
    if sc.startswith("UT("):
        sc.pos += 3
        sc.skip_ws()
        n = sc.take_int()
        sc.skip_ws()
        sc.take(",")
        sc.skip_ws()
        sc.take("2")
        sc.skip_ws()
        sc.take(")")
        return UTAtom(n), 0
    if sc.startswith("corpus:"):
        sc.pos += 7
        return CorpusAtom(sc.take_name()), 0
    if sc.startswith("perm:"):
        sc.pos += 5
        return PermAtom(_parse_cycles(sc)), 0
    if sc.startswith("cayley:"):
        sc.pos += 7
        return CayleyAtom(sc.take_path()), 0
    if ch in _FAMILY_LETTERS:
        sc.pos += 1
        return FamilyAtom(ch, sc.take_int()), 0
    raise ParseError(
        "expected an atom",
        sc.pos,
        ("S|A|C|D|Q INT", "UT(n,2)", "corpus:NAME", "perm:[...]", "cayley:PATH", "("),
    )


def _parse_cycles(sc: _Scanner) -> tuple[tuple[tuple[int, ...], ...], ...]:
    sc.take("[")
    gens: list[tuple[tuple[int, ...], ...]] = []
    while True:
        cycles: list[tuple[int, ...]] = []
        sc.skip_ws()
        while sc.peek() == "(":
            sc.pos += 1
            pts = [sc.take_int()]
            sc.skip_ws()
            while sc.peek() == ",":
                sc.pos += 1
                sc.skip_ws()
                pts.append(sc.take_int())
                sc.skip_ws()
            sc.take(")")
            cycles.append(tuple(pts))
            sc.skip_ws()
        if not cycles:
            raise ParseError("expected a cycle", sc.pos, ("(",))
        gens.append(tuple(cycles))
        sc.skip_ws()
        if sc.peek() == ",":
            sc.pos += 1
            continue
        sc.take("]")
        return tuple(gens)


def spec_text(node: GroupSpec) -> str:
    """Canonical textual form; parse_spec(spec_text(s)) == s."""
    if isinstance(node, FamilyAtom):
        return f"{node.family}{node.param}"
    if isinstance(node, UTAtom):
        return f"UT({node.n},2)"
    if isinstance(node, CorpusAtom):
        return f"corpus:{node.name}"
    if isinstance(node, PermAtom):
        gens = ",".join(
            "".join("(" + ",".join(str(p) for p in cyc) + ")" for cyc in cycles)
            for cycles in node.generators
        )
        return f"perm:[{gens}]"
    if isinstance(node, CayleyAtom):
        return f"cayley:{node.path}"
    if isinstance(node, Wreath):
        return f"{_atom_text(node.bottom)} wr C{node.top}"
    if isinstance(node, Product):
        left = spec_text(node.left) if isinstance(node.left, Product) else _term_text(node.left)
        return f"{left} x {_term_text(node.right)}"
    raise TypeError(f"not a GroupSpec: {node!r}")


def _term_text(node: GroupSpec) -> str:
    if isinstance(node, Product):
        return f"({spec_text(node)})"
    return spec_text(node)


def _atom_text(node: GroupSpec) -> str:
    if isinstance(node, (Product, Wreath)):
        return f"({spec_text(node)})"
    return spec_text(node)


def cayley_paths(node: GroupSpec) -> list[str]:
    """Paths of the spec's cayley: atoms, left to right."""
    if isinstance(node, CayleyAtom):
        return [node.path]
    if isinstance(node, Product):
        return cayley_paths(node.left) + cayley_paths(node.right)
    if isinstance(node, Wreath):
        return cayley_paths(node.bottom)
    return []


# (canonical text, order cap) -> ((size, mtime) of each Cayley file, group)
_EVAL_CACHE: dict[tuple[str, int], tuple[tuple, Group]] = {}


def evaluate(
    spec: GroupSpec | str, *, max_order: int = DEFAULT_ORDER_CAP
) -> Group:
    """Build the group a spec describes.

    Evaluation is deterministic, and results are cached per canonical
    text and order cap, so repeated runs share enumeration work.  An entry
    also records the (size, mtime) of each Cayley file; when they change
    the file is read again and the new group replaces the entry.  A
    missing Cayley file raises OSError.
    """
    node = parse_spec(spec) if isinstance(spec, str) else spec
    key = (spec_text(node), max_order)
    paths = cayley_paths(node)
    stamps = tuple((st.st_size, st.st_mtime_ns) for st in map(os.stat, paths))
    entry = _EVAL_CACHE.get(key)
    if entry is not None and entry[0] == stamps:
        return entry[1]
    group = _evaluate(node, max_order)
    _EVAL_CACHE[key] = (stamps, group)
    return group


def _evaluate(node: GroupSpec, max_order: int) -> Group:
    if isinstance(node, FamilyAtom):
        return named_group(node.family, node.param, max_order=max_order)
    if isinstance(node, UTAtom):
        return named_group("UT", node.n, max_order=max_order)
    if isinstance(node, CorpusAtom):
        return _capped(node, corpus_group(node.name), max_order)
    if isinstance(node, PermAtom):
        cycles = [list(g) for g in node.generators]
        pgs = PermutationGenSet.from_cycles(cycles)
        return from_permutations(pgs, max_order=max_order, name=spec_text(node))
    if isinstance(node, CayleyAtom):
        return _capped(node, from_cayley_file(node.path), max_order)
    if isinstance(node, Product):
        # children go through the cache so factor groups are shared with
        # their standalone evaluations (enumeration reuse, identity checks)
        left = evaluate(node.left, max_order=max_order)
        right = evaluate(node.right, max_order=max_order)
        return direct_product(left, right, max_order=max_order)
    if isinstance(node, Wreath):
        bottom = evaluate(node.bottom, max_order=max_order)
        return wreath_cyclic(bottom, node.top, max_order=max_order)
    raise TypeError(f"not a GroupSpec: {node!r}")


def _capped(node: GroupSpec, group: Group, max_order: int) -> Group:
    # fixtures and Cayley files have a fixed order, known once built
    if group.order > max_order:
        raise OrderCapExceeded(
            f"{spec_text(node)} has order {group.order} > cap {max_order}"
        )
    return group
