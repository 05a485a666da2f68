"""Built-in fixture groups and the default verification corpus."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import UnknownFixture
from .groups import Group, named_group, product_table, ut_entry_bit
from .subgroups import Subgroup, closure

# generator indices of the order-32 fixture under its normal-form encoding
G32_GENS = {"a": 8, "b": 4, "c": 2, "d": 1}


def _build_g32() -> Group:
    """Order-32 group on normal forms a^i b^j c^k d^l (i < 4; j, k, l < 2).

    Relations: a^4 = b^2 = c^2 = d^2 = 1, b central, [c, d] = 1,
    [a, c] = b and [a, d] = c (commutators x^-1 y^-1 x y).  Index packing
    is 8i + 4j + 2k + l, so a = 8, b = 4, c = 2, d = 1.
    """

    def mul(x: int, y: int) -> int:
        i1, j1, k1, l1 = x >> 3, x >> 2 & 1, x >> 1 & 1, x & 1
        i2, j2, k2, l2 = y >> 3, y >> 2 & 1, y >> 1 & 1, y & 1
        # moving d then c left past a^i2 emits central b's and a c
        i = (i1 + i2) & 3
        j = (j1 + j2 + k1 * i2 + l1 * (i2 * (i2 - 1) // 2)) & 1
        k = (k1 + k2 + l1 * i2) & 1
        l = (l1 + l2) & 1
        return i << 3 | j << 2 | k << 1 | l

    gens = (G32_GENS["a"], G32_GENS["b"], G32_GENS["c"], G32_GENS["d"])
    return Group(32, name="g32", rows=product_table(32, mul, gens), known_gens=gens)


def _build_ut52() -> Group:
    return named_group("UT", 5)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    builder: Callable[[], Group]
    notes: str


_REGISTRY: dict[str, CorpusEntry] = {
    "g32": CorpusEntry(
        "g32",
        _build_g32,
        "order-32 rewriting-system fixture with non-normal lattice members",
    ),
    "ut52": CorpusEntry(
        "ut52",
        _build_ut52,
        "UT(5,2), order 2^10, with its rank-6 abelian block subgroup",
    ),
}

_CACHE: dict[str, Group] = {}


def corpus_group(name: str) -> Group:
    """The registered fixture group; instances are cached per process."""
    entry = _REGISTRY.get(name)
    if entry is None:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownFixture(f"no corpus fixture {name!r} (known: {known})")
    group = _CACHE.get(name)
    if group is None:
        group = entry.builder()
        _CACHE[name] = group
    return group


def corpus_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def ut52_abelian_subgroup(g: Group) -> Subgroup:
    """The designated abelian subgroup of UT(5,2): matrices I + E with E
    supported in the rows {0,1} x columns {2,3,4} block; order 2^6."""
    if g.name != "UT(5,2)" or g.order != 1024:
        raise ValueError("expected the UT(5,2) fixture group")
    gens = [1 << ut_entry_bit(5, i, j) for i in (0, 1) for j in (2, 3, 4)]
    return closure(g, gens)


# ---------------------------------------------------------------------------
# Default corpus for the universally quantified checks: every group of
# order <= 24 expressible with named families and their direct products.

_ATOM_ORDERS = {
    **{f"C{n}": n for n in range(2, 25)},
    **{f"D{n}": n for n in range(4, 25, 2)},
    "Q8": 8,
    "Q16": 16,
    "S3": 6,
    "S4": 24,
    "A4": 12,
}


UNIVERSAL_MAX_ORDER = 24


def universal_corpus_specs() -> tuple[str, ...]:
    """Spec strings for the default corpus: all named-family atoms and all
    multisets of atoms whose direct product has order <= UNIVERSAL_MAX_ORDER."""
    atoms = sorted(
        (name for name, o in _ATOM_ORDERS.items() if o <= UNIVERSAL_MAX_ORDER),
        key=lambda s: (_ATOM_ORDERS[s], s),
    )
    specs = ["C1"] + list(atoms)
    seen = {("C1",)} | {(a,) for a in atoms}
    stack = [((a,), _ATOM_ORDERS[a]) for a in atoms]
    while stack:
        combo, order = stack.pop()
        for a in atoms:
            if a < combo[-1]:
                continue
            new_order = order * _ATOM_ORDERS[a]
            if new_order > UNIVERSAL_MAX_ORDER:
                continue
            new_combo = combo + (a,)
            if new_combo in seen:
                continue
            seen.add(new_combo)
            specs.append(" x ".join(new_combo))
            stack.append((new_combo, new_order))
    return tuple(sorted(specs, key=_spec_sort_key))


def _spec_sort_key(spec: str):
    parts = spec.split(" x ")
    order = 1
    for p in parts:
        order *= _ATOM_ORDERS.get(p, 1)
    return (order, len(parts), spec)


WREATH_CORPUS_SPECS = (
    "C2 wr C2",
    "C2 wr C3",
    "C4 wr C2",
    "C6 wr C2",
    "S3 wr C2",
    "D8 wr C2",
    "D12 wr C2",
)

# wreaths small enough for full enumeration in the universal checks
ENUMERABLE_WREATH_SPECS = (
    "C2 wr C2",
    "C2 wr C3",
    "C4 wr C2",
    "C6 wr C2",
    "D8 wr C2",
)
