"""Seeded Cayley-table inputs and the group invariants the gate compares.

The tables are built here from closed formulas, not by the engine, so a
defect in the engine cannot leak into its own inputs.  The seed only
relabels elements: every invariant of the group stays the same, and the
identity never sits at index 0, so the engine's relabeling path runs.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Callable

# name -> factors of a direct product; ("D", 16) is the dihedral group of
# order 16, ("Q", 8) the quaternion group of order 8, ("C", 4) cyclic
CAYLEY_GROUPS = {
    "g128": (("D", 16), ("D", 8)),
    "g512": (("D", 16), ("Q", 8), ("C", 4)),
}


def _factor(kind: str, order: int) -> tuple[list, Callable]:
    """Elements (identity first) and product of one factor group."""
    if kind == "C":
        return list(range(order)), lambda a, b: (a + b) % order
    m = order // 2
    elems = [(k, s) for s in (0, 1) for k in range(m)]
    if kind == "D":
        # r^k s^e with s r s = r^-1
        def mul(a, b):
            k = (a[0] + b[0]) % m if a[1] == 0 else (a[0] - b[0]) % m
            return (k, a[1] ^ b[1])

        return elems, mul
    if kind == "Q":
        # a^k x^e with x^2 = a^(m/2) and x a x^-1 = a^-1, a of order m
        def mul(a, b):
            if a[1] == 0:
                return ((a[0] + b[0]) % m, b[1])
            if b[1] == 0:
                return ((a[0] - b[0]) % m, 1)
            return ((a[0] - b[0] + m // 2) % m, 0)

        return elems, mul
    raise ValueError(f"unknown factor kind {kind!r}")


def product_table(name: str) -> list[list[int]]:
    """Multiplication table of a named input group, identity at index 0."""
    factors = [_factor(kind, order) for kind, order in CAYLEY_GROUPS[name]]
    elems = list(itertools.product(*(f[0] for f in factors)))
    index = {e: i for i, e in enumerate(elems)}
    muls = [f[1] for f in factors]
    return [
        [index[tuple(m(x, y) for m, x, y in zip(muls, a, b))] for b in elems]
        for a in elems
    ]


def relabel(table: list[list[int]], seed: int) -> list[list[int]]:
    """The same group under a seeded permutation of its labels, with the
    identity (index 0 in `table`) moved to a nonzero index."""
    n = len(table)
    perm = list(range(n))
    rng = random.Random(seed)
    rng.shuffle(perm)
    if perm[0] == 0:
        j = rng.randrange(1, n)
        perm[0], perm[j] = perm[j], perm[0]
    out = [[0] * n for _ in range(n)]
    for a, row in enumerate(table):
        pa = out[perm[a]]
        for b, v in enumerate(row):
            pa[perm[b]] = perm[v]
    return out


def cayley_text(table: list[list[int]], comment: str) -> str:
    lines = [f"# {comment}", str(len(table))]
    lines.extend(" ".join(map(str, row)) for row in table)
    return "\n".join(lines) + "\n"


def write_cayley(path, name: str, seed: int) -> None:
    table = relabel(product_table(name), seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cayley_text(table, f"{name}, relabeled with seed {seed}"))


def invariants(order: int, mul: Callable[[int, int], int], identity: int = 0) -> dict:
    """Order, |Z(G)| and the element-order histogram of a group given by
    its product on 0..order-1.

    The center is the set of elements commuting with a generating set,
    which is grown greedily by breadth-first closure.
    """
    gens: list[int] = []
    seen = bytearray(order)
    seen[identity] = 1
    members = [identity]
    for x in range(order):
        if seen[x]:
            continue
        gens.append(x)
        queue = list(members)
        while queue:
            nxt = []
            for e in queue:
                for s in gens:
                    y = mul(e, s)
                    if not seen[y]:
                        seen[y] = 1
                        members.append(y)
                        nxt.append(y)
            queue = nxt
    center = sum(1 for x in range(order) if all(mul(x, s) == mul(s, x) for s in gens))
    hist: Counter = Counter()
    for x in range(order):
        k, y = 1, x
        while y != identity:
            y = mul(y, x)
            k += 1
        hist[k] += 1
    return {
        "order": order,
        "center": center,
        "element_orders": {str(k): hist[k] for k in sorted(hist)},
    }
