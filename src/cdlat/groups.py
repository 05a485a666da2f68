"""Finite groups as index-based multiplication structures.

Elements are integers 0..order-1 and the identity is always index 0.
Small groups store a full multiplication table; constructions past the
table threshold (large wreath products, UT(5,2)) multiply through a
stored formula instead.  Both are read the same way, as group.table[a][b].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import BadParameter, NotAGroup, OrderCapExceeded

DEFAULT_ORDER_CAP = 20000
TABLE_LIMIT = 4096
# UT(n,2) tabulates only up to this order: a tuple table of UT(5,2) (order
# 1024) would raise the peak memory of a corpus verification run from about
# 25 MB to 33 MB, while its checks run as fast through the formula
UT_TABLE_LIMIT = 256


class FormulaTable:
    """Read-only row view with `table[a][b] == mul(a, b)`, for groups too
    large to tabulate: rows are made on demand and never stored."""

    __slots__ = ("mul", "order")

    def __init__(self, mul: Callable[[int, int], int], order: int):
        self.mul = mul
        self.order = order

    def __getitem__(self, a: int) -> "_FormulaRow":
        return _FormulaRow(self.mul, a)


class _FormulaRow:
    __slots__ = ("mul", "a")

    def __init__(self, mul: Callable[[int, int], int], a: int):
        self.mul = mul
        self.a = a

    def __getitem__(self, b: int) -> int:
        return self.mul(self.a, b)


def product_table(order: int, mul: Callable[[int, int], int], limit: int = TABLE_LIMIT):
    """Tuple rows of `mul` for groups of order up to `limit`, else a
    FormulaTable over it."""
    if order > limit:
        return FormulaTable(mul, order)
    return [tuple([mul(a, b) for b in range(order)]) for a in range(order)]


class Group:
    """Immutable finite group over element indices with identity at 0.

    `table[a][b]` is the product of a and b: tuple rows for tabulated
    groups, a FormulaTable for formula-backed ones.
    """

    __slots__ = (
        "order",
        "name",
        "known_gens",
        "perm_images",
        "product_meta",
        "table",
        "_inv",
        "_cache",
    )

    def __init__(
        self,
        order: int,
        *,
        name: str,
        rows: Sequence[Sequence[int]] | FormulaTable,
        inv_table: Sequence[int] | None = None,
        known_gens: Iterable[int] = (),
        perm_images: Sequence[tuple[int, ...]] | None = None,
        product_meta=None,
    ):
        self.order = order
        self.name = name
        self.known_gens = tuple(known_gens)
        self.perm_images = tuple(perm_images) if perm_images is not None else None
        self.product_meta = product_meta
        if isinstance(rows, FormulaTable):
            if inv_table is None:
                raise ValueError("a formula-backed group needs an inverse table")
            self.table = rows
        else:
            self.table = [tuple(r) for r in rows]
        if inv_table is None:
            inv_table = [row.index(0) for row in self.table]
        self._inv = tuple(inv_table)
        self._cache = {}

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, x: int, g: int) -> int:
        """x^g = g^-1 x g."""
        return self.mul(self.mul(self.inv(g), x), g)

    def rows(self) -> list[tuple[int, ...]] | None:
        """Full multiplication table, or None for formula-backed groups."""
        return None if isinstance(self.table, FormulaTable) else self.table

    def element_order(self, x: int) -> int:
        n = 1
        y = x
        while y != 0:
            y = self.mul(y, x)
            n += 1
        return n

    def is_abelian(self) -> bool:
        cached = self._cache.get("abelian")
        if cached is None:
            table = self.table
            n = self.order
            cached = all(
                table[a][b] == table[b][a] for a in range(n) for b in range(a + 1, n)
            )
            self._cache["abelian"] = cached
        return cached

    def __repr__(self):
        return f"Group({self.name!r}, order={self.order})"


def generating_set(group: Group) -> list[int]:
    """Greedy generators: walk the table by right multiplication from the
    identity and adjoin the smallest unreached element whenever the walk
    stops.

    Every element is reached as a left-normed product of the generators,
    whether or not the table is associative.
    """
    table = group.table
    seen = bytearray(group.order)
    seen[0] = 1
    reached = [0]
    gens: list[int] = []
    for x in range(1, group.order):
        if seen[x]:
            continue
        gens.append(x)
        for e in reached:  # also visits the elements appended below
            row = table[e]
            for s in gens:
                y = row[s]
                if not seen[y]:
                    seen[y] = 1
                    reached.append(y)
    return gens


def check_axioms(group: Group) -> None:
    """Verify that index 0 is an identity, that inverses are two-sided and
    that the product is associative.  Raises NotAGroup on the first
    violation.

    Associativity is proved exactly by Light's test: the elements x with
    (a*x)*b == a*(x*b) for all a, b are closed under products, so it is
    enough to test the generators from generating_set, at O(n**2 * |gens|).
    """
    n = group.order
    table = group.table
    for x in range(n):
        if table[0][x] != x or table[x][0] != x:
            raise NotAGroup(f"index 0 is not an identity at element {x}")
        y = group.inv(x)
        if table[x][y] != 0 or table[y][x] != 0:
            raise NotAGroup(f"element {x} has no two-sided inverse")
    elements = range(n)
    # whole rows at a time: (a*s)*b for every b against a*(s*b) for every b;
    # tabulated rows are tuples already, formula rows are read out whole
    row_of = tuple if group.rows() is not None else itemgetter(*elements)
    for s in generating_set(group):
        row_s = row_of(table[s])
        gather_s = itemgetter(*row_s)
        for a in elements:
            row_a = table[a]
            row_as = table[row_a[s]]
            if row_of(row_as) == gather_s(row_a):
                continue
            for b in elements:
                if row_as[b] != row_a[row_s[b]]:
                    raise NotAGroup(f"associativity fails at triple ({a}, {s}, {b})")


# ---------------------------------------------------------------------------
# Cayley-table construction


def from_cayley(table: Sequence[Sequence[int]], *, name: str | None = None) -> Group:
    """Build a validated group from a square multiplication table.

    The table's identity may sit at any index; elements are relabeled by
    the 0<->identity swap so index 0 is the identity.  Raises NotAGroup
    with the offending row/triple on any axiom failure.
    """
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    rows = [list(r) for r in table]
    for i, row in enumerate(rows):
        if len(row) != n:
            raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
        if all(map(isinstance, row, repeat(int))) and 0 <= min(row) and max(row) < n:
            continue
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                raise NotAGroup(f"row {i} holds entry {v!r} outside 0..{n - 1}")
    full = list(range(n))
    ident = None
    for e in range(n):
        if rows[e] == full and all(rows[x][e] == x for x in full):
            ident = e
            break
    if ident is None:
        raise NotAGroup("table has no identity element")
    if ident != 0:
        # the 0 <-> identity swap is its own inverse, so relabeled row i is
        # old row swap[i], read at swap[j] and mapped through swap
        swap = full[:]
        swap[0], swap[ident] = ident, 0
        get_swapped = itemgetter(*swap)
        rows = [
            list(map(swap.__getitem__, get_swapped(rows[swap[i]]))) for i in full
        ]
    # entries are ints in 0..n-1, so n distinct ones are a permutation
    for i, row in enumerate(rows):
        if len(set(row)) != n:
            raise NotAGroup(f"row {i} is not a permutation of 0..{n - 1}")
    for j, column in enumerate(zip(*rows)):
        if len(set(column)) != n:
            raise NotAGroup(f"column {j} is not a permutation of 0..{n - 1}")
    group = Group(n, name=name or f"cayley{n}", rows=rows)
    check_axioms(group)
    return group


def dump_cayley(group: Group) -> str:
    """Serialize a table-backed group in the Cayley file format."""
    rows = group.rows()
    if rows is None:
        raise ValueError("cannot dump a formula-backed group")
    lines = [f"# {group.name}", str(group.order)]
    for row in rows:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def load_cayley(text: str) -> list[list[int]]:
    """Parse the Cayley file format: order line then n table rows.

    Anything from '#' to end of line is a comment.
    """
    items = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            items.append(line)
    if not items:
        raise NotAGroup("cayley file holds no data")
    try:
        n = int(items[0])
    except ValueError:
        raise NotAGroup(f"cayley file order line is not an integer: {items[0]!r}")
    if n < 1:
        raise NotAGroup(f"cayley file order must be positive, got {n}")
    if len(items) != n + 1:
        raise NotAGroup(f"cayley file has {len(items) - 1} rows, expected {n}")
    table = []
    for line in items[1:]:
        try:
            row = list(map(int, line.split()))
        except ValueError:
            raise NotAGroup(f"cayley file row is not integers: {line!r}")
        if len(row) != n:
            raise NotAGroup(f"cayley file row has {len(row)} entries, expected {n}")
        table.append(row)
    return table


def from_cayley_file(path) -> Group:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise NotAGroup(f"cayley file {path} is not UTF-8 text (byte {exc.start})") from None
    return from_cayley(load_cayley(text), name=str(path))


# ---------------------------------------------------------------------------
# Permutation groups


@dataclass(frozen=True)
class PermutationGenSet:
    """Generators of a permutation group on points 1..degree.

    Generators are stored in image form, 0-based: gen[i] is the image of
    point i.
    """

    degree: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.degree < 1:
            raise BadParameter(f"degree must be >= 1, got {self.degree}")
        for g in self.generators:
            if sorted(g) != list(range(self.degree)):
                raise BadParameter(f"not a permutation of 0..{self.degree - 1}: {g}")

    @classmethod
    def from_cycles(cls, gens, degree: int | None = None) -> "PermutationGenSet":
        """Build from 1-based cycle notation.

        Each generator is a list of cycles, e.g. [[(1, 2), (3, 4)], [(1, 3)]]
        gives the two Klein generators.  Cycles within one generator are
        applied left to right.
        """
        gens = [list(g) for g in gens]
        top = 0
        for cycles in gens:
            for cyc in cycles:
                if cyc:
                    top = max(top, max(cyc))
        if degree is None:
            degree = max(top, 1)
        elif top > degree:
            raise BadParameter(f"cycle point {top} exceeds degree {degree}")
        images = []
        for cycles in gens:
            img = list(range(degree))
            for cyc in cycles:
                prev = img
                move = list(range(degree))
                for i, pt in enumerate(cyc):
                    move[pt - 1] = cyc[(i + 1) % len(cyc)] - 1
                img = [move[prev[i]] for i in range(degree)]
            images.append(tuple(img))
        return cls(degree, tuple(images))


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # apply p first, then q
    return tuple(q[v] for v in p)


def from_permutations(
    gens: PermutationGenSet,
    *,
    max_order: int = DEFAULT_ORDER_CAP,
    name: str | None = None,
) -> Group:
    """Enumerate the generated permutation group by breadth-first closure.

    Index 0 is the identity; the rest follow in first-discovery order from
    the deterministic FIFO worklist, so the labeling is reproducible.
    """
    degree = gens.degree
    identity = tuple(range(degree))
    gen_perms = [g for g in gens.generators if g != identity]
    elems = [identity]
    index = {identity: 0}
    # elems[i] = elems[parent[i]] * gen_perms[via[i]]
    parent = [0]
    via = [0]
    qi = 0
    while qi < len(elems):
        p = elems[qi]
        for k, g in enumerate(gen_perms):
            q = _compose(p, g)
            if q not in index:
                index[q] = len(elems)
                elems.append(q)
                parent.append(qi)
                via.append(k)
                if len(elems) > max_order:
                    raise OrderCapExceeded(
                        f"permutation closure exceeded {max_order} elements"
                    )
        qi += 1
    n = len(elems)
    inv = [0] * n
    for i, p in enumerate(elems):
        pi = [0] * degree
        for a, b in enumerate(p):
            pi[b] = a
        inv[i] = index[tuple(pi)]

    def mul(a: int, b: int, _e=elems, _i=index) -> int:
        return _i[_compose(_e[a], _e[b])]

    if n > TABLE_LIMIT:
        rows = FormulaTable(mul, n)
    else:
        # only the generator rows are composed; since (p*g)*b = p*(g*b),
        # every other row gathers its parent's row through a generator row
        gen_rows = [tuple([index[_compose(g, q)] for q in elems]) for g in gen_perms]
        rows = [tuple(range(n))]
        for i in range(1, n):
            rows.append(tuple(map(rows[parent[i]].__getitem__, gen_rows[via[i]])))
    return Group(
        n,
        name=name or f"perm{n}",
        rows=rows,
        inv_table=inv,
        known_gens=tuple(index[g] for g in gen_perms),
        perm_images=elems,
    )


# ---------------------------------------------------------------------------
# Named families


def named_group(family: str, n: int, *, max_order: int = DEFAULT_ORDER_CAP) -> Group:
    """Build a named-family group: C, D, Q (order subscript), S, A, or UT.

    D and Q follow the order convention: D8 and Q8 are the order-8 groups.
    UT(n, 2) is the unitriangular group over the 2-element field, order
    2**(n*(n-1)/2).
    """
    if family == "C":
        return _cyclic(n, max_order)
    if family == "D":
        return _dihedral(n, max_order)
    if family == "Q":
        return _quaternion(n, max_order)
    if family == "S":
        return _symmetric(n, max_order)
    if family == "A":
        return _alternating(n, max_order)
    if family == "UT":
        return _unitriangular(n, max_order)
    raise BadParameter(f"unknown family {family!r}")


def _cap(order: int, max_order: int, what: str) -> None:
    if order > max_order:
        raise OrderCapExceeded(f"{what} has order {order} > cap {max_order}")


def _cyclic(n: int, max_order: int) -> Group:
    if n < 1:
        raise BadParameter(f"C_n needs n >= 1, got {n}")
    _cap(n, max_order, f"C{n}")
    return Group(
        n,
        name=f"C{n}",
        rows=product_table(n, lambda a, b: (a + b) % n),
        inv_table=[-a % n for a in range(n)],
        known_gens=(1,) if n > 1 else (),
    )


def _dihedral(n: int, max_order: int) -> Group:
    # order convention: D_n has order n (n even >= 4); D4 is the Klein group
    if n < 4 or n % 2:
        raise BadParameter(f"D_n needs even n >= 4, got {n}")
    _cap(n, max_order, f"D{n}")
    m = n // 2

    def mul(x: int, y: int) -> int:
        i1, j1 = x >> 1, x & 1
        i2, j2 = y >> 1, y & 1
        if j1:
            return ((i1 - i2) % m) << 1 | (1 ^ j2)
        return ((i1 + i2) % m) << 1 | j2

    # reflections are involutions; rotations invert their exponent
    inv = [x if x & 1 else (-(x >> 1) % m) << 1 for x in range(n)]
    return Group(
        n,
        name=f"D{n}",
        rows=product_table(n, mul),
        inv_table=inv,
        known_gens=(2, 1),
    )


def _quaternion(n: int, max_order: int) -> Group:
    # generalized quaternion, order a power of two >= 8
    if n < 8 or n & (n - 1):
        raise BadParameter(f"Q_n needs n in {{8, 16, 32, ...}}, got {n}")
    _cap(n, max_order, f"Q{n}")
    m = n // 2
    half = m // 2

    # normal forms x^a y^b with x^m = 1, y^2 = x^(m/2), y^-1 x y = x^-1
    def mul(u: int, v: int) -> int:
        a1, b1 = u >> 1, u & 1
        a2, b2 = v >> 1, v & 1
        if not b1:
            return ((a1 + a2) % m) << 1 | b2
        if not b2:
            return ((a1 - a2) % m) << 1 | 1
        return ((a1 - a2 + half) % m) << 1

    # (x^a)^-1 = x^-a and (x^a y)^-1 = x^(a + m/2) y
    inv = [
        ((u >> 1) + half) % m << 1 | 1 if u & 1 else (-(u >> 1) % m) << 1
        for u in range(n)
    ]
    return Group(
        n,
        name=f"Q{n}",
        rows=product_table(n, mul),
        inv_table=inv,
        known_gens=(2, 1),
    )


def _symmetric(n: int, max_order: int) -> Group:
    if n < 1:
        raise BadParameter(f"S_n needs n >= 1, got {n}")
    _cap(math.factorial(n), max_order, f"S{n}")
    gens = []
    if n >= 2:
        gens.append([(1, 2)])
    if n >= 3:
        gens.append([tuple(range(1, n + 1))])
    pgs = PermutationGenSet.from_cycles(gens, degree=n)
    return from_permutations(pgs, max_order=max_order, name=f"S{n}")


def _alternating(n: int, max_order: int) -> Group:
    if n < 1:
        raise BadParameter(f"A_n needs n >= 1, got {n}")
    order = math.factorial(n) // 2 if n >= 2 else 1
    _cap(order, max_order, f"A{n}")
    gens = [[(i, i + 1, i + 2)] for i in range(1, n - 1)]
    pgs = PermutationGenSet.from_cycles(gens, degree=n)
    return from_permutations(pgs, max_order=max_order, name=f"A{n}")


def ut_entry_bit(n: int, i: int, j: int) -> int:
    """Bit position encoding entry (i, j), 0-based, of UT(n, 2) elements.

    The element index of the elementary matrix I + E_ij is
    1 << ut_entry_bit(n, i, j).
    """
    if not 0 <= i < j < n:
        raise BadParameter(f"need 0 <= i < j < n, got ({i}, {j}) for n={n}")
    pos = 0
    for r in range(n):
        for c in range(r + 1, n):
            if (r, c) == (i, j):
                return pos
            pos += 1
    raise AssertionError


def _unitriangular(n: int, max_order: int) -> Group:
    if n < 2:
        raise BadParameter(f"UT(n, 2) needs n >= 2, got {n}")
    bits = n * (n - 1) // 2
    order = 1 << bits
    _cap(order, max_order, f"UT({n},2)")
    positions = [(r, c) for r in range(n) for c in range(r + 1, n)]

    def decode_rows(e: int) -> tuple[int, ...]:
        rows = [1 << r for r in range(n)]
        for t, (r, c) in enumerate(positions):
            if e >> t & 1:
                rows[r] |= 1 << c
        return tuple(rows)

    all_rows = [decode_rows(e) for e in range(order)]
    index = {rows: e for e, rows in enumerate(all_rows)}

    def mul(a: int, b: int, _rows=all_rows, _index=index, _n=n) -> int:
        ar = _rows[a]
        br = _rows[b]
        out = []
        for i in range(_n):
            acc = 0
            bits_i = ar[i]
            while bits_i:
                low = bits_i & -bits_i
                acc ^= br[low.bit_length() - 1]
                bits_i ^= low
            out.append(acc)
        return _index[tuple(out)]

    inv = [0] * order
    for e in range(order):
        # unitriangular elements have 2-power order; walk to the inverse
        y = e
        prev = 0
        while y != 0:
            prev = y
            y = mul(y, e)
        inv[e] = prev if e else 0
    return Group(
        order,
        name=f"UT({n},2)",
        rows=product_table(order, mul, UT_TABLE_LIMIT),
        inv_table=inv,
        known_gens=tuple(1 << ut_entry_bit(n, i, i + 1) for i in range(n - 1)),
    )


# ---------------------------------------------------------------------------
# Small-order isomorphism testing (element-order-profile guided search)


ISO_ORDER_CAP = 16


def group_isomorphic_small(a: Group, b: Group) -> bool:
    """Brute-force isomorphism test for groups of order <= ISO_ORDER_CAP.

    Candidate generator images are pruned by element-order profiles; the
    induced map is then checked to be a bijective homomorphism.
    """
    if a.order > ISO_ORDER_CAP or b.order > ISO_ORDER_CAP:
        raise OrderCapExceeded(f"isomorphism search capped at order {ISO_ORDER_CAP}")
    if a.order != b.order:
        return False
    orders_a = [a.element_order(x) for x in range(a.order)]
    orders_b = [b.element_order(x) for x in range(b.order)]
    if sorted(orders_a) != sorted(orders_b):
        return False
    gens = generating_set(a)
    candidates = [
        [y for y in range(b.order) if orders_b[y] == orders_a[g]] for g in gens
    ]

    def extend(images: list[int]) -> bool:
        if len(images) == len(gens):
            return _induced_iso(a, b, gens, images)
        for y in candidates[len(images)]:
            if extend(images + [y]):
                return True
        return False

    return extend([])


def _induced_iso(a: Group, b: Group, gens: list[int], images: list[int]) -> bool:
    fmap = {0: 0}
    queue = [0]
    while queue:
        x = queue.pop()
        for g, img in zip(gens, images):
            y = a.mul(x, g)
            fy = b.mul(fmap[x], img)
            if y in fmap:
                if fmap[y] != fy:
                    return False
            else:
                fmap[y] = fy
                queue.append(y)
    if len(fmap) != a.order or len(set(fmap.values())) != b.order:
        return False
    return all(
        fmap[a.mul(x, y)] == b.mul(fmap[x], fmap[y])
        for x in range(a.order)
        for y in range(a.order)
    )
