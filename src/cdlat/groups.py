"""Finite groups as index-based multiplication structures.

Elements are integers 0..order-1 and the identity is always index 0.
Small groups store a full multiplication table; constructions past the
table threshold (large wreath products, UT(5,2)) multiply through a
stored formula instead.  Both are read the same way, as group.table[a][b].
"""

from __future__ import annotations

import sys
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import BadParameter, NotAGroup, OrderCapExceeded
from .records import Record

DEFAULT_ORDER_CAP = 20000
TABLE_LIMIT = 4096
# UT(n,2) tabulates only up to this order.  Tabulating UT(5,2) (order 1024)
# raised the peak memory of `verify all corpus` from 21.6 MB to 29.7 MB, and
# building it and checking ut52-not-self took 27-44 ms against 4-7 ms through
# the carry product (x86-64 VM, 2 vCPUs, 7 processes each)
UT_TABLE_LIMIT = 256


class FormulaTable(tuple):
    """Read-only rows with `table[a][b] == mul(a, b)`, for groups too large
    to tabulate: one row view per element, made here once, so that reading
    a row is a tuple read and only reading an entry calls `mul`."""

    __slots__ = ()

    def __new__(cls, mul: Callable[[int, int], int], order: int):
        return super().__new__(cls, [_FormulaRow(mul, a) for a in range(order)])


class _FormulaRow:
    __slots__ = ("mul", "a")

    def __init__(self, mul: Callable[[int, int], int], a: int):
        self.mul = mul
        self.a = a

    def __getitem__(self, b: int) -> int:
        return self.mul(self.a, b)


def product_table(
    order: int, mul: Callable, gens: Sequence[int], limit=TABLE_LIMIT, *, row=None
):
    """The one place that picks a group's table: tuple rows up to `limit`,
    gathered from the generator rows `row(s)` (by default read from `mul`),
    and above it a FormulaTable over `mul`."""
    if order > limit:
        return FormulaTable(mul, order)
    row = row or (lambda s: [mul(s, b) for b in range(order)])
    return gather_rows(order, gens, [row(s) for s in gens])


def gather_rows(order: int, gens: Sequence[int], gen_rows: Sequence[Sequence[int]]):
    """The multiplication table from the rows of generators alone.

    A breadth-first walk from the identity by right multiplication gives
    each newly reached y = x*s the row of x gathered through the row of s,
    since (x*s)*b = x*(s*b).  Every entry is one of row 0's int objects,
    so the rows share them.
    Raises ValueError if `gens` do not generate all `order` elements.
    """
    rows: list = [None] * order
    rows[0] = tuple(range(order))
    steps = [(s, itemgetter(*row)) for s, row in zip(gens, gen_rows)]
    reached = [0]
    for x in reached:  # also visits the elements appended below
        row_x = rows[x]
        for s, gather in steps:
            y = row_x[s]
            if rows[y] is None:
                rows[y] = gather(row_x)
                reached.append(y)
    if len(reached) != order:
        raise ValueError(f"gens {tuple(gens)} reach {len(reached)} of {order} elements")
    return rows


class Group:
    """Immutable finite group over element indices with identity at 0.

    `table[a][b]` is the product of a and b: tuple rows for tabulated
    groups, a FormulaTable for formula-backed ones.  `known_gens` generate
    it: the greedy generating_set when the constructor names none.
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
        known_gens: Iterable[int] | None = None,
        perm_images: Sequence[tuple[int, ...]] | None = None,
        product_meta=None,
    ):
        self.order = order
        self.name = name
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
        self.known_gens = tuple(generating_set(self) if known_gens is None else known_gens)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

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


def check_axioms(group: Group, greedy_gens: Sequence[int] | None = None) -> None:
    """Verify that index 0 is an identity, that inverses are two-sided and
    that the product is associative.  Raises NotAGroup on the first
    violation.

    Associativity is proved exactly by Light's test: the elements x with
    (a*x)*b == a*(x*b) for all a, b are closed under products, so it is
    enough to test the generators from generating_set, at O(n**2 * |gens|).
    A caller that holds generating_set(group) already passes it as
    `greedy_gens`.  Generators a constructor names are no substitute: on a
    table that may not be associative, only the greedy walk shows that a
    set generates it.
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
    if greedy_gens is None:
        greedy_gens = generating_set(group)
    for s in greedy_gens:
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
    the transposition of 0 and the identity so index 0 is the identity.
    The caller's table is never mutated.  Raises NotAGroup on the first
    fault in this order: each row's length and entries, row by row; the
    identity; rows that are not permutations; columns; check_axioms.  The
    fault and its message are the ones an entry-by-entry scan in that
    order finds.

    Each row is checked in one pass, as ints forming a permutation; only
    a row that fails is scanned entry by entry.  Columns are scanned only
    when check_axioms fails: a table that passes every check is a group,
    and a group's columns are permutations.
    """
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    rows = [list(r) for r in table]
    values = set(range(n))
    not_permutations = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
        ints = all(map(isinstance, row, repeat(int)))
        if ints and set(row) == values:
            continue
        if ints and 0 <= min(row) and max(row) < n:
            not_permutations.append(i)  # reported after the identity search
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
    if not_permutations:
        # the index that row has once relabeled: 0 and ident trade places
        swap = {0: ident, ident: 0}
        i = min(swap.get(j, j) for j in not_permutations)
        raise NotAGroup(f"row {i} is not a permutation of 0..{n - 1}")
    if ident != 0:
        # relabeled row i is old row swap[i], read at swap[j] and mapped
        # through swap, for the transposition swap = (0 ident)
        rows[0], rows[ident] = rows[ident], rows[0]
        for row in rows:
            row[0], row[ident] = row[ident], row[0]
            a, b = row.index(0), row.index(ident)
            row[a], row[b] = ident, 0
    # no known_gens, so the group's generators are generating_set(group)
    group = Group(n, name=name or f"cayley{n}", rows=rows)
    try:
        check_axioms(group, group.known_gens)
    except NotAGroup:
        for j, column in enumerate(zip(*rows)):
            if len(set(column)) != n:
                raise NotAGroup(f"column {j} is not a permutation of 0..{n - 1}") from None
        raise
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


def _echo(line: str) -> str:
    """The repr of a rejected input line for an error message, cut after
    its first 60 characters and then marked with an ellipsis, so a huge
    token cannot make the message huge."""
    return repr(line) if len(line) <= 60 else f"{line[:60]!r}…"


def _echo_int(n: int) -> str:
    """str(n) for an error message, cut as _echo cuts a line: a parsed
    order may have thousands of digits."""
    text = str(n)
    return text if len(text) <= 60 else f"{text[:60]}…"


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
        raise NotAGroup(f"cayley file order line is not an integer: {_echo(items[0])}")
    if n < 1:
        raise NotAGroup(f"cayley file order must be positive, got {_echo_int(n)}")
    if len(items) != n + 1:
        raise NotAGroup(f"cayley file has {len(items) - 1} rows, expected {_echo_int(n)}")
    # canonical tokens of 0..n-1 are looked up; a line holding any other
    # token is parsed by int(), which keeps its rules and its errors
    lookup = {str(v): v for v in range(n)}.__getitem__
    table = []
    for line in items[1:]:
        tokens = line.split()
        try:
            row = list(map(lookup, tokens))
        except KeyError:
            row = None
        if row is None:
            try:
                row = list(map(int, tokens))
            except ValueError:
                raise NotAGroup(f"cayley file row is not integers: {_echo(line)}")
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


class PermutationGenSet(Record):
    """Generators of a permutation group on points 1..degree.

    Generators are stored in image form, 0-based: gen[i] is the image of
    point i.
    """

    __slots__ = ("degree", "generators")
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
        applied left to right.  A cycle's points are distinct and at least 1.
        Without a `degree`, they act on the points the cycles name, ranked
        in increasing order: [[(1, 300000)]] acts on two points, not 300000.
        """
        gens = [list(g) for g in gens]
        points = set()
        for cycles in gens:
            for cyc in cycles:
                if len(set(cyc)) != len(cyc):
                    raise BadParameter(f"cycle {cyc} repeats a point")
                if cyc:
                    if min(cyc) < 1:
                        raise BadParameter(f"cycle point {min(cyc)} is below 1")
                    points.update(cyc)
        if degree is None:
            rank = {pt: i for i, pt in enumerate(sorted(points), 1)}
            gens = [[[rank[pt] for pt in cyc] for cyc in cycles] for cycles in gens]
            degree = max(len(points), 1)
        elif points and max(points) > degree:
            raise BadParameter(f"cycle point {max(points)} exceeds degree {degree}")
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
    for p in elems:  # also visits the elements appended below
        for g in gen_perms:
            q = _compose(p, g)
            if q not in index:
                index[q] = len(elems)
                elems.append(q)
                if len(elems) > max_order:
                    raise OrderCapExceeded(
                        f"permutation closure exceeded {max_order} elements"
                    )
    n = len(elems)
    # the inverse of p lists the points in the order of their images
    inv = [index[tuple(sorted(range(degree), key=p.__getitem__))] for p in elems]
    gens = tuple(index[g] for g in gen_perms)

    def mul(a: int, b: int, _e=elems, _i=index) -> int:
        return _i[_compose(_e[a], _e[b])]

    return Group(
        n,
        name=name or f"perm{n}",
        rows=product_table(n, mul, gens),
        inv_table=inv,
        known_gens=gens,
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


# str() prints ints of up to 4300 digits by default.  No group of a larger
# order can be built, so such an order exceeds every cap and is reported
# without its digits.
_DIGITS = 4300
_PRINTABLE = 10**_DIGITS


def _order_product(factors: Iterable[int]) -> int | None:
    """The product of factors >= 1, or None once a partial product reaches
    _PRINTABLE, so no number much larger is ever built."""
    order = 1
    for f in factors:
        order *= f
        if order >= _PRINTABLE:
            return None
    return order


def _cap(order: int | None, max_order: int, what: str, verb: str = "has order") -> None:
    """Raise OrderCapExceeded if `what` has more than max_order elements;
    an order of None or past _PRINTABLE always does.  The message prints
    the order only if str() can under the interpreter's current digit
    limit (at most 4300 digits), and otherwise says it has more digits."""
    if order is not None and order < _PRINTABLE and order <= max_order:
        return
    # interpreters before 3.10.7 have no limit, and 0 means none too
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digits = min(limit, _DIGITS) if limit else _DIGITS
    shown = order
    if order is None or order >= 10**digits:
        shown = f"(more than {digits} digits)"
    raise OrderCapExceeded(f"{what} {verb} {shown} > cap {max_order}")


def _cyclic(n: int, max_order: int) -> Group:
    if n < 1:
        raise BadParameter(f"C_n needs n >= 1, got {n}")
    _cap(n, max_order, f"C{n}")
    gens = (1,) if n > 1 else ()
    return Group(
        n,
        name=f"C{n}",
        rows=product_table(n, lambda a, b: (a + b) % n, gens),
        inv_table=[-a % n for a in range(n)],
        known_gens=gens,
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
        rows=product_table(n, mul, (2, 1)),
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
        rows=product_table(n, mul, (2, 1)),
        inv_table=inv,
        known_gens=(2, 1),
    )


def _symmetric(n: int, max_order: int) -> Group:
    if n < 1:
        raise BadParameter(f"S_n needs n >= 1, got {n}")
    _cap(_order_product(range(2, n + 1)), max_order, f"S{n}")
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
    _cap(_order_product(range(3, n + 1)), max_order, f"A{n}")  # n!/2
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


def _packed(bits: int, picks: Sequence[int]) -> bytes:
    """codes[x] for every x < 2**bits: bit s of the code is bit picks[s]
    of x.  Built by doubling over x's bits; a bit that is not picked
    repeats the codes so far."""
    weight = [0] * bits
    for s, t in enumerate(picks):
        weight[t] = 1 << s
    codes = [0]
    for w in weight:
        codes += [c | w for c in codes] if w else codes
    return bytes(codes)


def _ut_product(n: int) -> Callable[[int, int], int]:
    """The product of UT(n, 2) on element indices, through carry tables.

    Over F2, entry (i, j) of a*b is a_ij + b_ij + the sum over i < k < j
    of a_ik * b_kj.  So a*b = a ^ b ^ the XOR over each middle index k of
    outer[col[a]][row[b]], where col[x] packs column k of x above the
    diagonal (bit i is entry (i, k)), row[x] packs row k of x right of it
    (bit s is entry (k, k + 1 + s)), and outer[c][r] holds the carry bits
    of those two at the positions ut_entry_bit gives.
    """
    bits = n * (n - 1) // 2
    carries = []
    for k in range(1, n - 1):
        col = _packed(bits, [ut_entry_bit(n, i, k) for i in range(k)])
        row = _packed(bits, [ut_entry_bit(n, k, j) for j in range(k + 1, n)])
        width = n - 1 - k
        at = [(i, s, 1 << ut_entry_bit(n, i, k + 1 + s)) for i in range(k) for s in range(width)]
        outer = tuple(
            tuple(sum(w for i, s, w in at if c >> i & r >> s & 1) for r in range(1 << width))
            for c in range(1 << k)
        )
        carries.append((col, row, outer))

    def mul(a: int, b: int, _carries=tuple(carries)) -> int:
        c = a ^ b
        for col, row, outer in _carries:
            c ^= outer[col[a]][row[b]]
        return c

    return mul


def _unitriangular(n: int, max_order: int) -> Group:
    if n < 2:
        raise BadParameter(f"UT(n, 2) needs n >= 2, got {n}")
    bits = n * (n - 1) // 2
    order = _order_product(2 for _ in range(bits))
    _cap(order, max_order, f"UT({n},2)")
    mul = _ut_product(n)
    inv = [0] * order
    for e in range(order):
        # unitriangular elements have 2-power order; walk to the inverse
        y = e
        prev = 0
        while y != 0:
            prev = y
            y = mul(y, e)
        inv[e] = prev if e else 0
    gens = tuple(1 << ut_entry_bit(n, i, i + 1) for i in range(n - 1))
    return Group(
        order,
        name=f"UT({n},2)",
        rows=product_table(order, mul, gens, UT_TABLE_LIMIT),
        inv_table=inv,
        known_gens=gens,
    )
