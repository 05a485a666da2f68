"""Direct products and wreath products by a cyclic top, with the
structural maps (projections, base, diagonal) the lattice computations
quantify over."""

from __future__ import annotations

import itertools

from .errors import BadParameter
from .groups import DEFAULT_ORDER_CAP, Group, _cap, _order_product, product_table
from .records import Record
from .subgroups import Subgroup, full_subgroup


class DirectProductMeta(Record):
    """Coordinate structure of a two-factor direct product."""

    __slots__ = ("factors",)
    factors: tuple[Group, Group]

    def coord_of(self, x: int) -> tuple[int, int]:
        return divmod(x, self.factors[1].order)

    def embed(self, factor: int, x: int) -> int:
        if factor == 0:
            return x * self.factors[1].order
        return x


def direct_product(
    g: Group, h: Group, *, max_order: int = DEFAULT_ORDER_CAP
) -> Group:
    """Componentwise product on index pairs (a, b) packed as a*|H| + b."""
    order = g.order * h.order
    _cap(order, max_order, f"|{g.name} x {h.name}|", "=")
    o2 = h.order
    right = f"({h.name})" if " x " in h.name else h.name
    gt, ht = g.table, h.table

    def mul(x: int, y: int) -> int:
        a1, b1 = divmod(x, o2)
        a2, b2 = divmod(y, o2)
        return gt[a1][a2] * o2 + ht[b1][b2]

    gens = tuple(x * o2 for x in g.known_gens) + h.known_gens
    return Group(
        order,
        name=f"{g.name} x {right}",
        rows=product_table(order, mul, gens),
        inv_table=[g.inv(a) * o2 + h.inv(b) for a in range(g.order) for b in range(o2)],
        known_gens=gens,
        product_meta=DirectProductMeta(factors=(g, h)),
    )


def projection(p: Group, u: Subgroup, factor: int) -> Subgroup:
    """Image of u under the coordinate projection onto factor 0 or 1."""
    meta = p.product_meta
    if not isinstance(meta, DirectProductMeta):
        raise ValueError(f"{p.name} is not a direct product")
    target = meta.factors[factor]
    mask = 0
    for x in u.elements():
        mask |= 1 << meta.coord_of(x)[factor]
    gens = []
    for s in u.generators():
        i = meta.coord_of(s)[factor]
        if i and i not in gens:
            gens.append(i)
    return Subgroup(target, mask, gens=tuple(gens))


def product_subgroup(p: Group, x: Subgroup, y: Subgroup) -> Subgroup:
    """The subgroup x cross y inside the direct product p."""
    meta = p.product_meta
    if not isinstance(meta, DirectProductMeta):
        raise ValueError(f"{p.name} is not a direct product")
    if x.ambient is not meta.factors[0] or y.ambient is not meta.factors[1]:
        raise ValueError("factor subgroups do not match the product's factors")
    o2 = meta.factors[1].order
    mask = 0
    for a in x.elements():
        mask |= y.mask << (a * o2)
    gens = tuple(a * o2 for a in x.generators()) + y.generators()
    return Subgroup(p, mask, gens=gens)


# ---------------------------------------------------------------------------
# Wreath products by a cyclic top


class WreathMeta(Record):
    """Coordinate structure of W = G wr C_n.

    Base elements are functions f: slots -> G stored as n-digit base-|G|
    numbers (slot 0 most significant); the full index is that number times
    n plus the power of the distinguished top generator sigma.
    """

    __slots__ = ("bottom", "top_order")
    bottom: Group
    top_order: int

    @property
    def sigma(self) -> int:
        return 1

    def coord_of(self, x: int) -> tuple[tuple[int, ...], int]:
        rest, k = divmod(x, self.top_order)
        digits = []
        for _ in range(self.top_order):
            rest, d = divmod(rest, self.bottom.order)
            digits.append(d)
        return tuple(reversed(digits)), k

    def embed(self, f: tuple[int, ...], k: int) -> int:
        acc = 0
        for v in f:
            acc = acc * self.bottom.order + v
        return acc * self.top_order + k


def wreath_cyclic(g: Group, n: int, *, max_order: int = DEFAULT_ORDER_CAP) -> Group:
    """W = B semidirect C_n with B = G^n; conjugation by the top generator
    shifts base coordinates cyclically."""
    if n < 1:
        raise BadParameter(f"wreath top order must be >= 1, got {n}")
    go = g.order
    # n * go**n one factor at a time, skipping the factors 1 of a trivial G
    powers = (go for _ in range(n if go > 1 else 0))
    order = _order_product(itertools.chain((n,), powers))
    _cap(order, max_order, f"|{g.name} wr C{n}|", "=")
    # one group per (bottom, top order), looked up after the cap, so the
    # corpus spec `D12 wr C2` and d12-counterexample share one group and
    # its centralizers
    kept = g._cache.setdefault("wreaths", {})
    if n in kept:
        return kept[n]
    meta = WreathMeta(bottom=g, top_order=n)
    size = go**n
    # shifts[k][f] is the base element s -> f(s + k): the base index with
    # its k leading digits rotated to the end
    shifts = [
        [f % go ** (n - k) * go**k + f // go ** (n - k) for f in range(size)]
        for k in range(n)
    ]
    # (f, k)^-1 = (s -> f(s - k)^-1, -k), base inverses digit by digit
    base_inv = [0]
    for _ in range(n):
        base_inv = [
            a * len(base_inv) + b for a in map(g.inv, range(go)) for b in base_inv
        ]
    inv = [shifts[-k][base_inv[f]] * n + -k % n for f in range(size) for k in range(n)]

    def mul(x: int, y: int) -> int:
        fx, k = meta.coord_of(x)
        fy, l = meta.coord_of(y)
        out = tuple(g.mul(fx[s], fy[(s + k) % n]) for s in range(n))
        return meta.embed(out, (k + l) % n)

    # e_0(v) = v * block is v in slot 0, the leading digit; sigma = 1
    # generates the top, which is trivial when n == 1
    block = order // go
    top = (meta.sigma,) if n > 1 else ()
    gens = tuple(x * block for x in g.known_gens) + top
    succ = [*range(1, n), 0]
    rest = range(block)

    def row(s: int) -> list[int]:
        if s < block:  # sigma = 1, as every e_0(v) is at least block
            # sigma sends (f, l) to (shifts[1][f], l + 1)
            return [f * n + l for f in shifts[1] for l in succ]
        # e_0(v) multiplies the leading digit by v and keeps the rest
        lead = map(g.table[s // block].__getitem__, range(go))
        return [c * block + r for c in lead for r in rest]

    bottom_name = f"({g.name})" if " " in g.name else g.name
    kept[n] = w = Group(
        order,
        name=f"{bottom_name} wr C{n}",
        rows=product_table(order, mul, gens, row=row),
        inv_table=inv,
        known_gens=gens,
        product_meta=meta,
    )
    return w


def _wreath_meta(w: Group) -> WreathMeta:
    meta = w.product_meta
    if not isinstance(meta, WreathMeta):
        raise ValueError(f"{w.name} is not a wreath product")
    return meta


def base_subgroup(w: Group) -> Subgroup:
    """The normal base B = G^n (all elements with trivial top part)."""
    cached = w._cache.get("wreath_base")
    if cached is None:
        meta = _wreath_meta(w)
        parts = [full_subgroup(meta.bottom)] * meta.top_order
        cached = w._cache["wreath_base"] = base_product_subgroup(w, parts)
    return cached


def diagonal_subgroup(w: Group, h: Subgroup) -> Subgroup:
    """Constant base functions with value in h <= G."""
    meta = _wreath_meta(w)
    if h.ambient is not meta.bottom:
        raise ValueError("diagonal_subgroup needs a subgroup of the bottom group")
    n = meta.top_order
    mask = 0
    for x in h.elements():
        mask |= 1 << meta.embed((x,) * n, 0)
    gens = tuple(meta.embed((x,) * n, 0) for x in h.generators())
    return Subgroup(w, mask, gens=gens)


def base_product_subgroup(w: Group, parts: list[Subgroup]) -> Subgroup:
    """The subgroup H_0 x ... x H_{n-1} of the base, one factor per slot."""
    meta = _wreath_meta(w)
    n = meta.top_order
    if len(parts) != n:
        raise ValueError(f"need {n} factors, got {len(parts)}")
    for h in parts:
        if h.ambient is not meta.bottom:
            raise ValueError("base_product_subgroup factors live in the bottom group")
    mask = 0
    for combo in itertools.product(*[h.elements() for h in parts]):
        mask |= 1 << meta.embed(combo, 0)
    gens = []
    for s, h in enumerate(parts):
        for x in h.generators():
            gens.append(meta.embed(tuple(x if i == s else 0 for i in range(n)), 0))
    return Subgroup(w, mask, gens=tuple(gens))


def base_projection(w: Group, u: Subgroup, slot: int) -> Subgroup:
    """Image of u <= B under the coordinate projection onto one slot
    (slots are 0-based; slot 0 is the first coordinate)."""
    meta = _wreath_meta(w)
    base_mask = base_subgroup(w).mask
    if u.mask & ~base_mask:
        raise ValueError("base_projection needs a subgroup of the base")
    mask = 0
    for x in u.elements():
        f, _ = meta.coord_of(x)
        mask |= 1 << f[slot]
    gens = []
    for s in u.generators():
        i = meta.coord_of(s)[0][slot]
        if i and i not in gens:
            gens.append(i)
    return Subgroup(meta.bottom, mask, gens=tuple(gens))
