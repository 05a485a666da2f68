"""Subgroups as bitmasks over element indices: closure, exhaustive
enumeration, centralizers, normalizers, normal closures and subnormal
defect."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import EnumerationLimitExceeded, SubgroupCapExceeded
from .groups import Group

DEFAULT_ENUM_LIMIT = 512
DEFAULT_SUBGROUP_CAP = 250000


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def bits_of(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Subgroup:
    """A subgroup of an ambient group, stored as a membership bitmask.

    Instances are produced by the functions in this module, which only
    ever build masks that are closed under multiplication and inverse.
    """

    __slots__ = ("ambient", "mask", "order", "_gens")

    def __init__(self, ambient: Group, mask: int, gens: tuple[int, ...] | None = None):
        if not mask & 1:
            raise ValueError("subgroup mask must contain the identity (bit 0)")
        self.ambient = ambient
        self.mask = mask
        self.order = mask.bit_count()
        if ambient.order % self.order:
            raise ValueError(
                f"order {self.order} does not divide |G| = {ambient.order}"
            )
        self._gens = tuple(gens) if gens is not None else None

    def elements(self) -> list[int]:
        return bits_of(self.mask)

    def generators(self) -> tuple[int, ...]:
        if self._gens is None:
            self._gens = _greedy_generators(self.ambient, self.mask)
        return self._gens

    def contains(self, other: "Subgroup") -> bool:
        return other.mask & ~self.mask == 0

    def __contains__(self, x: int) -> bool:
        return bool(self.mask >> x & 1)

    def key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical sort key: (order, ascending element list)."""
        return (self.order, tuple(self.elements()))

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and other.ambient is self.ambient
            and other.mask == self.mask
        )

    def __hash__(self):
        return hash((id(self.ambient), self.mask))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.ambient.name})"


@dataclass(frozen=True)
class SubgroupSet:
    """All subgroups of a group in canonical order."""

    ambient: Group
    subgroups: tuple[Subgroup, ...]

    def __iter__(self) -> Iterator[Subgroup]:
        return iter(self.subgroups)

    def __len__(self) -> int:
        return len(self.subgroups)

    def __getitem__(self, i: int) -> Subgroup:
        return self.subgroups[i]


def trivial_subgroup(g: Group) -> Subgroup:
    return Subgroup(g, 1, gens=())


def full_subgroup(g: Group) -> Subgroup:
    cached = g._cache.get("full_subgroup")
    if cached is None:
        gens = g.known_gens or None
        cached = Subgroup(g, (1 << g.order) - 1, gens=gens)
        g._cache["full_subgroup"] = cached
    return cached


def _extend(table, mask: int, elems: list[int], gens: list[int], g: int):
    """Dimino step: close subgroup (mask, elems, gens) with one new
    generator g, reading products from the group's table.  Returns the new
    (mask, elems); elems keeps discovery order and starts with a copy of
    the input's."""
    if mask >> g & 1:
        return mask, elems
    all_gens = gens + [g]
    base = list(elems)
    out = list(elems)
    reps = [g]
    qi = 0
    while qi < len(reps):
        r = reps[qi]
        qi += 1
        if mask >> r & 1:
            continue
        for h in base:
            t = table[h][r]
            if not mask >> t & 1:
                mask |= 1 << t
                out.append(t)
        row_r = table[r]
        for s in all_gens:
            t = row_r[s]
            if not mask >> t & 1:
                reps.append(t)
    return mask, out


def closure(g: Group, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup of g containing the seed indices."""
    mask = 1
    elems = [0]
    gens: list[int] = []
    for x in sorted(set(seed)):
        if not 0 <= x < g.order:
            raise ValueError(f"seed index {x} outside 0..{g.order - 1}")
        if not mask >> x & 1:
            mask, elems = _extend(g.table, mask, elems, gens, x)
            gens.append(x)
    return Subgroup(g, mask, gens=tuple(gens))


def join_subgroups(h: Subgroup, k: Subgroup) -> Subgroup:
    """Smallest subgroup containing both h and k."""
    g = h.ambient
    if k.ambient is not g:
        raise ValueError("subgroups live in different ambient groups")
    mask = h.mask
    elems = bits_of(mask)
    gens = list(h.generators())
    for s in k.generators():
        if not mask >> s & 1:
            mask, elems = _extend(g.table, mask, elems, gens, s)
            gens.append(s)
    return Subgroup(g, mask, gens=tuple(gens))


def product_set_mask(g: Group, h: Subgroup, k: Subgroup) -> int:
    """Bitmask of the literal product set HK = {h*k}."""
    mask = 0
    right = k.elements()
    for a in h.elements():
        row = g.table[a]
        for b in right:
            mask |= 1 << row[b]
    return mask


def _greedy_generators(g: Group, mask: int) -> tuple[int, ...]:
    cur = 1
    elems = [0]
    gens: list[int] = []
    rest = mask & ~1
    while cur != mask:
        x = (rest & ~cur & -(rest & ~cur)).bit_length() - 1
        cur, elems = _extend(g.table, cur, elems, gens, x)
        gens.append(x)
    return tuple(gens)


def all_subgroups(
    g: Group,
    *,
    max_subgroups: int = DEFAULT_SUBGROUP_CAP,
    max_order: int = DEFAULT_ENUM_LIMIT,
) -> SubgroupSet:
    """Every subgroup of g, exactly once, canonically ordered.

    Seeds with all cyclic subgroups, then closes the collection under
    joins with cyclic subgroups (one coset representative per coset, which
    realizes the pairwise-join fixpoint) until nothing new appears.
    """
    n = g.order
    if n > max_order:
        raise EnumerationLimitExceeded(
            f"|{g.name}| = {n} exceeds enumeration limit {max_order}"
        )
    cached = g._cache.get("subgroup_set")
    if cached is not None:
        if len(cached) > max_subgroups:
            raise SubgroupCapExceeded(
                f"more than {max_subgroups} subgroups in {g.name}"
            )
        return cached
    table = g.table
    # seed: trivial and all cyclic subgroups, in generator order
    found: dict[int, tuple[list[int], list[int]]] = {1: ([0], [])}
    worklist = [1]
    for x in range(1, n):
        mask = 1
        elems = [0]
        y = x
        while y != 0:
            mask |= 1 << y
            elems.append(y)
            y = table[y][x]
        if mask not in found:
            found[mask] = (elems, [x])
            worklist.append(mask)
    full_mask = (1 << n) - 1
    wi = 0
    while wi < len(worklist):
        kmask = worklist[wi]
        wi += 1
        if kmask == full_mask:
            continue
        elems, gens = found[kmask]
        covered = kmask
        for x in range(1, n):
            if covered >> x & 1:
                continue
            for h in elems:
                covered |= 1 << table[h][x]
            new_mask, new_elems = _extend(table, kmask, elems, gens, x)
            if new_mask not in found:
                found[new_mask] = (new_elems, gens + [x])
                worklist.append(new_mask)
                if len(found) > max_subgroups:
                    raise SubgroupCapExceeded(
                        f"more than {max_subgroups} subgroups in {g.name}"
                    )
    subs = [
        Subgroup(g, mask, gens=tuple(gens))
        for mask, (elems, gens) in found.items()
    ]
    subs.sort(key=Subgroup.key)
    result = SubgroupSet(g, tuple(subs))
    g._cache["subgroup_set"] = result
    return result


# ---------------------------------------------------------------------------
# Centralizers and normal structure


def _element_centralizer(g: Group, s: int) -> int:
    """Bitmask of C_G(s), formed once per element and kept on the group."""
    cache = g._cache.setdefault("element_centralizers", {})
    mask = cache.get(s)
    if mask is None:
        table = g.table
        row_s = table[s]
        mask = 0
        for x in range(g.order):
            if table[x][s] == row_s[x]:
                mask |= 1 << x
        cache[s] = mask
    return mask


def centralizer(g: Group, h: Subgroup) -> Subgroup:
    """Elements of g commuting with every element of h: the intersection
    of C_G(s) over a generating set of h, since commuting with the
    generators implies commuting with all products."""
    mask = (1 << g.order) - 1
    for s in h.generators():
        mask &= _element_centralizer(g, s)
    return Subgroup(g, mask)


def center(g: Group) -> Subgroup:
    return centralizer(g, full_subgroup(g))


def normalizer(g: Group, h: Subgroup) -> Subgroup:
    """Elements x with h^x = h."""
    gens = h.generators()
    mul = g.mul
    hmask = h.mask
    mask = 0
    for x in range(g.order):
        xi = g.inv(x)
        if all(hmask >> mul(mul(xi, s), x) & 1 for s in gens):
            mask |= 1 << x
    return Subgroup(g, mask)


def is_normal(g: Group, h: Subgroup) -> bool:
    return normalizer(g, h).order == g.order


def conjugate_subgroup(g: Group, h: Subgroup, x: int) -> Subgroup:
    """h^x = x^-1 h x."""
    mul = g.mul
    xi = g.inv(x)
    mask = 0
    for e in h.elements():
        mask |= 1 << mul(mul(xi, e), x)
    return Subgroup(g, mask, gens=tuple(mul(mul(xi, s), x) for s in h.generators()))


def normal_closure(big: Subgroup, small: Subgroup) -> Subgroup:
    """Smallest subgroup of `big` containing `small` and normal in `big`."""
    g = big.ambient
    if small.ambient is not g:
        raise ValueError("subgroups live in different ambient groups")
    if small.mask & ~big.mask:
        raise ValueError("normal_closure needs small <= big")
    mul = g.mul
    mask = small.mask
    elems = bits_of(mask)
    gens = list(small.generators())
    kgens = big.generators()
    kinvs = [g.inv(k) for k in kgens]
    changed = True
    while changed:
        changed = False
        for k, ki in zip(kgens, kinvs):
            for s in list(gens):
                c = mul(mul(ki, s), k)
                if not mask >> c & 1:
                    mask, elems = _extend(g.table, mask, elems, gens, c)
                    gens.append(c)
                    changed = True
    return Subgroup(g, mask, gens=tuple(gens))


def subnormal_defect(g: Group, h: Subgroup) -> int | None:
    """Least i with K_i = h in the chain K_0 = G, K_{i+1} = <h^{K_i}>.

    Returns None when the chain stabilizes above h (h not subnormal).
    """
    current = full_subgroup(g)
    depth = 0
    while current.mask != h.mask:
        nxt = normal_closure(current, h)
        depth += 1
        if nxt.mask == current.mask:
            return None
        current = nxt
    return depth
