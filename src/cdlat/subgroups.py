"""Subgroups as bitmasks over element indices: closure, exhaustive
enumeration and its replay inside one subgroup (both read one discovery
search), centralizers, normalizers, normal closures and subnormal
defect."""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Sequence

from .errors import EnumerationLimitExceeded, SubgroupCapExceeded
from .groups import DEFAULT_ORDER_CAP, TABLE_LIMIT, Group

DEFAULT_ENUM_LIMIT = 512
DEFAULT_SUBGROUP_CAP = 250000


def resolve_caps(max_order: int | None) -> tuple[int, int]:
    """(order cap, enumeration limit) for a `--max-order` value: None
    keeps the defaults, N sets both to N."""
    if max_order is None:
        return DEFAULT_ORDER_CAP, DEFAULT_ENUM_LIMIT
    return max_order, max_order


def bits_of(mask: int) -> list[int]:
    """Ascending indices of the set bits of mask >= 0, one bigint AND,
    XOR and bit_length per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# byte b to 255 - (b with its bits reversed): of two bytes, the one set at
# the lowest bit where they differ maps lower
_LOW_BIT_FIRST = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))


def canonical_key(mask: int) -> tuple[int, bytes]:
    """Canonical sort key of a subgroup mask: its order, then its bytes,
    lowest first, each through _LOW_BIT_FIRST.  Masks of one order sort as
    their ascending element lists do: the first element where those lists
    differ is the lowest bit where the masks differ, and the list holding
    it sorts first.  Neither byte string is a prefix of the other, since a
    mask's last byte is nonzero and both have the same bit count."""
    data = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return (mask.bit_count(), data.translate(_LOW_BIT_FIRST))


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
        """The recorded generators, or else the greedy ones: each is the
        least element outside the subgroup its predecessors generate."""
        if self._gens is None:
            self._gens = _grow(self.ambient, 1, [], self.elements()).generators()
        return self._gens

    def __contains__(self, x: int) -> bool:
        return bool(self.mask >> x & 1)

    def key(self) -> tuple[int, bytes]:
        """Canonical sort key: by order, then as the ascending element
        lists (see canonical_key)."""
        return canonical_key(self.mask)

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


def full_subgroup(g: Group) -> Subgroup:
    cached = g._cache.get("full_subgroup")
    if cached is None:
        cached = Subgroup(g, (1 << g.order) - 1, gens=g.known_gens)
        g._cache["full_subgroup"] = cached
    return cached


class _Shifts:
    """`bit[i] == 1 << i`, shifted on each read."""

    __slots__ = ()

    def __getitem__(self, i: int) -> int:
        return 1 << i


def _shift_table(g: Group) -> Sequence[int]:
    """bit[i] = 1 << i for every element index of g, so the Dimino step
    ORs each coset element in as bit[t] instead of shifting 1 again.

    Groups of order up to TABLE_LIMIT keep the list in their memo, built
    on first use; entry i is an i-bit int, so it takes about |G|^2/16
    bytes, at most 1 MB.  Larger groups, most of them formula-backed,
    shift on each read instead: their list would take up to 25 MB at the
    default order cap."""
    if g.order > TABLE_LIMIT:
        return _Shifts()
    bit = g._cache.get("shift_table")
    if bit is None:
        bit = g._cache["shift_table"] = [1 << i for i in range(g.order)]
    return bit


def _extend(
    table,
    bit: Sequence[int],
    above: Sequence[int],
    mask: int,
    blocked: int,
    elems: list[int],
    gens: Sequence[int],
    g: int,
) -> tuple[int, int]:
    """Dimino step: close the subgroup H = (mask, gens) with one new
    generator g, reading products from the group's table and single-bit
    masks from the group's shift table `bit`.  `elems` lists H's elements
    and is only read.

    Returns the mask of <H, g>, a union of right cosets H*r, and `blocked`
    ORed with above[t] for each element t the step adds, so a caller that
    passes the OR of above[h] over H gets that OR over <H, g>.  The walk
    starts at H*g, fills each coset once, and goes on from each coset H*r
    it fills to H*r*s for every generator s of H and to H*r*g.  It appends
    to the list it iterates, and skips a representative whose coset is
    already filled."""
    step = (*gens, g)
    reps = [g]
    for r in reps:
        if mask & bit[r]:
            continue
        for h in elems:
            t = table[h][r]
            mask |= bit[t]
            blocked |= above[t]
        row_r = table[r]
        for s in step:
            t = row_r[s]
            if not mask & bit[t]:
                reps.append(t)
    return mask, blocked


def _grow(g: Group, mask: int, gens: list[int], xs: Iterable[int]) -> Subgroup:
    """The subgroup generated by H = (mask, gens) and the elements xs
    yields: each x outside the growing mask is adjoined by one Dimino step
    and appended to gens, which xs may read as it grows.  The steps carry
    no coset rules: their table `above` is all zeros."""
    table, bit, above = g.table, _shift_table(g), bytes(g.order)
    for x in xs:
        if not mask >> x & 1:
            mask = _extend(table, bit, above, mask, 0, bits_of(mask), gens, x)[0]
            gens.append(x)
    return Subgroup(g, mask, gens=tuple(gens))


def closure(g: Group, seed: Iterable[int]) -> Subgroup:
    """Smallest subgroup of g containing the seed indices."""
    xs = sorted(set(seed))
    for x in xs:
        if not 0 <= x < g.order:
            raise ValueError(f"seed index {x} outside 0..{g.order - 1}")
    return _grow(g, 1, [], xs)


def join_subgroups(h: Subgroup, k: Subgroup) -> Subgroup:
    """Smallest subgroup containing both h and k."""
    if k.ambient is not h.ambient:
        raise ValueError("subgroups live in different ambient groups")
    return _grow(h.ambient, h.mask, list(h.generators()), k.generators())


class LatticeIndex:
    """The subgroup lattice of a group over positions in `subs`, every
    subgroup of the group sorted by order, as all_subgroups returns them.

    `above[i]` is the bitset of the j with subs[i] <= subs[j], subs[j] at
    bit n - 1 - j: G is bit 0, and the least subgroup above a set is its
    highest bit, read by bit_length.  `index` maps a mask to its position
    and `cent[i]` is the position of C_G(subs[i]).  `holding[x]`, the
    bitset of the subgroups that contain the element x, takes one set-bit
    walk per subgroup; a subgroup lies under exactly the subgroups that
    hold all its generators, so above[i] is the AND of holding[x] over the
    generators x of subs[i]: O(sum |H|) steps in all, where a containment
    test per pair takes n^2/2."""

    __slots__ = ("above", "index", "cent")

    def __init__(self, g: Group, subs: Sequence[Subgroup]):
        n = len(subs)
        holding = [0] * g.order
        for j, h in enumerate(subs):
            bit = 1 << (n - 1 - j)
            for x in h.elements():
                holding[x] |= bit
        every = (1 << n) - 1
        above = []
        for h in subs:
            mask = every
            for x in h.generators():
                mask &= holding[x]
            above.append(mask)
        self.above = above
        self.index = index = {h.mask: i for i, h in enumerate(subs)}
        self.cent = [index[centralizer(g, h).mask] for h in subs]


def product_mask(g: Group, left: Sequence[int], right: Sequence[int]) -> int:
    """Bitmask of the product set HK, from the element lists `left` of a
    subgroup H and `right` of K, built as the union of the right cosets
    H*b over b in K.  A b already in the union lies in some coset H*b'
    filled before, so H*b = H*b' and b is skipped: |K| membership tests
    and |HK| products instead of |H|*|K| products."""
    table, bit = g.table, _shift_table(g)
    mask = 0
    for b in right:
        if not mask & bit[b]:
            for a in left:
                mask |= bit[table[a][b]]
    return mask


def _discover(g: Group, within: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The discovery BFS over the subgroups of the subgroup `within`.

    Yields each subgroup once, as its mask and the generators it was first
    reached by: the trivial subgroup, then every cyclic subgroup in
    generator order, then the collection closed under joins with cyclic
    subgroups, which realizes the pairwise-join fixpoint.  Each popped K
    is joined with the elements x outside it in index order, walking the
    set bits of `todo`, lowest first, one Dimino step per x.  Every step
    reads the group's one shift table.

    A subgroup's recorded generators are its lexicographically least
    shortest generating sequence (the tests check this against a plain
    search), so a new join <K, x> must have K's generators plus x as that
    sequence.  It cannot, and `todo` skips x, if K is trivial (its joins
    are the cyclic subgroups, found first), if x is at most K's last
    generator (not ascending), if x is not the least generator x' of <x>,
    or if h*x < x or x*h < x for some h in K: x' or that product gives
    the same join from a sequence that sorts lower.

    Reports print those generators, so the traversal order is part of the
    output.  Elements are tried in g's index order, so for L <= H the run
    inside H records the same generators for L as the run inside G.
    """
    table, inv, bit = g.table, g._inv, _shift_table(g)
    # the trivial and every cyclic subgroup, in generator order; `least`
    # holds the least generator x of each, and above[h] the x with
    # h*x < x or x*h < x, as h = y*x^-1 or x^-1*y for a y < x in `within`
    found: dict[int, tuple[int, ...]] = {1: ()}
    least = 0
    above = [0] * g.order
    elements = bits_of(within)
    for i, x in enumerate(elements[1:], 1):
        mask = 1
        y = x
        while y != 0:
            mask |= bit[y]
            y = table[y][x]
        if mask not in found:
            found[mask] = (x,)
            least |= bit[x]
            xi = inv[x]
            for y in elements[:i]:
                above[table[y][xi]] |= bit[x]
                above[table[xi][y]] |= bit[x]
    yield from found.items()
    # each entry is a subgroup and the OR of above[h] over its elements,
    # which a join carries from its Dimino step; a cyclic seed forms it
    # when popped, so a replay that stops early pays only for its pops
    worklist: deque[tuple[int, int | None]] = deque((kmask, None) for kmask in list(found)[1:])
    while worklist:  # which grows as joins are found
        kmask, blocked = worklist.popleft()
        gens = found[kmask]
        if blocked is None:
            blocked = 0
            for h in bits_of(kmask):
                blocked |= above[h]
        todo = least & ~kmask & ~blocked & -(2 << gens[-1])
        if not todo:
            continue
        elems = bits_of(kmask)
        while todo:
            low = todo & -todo
            todo ^= low
            x = low.bit_length() - 1
            new_mask, new_blocked = _extend(table, bit, above, kmask, blocked, elems, gens, x)
            if new_mask not in found:
                found[new_mask] = gens + (x,)
                worklist.append((new_mask, new_blocked))
                yield new_mask, found[new_mask]


def _capped_discovery(g: Group, within: int, max_subgroups: int) -> Iterator[tuple]:
    """_discover, raising SubgroupCapExceeded at its (max_subgroups + 1)-th
    subgroup."""
    for count, item in enumerate(_discover(g, within), 1):
        if count > max_subgroups:
            raise SubgroupCapExceeded(f"more than {max_subgroups} subgroups in {g.name}")
        yield item


def check_enumeration_limit(g: Group, max_order: int) -> None:
    """Raise EnumerationLimitExceeded if g is too large to enumerate."""
    if g.order > max_order:
        raise EnumerationLimitExceeded(
            f"|{g.name}| = {g.order} exceeds enumeration limit {max_order}"
        )


def all_subgroups(g: Group, *, max_order: int = DEFAULT_ENUM_LIMIT) -> tuple[Subgroup, ...]:
    """Every subgroup of g, exactly once, canonically ordered, each with the
    generators it was discovered by.  Raises SubgroupCapExceeded past
    DEFAULT_SUBGROUP_CAP subgroups."""
    check_enumeration_limit(g, max_order)
    cached = g._cache.get("subgroups")
    if cached is None:
        found = _capped_discovery(g, (1 << g.order) - 1, DEFAULT_SUBGROUP_CAP)
        subs = (Subgroup(g, mask, gens=gens) for mask, gens in found)
        cached = g._cache["subgroups"] = tuple(sorted(subs, key=Subgroup.key))
    return cached


def replay_subgroups(
    g: Group,
    within: int,
    masks: Sequence[int],
    *,
    max_subgroups: int = DEFAULT_SUBGROUP_CAP,
) -> list[tuple[int, ...]]:
    """The generators all_subgroups(g) records for each of the subgroups
    `masks` of the subgroup `within`, found by the discovery BFS inside
    `within` alone.  The BFS stops at the last of them; max_subgroups caps
    the subgroups it discovers up to there."""
    wanted = set(masks)
    found = {}
    for mask, gens in _capped_discovery(g, within, max_subgroups):
        if mask in wanted:
            found[mask] = gens
            if len(found) == len(wanted):
                return [found[m] for m in masks]
    raise ValueError(f"targets are not subgroups of {within:#x} in {g.name}")


# ---------------------------------------------------------------------------
# Centralizers and normal structure


def element_centralizer(g: Group, s: int) -> int:
    """Bitmask of C_G(s), formed once per element and kept on the group.

    C_G(s) is the stabilizer of s under conjugation, so no call scans G
    (orbit-stabilizer; Seress, *Permutation Group Algorithms*, 4.1).  The
    first call for a conjugacy class walks it from s and closes the
    Schreier generators of C_G(s), and the group keeps (s, t_y) with
    s^(t_y) = y for every member y.  A later call for y conjugates:
    C_G(y) = t_y^-1 * C_G(s) * t_y, |C_G(s)| conjugations over the element
    list of C_G(s), formed once per class."""
    cache = g._cache.setdefault("element_centralizers", {})
    mask = cache.get(s)
    if mask is None:
        transversal = g._cache.setdefault("class_transversal", {})
        if s in transversal:
            table, bit = g.table, _shift_table(g)
            rep, t = transversal[s]
            listed = g._cache.setdefault("class_centralizer_elements", {})
            elems = listed.get(rep)
            if elems is None:
                elems = listed[rep] = bits_of(cache[rep])
            row_ti = table[g._inv[t]]
            mask = 0
            for c in elems:
                mask |= bit[table[row_ti[c]][t]]
        else:
            mask = _class_walk(g, s, transversal)
        cache[s] = mask
    return mask


def _class_walk(g: Group, s: int, transversal: dict[int, tuple[int, int]]) -> int:
    """Bitmask of C_G(s) from the class of s, which the walk records in
    `transversal`.  The class is the orbit of s under y -> a^-1*y*a for
    the generators a of g; an edge from y to a member z = y^a met before
    gives the Schreier generator t_y*a*t_z^-1, and these generate the
    stabilizer C_G(s).  Raises AssertionError unless
    |C_G(s)| * |class| = |G|."""
    table, inv = g.table, g._inv
    steps = [(a, table[inv[a]]) for a in full_subgroup(g).generators()]
    trans = {s: 0}
    orbit = [s]
    schreier = []
    for y in orbit:  # which grows as the class is found
        row_t = table[trans[y]]
        for a, row_ai in steps:
            z = table[row_ai[y]][a]
            ta = row_t[a]
            tz = trans.get(z)
            if tz is None:
                trans[z] = ta
                orbit.append(z)
            else:
                schreier.append(table[ta][inv[tz]])
    if len(orbit) == 1:
        mask = (1 << g.order) - 1
    else:
        mask = _grow(g, 1, [], schreier).mask
    if mask.bit_count() * len(orbit) != g.order:
        raise AssertionError(
            f"|C_G({s})| * |class| = {mask.bit_count()} * {len(orbit)} != |{g.name}|"
        )
    for y, t in trans.items():
        transversal[y] = (s, t)
    return mask


def centralizer(g: Group, h: Subgroup) -> Subgroup:
    """Elements of g commuting with every element of h: the intersection
    of C_G(s) over a generating set of h, since commuting with the
    generators implies commuting with all products."""
    mask = (1 << g.order) - 1
    for s in h.generators():
        mask &= element_centralizer(g, s)
    return Subgroup(g, mask)


def center(g: Group) -> Subgroup:
    return centralizer(g, full_subgroup(g))


def normalizer(g: Group, h: Subgroup) -> Subgroup:
    """Elements x with h^x = h."""
    table = g.table
    inv = g._inv
    gens = h.generators()
    hmask = h.mask
    mask = 0
    for x in range(g.order):
        row_xi = table[inv[x]]
        if all(hmask >> table[row_xi[s]][x] & 1 for s in gens):
            mask |= 1 << x
    return Subgroup(g, mask)


def normal_closure(big: Subgroup, small: Subgroup) -> Subgroup:
    """Smallest subgroup of `big` containing `small` and normal in `big`."""
    g = big.ambient
    if small.ambient is not g:
        raise ValueError("subgroups live in different ambient groups")
    if small.mask & ~big.mask:
        raise ValueError("normal_closure needs small <= big")
    table = g.table
    gens = list(small.generators())
    kgens = [(k, g.inv(k)) for k in big.generators()]
    # the mask only grows, so each generator, those the fold appends
    # included, is conjugated by each of big's generators once
    rows = map(table.__getitem__, gens)
    conjugates = (table[ki][row_s[k]] for row_s in rows for k, ki in kgens)
    return _grow(g, small.mask, gens, conjugates)


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
