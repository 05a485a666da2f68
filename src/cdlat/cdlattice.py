"""The measure |H| * |C_G(H)|, its maximum over all subgroups, the
sublattice of subgroups attaining it, and the centrally large subset.

The maximum is found among centralizers (the intersection-closure of the
element centralizers), so no subgroup enumeration is needed."""

from __future__ import annotations

from .errors import TooLargeForIso
from .groups import Group
from .records import Record
from .subgroups import (
    Subgroup,
    bits_of,
    canonical_key,
    centralizer,
    element_centralizer,
    subnormal_defect,
)

ISO_MEMBER_CAP = 12


def measure(g: Group, h: Subgroup) -> int:
    """|H| * |C_G(H)|, exact."""
    return h.order * centralizer(g, h).order


def max_measure(g: Group) -> int:
    """Largest measure over all subgroups of g."""
    return cd_lattice(g).max_measure


def _maximal_centralizers(g: Group, within: int) -> tuple[int, list[tuple[int, int]]]:
    """Largest |H| * |C_S(H)| over the subgroups H of S = `within` (a
    mask), and the (H, C_S(H)) mask pairs attaining it, canonically ordered.

    Every H has m(H) <= m(C_S(C_S(H))), with equality only if H is that
    double centralizer, so the maximum is attained exactly on centralizers
    in S: the intersections of the C_S(x) = C_G(x) & S, x in S, with S
    itself as the empty intersection.

    The scan pairs each closed M with C_S(M), the union of the classes
    with key c >= M.  If M <= Z(S), C_S(M) = S.  Otherwise M holds some x
    outside Z(S), and every key c >= M holds x, so only the keys holding
    the lowest such x are tested; their list is formed once per x.
    """
    # elements of S by their centralizer in S: y is in C_S(M) exactly
    # when M <= C_S(y), so C_S(M) is the union of the classes above M
    classes: dict[int, int] = {}
    for y in bits_of(within):
        c = element_centralizer(g, y) & within
        classes[c] = classes.get(c, 0) | 1 << y
    closed = {within}
    for c in classes:
        if c not in closed:
            closed |= {m & c for m in closed}
    center = classes[within]
    candidates: dict[int, list[tuple[int, int]]] = {}
    best = 0
    pairs: list[tuple[int, int]] = []
    for m in closed:
        outside = m & ~center
        if not outside:
            cent = within
        else:
            x = (outside & -outside).bit_length() - 1
            keys = candidates.get(x)
            if keys is None:
                keys = candidates[x] = [(c, ys) for c, ys in classes.items() if c >> x & 1]
            cent = 0
            for c, ys in keys:
                if m & ~c == 0:
                    cent |= ys
        value = m.bit_count() * cent.bit_count()
        if value > best:
            best = value
            pairs = [(m, cent)]
        elif value == best:
            pairs.append((m, cent))
    pairs.sort(key=lambda p: canonical_key(p[0]))
    return best, pairs


class CDMember(Record):
    """One maximal-measure subgroup with its report annotations."""

    __slots__ = ("subgroup", "is_normal", "defect", "is_centrally_large", "centralizer_index")
    subgroup: Subgroup
    is_normal: bool
    defect: int
    is_centrally_large: bool
    centralizer_index: int


class CDResult(Record):
    """The maximal-measure sublattice of a group."""

    __slots__ = ("group", "max_measure", "members", "above")
    group: Group
    max_measure: int
    members: tuple[CDMember, ...]
    # bit j of above[i] is set when j != i and members[i] <= members[j]
    above: tuple[int, ...]

    @property
    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        return _hasse_edges(self.above)

    def member_masks(self) -> list[int]:
        return [m.subgroup.mask for m in self.members]

    def cl_masks(self) -> list[int]:
        return [m.subgroup.mask for m in self.members if m.is_centrally_large]


def cd_lattice(g: Group) -> CDResult:
    """All subgroups of maximal measure, with their up-sets (the Hasse
    cover edges are read off them), CL flags, normality/defect
    annotations and the centralizer pairing.

    Members come from the centralizer closure, as bare masks, so no
    subgroup is enumerated and no order limit applies; the report replays
    the generators all_subgroups records for them.
    """
    cached = g._cache.get("cd_result")
    if cached is not None:
        return cached
    best, pairs = _maximal_centralizers(g, (1 << g.order) - 1)
    mask_index = {m: i for i, (m, _) in enumerate(pairs)}
    members = []
    for m, closure_cent in pairs:
        h = Subgroup(g, m)
        cent = centralizer(g, h).mask
        if cent != closure_cent:
            raise AssertionError(
                f"centralizer closure disagrees with C(H) in {g.name}"
            )
        if cent not in mask_index:
            raise AssertionError(
                f"centralizer of a member is not a member in {g.name}"
            )
        # defect 0 is G itself, 1 a proper normal subgroup, >= 2 otherwise
        defect = subnormal_defect(g, h)
        if defect is None:
            raise AssertionError(f"non-subnormal lattice member in {g.name}")
        members.append(
            CDMember(
                subgroup=h,
                is_normal=defect <= 1,
                defect=defect,
                is_centrally_large=cent & ~h.mask == 0,
                centralizer_index=mask_index[cent],
            )
        )
    result = CDResult(
        group=g, max_measure=best, members=tuple(members), above=_above(list(mask_index))
    )
    g._cache["cd_result"] = result
    return result


def _hasse_edges(above: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    # the transitive reduction (Aho, Garey & Ullman 1972) of the strict
    # up-sets `above`: j covers i when no k strictly above i lies strictly
    # below j
    edges = []
    for i, up in enumerate(above):
        covers = up
        for j in bits_of(up):
            covers &= ~above[j]
        edges.extend((i, j) for j in bits_of(covers))
    return tuple(edges)


def _above(masks: list[int]) -> tuple[int, ...]:
    """For each i, the bitset of the j != i with masks[i] <= masks[j]."""
    return tuple(
        sum(1 << j for j, mj in enumerate(masks) if j != i and mi & ~mj == 0)
        for i, mi in enumerate(masks)
    )


def cl_subgroups(g: Group) -> tuple[Subgroup, ...]:
    """Members U of the lattice with Z(U) = C_G(U)."""
    result = cd_lattice(g)
    return tuple(m.subgroup for m in result.members if m.is_centrally_large)


class SubgroupCD(Record):
    """Lattice of a subgroup S <= G, as masks of G."""

    __slots__ = ("max_measure", "member_masks", "cl_masks")
    max_measure: int
    member_masks: tuple[int, ...]
    cl_masks: tuple[int, ...]


def cd_of_subgroup(g: Group, s: Subgroup) -> SubgroupCD:
    """Lattice of s as its own ambient group, from centralizers in s:
    C_S(H) = C_G(H) & S.  Memoized on g per s."""
    cache = g._cache.setdefault("sub_cd", {})
    result = cache.get(s.mask)
    if result is None:
        best, pairs = _maximal_centralizers(g, s.mask)
        result = cache[s.mask] = SubgroupCD(
            max_measure=best,
            member_masks=tuple(m for m, _ in pairs),
            cl_masks=tuple(m for m, cent in pairs if cent & ~m == 0),
        )
    return result


# ---------------------------------------------------------------------------
# Order-isomorphism of small lattices


def lattice_isomorphic(a: CDResult, b: CDResult) -> bool:
    """True iff a bijection preserving <= in both directions exists.

    Brute-force backtracking over member bijections, pruned by iterated
    (up-set size, down-set size) signatures refined over the strict up-
    and down-sets; capped at ISO_MEMBER_CAP members.
    """
    if len(a.members) > ISO_MEMBER_CAP or len(b.members) > ISO_MEMBER_CAP:
        raise TooLargeForIso(
            f"lattice isomorphism capped at {ISO_MEMBER_CAP} members"
        )
    if len(a.members) != len(b.members):
        return False
    up_a, up_b = a.above, b.above
    sig_a = _signatures(up_a)
    sig_b = _signatures(up_b)
    if sorted(sig_a) != sorted(sig_b):
        return False
    n = len(sig_a)
    order = sorted(range(n), key=lambda i: (sig_a[i], i))
    used = [False] * n

    def assign(pos: int, mapping: dict[int, int]) -> bool:
        if pos == n:
            return True
        i = order[pos]
        for j in range(n):
            if used[j] or sig_b[j] != sig_a[i]:
                continue
            ok = True
            for i2, j2 in mapping.items():
                if (up_a[i] >> i2 ^ up_b[j] >> j2) & 1 or (up_a[i2] >> i ^ up_b[j2] >> j) & 1:
                    ok = False
                    break
            if ok:
                used[j] = True
                mapping[i] = j
                if assign(pos + 1, mapping):
                    return True
                del mapping[i]
                used[j] = False
        return False

    return assign(0, {})


def _signatures(up: tuple[int, ...]) -> list[tuple]:
    n = len(up)
    down = [sum(1 << j for j in range(n) if up[j] >> i & 1) for i in range(n)]
    sig = [(up[i].bit_count(), down[i].bit_count()) for i in range(n)]
    for _ in range(3):
        sig = [
            (
                sig[i],
                tuple(sorted(sig[j] for j in bits_of(up[i]))),
                tuple(sorted(sig[j] for j in bits_of(down[i]))),
            )
            for i in range(n)
        ]
    return sig
