"""The measure |H| * |C_G(H)|, its maximum over all subgroups, the
sublattice of subgroups attaining it, and the centrally large subset.

The maximum is found among centralizers (the intersection-closure of the
element centralizers), so no subgroup enumeration is needed."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TooLargeForIso
from .groups import Group
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
    best = 0
    pairs: list[tuple[int, int]] = []
    for m in closed:
        cent = 0
        for c, ys in classes.items():
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


@dataclass(frozen=True)
class CDMember:
    """One maximal-measure subgroup with its report annotations."""

    subgroup: Subgroup
    is_normal: bool
    defect: int
    is_centrally_large: bool
    centralizer_index: int


@dataclass(frozen=True)
class CDResult:
    """The maximal-measure sublattice of a group."""

    group: Group
    max_measure: int
    members: tuple[CDMember, ...]
    hasse_edges: tuple[tuple[int, int], ...]

    def member_masks(self) -> list[int]:
        return [m.subgroup.mask for m in self.members]

    def cl_masks(self) -> list[int]:
        return [m.subgroup.mask for m in self.members if m.is_centrally_large]

    def index_of(self, mask: int) -> int:
        for i, m in enumerate(self.members):
            if m.subgroup.mask == mask:
                return i
        raise KeyError(f"mask {mask:#x} is not a lattice member")


def cd_lattice(g: Group) -> CDResult:
    """All subgroups of maximal measure, with Hasse cover edges, CL flags,
    normality/defect annotations and the centralizer pairing.

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
    edges = _hasse_edges(list(mask_index))
    result = CDResult(
        group=g, max_measure=best, members=tuple(members), hasse_edges=edges
    )
    g._cache["cd_result"] = result
    return result


def _hasse_edges(masks: list[int]) -> tuple[tuple[int, int], ...]:
    # pairwise containment, then transitive reduction
    m = len(masks)
    leq = _leq_matrix(masks)
    edges = []
    for i in range(m):
        for j in range(m):
            if i == j or not leq[i][j]:
                continue
            if any(leq[i][k] and leq[k][j] for k in range(m) if k != i and k != j):
                continue
            edges.append((i, j))
    return tuple(edges)


def cl_subgroups(g: Group) -> tuple[Subgroup, ...]:
    """Members U of the lattice with Z(U) = C_G(U)."""
    result = cd_lattice(g)
    return tuple(m.subgroup for m in result.members if m.is_centrally_large)


@dataclass(frozen=True)
class SubgroupCD:
    """Lattice of a subgroup S <= G, as masks of G."""

    ambient: Group
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
            ambient=g,
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
    (down-set size, up-set size, cover degrees) signatures; capped at
    ISO_MEMBER_CAP members.
    """
    if len(a.members) > ISO_MEMBER_CAP or len(b.members) > ISO_MEMBER_CAP:
        raise TooLargeForIso(
            f"lattice isomorphism capped at {ISO_MEMBER_CAP} members"
        )
    if len(a.members) != len(b.members):
        return False
    rel_a = _leq_matrix(a.member_masks())
    rel_b = _leq_matrix(b.member_masks())
    sig_a = _signatures(rel_a)
    sig_b = _signatures(rel_b)
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
                if rel_a[i][i2] != rel_b[j][j2] or rel_a[i2][i] != rel_b[j2][j]:
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


def _leq_matrix(masks: list[int]) -> list[list[bool]]:
    return [[mi & ~mj == 0 for mj in masks] for mi in masks]


def _signatures(rel: list[list[bool]]) -> list[tuple]:
    n = len(rel)
    sig = [
        (sum(rel[i][j] for j in range(n)), sum(rel[j][i] for j in range(n)))
        for i in range(n)
    ]
    for _ in range(3):
        sig = [
            (
                sig[i],
                tuple(sorted(sig[j] for j in range(n) if rel[i][j] and i != j)),
                tuple(sorted(sig[j] for j in range(n) if rel[j][i] and i != j)),
            )
            for i in range(n)
        ]
    return sig
