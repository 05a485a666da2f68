"""Registry of named, executable checks run against the built-in corpus.

Each check verifies one claim about maximal-measure lattices.  A check
whose hypothesis does not hold for the given group reports a skipped
verdict; a failing check carries a witness (subgroups and measures).
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from functools import partial
from typing import Callable

from .cdlattice import _member_above, cd_lattice, cd_of_subgroup, measure
from .corpus import (
    ENUMERABLE_WREATH_SPECS,
    G32_GENS,
    WREATH_CORPUS_SPECS,
    universal_corpus_specs,
    ut52_abelian_subgroup,
)
from .groups import DEFAULT_ORDER_CAP, Group
from .products import (
    DirectProductMeta,
    WreathMeta,
    base_product_subgroup,
    base_subgroup,
    diagonal_subgroup,
    product_subgroup,
    wreath_cyclic,
)
from .records import Record
from .specparse import GroupSpec, evaluate, parse_spec, spec_text
from .subgroups import (
    DEFAULT_ENUM_LIMIT,
    Subgroup,
    all_subgroups,
    bits_of,
    center,
    centralizer,
    closure,
    full_subgroup,
    join_subgroups,
    lattice_index,
    normal_closure,
    normalizer,
    product_mask,
    resolve_caps,
    subnormal_defect,
)


class Verdict:
    """Outcome of one named check on one group: a mutable, unhashable
    record with the repr and equality of a `Record`."""

    __slots__ = ("check_id", "group_spec", "status", "witness", "stats", "elapsed")

    def __init__(
        self,
        check_id: str,
        group_spec: str,
        status: str,  # "passed" | "failed" | "skipped"
        witness: dict | None = None,
        stats: dict | None = None,  # None gives each verdict its own empty dict
        elapsed: float = 0.0,  # wall seconds; excluded from serialized reports
    ):
        self.check_id = check_id
        self.group_spec = group_spec
        self.status = status
        self.witness = witness
        self.stats = {} if stats is None else stats
        self.elapsed = elapsed

    __repr__ = Record.__repr__
    __eq__ = Record.__eq__
    __hash__ = None


def _passed(**stats) -> tuple[str, None, dict]:
    return "passed", None, stats


def _skipped(reason: str, **stats) -> tuple[str, None, dict]:
    stats["skip_reason"] = reason
    return "skipped", None, stats


def _failed(note: str, subgroups=(), **stats) -> tuple[str, dict, dict]:
    g = None
    items = []
    for sub in subgroups:
        g = sub.ambient
        items.append(
            {
                "order": sub.order,
                "elements": sub.elements(),
                "measure": str(measure(g, sub)),
            }
        )
    return "failed", {"note": note, "subgroups": items}, stats


# (order cap, enumeration limit) of the check in progress, set by run_check
_CAPS: ContextVar[tuple[int, int]] = ContextVar(
    "check_caps", default=(DEFAULT_ORDER_CAP, DEFAULT_ENUM_LIMIT)
)


def _enumerable(g: Group) -> bool:
    return g.order <= _CAPS.get()[1]


def _subgroups(g: Group) -> tuple[Subgroup, ...]:
    return all_subgroups(g, max_order=_CAPS.get()[1])


def _enumerated(g: Group) -> dict:
    """The `subgroups_enumerated` stat of g, omitted past the enumeration
    limit: the checks that report it read only CD(G) and centralizers."""
    if _enumerable(g):
        return {"subgroups_enumerated": len(_subgroups(g))}
    return {}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# check implementations


def _check_cd_sublattice(g: Group):
    result = cd_lattice(g)
    members = [m.subgroup for m in result.members]
    masks = [h.mask for h in members]
    at = {mask: i for i, mask in enumerate(masks)}
    cents = [centralizer(g, h) for h in members]
    elems = [h.elements() for h in members]
    # members are in canonical order, so the least member above H and K
    # is the lowest set bit of their reflexive up-sets
    up = [above | 1 << i for i, above in enumerate(_member_above(g, result))]
    for i, (h, cent) in enumerate(zip(members, cents)):
        if cent.mask not in at:
            return _failed("centralizer of a member is not a member", [h, cent])
        if cents[at[cent.mask]].mask != h.mask:
            return _failed("double centralizer differs from the member", [h, cent])
        for j, k in enumerate(members[i + 1 :], i + 1):
            if h.mask & k.mask not in at:
                return _failed("member intersection escapes the lattice", [h, k])
            # HK <= <H, K> <= M = HK makes M the join, and a member
            both = up[i] & up[j]
            least = masks[(both & -both).bit_length() - 1] if both else None
            if product_mask(g, elems[i], elems[j]) == least:
                continue
            join = join_subgroups(h, k)
            if join.mask not in at:
                return _failed("member join escapes the lattice", [h, k])
            if h.order * k.order // (h.mask & k.mask).bit_count() != join.order:
                return _failed("product set HK is smaller than the join", [h, k])
            return _failed("literal product set HK differs from join", [h, k])
    return _passed(**_enumerated(g), pairs_checked=len(masks) * (len(masks) - 1) // 2)


def _check_cd_subnormal(g: Group):
    result = cd_lattice(g)
    for m in result.members:
        defect = subnormal_defect(g, m.subgroup)
        if defect is None:
            return _failed("member is not subnormal", [m.subgroup])
        if defect != m.defect:
            return _failed(
                f"annotated defect {m.defect} != recomputed {defect}", [m.subgroup]
            )
    return _passed(**_enumerated(g))


def _check_useful_prop(g: Group):
    if not _enumerable(g):
        return _skipped("group too large to enumerate")
    result = cd_lattice(g)
    subs = _subgroups(g)
    lattice = lattice_index(subs)
    last = len(subs) - 1
    pairs = 0
    for m in result.members:
        u = m.subgroup
        i = lattice.index[u.mask]
        # S contains U C_G(U) exactly when it lies above the join of U and
        # C_G(U); bit 0 above it is G itself, and bit b is subs[last - b]
        for b in bits_of(lattice.above[lattice.join(i, lattice.cent[i])])[:0:-1]:
            s = subs[last - b]
            pairs += 1
            sub_cd = cd_of_subgroup(g, s)
            if u.mask not in sub_cd.member_masks:
                return _failed(
                    "member with U C(U) <= S < G missing from S's lattice", [u, s]
                )
    return _passed(subgroups_enumerated=len(subs), pairs_checked=pairs)


def _check_direct(g: Group, cl: bool):
    """CD(G x H) = CD(G) x CD(H), or with `cl` the same for CL, the
    centrally large members."""
    meta = g.product_meta
    if not isinstance(meta, DirectProductMeta):
        return _skipped("not a direct product")
    mine, left, right = (
        [m.subgroup for m in cd_lattice(x).members if not cl or m.is_centrally_large]
        for x in (g, *meta.factors)
    )
    got = {u.mask for u in mine}
    want = {product_subgroup(g, x, y).mask for x in left for y in right}
    if got != want:
        extra = [Subgroup(g, m) for m in sorted(got ^ want)[:3]]
        word = "CL" if cl else "CD"
        return _failed(f"{word} of product differs from product of {word}s", extra)
    return _passed(**_enumerated(g), members=len(got))


def _check_wreath_base_centralizer(g: Group):
    meta = g.product_meta
    if not isinstance(meta, WreathMeta):
        return _skipped("not a wreath product")
    bottom = meta.bottom
    if bottom.order < 2:
        return _skipped("bottom group is trivial")
    n = meta.top_order
    base = base_subgroup(g)
    cwb = centralizer(g, base)
    zb = base_product_subgroup(g, [center(bottom)] * n)
    if cwb.mask != zb.mask:
        return _failed("centralizer of the base is not the base's center", [cwb, zb])
    z = center(bottom).order
    expected = bottom.order**n * z**n
    got = base.order * cwb.order
    if got != expected:
        return _failed(f"m_W(B) = {got}, formula gives {expected}", [base])
    return _passed(base_measure=str(got))


def _check_wreath_center(g: Group):
    meta = g.product_meta
    if not isinstance(meta, WreathMeta):
        return _skipped("not a wreath product")
    bottom = meta.bottom
    if bottom.order < 2:
        return _skipped("bottom group is trivial")
    n = meta.top_order
    zw = center(g)
    diag = diagonal_subgroup(g, center(bottom))
    if zw.mask != diag.mask:
        return _failed("center of W is not the diagonal of Z(B)", [zw, diag])
    z = center(bottom).order
    expected = n * bottom.order**n * z
    got = g.order * zw.order
    if got != expected:
        return _failed(f"m_W(W) = {got}, formula gives {expected}", [zw])
    return _passed(group_measure=str(got))


def _check_wreath_not_self(g: Group):
    meta = g.product_meta
    if not isinstance(meta, WreathMeta):
        return _skipped("not a wreath product")
    bottom = meta.bottom
    n = meta.top_order
    if bottom.order < 2 or n < 2:
        return _skipped("degenerate wreath")
    z = center(bottom).order
    if z ** (n - 1) <= n:
        return _skipped(f"|Z(G)|^(n-1) = {z**(n-1)} <= n = {n}")
    base = base_subgroup(g)
    m_base = base.order * centralizer(g, base).order
    m_whole = g.order * center(g).order
    if m_base <= m_whole:
        return _failed(
            f"m_W(B) = {m_base} not above m_W(W) = {m_whole}", [base]
        )
    if ((1 << g.order) - 1) in cd_lattice(g).member_masks():
        return _failed("W is a member despite the measure gap", [])
    return _passed(
        base_measure=str(m_base), group_measure=str(m_whole), **_enumerated(g)
    )


def _check_wreath_self_c2(g: Group):
    meta = g.product_meta
    if not isinstance(meta, WreathMeta):
        return _skipped("not a wreath product")
    bottom = meta.bottom
    if meta.top_order != 2:
        return _skipped("top is not C2")
    if center(bottom).order != 2:
        return _skipped("|Z(G)| != 2")
    bottom_full = (1 << bottom.order) - 1
    if bottom_full not in cd_lattice(bottom).member_masks():
        return _skipped("bottom group is not in its own lattice")
    result = cd_lattice(g)
    masks = set(result.member_masks())
    if ((1 << g.order) - 1) not in masks:
        return _failed("W missing from its own lattice", [full_subgroup(g)])
    base = base_subgroup(g)
    base_cd = cd_of_subgroup(g, base)
    missing = [m for m in base_cd.member_masks if m not in masks]
    if missing:
        return _failed(
            "CD(B) member missing from CD(W)", [Subgroup(g, missing[0])]
        )
    return _passed(
        **_enumerated(g),
        members=len(masks),
        base_members=len(base_cd.member_masks),
    )


def _check_wreath_cd_collapse(g: Group):
    meta = g.product_meta
    if not isinstance(meta, WreathMeta):
        return _skipped("not a wreath product")
    bottom = meta.bottom
    p = meta.top_order
    if not _is_prime(p):
        return _skipped("top order is not prime")
    z = center(bottom).order
    if z < 2:
        return _skipped("bottom group has trivial center")
    if z <= 2 and p <= 2:
        return _skipped("needs |Z(G)| > 2 or p > 2")
    result = cd_lattice(g)
    base = base_subgroup(g)
    base_cd = cd_of_subgroup(g, base)
    if set(result.member_masks()) != set(base_cd.member_masks):
        return _failed("CD(W) differs from CD(B)", [base])
    if set(result.cl_masks()) != set(base_cd.cl_masks):
        return _failed("CL(W) differs from CL(B)", [base])
    return _passed(**_enumerated(g), members=len(result.members))


def _check_wreath_mmm(g: Group):
    meta = g.product_meta
    if not isinstance(meta, WreathMeta):
        return _skipped("not a wreath product")
    if not _is_prime(meta.top_order):
        return _skipped("top order is not prime")
    if center(meta.bottom).order < 2:
        return _skipped("bottom group has trivial center")
    if g.order == 8:
        return _skipped("W is the order-8 dihedral exception")
    base_mask = base_subgroup(g).mask
    result = cd_lattice(g)
    for m in result.members:
        u = m.subgroup
        if u.mask & ~base_mask and centralizer(g, u).mask & ~base_mask:
            return _failed(
                "member with neither U nor C_W(U) inside the base", [u]
            )
    return _passed(**_enumerated(g))


def _check_d12_counterexample(g: Group):
    if g.order != 12:
        return _skipped("needs an order-12 group")
    if center(g).order != 2:
        return _skipped("needs |Z(G)| = 2")
    sixes = [x for x in range(g.order) if g.element_order(x) == 6]
    if not sixes:
        return _skipped("needs an element of order 6")
    r = closure(g, [min(sixes)])
    m_r = measure(g, r)
    if m_r != 36 or centralizer(g, r).mask != r.mask:
        return _failed(f"m(<r>) = {m_r}, expected the self-centralizing 36", [r])
    m_g = g.order * center(g).order
    if m_g != 24:
        return _failed(f"m(G) = {m_g}, expected 24", [])
    if ((1 << g.order) - 1) in cd_lattice(g).member_masks():
        return _failed("G still sits in its own lattice", [full_subgroup(g)])
    w = wreath_cyclic(g, 2, max_order=_CAPS.get()[0])
    m_w = w.order * center(w).order
    if m_w != 576:
        return _failed(f"m_W(W) = {m_w}, expected 576", [])
    u = base_product_subgroup(w, [r, r])
    m_u = u.order * centralizer(w, u).order
    if m_u < u.order**2 or m_u <= m_w:
        return _failed(f"m_W(U) = {m_u} does not witness W out of CD(W)", [])
    return _passed(
        **_enumerated(g),
        rotation_measure=str(m_r),
        group_measure=str(m_g),
        wreath_measure=str(m_w),
        witness_measure=str(m_u),
    )


def _check_g32_nonnormal(g: Group):
    if g.name != "g32" or g.order != 32:
        return _skipped("needs the g32 corpus fixture")
    a, b, d = G32_GENS["a"], G32_GENS["b"], G32_GENS["d"]
    result = cd_lattice(g)
    masks = set(result.member_masks())
    table = g.table
    da = table[d][a]
    da3 = table[d][table[table[a][a]][a]]
    targets = {
        "<a,b>": closure(g, [a, b]),
        "<b,da>": closure(g, [b, da]),
        "<b,da3>": closure(g, [b, da3]),
    }
    for label, sub in targets.items():
        if sub.mask not in masks:
            return _failed(f"{label} missing from the lattice", [sub])
        member = result.members[result.index_of(sub.mask)]
        if member.is_normal:
            return _failed(f"{label} is unexpectedly normal", [sub])
    x = targets["<a,b>"]
    if d in normalizer(g, x):
        return _failed("d normalizes <a,b>", [x])
    if result.members[result.index_of(x.mask)].defect != 2:
        return _failed("<a,b> does not have defect 2", [x])
    for m in result.members:
        if subnormal_defect(g, m.subgroup) is None:
            return _failed("member is not subnormal", [m.subgroup])
    return _passed(**_enumerated(g), members=len(result.members))


def _check_ut52_not_self(g: Group):
    if g.name != "UT(5,2)" or g.order != 1024:
        return _skipped("needs the UT(5,2) fixture")
    m_g = g.order * center(g).order
    if m_g != 2**11:
        return _failed(f"m(G) = {m_g}, expected 2^11", [])
    a = ut52_abelian_subgroup(g)
    if a.order != 64:
        return _failed(f"block subgroup has order {a.order}, expected 64", [a])
    # a group generated by pairwise-commuting elements is abelian
    table = g.table
    gens = a.generators()
    for i, x in enumerate(gens):
        row_x = table[x]
        for y in gens[i + 1 :]:
            if row_x[y] != table[y][x]:
                return _failed("block subgroup is not abelian", [a])
    cent = centralizer(g, a)
    if a.mask & ~cent.mask:
        return _failed("A is not inside its centralizer", [a])
    m_a = a.order * cent.order
    if m_a < 2**12 or m_a <= m_g:
        return _failed(f"m(A) = {m_a} does not beat m(G) = {m_g}", [a])
    return _passed(group_measure=str(m_g), block_measure=str(m_a))


def _check_embed_2group(g: Group):
    meta = g.product_meta
    if not isinstance(meta, WreathMeta) or meta.top_order != 2:
        return _skipped("needs an iterated C2 wreath")
    inner = meta.bottom.product_meta
    if not isinstance(inner, WreathMeta) or inner.top_order != 2:
        return _skipped("needs an iterated C2 wreath")
    if inner.bottom.order != 2:
        return _skipped("needs (C2 wr C2) wr C2")
    result = cd_lattice(g)
    if ((1 << g.order) - 1) not in result.member_masks():
        return _failed("iterated wreath missing from its own lattice", [])
    return _passed(**_enumerated(g), members=len(result.members))


def _check_simple_cd(g: Group):
    if g.order == 1:
        return _skipped("trivial group")
    full = full_subgroup(g)
    full_mask = full.mask
    table, inv = g.table, g._inv
    # conjugates have one normal closure, and <x> = G needs none
    done = 1
    for x in range(1, g.order):
        if done >> x & 1:
            continue
        cyclic = closure(g, [x])
        if cyclic.mask != full_mask and normal_closure(full, cyclic).mask != full_mask:
            return _skipped("group is not simple")
        row_x = table[x]
        for a in range(g.order):
            done |= 1 << table[inv[a]][row_x[a]]
    result = cd_lattice(g)
    want = {center(g).mask, full_mask}
    if set(result.member_masks()) != want:
        return _failed("lattice of a simple group is not {Z(S), S}", [])
    return _passed(**_enumerated(g))


def _check_sym_cd(g: Group):
    if g.name not in ("S4", "S5"):
        return _skipped("needs S4 or S5")
    result = cd_lattice(g)
    want = {1, (1 << g.order) - 1}
    if set(result.member_masks()) != want:
        return _failed("symmetric-group lattice is not {1, G}", [])
    return _passed(**_enumerated(g), max_measure=str(result.max_measure))


def _check_measure_lemmas(g: Group):
    if not _enumerable(g):
        return _skipped("group too large to enumerate")
    subs = _subgroups(g)
    lattice = lattice_index(subs)
    masks = [h.mask for h in subs]
    orders = [h.order for h in subs]
    index, cent = lattice.index, lattice.cent
    meas = [o * orders[c] for o, c in zip(orders, cent)]
    for i, c in enumerate(cent):
        if meas[i] > meas[c]:
            return _failed("m(H) exceeds m(C(H))", [subs[i], subs[c]])
        if meas[i] == meas[c] and cent[c] != i:
            return _failed("equal measures but H != C(C(H))", [subs[i], subs[c]])
    n = len(subs)
    corders = [orders[c] for c in cent]
    # (|H|, m(H), |C(H)|) by position, read for each meet and join
    info = list(zip(orders, meas, corders))
    # the index's up-sets hold subs[j] at bit n - 1 - j, so the join, the
    # least subgroup above both, is the highest common bit: its bit_length
    # b reads top[b] = info[n - b], and no -both is formed for a lowest bit
    top = [None, *reversed(info)]
    rows = list(zip(masks, lattice.above, orders, meas, [masks[c] for c in cent], corders))
    for i, (h_mask, h_up, h_order, h_meas, ch_mask, ch_order) in enumerate(rows):
        for k_mask, k_up, k_order, k_meas, ck_mask, ck_order in rows[i:]:
            i_order, i_meas, i_corder = info[index[h_mask & k_mask]]
            j_order, j_meas, _ = top[(h_up & k_up).bit_length()]
            lhs = h_meas * k_meas
            rhs = j_meas * i_meas
            if lhs > rhs:
                return _failed("submultiplicativity fails", [subs[i], subs[index[k_mask]]])
            # equality holds exactly when HK is the join and C(H)C(K) is
            # C(H meet K); |C(H)C(K)| is formed only in the first case
            conds = False
            if h_order * k_order // i_order == j_order:
                conds = ch_order * ck_order // (ch_mask & ck_mask).bit_count() == i_corder
            if (lhs == rhs) != conds:
                return _failed("equality condition mismatch", [subs[i], subs[index[k_mask]]])
    return _passed(subgroups_enumerated=n, pairs_checked=n * (n + 1) // 2)


# ---------------------------------------------------------------------------
# registry


class CheckDef(Record):
    __slots__ = ("check_id", "claim", "fn", "default_specs")
    check_id: str
    claim: str
    fn: Callable
    default_specs: tuple[str, ...]


def _universal(*extra: str) -> tuple[str, ...]:
    return universal_corpus_specs() + ("corpus:g32",) + tuple(extra)


_PRODUCT_SPECS = ("C2 x S3", "D8 x C2", "S3 x D8", "Q8 x C5", "A4 x C3")

CHECKS: tuple[CheckDef, ...] = (
    CheckDef(
        "cd-sublattice",
        "the maximal-measure set is a sublattice with centralizer pairing",
        _check_cd_sublattice,
        _universal(*ENUMERABLE_WREATH_SPECS),
    ),
    CheckDef(
        "cd-subnormal",
        "every lattice member is subnormal with finite defect",
        _check_cd_subnormal,
        _universal(*ENUMERABLE_WREATH_SPECS),
    ),
    CheckDef(
        "useful-prop",
        "U with U C_G(U) <= S < G stays a member inside S",
        _check_useful_prop,
        _universal(*ENUMERABLE_WREATH_SPECS),
    ),
    CheckDef(
        "direct-cd",
        "CD of a direct product is the product of the CDs",
        partial(_check_direct, cl=False),
        _PRODUCT_SPECS,
    ),
    CheckDef(
        "direct-cl",
        "CL of a direct product is the product of the CLs",
        partial(_check_direct, cl=True),
        _PRODUCT_SPECS,
    ),
    CheckDef(
        "wreath-base-centralizer",
        "C_W(B) = Z(B) and m_W(B) = |G|^n |Z(G)|^n",
        _check_wreath_base_centralizer,
        WREATH_CORPUS_SPECS,
    ),
    CheckDef(
        "wreath-center",
        "Z(W) is the diagonal of Z(B) and m_W(W) = n |G|^n |Z(G)|",
        _check_wreath_center,
        WREATH_CORPUS_SPECS,
    ),
    CheckDef(
        "wreath-not-self",
        "if |Z(G)|^(n-1) > n the wreath is not in its own lattice",
        _check_wreath_not_self,
        WREATH_CORPUS_SPECS,
    ),
    CheckDef(
        "wreath-self-c2",
        "G in CD(G) with |Z(G)| = 2 puts W = G wr C2 in CD(W)",
        _check_wreath_self_c2,
        ("C2 wr C2", "D8 wr C2", "(C2 wr C2) wr C2"),
    ),
    CheckDef(
        "wreath-cd-collapse",
        "|Z(G)| > 2 or p > 2 collapses CD(W) to CD(B) (and CL likewise)",
        _check_wreath_cd_collapse,
        ("C4 wr C2", "C2 wr C3", "C6 wr C2"),
    ),
    CheckDef(
        "wreath-mmm",
        "members have U <= B or C_W(U) <= B unless W is the order-8 dihedral",
        _check_wreath_mmm,
        ENUMERABLE_WREATH_SPECS,
    ),
    CheckDef(
        "d12-counterexample",
        "the order-12 dihedral wreath example beats m_W(W)",
        _check_d12_counterexample,
        ("D12",),
    ),
    CheckDef(
        "g32-nonnormal",
        "g32 holds non-normal lattice members of defect 2",
        _check_g32_nonnormal,
        ("corpus:g32",),
    ),
    CheckDef(
        "ut52-not-self",
        "UT(5,2) is not in its own lattice (abelian block witness)",
        _check_ut52_not_self,
        ("corpus:ut52",),
    ),
    CheckDef(
        "embed-2group",
        "(C2 wr C2) wr C2 is in its own lattice",
        _check_embed_2group,
        ("(C2 wr C2) wr C2",),
    ),
    CheckDef(
        "simple-cd",
        "a simple group's lattice is {Z(S), S}",
        _check_simple_cd,
        _universal("A5"),
    ),
    CheckDef(
        "sym-cd",
        "CD(S_n) = {1, S_n} for n = 4, 5",
        _check_sym_cd,
        ("S4", "S5"),
    ),
    CheckDef(
        "measure-lemmas",
        "measure duality and submultiplicativity with the equality condition",
        _check_measure_lemmas,
        _universal("C2 wr C2", "C2 wr C3", "C4 wr C2", "C6 wr C2"),
    ),
)

CHECKS_BY_ID = {c.check_id: c for c in CHECKS}


def check_ids() -> tuple[str, ...]:
    return tuple(c.check_id for c in CHECKS)


def run_check(
    check_id: str,
    spec: str | GroupSpec | Group | tuple[str, Group],
    max_order: int | None = None,
) -> Verdict:
    """Run one named check against one group spec: a spec string or node,
    a group (reported by its name), or the (spec text, group) pair that
    run_pairs resolves once per spec under the same caps.

    `max_order` caps the order of every group the check builds and its
    enumeration, as `compute --max-order` does; None keeps the default
    caps.
    """
    check = CHECKS_BY_ID.get(check_id)
    if check is None:
        known = ", ".join(check_ids())
        raise KeyError(f"unknown check {check_id!r} (known: {known})")
    caps = resolve_caps(max_order)
    text, group = spec if isinstance(spec, tuple) else _resolve(spec, caps[0])
    token = _CAPS.set(caps)
    start = time.perf_counter()
    try:
        status, witness, stats = check.fn(group)
    except AssertionError as exc:  # internal invariant surfaced as a failure
        status, witness, stats = "failed", {"note": str(exc), "subgroups": []}, {}
    finally:
        _CAPS.reset(token)
    elapsed = time.perf_counter() - start
    return Verdict(
        check_id=check_id,
        group_spec=text,
        status=status,
        witness=witness,
        stats=stats,
        elapsed=elapsed,
    )


def _resolve(spec: str | GroupSpec | Group, order_cap: int) -> tuple[str, Group]:
    """The text a verdict reports for spec, and its group."""
    if isinstance(spec, Group):
        return spec.name, spec
    node = parse_spec(spec) if isinstance(spec, str) else spec
    return spec_text(node), evaluate(node, max_order=order_cap)


def default_pairs(check_id: str | None = None) -> list[tuple[str, str]]:
    """(check_id, spec) pairs for the default corpus run."""
    pairs = []
    for check in CHECKS:
        if check_id is not None and check.check_id != check_id:
            continue
        for spec in check.default_specs:
            pairs.append((check.check_id, spec))
    return pairs


def run_pairs(pairs, max_order: int | None = None) -> list[Verdict]:
    """Run (check_id, spec) pairs in order under the caps of `max_order`,
    parsing and evaluating each distinct spec text once, when its first
    pair runs, so a bad spec raises at that pair."""
    order_cap = resolve_caps(max_order)[0]
    resolved: dict[str, tuple[str, Group]] = {}
    verdicts = []
    for cid, spec in pairs:
        if isinstance(spec, str):
            if spec not in resolved:
                resolved[spec] = _resolve(spec, order_cap)
            spec = resolved[spec]
        verdicts.append(run_check(cid, spec, max_order))
    return verdicts
