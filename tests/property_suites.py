"""Quantified invariant suites shared by the property tests and the
acceptance run.

Each function asserts one module's invariants exhaustively for a single
group; callers choose the quantification scope.
"""

from __future__ import annotations

from cdlat import (
    Group,
    Subgroup,
    all_subgroups,
    base_projection,
    base_subgroup,
    cd_lattice,
    cd_of_subgroup,
    center,
    centralizer,
    check_axioms,
    closure,
    full_subgroup,
    is_normal,
    join_subgroups,
    measure,
    normalizer,
    product_set_mask,
    projection,
    product_subgroup,
    subnormal_defect,
)
from cdlat.products import DirectProductMeta, WreathMeta

from bruteforce import brute_subgroup_masks, brute_subgroup_masks_within


def assert_group_axioms(g: Group) -> None:
    check_axioms(g)


def assert_subgroup_engine_invariants(g: Group) -> None:
    subs = all_subgroups(g)
    masks = {h.mask for h in subs}
    z = center(g)
    full = full_subgroup(g)
    for h in subs:
        c = centralizer(g, h)
        cc = centralizer(g, c)
        assert h.mask & ~cc.mask == 0, "H must sit inside C(C(H))"
        n = normalizer(g, h)
        assert c.mask & ~n.mask == 0, "C(H) must sit inside N(H)"
        assert z.mask & ~c.mask == 0, "Z(G) centralizes everything"
        defect = subnormal_defect(g, h)
        shallow = n.order == g.order or h.mask == full.mask
        assert (defect is not None and defect <= 1) == shallow
    for i, h in enumerate(subs):
        for k in subs[i + 1 :]:
            assert h.mask & k.mask in masks, "intersection missing"
            assert join_subgroups(h, k).mask in masks, "join missing"


def assert_closure_properties(g: Group, seeds) -> None:
    for seed in seeds:
        sub = closure(g, seed)
        again = closure(g, sub.elements())
        assert again.mask == sub.mask, "closure must be idempotent"
        bigger = closure(g, list(seed) + [0])
        assert sub.mask & ~bigger.mask == 0
    # monotone: closure of a subset is contained in closure of the set
    seeds = [s for s in seeds if len(s) >= 2]
    for seed in seeds:
        small = closure(g, seed[:-1])
        big = closure(g, seed)
        assert small.mask & ~big.mask == 0, "closure must be monotone"


def assert_measure_lemma_invariants(g: Group) -> None:
    subs = all_subgroups(g)
    cents = {h.mask: centralizer(g, h) for h in subs}
    meas = {m: h.order * cents[m].order for m, h in ((h.mask, h) for h in subs)}
    for h in subs:
        c = cents[h.mask]
        assert meas[h.mask] <= g.order**2, "measure bounded by |G|^2"
        assert meas[h.mask] <= meas[c.mask], "measure duality"
        if meas[h.mask] == meas[c.mask]:
            assert cents[c.mask].mask == h.mask, "equality forces H = C(C(H))"
        if c.mask & ~h.mask == 0 or h.mask & ~c.mask == 0:
            pass
        # abelian self-centralized subgroups square their order
        if c.mask == h.mask:
            assert meas[h.mask] == h.order**2
    for i, h in enumerate(subs):
        ch = cents[h.mask]
        for k in subs[i:]:
            inter = h.mask & k.mask
            join = join_subgroups(h, k)
            lhs = meas[h.mask] * meas[k.mask]
            rhs = meas[join.mask] * meas[inter]
            assert lhs <= rhs, "submultiplicativity"
            ck = cents[k.mask]
            hk_join = h.order * k.order // inter.bit_count() == join.order
            cprod = ch.order * ck.order // (ch.mask & ck.mask).bit_count()
            conds = hk_join and cprod == cents[inter].order
            assert (lhs == rhs) == conds, "equality condition"


def assert_cd_invariants(g: Group) -> None:
    result = cd_lattice(g)
    subs = all_subgroups(g)
    members = [m.subgroup for m in result.members]
    masks = {h.mask for h in members}
    top_mask = 0
    for h in members:
        top_mask |= h.mask
    assert top_mask in masks, "member masks must have a common top"
    cl = {m.subgroup.mask for m in result.members if m.is_centrally_large}
    assert top_mask in cl, "the top member is centrally large"
    cl_list = sorted(cl)
    for i, a in enumerate(cl_list):
        for b in cl_list[i + 1 :]:
            ja = join_subgroups(
                members[[h.mask for h in members].index(a)],
                members[[h.mask for h in members].index(b)],
            )
            assert ja.mask in cl, "CL is closed under joins"
    for i, h in enumerate(members):
        cent = centralizer(g, h)
        assert cent.mask in masks
        assert centralizer(g, cent).mask == h.mask
        assert subnormal_defect(g, h) is not None
        for k in members[i:]:
            inter = h.mask & k.mask
            assert inter in masks
            join = join_subgroups(h, k)
            assert join.mask in masks
            assert product_set_mask(g, h, k) == join.mask, "HK = <H,K> on members"
    # membership in smaller ambient: U C(U) <= S < G keeps U maximal in S
    full_mask = (1 << g.order) - 1
    for h in members:
        v = join_subgroups(h, centralizer(g, h))
        for s in subs:
            if s.mask == full_mask or v.mask & ~s.mask:
                continue
            assert h.mask in cd_of_subgroup(g, s).member_masks


def assert_direct_product_invariants(p: Group) -> None:
    meta = p.product_meta
    assert isinstance(meta, DirectProductMeta)
    g, h = meta.factors
    for u in all_subgroups(p):
        pg = projection(p, u, 0)
        ph = projection(p, u, 1)
        cu = centralizer(p, u)
        assert (
            cu.mask
            == product_subgroup(p, centralizer(g, pg), centralizer(h, ph)).mask
        )
        m_u = measure(p, u)
        bound = measure(g, pg) * measure(h, ph)
        assert m_u <= bound
        split = product_subgroup(p, pg, ph)
        assert (m_u == bound) == (split.mask == u.mask)


def assert_wreath_invariants(w: Group) -> None:
    meta = w.product_meta
    assert isinstance(meta, WreathMeta)
    g = meta.bottom
    n = meta.top_order
    base = base_subgroup(w)
    # commuting structure for elements f*sigma (top power exactly 1)
    base_elems = base.elements()
    layer = [x for x in range(w.order) if meta.coord_of(x)[1] == 1]
    for x in layer:
        f, _ = meta.coord_of(x)
        prod = 0
        for s in range(n):
            prod = g.mul(prod, f[s])
        commuting_mask = 0
        for bidx in base_elems:
            if w.mul(x, bidx) != w.mul(bidx, x):
                continue
            commuting_mask |= 1 << bidx
            b, _ = meta.coord_of(bidx)
            acc = b[0]
            for i in range(1, n):
                acc = g.conj(acc, f[i - 1])
                assert b[i] == acc, "b(i) = b(1)^(f(1)...f(i-1))"
            assert g.mul(b[0], prod) == g.mul(prod, b[0])
        cb = Subgroup(w, commuting_mask)
        assert (
            base_projection(w, cb, 0).mask
            == centralizer(g, closure(g, [prod])).mask
        ), "first shadow of C_B(f sigma) is C_G(f(1)...f(n))"
    # index lemma and order formulas need a prime top
    if not _is_prime(n):
        return
    subs = all_subgroups(w)
    for u in subs:
        inter = u.mask & base.mask
        index = u.order // inter.bit_count()
        assert index in (1, n), "index of U /\\ B in U is 1 or p"
        cw = centralizer(w, u)
        cw_in_base = cw.mask & ~base.mask == 0
        if u.mask & ~base.mask == 0 and not cw_in_base:
            p1 = base_projection(w, u, 0)
            assert u.order == p1.order
            cg1 = centralizer(g, p1)
            assert cw.order == n * cg1.order**n
        if u.mask & ~base.mask and not cw_in_base:
            u_base = Subgroup(w, inter)
            assert u.order == n * base_projection(w, u_base, 0).order
            cb_u = Subgroup(w, cw.mask & base.mask)
            assert cw.order == n * base_projection(w, cb_u, 0).order


def assert_wreath_centralizer_formulas(w: Group) -> None:
    from cdlat import base_product_subgroup, diagonal_subgroup

    meta = w.product_meta
    g = meta.bottom
    n = meta.top_order
    base = base_subgroup(w)
    z = center(g)
    cwb = centralizer(w, base)
    assert cwb.mask == base_product_subgroup(w, [z] * n).mask
    assert measure(w, base) == g.order**n * z.order**n
    zw = center(w)
    assert zw.mask == diagonal_subgroup(w, z).mask
    assert measure(w, full_subgroup(w)) == n * g.order**n * z.order
    assert w.order // base.order == n
    assert is_normal(w, base)


def assert_enumeration_matches_filtration(g: Group) -> None:
    assert {h.mask for h in all_subgroups(g)} == brute_subgroup_masks(g)


def assert_enumeration_matches_adjoin_oracle(g: Group) -> None:
    full = (1 << g.order) - 1
    assert {h.mask for h in all_subgroups(g)} == brute_subgroup_masks_within(g, full)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
