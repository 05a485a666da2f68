"""Direct products, wreath products, and their structural maps."""

import itertools

import pytest

from cdlat import (
    OrderCapExceeded,
    all_subgroups,
    base_product_subgroup,
    base_projection,
    base_subgroup,
    cd_lattice,
    center,
    centralizer,
    check_axioms,
    closure,
    diagonal_subgroup,
    direct_product,
    evaluate,
    from_cayley,
    full_subgroup,
    measure,
    named_group,
    normalizer,
    product_subgroup,
    projection,
    wreath_cyclic,
)
from cdlat.products import DirectProductMeta, WreathMeta

from bruteforce import brute_centralizer_mask, brute_closure_mask, brute_generated_mask


def test_direct_product_klein():
    c2 = named_group("C", 2)
    v = direct_product(c2, c2)
    assert v.order == 4
    assert center(v).order == 4
    assert all(v.inv(x) == x for x in range(4))
    check_axioms(v)


def test_direct_product_orders_multiply():
    p = direct_product(named_group("S", 3), named_group("D", 8))
    assert p.order == 48
    check_axioms(p)


def test_direct_product_cap():
    with pytest.raises(OrderCapExceeded):
        direct_product(named_group("S", 4), named_group("S", 4), max_order=100)


def test_coordinates_round_trip():
    g, h = named_group("S", 3), named_group("C", 4)
    p = direct_product(g, h)
    meta = p.product_meta
    assert isinstance(meta, DirectProductMeta)
    for x in range(p.order):
        a, b = meta.coord_of(x)
        assert a * h.order + b == x
        # componentwise multiplication
        for y in range(0, p.order, 7):
            c, d = meta.coord_of(y)
            assert meta.coord_of(p.mul(x, y)) == (g.mul(a, c), h.mul(b, d))


def test_projection_examples():
    g, h = named_group("D", 8), named_group("C", 2)
    p = direct_product(g, h)
    xg = closure(g, [g.known_gens[0]])
    xh = full_subgroup(h)
    u = product_subgroup(p, xg, xh)
    assert projection(p, u, 0).mask == xg.mask
    assert projection(p, u, 1).mask == xh.mask
    # diagonal of C2 x C2 projects onto each factor
    c2 = named_group("C", 2)
    pp = direct_product(c2, c2)
    diag = closure(pp, [3])  # (1, 1)
    assert projection(pp, diag, 0).order == 2
    assert projection(pp, diag, 1).order == 2


@pytest.mark.parametrize(
    "left, right",
    [(("C", 2), ("S", 3)), (("D", 8), ("C", 2))],
)
def test_centralizer_factorizes_over_all_subgroups(left, right):
    g = named_group(*left)
    h = named_group(*right)
    p = direct_product(g, h)
    for u in all_subgroups(p):
        cu = centralizer(p, u)
        cg = centralizer(g, projection(p, u, 0))
        ch = centralizer(h, projection(p, u, 1))
        assert cu.mask == product_subgroup(p, cg, ch).mask
        # measure bound with equality iff U splits as the product of its shadows
        m_u = measure(p, u)
        bound = measure(g, projection(p, u, 0)) * measure(h, projection(p, u, 1))
        assert m_u <= bound
        split = product_subgroup(p, projection(p, u, 0), projection(p, u, 1))
        assert (m_u == bound) == (split.mask == u.mask)


def test_cd_of_product_both_paths():
    s3, d8 = named_group("S", 3), named_group("D", 8)
    p = direct_product(s3, d8)
    direct = set(cd_lattice(p).member_masks())
    assembled = {
        product_subgroup(p, x.subgroup, y.subgroup).mask
        for x in cd_lattice(s3).members
        for y in cd_lattice(d8).members
    }
    assert direct == assembled
    assert len(direct) == 5


def test_wreath_of_c2_is_dihedral():
    w = wreath_cyclic(named_group("C", 2), 2)
    assert w.order == 8
    assert center(w).order == 2
    assert len(cd_lattice(w).members) == 5
    # order 8 and non-abelian leaves D8 and Q8; Q8 has one involution
    assert sum(w.element_order(x) == 2 for x in range(w.order)) == 5


def test_wreath_orders():
    assert wreath_cyclic(named_group("D", 12), 2).order == 288
    assert wreath_cyclic(named_group("C", 2), 3).order == 24
    with pytest.raises(OrderCapExceeded):
        wreath_cyclic(named_group("S", 4), 3)


def test_wreath_cap_builds_no_order_far_past_it():
    # 3**30000000 alone takes seconds to build and has too many digits to print
    for n in (20000, 30000000, 10**600):
        with pytest.raises(OrderCapExceeded) as err:
            wreath_cyclic(named_group("C", 3), n)
        assert str(err.value) == f"|C3 wr C{n}| = (more than 4300 digits) > cap 20000"
    # a trivial bottom contributes no factor, so a huge top is no long loop
    with pytest.raises(OrderCapExceeded) as err:
        wreath_cyclic(named_group("C", 1), 10**600)
    assert str(err.value) == f"|C1 wr C{10**600}| = {10**600} > cap 20000"


def test_wreath_meta_and_base():
    g = named_group("S", 3)
    w = wreath_cyclic(g, 2)
    meta = w.product_meta
    assert isinstance(meta, WreathMeta)
    b = base_subgroup(w)
    assert b.order == 36
    assert normalizer(w, b).order == w.order
    assert w.order // b.order == 2
    # sigma has top part 1 and trivial base part
    f, k = meta.coord_of(meta.sigma)
    assert f == (0, 0) and k == 1


def test_sigma_conjugation_shifts_coordinates():
    g = named_group("S", 3)
    w = wreath_cyclic(g, 3)
    meta = w.product_meta
    sigma = meta.sigma
    si = w.inv(sigma)
    for x in (5, 10, 20):
        f = (x % 6, (x * 7) % 6, (x * 5) % 6)
        b = meta.embed(f, 0)
        conj = w.mul(w.mul(si, b), sigma)  # b^sigma
        fc, k = meta.coord_of(conj)
        assert k == 0
        # f^sigma(s) = f(s - 1) cyclically
        assert fc == (f[2], f[0], f[1])


def test_base_projection_and_diagonal():
    g = named_group("D", 8)
    w = wreath_cyclic(g, 2)
    b = base_subgroup(w)
    assert base_projection(w, b, 0).order == 8
    assert base_projection(w, b, 1).order == 8
    z = center(g)
    diag = diagonal_subgroup(w, z)
    assert diag.order == z.order
    full_diag = diagonal_subgroup(w, full_subgroup(g))
    assert full_diag.order == 8
    assert base_projection(w, full_diag, 0).order == 8


def test_wreath_measure_formulas_d8():
    g = named_group("D", 8)
    w = wreath_cyclic(g, 2)
    b = base_subgroup(w)
    z = center(g).order
    assert measure(w, b) == g.order**2 * z**2 == 256
    assert measure(w, full_subgroup(w)) == 2 * g.order**2 * z == 256


def test_wreath_base_centralizer_is_base_center():
    for fam, n, top in (("C", 2, 2), ("S", 3, 2), ("C", 2, 3), ("D", 8, 2)):
        g = named_group(fam, n)
        w = wreath_cyclic(g, top)
        b = base_subgroup(w)
        cwb = centralizer(w, b)
        zb = base_product_subgroup(w, [center(g)] * top)
        assert cwb.mask == zb.mask
        assert cwb.mask == brute_centralizer_mask(w, b.mask)
        # center of W is the diagonal of Z(B)
        assert center(w).mask == diagonal_subgroup(w, center(g)).mask


def test_formula_backed_wreath_multiplication():
    # order 8192 wreath: no table, formula-backed arithmetic only
    g = named_group("C", 8)
    w = wreath_cyclic(g, 4, max_order=20000)
    assert w.order == 4 * 8**4
    assert w.rows() is None
    meta = w.product_meta
    x = meta.embed((1, 2, 3, 4), 1)
    y = meta.embed((7, 6, 5, 4), 2)
    fx, k = meta.coord_of(x)
    assert (fx, k) == ((1, 2, 3, 4), 1)
    prod = w.mul(x, y)
    fp, kp = meta.coord_of(prod)
    assert kp == 3
    # m(s) = f(s) + g(s + 1 mod 4) over C8
    assert fp == ((1 + 6) % 8, (2 + 5) % 8, (3 + 4) % 8, (4 + 7) % 8)
    assert w.mul(x, w.inv(x)) == 0
    assert w.inv(0) == 0


def test_cl_of_product_is_product_of_cls():
    s3, d8 = named_group("S", 3), named_group("D", 8)
    p = direct_product(s3, d8)
    got = set(cd_lattice(p).cl_masks())
    want = {
        product_subgroup(p, x.subgroup, y.subgroup).mask
        for x in cd_lattice(s3).members
        if x.is_centrally_large
        for y in cd_lattice(d8).members
        if y.is_centrally_large
    }
    assert got == want and len(got) == 4


def _cd_and_cl(g):
    members = cd_lattice(g).members
    return [m.subgroup for m in members], [m.subgroup for m in members if m.is_centrally_large]


@pytest.mark.parametrize("spec", ["A5 x D12", "S5 x D8"])
def test_cd_and_cl_of_a_product_past_the_enumeration_limit(spec):
    # CD(G x K) = CD(G) x CD(K) and CL(G x K) = CL(G) x CL(K), at orders
    # 720 and 960, where no subgroup enumeration runs
    p = evaluate(spec)
    g, k = p.product_meta.factors
    result = cd_lattice(p)
    for got, xs, ys in zip(
        (result.member_masks(), result.cl_masks()), _cd_and_cl(g), _cd_and_cl(k)
    ):
        assert set(got) == {product_subgroup(p, x, y).mask for x in xs for y in ys}


@pytest.mark.parametrize("spec", ["D8 wr C3", "Q8 wr C3"])
def test_cd_and_cl_of_an_odd_prime_wreath_are_base_products(spec):
    # for Z(G) != 1 and p an odd prime, CD(G wr C_p) is the set of base
    # products of CD(G)^p, and CL likewise; order 1536, 125 members
    w = evaluate(spec)
    result = cd_lattice(w)
    bottom = w.product_meta.bottom
    for got, parts in zip((result.member_masks(), result.cl_masks()), _cd_and_cl(bottom)):
        want = {
            base_product_subgroup(w, list(combo)).mask
            for combo in itertools.product(parts, repeat=3)
        }
        assert set(got) == want
    assert len(result.members) == 125


def test_wreath_base_over_a_bottom_without_known_generators():
    # a Cayley table names no generators: the bottom takes its greedy ones
    bottom = from_cayley(named_group("D", 8).rows())
    assert bottom.known_gens == (1, 2)
    w = wreath_cyclic(bottom, 2)
    assert brute_generated_mask(w, w.known_gens) == (1 << w.order) - 1
    meta = w.product_meta
    base = base_subgroup(w)
    want = sum(1 << x for x in range(w.order) if meta.coord_of(x)[1] == 0)
    assert base.mask == want
    # the bottom's greedy generators (1, 2) in slot 0, then in slot 1
    assert base.generators() == (16, 32, 2, 4)
    assert brute_closure_mask(w, base.generators()) == want
