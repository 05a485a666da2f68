"""The product table every hot path reads: wreath tables built from the
bottom group's table, and formula-backed groups read through a row view.

Each is checked against an independent formula or a brute-force oracle.
"""

import pytest

from cdlat import (
    Group,
    all_subgroups,
    build_report,
    cd_lattice,
    centralizer,
    closure,
    corpus_group,
    direct_product,
    evaluate,
    full_subgroup,
    named_group,
    normal_closure,
    report_json,
    wreath_cyclic,
)
from cdlat.corpus import WREATH_CORPUS_SPECS, ut52_abelian_subgroup
from cdlat.groups import FormulaTable

from bruteforce import brute_centralizer_mask, brute_closure_mask

# wreaths with a trivial top, a trivial bottom, a four-slot base and a
# wreath bottom, beside the corpus
EDGE_WREATH_SPECS = ("C5 wr C1", "C1 wr C3", "C3 wr C4", "(C2 wr C2) wr C2")


def _coordinate_product(meta, x, y):
    (fx, k), (fy, l) = meta.coord_of(x), meta.coord_of(y)
    n = meta.top_order
    out = tuple(meta.bottom.mul(fx[s], fy[(s + k) % n]) for s in range(n))
    return meta.embed(out, (k + l) % n)


def _coordinate_inverse(meta, x):
    fx, k = meta.coord_of(x)
    n = meta.top_order
    out = tuple(meta.bottom.inv(fx[(s - k) % n]) for s in range(n))
    return meta.embed(out, -k % n)


@pytest.mark.parametrize("spec", WREATH_CORPUS_SPECS + EDGE_WREATH_SPECS)
def test_wreath_table_matches_coordinate_formula(spec):
    w = evaluate(spec)
    meta = w.product_meta
    rows = w.rows()
    assert rows is not None
    for x in range(w.order):
        assert rows[x] == tuple(_coordinate_product(meta, x, y) for y in range(w.order))
        assert w.inv(x) == _coordinate_inverse(meta, x)


def test_formula_backed_wreath_inverses_match_coordinate_formula():
    w = wreath_cyclic(named_group("C", 8), 4)
    assert w.rows() is None
    meta = w.product_meta
    assert all(w.inv(x) == _coordinate_inverse(meta, x) for x in range(w.order))


def _formula_twin(g: Group) -> Group:
    """The same group with its table hidden behind a product formula."""
    rows = g.rows()
    return Group(
        g.order,
        name=g.name,
        rows=FormulaTable(lambda a, b: rows[a][b], g.order),
        inv_table=[g.inv(x) for x in range(g.order)],
        known_gens=g.known_gens,
    )


@pytest.mark.parametrize("spec", ["D8 wr C2", "corpus:g32"])
def test_formula_backed_twin_agrees_with_table(spec):
    g = evaluate(spec)
    f = _formula_twin(g)
    assert f.rows() is None and g.rows() is not None
    subs_g, subs_f = all_subgroups(g), all_subgroups(f)
    assert [h.mask for h in subs_f] == [h.mask for h in subs_g]
    full_g, full_f = full_subgroup(g), full_subgroup(f)
    for hg, hf in zip(subs_g, subs_f):
        assert centralizer(f, hf).mask == centralizer(g, hg).mask
        assert normal_closure(full_f, hf).mask == normal_closure(full_g, hg).mask
    # the whole report, annotations and Hasse edges included
    assert report_json(build_report(spec, f, cd_lattice(f))) == report_json(
        build_report(spec, g, cd_lattice(g))
    )


def test_formula_backed_direct_product_matches_the_table():
    d8, c4 = named_group("D", 8), named_group("C", 4)
    f, g = direct_product(_formula_twin(d8), c4), direct_product(d8, c4)
    assert isinstance(f.table, FormulaTable) and g.rows() is not None
    n = g.order
    assert all(f.table[a][b] == g.table[a][b] for a in range(n) for b in range(n))
    assert [f.inv(x) for x in range(n)] == [g.inv(x) for x in range(n)]
    assert f.known_gens == g.known_gens
    assert report_json(build_report("D8 x C4", f, cd_lattice(f))) == report_json(
        build_report("D8 x C4", g, cd_lattice(g))
    )


@pytest.mark.parametrize("n", [1, 2])
def test_wreath_table_over_a_formula_backed_bottom(n):
    # the wreath is small enough to tabulate, read from the bottom's formula
    d8 = named_group("D", 8)
    f, g = wreath_cyclic(_formula_twin(d8), n), wreath_cyclic(d8, n)
    assert f.rows() is not None
    assert f.rows() == g.rows()
    assert [f.inv(x) for x in range(g.order)] == [g.inv(x) for x in range(g.order)]


def test_ut52_closure_and_centralizer_match_bruteforce():
    g = corpus_group("ut52")
    assert g.rows() is None
    seeds = [g.known_gens[:2], (3, 17), (5, 96, 513), (300, 7, 40), (1000, 6)]
    seeds.append(ut52_abelian_subgroup(g).generators())
    for seed in seeds:
        h = closure(g, seed)
        assert h.mask == brute_closure_mask(g, seed)
        assert centralizer(g, h).mask == brute_centralizer_mask(g, h.mask)
