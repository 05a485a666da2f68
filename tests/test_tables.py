"""The product table every hot path reads: every tabulated construction
gathers its rows from its generators' rows, and formula-backed groups are
read through a row view.

Each is checked against an independent formula or a brute-force oracle.
"""

import random
import re

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
from cdlat import groups, products, specparse
from cdlat.corpus import (
    ENUMERABLE_WREATH_SPECS,
    WREATH_CORPUS_SPECS,
    universal_corpus_specs,
    ut52_abelian_subgroup,
)
from cdlat.groups import FormulaTable, from_cayley, gather_rows

from bruteforce import (
    brute_centralizer_mask,
    brute_closure_mask,
    brute_generated_mask,
    relabelled,
)

# wreaths with a trivial top, a trivial bottom, a four-slot base and a
# wreath bottom (the last one trivial), beside the corpus
EDGE_WREATH_SPECS = (
    "C5 wr C1", "C1 wr C3", "C3 wr C4", "(C2 wr C2) wr C2", "(C1 wr C1) wr C2"
)


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
    # the rows of a product over w are gathered from these
    assert all(0 < x < w.order for x in w.known_gens)


@pytest.mark.parametrize("spec", ["D8 wr C3", "S4 wr C2", "S3 wr C3"])
def test_large_wreath_table_matches_coordinate_formula_on_sampled_rows(spec):
    w = evaluate(spec)
    meta = w.product_meta
    rows = w.rows()
    assert rows is not None and len(rows) == w.order
    for x in random.Random(13).sample(range(w.order), 64):
        assert rows[x] == tuple(_coordinate_product(meta, x, y) for y in range(w.order))
        assert w.inv(x) == _coordinate_inverse(meta, x)


def _check_direct_product(p, xs=None):
    g, h = p.product_meta.factors
    o2 = h.order
    rows = p.rows()
    assert rows is not None
    for x in range(p.order) if xs is None else xs:
        a1, b1 = divmod(x, o2)
        expect = tuple(
            g.mul(a1, a2) * o2 + h.mul(b1, b2) for a2 in range(g.order) for b2 in range(o2)
        )
        assert rows[x] == expect
        assert p.inv(x) == g.inv(a1) * o2 + h.inv(b1)


@pytest.mark.parametrize(
    "spec",
    ["C2 x C3", "D8 x C4", "S3 x Q8", "S4 x C3", "D8 x D8 x C2", "UT(4,2) x C2",
     "C1 wr C1 x C2", "C2 x C1 wr C1", "D8 wr C1 x C3"],
)
def test_direct_product_table_matches_coordinate_formula(spec):
    _check_direct_product(evaluate(spec))


def test_direct_product_over_a_factor_without_known_gens():
    # a Cayley table names no generators, so the group takes its greedy
    # ones, and the product's rows are gathered from those
    d8 = from_cayley(named_group("D", 8).rows())
    assert d8.known_gens == (1, 2)
    p = direct_product(d8, named_group("C", 3))
    assert p.known_gens == (3, 6, 1)
    assert brute_generated_mask(p, p.known_gens) == (1 << p.order) - 1
    _check_direct_product(p)


FAMILY_SPECS = [("C", 1), ("C", 2), ("C", 7), ("D", 4), ("D", 12), ("D", 16), ("Q", 8),
                ("Q", 16), ("UT", 2), ("UT", 3), ("UT", 4)]


def _count_formula_calls(monkeypatch):
    """Record (order, mul, gens, calls to mul, table) for every table that
    product_table builds; products imports it by name, so both bindings
    are patched."""
    seen = []
    tabulate = groups.product_table

    def counted(order, mul, gens, *limit, **row):
        calls = [0]

        def counting_mul(a, b):
            calls[0] += 1
            return mul(a, b)

        table = tabulate(order, counting_mul, gens, *limit, **row)
        seen.append((order, mul, tuple(gens), calls[0], table))
        return table

    monkeypatch.setattr(groups, "product_table", counted)
    monkeypatch.setattr(products, "product_table", counted)
    return seen


def _check_gathered_from_formula(order, mul, gens, calls, table):
    # product_table gathers every row from the generator rows, so it calls
    # the formula once per generator-row entry, never n**2 times
    assert calls <= len(gens) * order
    assert all(table[a] == tuple(mul(a, b) for b in range(order)) for a in range(order))


@pytest.mark.parametrize("family, n", FAMILY_SPECS)
def test_named_family_table_matches_its_formula_at_gens_times_n_calls(monkeypatch, family, n):
    seen = _count_formula_calls(monkeypatch)
    g = named_group(family, n)
    [built] = seen
    _check_gathered_from_formula(*built)
    assert (g.known_gens, g.rows()) == (built[2], built[4])


@pytest.mark.parametrize(
    "spec", ["S4", "A5", "perm:[(1,2,3)(4,5),(1,4)]", "D8 x C4", "D8 x D8 x C2"]
)
def test_permutation_and_product_tables_match_mul_at_gens_times_n_calls(monkeypatch, spec):
    # an empty evaluation cache builds every factor again under the spy;
    # the spec's own group is tabulated last
    monkeypatch.setattr(specparse, "_EVAL_CACHE", {})
    seen = _count_formula_calls(monkeypatch)
    g = evaluate(spec)
    for built in seen:
        _check_gathered_from_formula(*built)
    assert (g.known_gens, g.rows()) == (seen[-1][2], seen[-1][4])


def test_gather_rows_raises_on_generators_that_do_not_generate():
    d8 = named_group("D", 8)
    with pytest.raises(ValueError, match="reach 4 of 8"):
        gather_rows(8, (2,), [d8.table[2]])
    assert gather_rows(8, (2, 1), [d8.table[2], d8.table[1]]) == d8.rows()


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
    # the product is small enough to tabulate, read from the factor's formula
    assert f.rows() is not None
    assert f.rows() == g.rows()
    n = g.order
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
    # each bottom keeps its own wreath, so the two are built apart
    assert f is not g and f.product_meta.bottom is not d8
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


# the workloads of perfbench/run.py: its compute-mix and build-large specs
BENCH_SPECS = (
    "D8", "S5", "S3 x D8", "corpus:g32", "D8 wr C2", "D12 wr C2", "D8 x D8 x C2",
    "C2 x C2 x C2 x C2 x C2 x C2", "UT(4,2) x C2",
    "D8 wr C3", "S4 wr C2", "S6", "S3 wr C3", "corpus:ut52",
)


def _representation_cases():
    oracle = universal_corpus_specs() + ("corpus:g32",) + ENUMERABLE_WREATH_SPECS
    for spec in dict.fromkeys(oracle + BENCH_SPECS + ("S7", "UT(5,2) x C2")):
        yield spec, evaluate(spec)
    yield "cayley:D16 x D8", relabelled(evaluate("D16 x D8"), 3)[0]
    d8, c3 = named_group("D", 8), named_group("C", 3)
    for kind, bottom in (("cayley", from_cayley(d8.rows())), ("formula", _formula_twin(d8))):
        yield f"{kind} D8 x C3", direct_product(bottom, c3)
        yield f"C3 x {kind} D8", direct_product(c3, bottom)
        yield f"{kind} D8 wr C2", wreath_cyclic(bottom, 2)


def test_every_group_carries_generators_and_one_rule_picks_its_table():
    # UT(n,2) tabulates up to UT_TABLE_LIMIT, every other group up to
    # TABLE_LIMIT, whatever its factors are
    for name, g in _representation_cases():
        assert brute_generated_mask(g, g.known_gens) == (1 << g.order) - 1, name
        ut = re.fullmatch(r"UT\(\d+,2\)", g.name)
        limit = groups.UT_TABLE_LIMIT if ut else groups.TABLE_LIMIT
        assert (g.rows() is None) == (g.order > limit), name
    # so UT(5,2) x C2 is tabulated, its rows read from UT(5,2)'s formula
    p = evaluate("UT(5,2) x C2")
    _check_direct_product(p, random.Random(17).sample(range(p.order), 24))
