"""Fixture groups and the default corpus registry."""

import pytest

from cdlat import UnknownFixture, check_axioms, closure, corpus_group, corpus_names
from cdlat.corpus import (
    G32_GENS,
    universal_corpus_specs,
    ut52_abelian_subgroup,
)
from cdlat.specparse import evaluate, parse_spec


def test_registry():
    assert corpus_names() == ("g32", "ut52")
    with pytest.raises(UnknownFixture):
        corpus_group("unknown")


def test_corpus_groups_are_cached():
    assert corpus_group("g32") is corpus_group("g32")
    assert corpus_group("ut52") is corpus_group("ut52")


def test_g32_presentation_holds():
    g = corpus_group("g32")
    assert g.order == 32
    check_axioms(g)  # exact associativity by Light's test
    a, b, c, d = (G32_GENS[k] for k in "abcd")

    def comm(x, y):
        return g.mul(g.mul(g.inv(x), g.inv(y)), g.mul(x, y))

    assert g.element_order(a) == 4
    assert g.element_order(b) == 2
    assert g.element_order(c) == 2
    assert g.element_order(d) == 2
    for x, y in ((a, b), (b, c), (b, d), (c, d)):
        assert comm(x, y) == 0
    assert comm(a, c) == b
    assert comm(a, d) == c
    # the four generators generate
    assert closure(g, [a, b, c, d]).order == 32
    # b is central
    assert all(g.mul(b, x) == g.mul(x, b) for x in range(32))
    from cdlat import center, max_measure, measure

    assert b in center(g)
    assert measure(g, closure(g, [a, b])) == max_measure(g) == 64


def test_ut52_fixture():
    g = corpus_group("ut52")
    assert g.order == 1024
    a = ut52_abelian_subgroup(g)
    assert a.order == 64
    elems = a.elements()
    assert all(
        g.mul(x, y) == g.mul(y, x) for x in elems for y in elems
    )
    with pytest.raises(ValueError):
        ut52_abelian_subgroup(corpus_group("g32"))


def test_universal_corpus_is_deterministic_and_bounded():
    specs = universal_corpus_specs()
    assert specs == universal_corpus_specs()
    assert "C1" in specs and "S4" in specs and "Q16" in specs
    assert "C2 x C2 x C2 x C3" in specs
    for spec in specs:
        node = parse_spec(spec)
        g = evaluate(node)
        assert 1 <= g.order <= 24, spec
    # no duplicate construction strings
    assert len(set(specs)) == len(specs)
