"""Module invariants, spot-checked here on representative groups; the
acceptance suite quantifies the same properties over the full corpus."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlat import evaluate, named_group
from cdlat.corpus import universal_corpus_specs

import property_suites as ps
from bruteforce import brute_subgroup_masks, brute_subgroup_masks_within

SPOT_GROUPS = [
    "C12",
    "D8",
    "Q8",
    "S4",
    "A4",
    "C2 x C2 x C2",
    "D4 x S3",
    "corpus:g32",
    "C2 wr C3",
    "C4 wr C2",
]

SPOT_WREATHS = ["C2 wr C2", "C3 wr C2", "C2 wr C3", "C4 wr C2", "S3 wr C2"]


@pytest.mark.parametrize("spec", SPOT_GROUPS)
def test_axioms(spec):
    ps.assert_group_axioms(evaluate(spec))


@pytest.mark.parametrize("spec", SPOT_GROUPS)
def test_subgroup_engine_invariants(spec):
    ps.assert_subgroup_engine_invariants(evaluate(spec))


@pytest.mark.parametrize("spec", SPOT_GROUPS)
def test_measure_lemma_invariants(spec):
    ps.assert_measure_lemma_invariants(evaluate(spec))


@pytest.mark.parametrize("spec", SPOT_GROUPS)
def test_cd_invariants(spec):
    ps.assert_cd_invariants(evaluate(spec))


@pytest.mark.parametrize("spec", ["C2 x S3", "D8 x C2", "C4 x C4", "A4 x C2"])
def test_direct_product_invariants(spec):
    ps.assert_direct_product_invariants(evaluate(spec))


def test_direct_product_invariants_order48():
    ps.assert_direct_product_invariants(evaluate("S3 x D8"))


@pytest.mark.parametrize("spec", SPOT_WREATHS)
def test_wreath_invariants(spec):
    ps.assert_wreath_invariants(evaluate(spec))


@pytest.mark.parametrize("spec", SPOT_WREATHS + ["D8 wr C2", "D12 wr C2"])
def test_wreath_centralizer_formulas(spec):
    ps.assert_wreath_centralizer_formulas(evaluate(spec))


# the adjoin-one-element oracle grows every subgroup from {1} by naive
# closure; subset filtration costs C(n-1, d-1) per divisor d, so it only
# cross-checks that oracle where it is cheap
def test_adjoin_oracle_matches_filtration_up_to_12():
    checked = 0
    for spec in universal_corpus_specs():
        g = evaluate(spec)
        if g.order <= 12:
            full = (1 << g.order) - 1
            assert brute_subgroup_masks_within(g, full) == brute_subgroup_masks(g), spec
            checked += 1
    assert checked >= 20


def test_enumeration_matches_the_adjoin_oracle_over_the_corpus():
    for spec in universal_corpus_specs():
        ps.assert_enumeration_matches_adjoin_oracle(evaluate(spec))


@pytest.mark.parametrize("spec", ["corpus:g32", "C4 wr C2", "C6 wr C2", "D8 x D8"])
def test_enumeration_matches_the_adjoin_oracle_past_the_corpus(spec):
    ps.assert_enumeration_matches_adjoin_oracle(evaluate(spec))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["S4", "D12", "Q16", "A4"]),
    st.lists(st.integers(0, 11), min_size=0, max_size=4),
)
def test_closure_idempotent_and_monotone(spec, seed):
    g = evaluate(spec)
    seed = [x % g.order for x in seed]
    ps.assert_closure_properties(g, [seed])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["S4", "D12", "corpus:g32"]), st.integers(0, 10**6))
def test_product_set_shortcut_agrees_with_literal(spec, pick):
    # the coset-counting identity used by the lemma checks, cross-validated
    # against literal product sets
    from cdlat import all_subgroups, join_subgroups, product_set_mask

    g = evaluate(spec)
    subs = all_subgroups(g)
    h = subs[pick % len(subs)]
    k = subs[(pick * 7 + 3) % len(subs)]
    join = join_subgroups(h, k)
    literal = product_set_mask(g, h, k)
    size = h.order * k.order // (h.mask & k.mask).bit_count()
    assert literal.bit_count() == size
    assert (literal == join.mask) == (size == join.order)


def test_reports_do_not_depend_on_warm_caches():
    # a freshly evaluated copy of a group reaches the same lattice
    from cdlat import cd_lattice
    from cdlat.specparse import _EVAL_CACHE

    key = next(k for k in list(_EVAL_CACHE) if k[0] == "D8")
    _, cached = _EVAL_CACHE[key]  # (Cayley file stamps, group)
    warm = cd_lattice(cached)
    cold = cd_lattice(named_group("D", 8))
    assert [m.subgroup.elements() for m in warm.members] == [
        m.subgroup.elements() for m in cold.members
    ]
    assert warm.hasse_edges == cold.hasse_edges
