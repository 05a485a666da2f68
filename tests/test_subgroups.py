"""Subgroup machinery against brute-force oracles and frozen examples."""

import random

import pytest

from cdlat import (
    EnumerationLimitExceeded,
    PermutationGenSet,
    Subgroup,
    SubgroupCapExceeded,
    all_subgroups,
    cd_lattice,
    center,
    centralizer,
    closure,
    conjugate_subgroup,
    full_subgroup,
    is_normal,
    join_subgroups,
    named_group,
    normal_closure,
    normalizer,
    subnormal_defect,
    trivial_subgroup,
)
from cdlat.corpus import (
    ENUMERABLE_WREATH_SPECS,
    G32_GENS,
    corpus_group,
    universal_corpus_specs,
)
from cdlat.groups import TABLE_LIMIT
from cdlat.report import build_report
from cdlat.specparse import evaluate
from cdlat import subgroups
from cdlat.subgroups import bits_of, lattice_join, replay_subgroups

from bruteforce import (
    brute_center_mask,
    brute_centralizer_mask,
    brute_closure_mask,
    brute_conjugate_mask,
    brute_discovery,
    brute_generated_mask,
    brute_lexmin_generators,
    brute_normal_closure_mask,
    brute_normalizer_mask,
    brute_subgroup_masks,
    fresh_group,
    relabelled,
)


def s4():
    return named_group("S", 4)


def perm_index(g, cycles):
    images = PermutationGenSet.from_cycles([cycles], degree=4).generators[0]
    return g.perm_images.index(images)


def test_closure_of_empty_seed_is_trivial():
    g = s4()
    sub = closure(g, [])
    assert sub.order == 1 and sub.mask == 1


def test_closure_of_3cycle_in_s3():
    g = named_group("S", 3)
    three = next(x for x in range(6) if g.element_order(x) == 3)
    sub = closure(g, [three])
    assert sub.order == 3
    # A3 is its own centralizer
    assert centralizer(g, sub).mask == sub.mask


def test_closure_generates_all_of_d8():
    g = named_group("D", 8)
    rot = next(x for x in range(8) if g.element_order(x) == 4)
    ref = next(x for x in range(8) if g.element_order(x) == 2 and x != g.mul(rot, rot))
    assert closure(g, [rot, ref]).order == 8


@pytest.mark.parametrize("fam, n", [("S", 3), ("D", 8), ("A", 4), ("Q", 8), ("C", 12)])
def test_closure_matches_brute_force(fam, n):
    g = named_group(fam, n)
    import random

    rng = random.Random(1234)
    for _ in range(25):
        seed = rng.sample(range(g.order), rng.randint(0, 3))
        assert closure(g, seed).mask == brute_closure_mask(g, seed)


def test_all_subgroups_counts():
    assert len(all_subgroups(named_group("C", 7))) == 2
    assert len(all_subgroups(named_group("S", 3))) == 6
    assert len(all_subgroups(named_group("D", 8))) == 10


# subset filtration is combinatorial in the order; 24 is its practical roof
@pytest.mark.parametrize(
    "fam, n",
    [("C", 12), ("D", 8), ("Q", 8), ("A", 4), ("D", 16), ("UT", 3)],
)
def test_all_subgroups_equals_subset_filtration(fam, n):
    g = named_group(fam, n)
    got = {h.mask for h in all_subgroups(g)}
    assert got == brute_subgroup_masks(g)


@pytest.mark.parametrize(
    "spec, calls",
    [("S5", 232), ("D8 wr C2", 765), ("C2 x C2 x C2 x C2 x C2 x C2", 2761)],
)
def test_discovery_tries_only_joins_that_can_be_new(monkeypatch, spec, calls):
    # the search extends each subgroup K, other than the trivial one, only
    # by an x that can give a new subgroup: a least generator of <x>, above
    # K's last generator, and the least element of its cosets Kx and xK;
    # dropping any of these rules repeats joins
    count = [0]
    extend = subgroups._extend

    def counted(*args):
        count[0] += 1
        return extend(*args)

    monkeypatch.setattr(subgroups, "_extend", counted)
    all_subgroups(fresh_group(spec))
    assert count[0] == calls


def test_subgroup_set_canonical_order():
    subs = all_subgroups(s4())
    keys = [h.key() for h in subs]
    assert keys == sorted(keys)
    assert len({h.mask for h in subs}) == len(subs)


def test_enumeration_limit(monkeypatch):
    with pytest.raises(EnumerationLimitExceeded):
        all_subgroups(named_group("UT", 5))
    monkeypatch.setattr(subgroups, "DEFAULT_SUBGROUP_CAP", 10)
    with pytest.raises(SubgroupCapExceeded):
        all_subgroups(fresh_group("S4"))


def test_subgroup_cap_reached_by_the_cyclic_seeds_alone(monkeypatch):
    # C12 has 6 subgroups, all cyclic: the seeding finds every one and the
    # join loop adds none
    g = fresh_group("C12")
    monkeypatch.setattr(subgroups, "DEFAULT_SUBGROUP_CAP", 5)
    with pytest.raises(SubgroupCapExceeded):
        all_subgroups(g)
    monkeypatch.setattr(subgroups, "DEFAULT_SUBGROUP_CAP", 6)
    assert len(all_subgroups(g)) == 6


def test_subgroup_constructor_guards():
    g = s4()
    with pytest.raises(ValueError):
        Subgroup(g, 0b110)  # identity bit missing
    with pytest.raises(ValueError):
        Subgroup(g, 0b11111)  # order 5 does not divide 24 (Lagrange)


ORACLE_SPECS = universal_corpus_specs() + ("corpus:g32",) + ENUMERABLE_WREATH_SPECS


def test_centralizer_matches_brute_force():
    for spec in ORACLE_SPECS:
        g = evaluate(spec)
        for h in all_subgroups(g):
            cent = centralizer(g, h)
            assert cent.mask == brute_centralizer_mask(g, h.mask), (spec, h.mask)
            # a centralizer carries no recorded generators of its own
            assert centralizer(g, cent).mask == brute_centralizer_mask(g, cent.mask)


def test_member_normality_matches_brute_force():
    # cd_lattice reads normality off the subnormal defect (<= 1)
    for spec in ORACLE_SPECS:
        g = evaluate(spec)
        full = (1 << g.order) - 1
        for m in cd_lattice(g).members:
            normal = brute_normalizer_mask(g, m.subgroup.mask) == full
            assert m.is_normal == normal, (spec, m.subgroup.mask)


def test_centralizer_of_trivial_and_full():
    g = s4()
    assert centralizer(g, trivial_subgroup(g)).order == 24
    assert centralizer(g, full_subgroup(g)).mask == brute_center_mask(g)
    assert center(g).order == 1


def test_center_examples():
    assert center(named_group("C", 12)).order == 12
    assert center(named_group("D", 8)).order == 2
    assert center(named_group("S", 4)).order == 1


def test_normalizer_matches_brute_force():
    for g in (s4(), named_group("D", 12)):
        for h in all_subgroups(g):
            assert normalizer(g, h).mask == brute_normalizer_mask(g, h.mask)


def test_normalizer_of_sylow2_in_s3():
    g = named_group("S", 3)
    two = next(x for x in range(6) if g.element_order(x) == 2)
    h = closure(g, [two])
    assert normalizer(g, h).mask == h.mask


def test_g32_d_does_not_normalize_x():
    g = corpus_group("g32")
    x = closure(g, [G32_GENS["a"], G32_GENS["b"]])
    assert G32_GENS["d"] not in normalizer(g, x)


def test_closure_past_the_table_limit_matches_brute_force():
    # S7 is formula-backed, and its Dimino steps shift on each read
    # instead of keeping a shift table
    g = named_group("S", 7)
    assert g.order > TABLE_LIMIT and g.rows() is None
    # the 120 elements that fix 5 and 6 form an S5
    s5 = [i for i, p in enumerate(g.perm_images) if p[5:] == (5, 6)]
    rng = random.Random(12)
    for _ in range(12):
        seed = rng.sample(s5, 2)
        assert closure(g, seed).mask == brute_closure_mask(g, seed), seed
    where = {p: i for i, p in enumerate(g.perm_images)}
    big = closure(g, [where[(1, 0, 2, 3, 4, 5, 6)], where[(1, 2, 3, 4, 0, 5, 6)]])
    small = closure(g, [where[(1, 2, 0, 3, 4, 5, 6)]])
    a5 = normal_closure(big, small)
    assert a5.order == 60
    assert a5.mask == brute_normal_closure_mask(g, big.mask, small.mask)
    assert "shift_table" not in g._cache


def test_normal_closure_examples():
    g = s4()
    full = full_subgroup(g)
    transposition = closure(g, [perm_index(g, [(1, 2)])])
    assert normal_closure(full, transposition).order == 24
    double = closure(g, [perm_index(g, [(1, 2), (3, 4)])])
    klein = normal_closure(full, double)
    assert klein.order == 4
    assert klein.mask == brute_normal_closure_mask(g, full.mask, double.mask)
    a4 = closure(g, [perm_index(g, [(1, 2, 3)]), perm_index(g, [(2, 3, 4)])])
    assert normal_closure(full, a4).mask == a4.mask  # already normal


def test_normal_closure_matches_brute_force():
    g = named_group("D", 12)
    full = full_subgroup(g)
    for h in all_subgroups(g):
        assert (
            normal_closure(full, h).mask
            == brute_normal_closure_mask(g, full.mask, h.mask)
        )


def test_subnormal_defect_basics():
    g = s4()
    assert subnormal_defect(g, full_subgroup(g)) == 0
    s3 = named_group("S", 3)
    a3 = closure(s3, [next(x for x in range(6) if s3.element_order(x) == 3)])
    assert subnormal_defect(s3, a3) == 1
    two = closure(s3, [next(x for x in range(6) if s3.element_order(x) == 2)])
    assert subnormal_defect(s3, two) is None


def test_subnormal_defect_g32():
    g = corpus_group("g32")
    x = closure(g, [G32_GENS["a"], G32_GENS["b"]])
    assert subnormal_defect(g, x) == 2
    # cross-check against the normalizer tower: X < N(X) < G reaches G in
    # two steps, consistent with defect exactly 2 given X is not normal
    n1 = normalizer(g, x)
    assert n1.mask != x.mask and n1.order < g.order
    assert normalizer(g, n1).order == g.order
    assert not is_normal(g, x)


def test_everything_subnormal_in_p_group():
    g = named_group("D", 16)
    for h in all_subgroups(g):
        assert subnormal_defect(g, h) is not None


def test_join_and_conjugate():
    g = s4()
    subs = all_subgroups(g)
    masks = {h.mask for h in subs}
    for h in subs[:12]:
        for k in subs[:12]:
            j = join_subgroups(h, k)
            assert j.mask in masks
            assert j.mask | h.mask | k.mask == j.mask
    h = closure(g, [perm_index(g, [(1, 2)])])
    cj = conjugate_subgroup(g, h, perm_index(g, [(1, 3)]))
    assert cj.order == 2 and cj.mask != h.mask


def pair_oracle_groups():
    """Groups small enough to check every pair of subgroups against the
    naive closures; g32 adds a defect-2 subgroup."""
    groups = [evaluate(s) for s in universal_corpus_specs()]
    return [g for g in groups if g.order <= 16] + [evaluate("corpus:g32")]


def test_normal_closure_matches_brute_force_for_every_pair():
    pairs = 0
    for g in pair_oracle_groups():
        subs = all_subgroups(g)
        for k in subs:
            for h in subs:
                if h.mask & ~k.mask:
                    continue
                pairs += 1
                want = brute_normal_closure_mask(g, k.mask, h.mask)
                assert normal_closure(k, h).mask == want, (g.name, k.mask, h.mask)
    assert pairs == 3577


def test_join_matches_brute_force_for_every_pair():
    pairs = 0
    for g in pair_oracle_groups():
        subs = all_subgroups(g)
        for h in subs:
            for k in subs:
                pairs += 1
                want = brute_closure_mask(g, h.elements() + k.elements())
                assert join_subgroups(h, k).mask == want, (g.name, h.mask, k.mask)
    assert pairs == 22325


def test_lattice_join_matches_brute_force_for_every_pair():
    pairs = 0
    for g in pair_oracle_groups():
        subs = all_subgroups(g)
        join = lattice_join(subs)
        for i, h in enumerate(subs):
            for j, k in enumerate(subs):
                pairs += 1
                want = brute_closure_mask(g, bits_of(h.mask | k.mask))
                assert join(i, j).mask == want, (g.name, h.mask, k.mask)
    assert pairs == 22325


def test_subnormal_defect_matches_brute_force_chain():
    for g in pair_oracle_groups():
        full = (1 << g.order) - 1
        for h in all_subgroups(g):
            # K_0 = G, K_{i+1} = <h^{K_i}>, until h or a fixed point
            current, depth = full, 0
            while current != h.mask:
                nxt = brute_normal_closure_mask(g, current, h.mask)
                depth += 1
                if nxt == current:
                    depth = None
                    break
                current = nxt
            assert subnormal_defect(g, h) == depth, (g.name, h.mask)


def test_normalizer_and_conjugates_match_brute_force_over_the_corpus():
    for spec in universal_corpus_specs():
        g = evaluate(spec)
        for h in all_subgroups(g):
            assert normalizer(g, h).mask == brute_normalizer_mask(g, h.mask), spec
            for x in range(g.order):
                cj = conjugate_subgroup(g, h, x)
                assert cj.mask == brute_conjugate_mask(g, h.mask, x), (spec, x)
                assert brute_closure_mask(g, cj.generators()) == cj.mask


def test_replay_inside_every_subgroup_finds_the_enumeration_generators():
    # restriction lemma: for L <= H the discovery BFS inside H records the
    # same generators for L as the BFS over all of G
    replays = 0
    for spec in ORACLE_SPECS:
        subs = all_subgroups(fresh_group(spec))
        g = fresh_group(spec)
        for h in subs:
            (got,) = replay_subgroups(g, h.mask, [h.mask])
            assert got == h.generators(), (spec, h.mask)
            replays += 1
    assert replays == 2231


def test_discovery_order_matches_the_plain_coset_search():
    # the enumeration tries only the joins that can be new; the oracle
    # tries one element of every right coset Kx and skips nothing else,
    # and both must record the same subgroups, generators and order
    # D8 x D8 x C2 and C2^6 are the largest searches compute-mix replays
    more = ("S5", "S3 x D8", "D8 x D8 x C2", "C2 x C2 x C2 x C2 x C2 x C2")
    for spec in ORACLE_SPECS + more:
        g = evaluate(spec)
        full = (1 << g.order) - 1
        assert list(subgroups._discover(g, full)) == brute_discovery(g), spec


@pytest.mark.parametrize("seed", [3, 17, 41])
@pytest.mark.parametrize("spec", ["S4", "Q8 x C4", "C6 wr C2", "D8 wr C2"])
def test_discovery_matches_the_plain_coset_search_under_relabelling(spec, seed):
    # the search prunes by index order (least generators, ascending
    # sequences, least coset elements), so check it under shuffled labels
    # too, with the identity kept at 0
    h, _ = relabelled(evaluate(spec), seed)
    assert list(subgroups._discover(h, (1 << h.order) - 1)) == brute_discovery(h)


def test_recorded_generators_are_the_lexicographically_least_shortest():
    # the search's pruning rests on this: each subgroup records the least,
    # in index order, of its shortest generating sequences, which ascends
    for spec in ORACLE_SPECS:
        g = evaluate(spec)
        joins = {}
        for h in all_subgroups(g):
            gens = h.generators()
            assert all(a < b for a, b in zip(gens, gens[1:])), (spec, gens)
            assert gens == brute_lexmin_generators(g, h.mask, joins), (spec, h.mask)


def test_generated_mask_matches_the_pairwise_closure():
    rng = random.Random(7)
    for spec in ("S4", "Q8 x C4", "C6 wr C2"):
        g = evaluate(spec)
        for _ in range(30):
            seed = rng.sample(range(g.order), rng.randint(0, 3))
            assert brute_generated_mask(g, seed) == brute_closure_mask(g, seed), (spec, seed)


@pytest.mark.parametrize("spec", ["S4", "D8 wr C2"])
def test_enumeration_after_the_subgroup_cap_matches_a_fresh_run(spec, monkeypatch):
    want = [(h.mask, h.generators()) for h in all_subgroups(fresh_group(spec))]
    g = fresh_group(spec)
    seeds = len({closure(g, [x]).mask for x in range(g.order)})
    # caps just past the cyclic seeds stop the first joins part-way through
    # a pop; a capped search must leave nothing behind for the next one
    for cap in range(seeds, seeds + 8):
        g = fresh_group(spec)
        with monkeypatch.context() as m:
            m.setattr(subgroups, "DEFAULT_SUBGROUP_CAP", cap)
            with pytest.raises(SubgroupCapExceeded):
                all_subgroups(g)
        got = [(h.mask, h.generators()) for h in all_subgroups(g)]
        assert got == want, cap


@pytest.mark.parametrize("spec", ["C2 x C4", "D8 wr C2"])
def test_report_caps_the_replay_at_the_last_member(spec):
    # both groups are their own top CD member, so the replay walks all of G;
    # in C2 x C4 it stops before the last subgroup the enumeration finds
    g = fresh_group(spec)
    result = cd_lattice(g)
    full = (1 << g.order) - 1
    assert result.member_masks()[-1] == full
    # the replay stops at the last member the discovery order meets
    order = [mask for mask, _ in brute_discovery(g)]
    discovered = 1 + max(order.index(mask) for mask in result.member_masks())
    # the cap counts the same after the enumeration of G has run
    subs = all_subgroups(g)
    if spec == "C2 x C4":
        assert discovered < len(subs)
    with pytest.raises(SubgroupCapExceeded):
        build_report(spec, g, result, max_subgroups=discovered - 1)
    assert build_report(spec, g, result, max_subgroups=discovered) == build_report(
        spec, g, result
    )
