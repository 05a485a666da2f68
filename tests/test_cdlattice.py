"""Lattice extraction against the worked small-group examples."""

import random
from itertools import product

import pytest

from cdlat import (
    EnumerationLimitExceeded,
    SubgroupCapExceeded,
    TooLargeForIso,
    all_subgroups,
    cd_lattice,
    cd_of_subgroup,
    center,
    centralizer,
    cl_subgroups,
    closure,
    lattice_isomorphic,
    max_measure,
    measure,
    named_group,
    normalizer,
)
from cdlat.cdlattice import CDMember, CDResult, _above, _hasse_edges, _maximal_centralizers
from cdlat.corpus import ENUMERABLE_WREATH_SPECS, universal_corpus_specs
from cdlat.specparse import evaluate
from cdlat.report import build_report, report_json
from cdlat import subgroups
from cdlat.subgroups import subnormal_defect

from bruteforce import (
    ORACLE_SPECS,
    brute_above,
    brute_cd_members,
    brute_centralizer_mask,
    brute_hasse_edges,
    brute_maximal_centralizers,
    brute_order_isomorphic,
    fresh_group,
    relabelled,
)


def masks(result):
    return set(result.member_masks())


def test_measure_examples():
    s4 = named_group("S", 4)
    a4_mask = 0
    for x in range(24):
        if _is_even_perm(s4, x):
            a4_mask |= 1 << x
    from cdlat import Subgroup

    a4 = Subgroup(s4, a4_mask)
    assert a4.order == 12
    # C_{S4}(A4) is trivial: it sits inside C((123)) /\ C((124)) = 1
    assert centralizer(s4, a4).order == 1
    assert measure(s4, a4) == 12
    assert measure(s4, Subgroup(s4, 1, gens=())) == 24

    s3 = named_group("S", 3)
    a3 = closure(s3, [next(x for x in range(6) if s3.element_order(x) == 3)])
    assert measure(s3, a3) == 9

    d12 = named_group("D", 12)
    r = closure(d12, [next(x for x in range(12) if d12.element_order(x) == 6)])
    assert measure(d12, r) == 36


def _is_even_perm(g, x):
    img = g.perm_images[x]
    inversions = sum(
        1 for i in range(len(img)) for j in range(i + 1, len(img)) if img[i] > img[j]
    )
    return inversions % 2 == 0


def test_max_measure_examples():
    assert max_measure(named_group("S", 4)) == 24
    assert max_measure(named_group("D", 8)) == 16
    for fam, n in (("C", 6), ("C", 9), ("D", 4)):
        g = named_group(fam, n)
        assert center(g).order == g.order
        assert max_measure(g) == g.order**2


def test_cd_s4_is_top_and_bottom():
    s4 = named_group("S", 4)
    result = cd_lattice(s4)
    assert masks(result) == {1, (1 << 24) - 1}
    assert result.max_measure == 24
    member_orders = sorted(m.subgroup.order for m in result.members)
    assert member_orders == [1, 24]
    assert [m.defect for m in result.members] == [1, 0]
    # centralizer pairing swaps top and bottom
    assert [m.centralizer_index for m in result.members] == [1, 0]


def test_cd_s3_is_a3_alone():
    s3 = named_group("S", 3)
    result = cd_lattice(s3)
    assert result.max_measure == 9
    assert len(result.members) == 1
    only = result.members[0]
    assert only.subgroup.order == 3
    assert only.is_normal and only.defect == 1 and only.is_centrally_large
    assert only.centralizer_index == 0
    assert result.hasse_edges == ()


def test_cd_d8_five_members():
    d8 = named_group("D", 8)
    result = cd_lattice(d8)
    assert result.max_measure == 16
    orders = sorted(m.subgroup.order for m in result.members)
    assert orders == [2, 4, 4, 4, 8]
    z = center(d8)
    assert z.mask in masks(result)
    assert all(m.is_normal for m in result.members)
    # Hasse: Z below the three order-4 members, each below D8
    assert len(result.hasse_edges) == 6


def test_cd_q8_five_members():
    q8 = named_group("Q", 8)
    result = cd_lattice(q8)
    assert result.max_measure == 16
    assert sorted(m.subgroup.order for m in result.members) == [2, 4, 4, 4, 8]


def test_d8_q8_lattices_isomorphic():
    d8 = cd_lattice(named_group("D", 8))
    q8 = cd_lattice(named_group("Q", 8))
    assert lattice_isomorphic(d8, q8)
    assert lattice_isomorphic(d8, d8)
    s4 = cd_lattice(named_group("S", 4))
    s3 = cd_lattice(named_group("S", 3))
    assert not lattice_isomorphic(s4, s3)


def fake_result(subs):
    """A CDResult whose members are the given subgroups, for the order
    tests alone: the annotations are placeholders."""
    members = tuple(CDMember(h, True, 1, False, 0) for h in subs)
    above = brute_above([h.mask for h in subs])
    return CDResult(group=subs[0].ambient, max_measure=0, members=members, above=above)


def test_iso_rejects_same_size_different_shape():
    # the subgroups of C8 form a 4-chain; 1, two of the order-2 subgroups
    # and V4 itself form a 4-member diamond
    chain = all_subgroups(named_group("C", 8))
    v4 = all_subgroups(named_group("D", 4))
    assert len(chain) == 4 and len(v4) == 5
    chain, diamond = fake_result(chain), fake_result(v4[:3] + v4[4:])
    other_diamond = fake_result(v4[:1] + v4[2:])
    assert not lattice_isomorphic(chain, diamond)
    assert not lattice_isomorphic(diamond, chain)
    assert lattice_isomorphic(chain, chain)
    assert lattice_isomorphic(diamond, other_diamond)


def test_iso_agrees_with_a_search_over_every_bijection():
    # families of up to six subgroups of C2^4, against a second family of
    # the same size: half a shuffle of the first, half drawn afresh
    subs = all_subgroups(evaluate("C2 x C2 x C2 x C2"))
    rng = random.Random(24)
    verdicts = set()
    for trial in range(300):
        a = rng.sample(subs, rng.randint(1, 6))
        b = rng.sample(a, len(a)) if trial % 2 else rng.sample(subs, len(a))
        want = brute_order_isomorphic([h.mask for h in a], [h.mask for h in b])
        assert lattice_isomorphic(fake_result(a), fake_result(b)) == want, trial
        verdicts.add((trial % 2, want))
    assert verdicts == {(0, False), (0, True), (1, True)}


def test_iso_cap():
    from cdlat.cdlattice import CDResult

    big = cd_lattice(named_group("C", 2))
    fake = CDResult(
        group=big.group,
        max_measure=big.max_measure,
        members=big.members * 13,
        above=big.above * 13,
    )
    with pytest.raises(TooLargeForIso):
        lattice_isomorphic(fake, fake)


def test_cl_examples():
    d8 = named_group("D", 8)
    cl = cl_subgroups(d8)
    assert sorted(h.order for h in cl) == [4, 4, 4, 8]
    z = center(d8)
    assert all(h.mask != z.mask for h in cl)

    s4 = named_group("S", 4)
    cl4 = cl_subgroups(s4)
    assert [h.order for h in cl4] == [24]

    for fam, n in (("C", 6), ("D", 4)):
        g = named_group(fam, n)
        cl_ab = cl_subgroups(g)
        assert [h.mask for h in cl_ab] == [(1 << g.order) - 1]


def test_cd_of_subgroup_matches_direct_computation():
    g = named_group("S", 4)
    subs = all_subgroups(g)
    # pick the A4 subgroup: the unique index-2 subgroup
    a4 = next(h for h in subs if h.order == 12)
    sub_cd = cd_of_subgroup(g, a4)
    # A4 on its own: Klein subgroup V has measure 4*12? no: C_{A4}(V) = V,
    # m = 16; max over A4's subgroups is 16 at V
    assert sub_cd.max_measure == 16
    klein = next(h for h in subs if h.order == 4 and normalizer(g, h).order == g.order)
    assert sub_cd.member_masks == (klein.mask,)


def test_hasse_is_transitive_reduction():
    g = named_group("D", 8)
    result = cd_lattice(g)
    edges = set(result.hasse_edges)
    ms = result.member_masks()
    for lo, hi in edges:
        assert ms[lo] & ~ms[hi] == 0 and ms[lo] != ms[hi]
    # no edge implied by two others
    for a, b in edges:
        for c, d in edges:
            if b == c:
                assert (a, d) not in edges
    # and every cover present: Z below the three order-4 members, each
    # below D8
    assert [m.subgroup.order for m in result.members] == [2, 4, 4, 4, 8]
    assert result.hasse_edges == ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4))


def test_hasse_edges_match_brute_force():
    # D8 wr C3 (125 members) and S6 lie past the enumeration limit
    for spec in ORACLE_SPECS + ("D8 wr C3", "S6"):
        result = cd_lattice(evaluate(spec))
        assert result.above == brute_above(result.member_masks()), spec
        assert result.hasse_edges == brute_hasse_edges(result.member_masks()), spec
    # CD(D8)^4 as masks on four blocks of 8 bits: 625 members, 3000 covers
    d8 = cd_lattice(named_group("D", 8)).member_masks()
    family = [a | b << 8 | c << 16 | d << 24 for a, b, c, d in product(d8, repeat=4)]
    edges = _hasse_edges(_above(family))
    assert len(family) == 625 and len(edges) == 3000
    assert edges == brute_hasse_edges(family)


def test_cached_results_respect_the_caps():
    g = named_group("D", 8)
    cd_lattice(g)  # caches the lattice
    all_subgroups(g)  # and the subgroup set
    with pytest.raises(EnumerationLimitExceeded):
        all_subgroups(g, max_order=4)


def test_cd_lattice_takes_no_enumeration_limit():
    # S6 (order 720) is past the enumeration limit of 512; the centralizer
    # closure needs no enumeration
    g = fresh_group("S6")
    result = cd_lattice(g)
    assert [m.subgroup.order for m in result.members] == [1, 720]
    assert result.max_measure == max_measure(g) == 720
    assert [h.order for h in cl_subgroups(g)] == [720]


# the 13 specs whose compute reports were pinned when subgroups became bare
# bitmasks, then the 100 groups the centralizer and normality oracles cover
PINNED_SPECS = (
    "D8",
    "S5",
    "S3 x D8",
    "corpus:g32",
    "D8 wr C2",
    "D12 wr C2",
    "D8 x D8 x C2",
    "C2 x C2 x C2 x C2 x C2 x C2",
    "UT(4,2) x C2",
    "Q8 x C4",
    "C2 wr C3",
    "S4 x C3",
    "A4 x C2",
)
CORPUS_SPECS = universal_corpus_specs() + ("corpus:g32",) + ENUMERABLE_WREATH_SPECS


def enumerate_then_scan(g):
    """The lattice from every subgroup: enumerate, then keep the subgroups
    of largest measure, annotated as cd_lattice annotates its members."""
    subs = all_subgroups(g)
    meas = [h.order * centralizer(g, h).order for h in subs]
    best = max(meas)
    found = [h for h, m in zip(subs, meas) if m == best]
    index = {h.mask: i for i, h in enumerate(found)}
    members = []
    for h in found:
        cent = centralizer(g, h).mask
        defect = subnormal_defect(g, h)
        members.append(
            CDMember(h, defect <= 1, defect, cent & ~h.mask == 0, index[cent])
        )
    return CDResult(g, best, tuple(members), brute_above([h.mask for h in found]))


def test_closure_matches_enumerate_then_scan():
    for spec in dict.fromkeys(PINNED_SPECS + CORPUS_SPECS):
        old = enumerate_then_scan(fresh_group(spec))
        g = fresh_group(spec)
        new = cd_lattice(g)
        assert new.max_measure == old.max_measure == max_measure(g), spec
        assert new.member_masks() == old.member_masks(), spec
        want = report_json(build_report(spec, old))
        assert report_json(build_report(spec, new)) == want, spec


def test_cd_of_subgroup_matches_brute_force_inside_every_subgroup():
    groups = [fresh_group(s) for s in universal_corpus_specs()]
    groups = [g for g in groups if g.order <= 16] + [fresh_group("corpus:g32")]
    checked = 0
    for g in groups:
        for s in all_subgroups(g):
            best, members = brute_cd_members(g, s.mask)
            cl = [m for m in members if brute_centralizer_mask(g, m) & s.mask & ~m == 0]
            got = cd_of_subgroup(g, s)
            assert got.max_measure == best, (g.name, s.mask)
            assert list(got.member_masks) == members, (g.name, s.mask)
            assert list(got.cl_masks) == cl, (g.name, s.mask)
            checked += 1
    assert checked == 677


def test_cd_lattice_matches_brute_force_on_small_groups():
    for spec in universal_corpus_specs():
        g = fresh_group(spec)
        if g.order > 16:
            continue
        best, members = brute_cd_members(g)
        result = cd_lattice(g)
        assert (result.max_measure, result.member_masks()) == (best, members), spec


def test_the_pruned_scan_matches_the_full_scan_on_the_oracle_specs():
    for spec in ORACLE_SPECS:
        g = evaluate(spec)
        full = (1 << g.order) - 1
        assert _maximal_centralizers(g, full) == brute_maximal_centralizers(g, full), spec


@pytest.mark.parametrize("spec", ["S4", "corpus:g32", "D8 wr C2", "C4 wr C2"])
def test_the_pruned_scan_matches_the_full_scan_inside_every_subgroup(spec):
    # cd_of_subgroup scans inside subgroups, where Z(S) and the keys are
    # taken in S: every subgroup of these groups, the bases of the wreath
    # products and each S above a member's U C_G(U) among them
    g = evaluate(spec)
    for s in all_subgroups(g):
        assert _maximal_centralizers(g, s.mask) == brute_maximal_centralizers(g, s.mask), (
            spec,
            s.mask,
        )


def test_max_subgroups_caps_the_subgroups_the_replay_discovers(monkeypatch):
    # D12 wr C2: CD(W) lies inside a proper subgroup, whose replay meets
    # far fewer subgroups than the enumeration of W
    g = fresh_group("D12 wr C2")
    result = cd_lattice(g)
    with pytest.raises(SubgroupCapExceeded):
        build_report("D12 wr C2", result, max_subgroups=10)
    report = build_report("D12 wr C2", result, max_subgroups=100)
    with pytest.raises(SubgroupCapExceeded):
        build_report("D12 wr C2", result, max_subgroups=10)  # still capped
    monkeypatch.setattr(subgroups, "DEFAULT_SUBGROUP_CAP", 100)
    with pytest.raises(SubgroupCapExceeded):
        all_subgroups(g)
    assert report == build_report("D12 wr C2", result)


@pytest.mark.parametrize("spec", ["D8 x D8 x C2", "D8 wr C2", "Q8 wr C3"])
def test_lattice_is_invariant_under_relabelling(spec):
    # the same group under shuffled labels (identity kept at 0), rebuilt
    # from its bare table: the lattice must map over exactly.  Q8 wr C3
    # (order 1536, 125 members) lies past the enumeration limit
    g = evaluate(spec)
    n = g.order
    h, label = relabelled(g, 29)

    def relabel(mask):
        return sum(1 << label[x] for x in range(n) if mask >> x & 1)

    cg, ch = cd_lattice(g), cd_lattice(h)
    assert ch.max_measure == cg.max_measure
    at = {mask: i for i, mask in enumerate(ch.member_masks())}
    position = [at[relabel(m.subgroup.mask)] for m in cg.members]
    assert sorted(position) == list(range(len(ch.members)))
    for m, i in zip(cg.members, position):
        twin = ch.members[i]
        assert (twin.is_normal, twin.defect, twin.is_centrally_large) == (
            m.is_normal,
            m.defect,
            m.is_centrally_large,
        )
        assert twin.centralizer_index == position[m.centralizer_index]
    assert {(position[i], position[j]) for i, j in cg.hasse_edges} == set(ch.hasse_edges)
