"""The named-check registry: verdict shapes, gates, and paper examples."""

import dataclasses

import pytest

from cdlat import check_ids, default_pairs, run_check, subgroups
from cdlat.checks import CHECKS, CHECKS_BY_ID

from bruteforce import fresh_group


def test_registry_ids_are_stable():
    assert check_ids() == (
        "cd-sublattice",
        "cd-subnormal",
        "useful-prop",
        "direct-cd",
        "direct-cl",
        "wreath-base-centralizer",
        "wreath-center",
        "wreath-not-self",
        "wreath-self-c2",
        "wreath-cd-collapse",
        "wreath-mmm",
        "d12-counterexample",
        "g32-nonnormal",
        "ut52-not-self",
        "embed-2group",
        "simple-cd",
        "sym-cd",
        "measure-lemmas",
    )
    assert len({c.check_id for c in CHECKS}) == len(CHECKS)


def test_unknown_check():
    with pytest.raises(KeyError):
        run_check("no-such-check", "C2")


@pytest.mark.parametrize(
    "check_id, spec",
    [
        ("cd-sublattice", "D8"),
        ("cd-subnormal", "S4"),
        ("useful-prop", "corpus:g32"),
        ("direct-cd", "C2 x S3"),
        ("direct-cl", "C2 x S3"),
        ("wreath-base-centralizer", "S3 wr C2"),
        ("wreath-center", "S3 wr C2"),
        ("wreath-not-self", "C4 wr C2"),
        ("wreath-self-c2", "C2 wr C2"),
        ("wreath-cd-collapse", "C2 wr C3"),
        ("wreath-mmm", "C4 wr C2"),
        ("d12-counterexample", "D12"),
        ("g32-nonnormal", "corpus:g32"),
        ("ut52-not-self", "corpus:ut52"),
        ("embed-2group", "(C2 wr C2) wr C2"),
        ("simple-cd", "C5"),
        ("sym-cd", "S4"),
        ("measure-lemmas", "Q8"),
    ],
)
def test_each_check_passes_on_its_example(check_id, spec):
    v = run_check(check_id, spec)
    assert v.status == "passed", (v.witness, v.stats)
    assert v.witness is None
    assert v.elapsed >= 0.0


@pytest.mark.parametrize(
    "check_id, spec, reason_fragment",
    [
        ("direct-cd", "D8", "direct product"),
        ("wreath-center", "D8", "wreath"),
        ("wreath-not-self", "D8 wr C2", "<="),
        ("wreath-self-c2", "D12 wr C2", "not in its own lattice"),
        ("wreath-cd-collapse", "D8 wr C2", "|Z(G)| > 2 or p > 2"),
        ("wreath-mmm", "C2 wr C2", "order-8 dihedral"),
        ("d12-counterexample", "C12", "|Z(G)| = 2"),
        ("g32-nonnormal", "D8", "g32"),
        ("ut52-not-self", "corpus:g32", "UT(5,2)"),
        ("simple-cd", "S4", "not simple"),
        ("simple-cd", "C1", "trivial"),
        ("sym-cd", "S3", "S4 or S5"),
        ("cd-sublattice", "corpus:ut52", "too large"),
        # the enumeration limit (order 512) of the other gated checks
        ("cd-subnormal", "S6", "too large"),
        ("useful-prop", "S6", "too large"),
        ("simple-cd", "S6", "too large"),
        ("measure-lemmas", "S6", "too large"),
        ("direct-cd", "A5 x D12", "product too large"),
        ("direct-cl", "A5 x D12", "product too large"),
        ("wreath-self-c2", "S4 wr C2", "too large"),
        ("wreath-cd-collapse", "C2 wr C7", "too large"),
        ("wreath-mmm", "C2 wr C7", "too large"),
        # a composite top order runs _is_prime's trial-division loop
        ("wreath-cd-collapse", "C2 wr C4", "not prime"),
        ("wreath-mmm", "C2 wr C4", "not prime"),
    ],
)
def test_hypothesis_gates_produce_skips(check_id, spec, reason_fragment):
    v = run_check(check_id, spec)
    assert v.status == "skipped"
    assert reason_fragment in v.stats["skip_reason"]
    assert v.witness is None


def test_an_internal_assertion_becomes_a_failed_verdict(monkeypatch):
    def broken(g):
        raise AssertionError(f"invariant broken in {g.name}")

    check = dataclasses.replace(CHECKS_BY_ID["sym-cd"], fn=broken)
    monkeypatch.setitem(CHECKS_BY_ID, "sym-cd", check)
    v = run_check("sym-cd", "S4")
    assert v.status == "failed"
    assert v.witness == {"note": "invariant broken in S4", "subgroups": []}
    assert v.stats == {}


def test_wreath_self_c2_skips_when_bottom_not_member():
    # D12 is not in CD(D12), so the hypothesis fails despite |Z| = 2
    v = run_check("wreath-self-c2", "D12 wr C2")
    assert v.status == "skipped"


def test_d12_check_reports_paper_numbers():
    v = run_check("d12-counterexample", "D12")
    assert v.status == "passed"
    assert v.stats["rotation_measure"] == "36"
    assert v.stats["group_measure"] == "24"
    assert v.stats["wreath_measure"] == "576"
    assert int(v.stats["witness_measure"]) >= 6**4


def test_wreath_self_c2_reports_counts():
    v = run_check("wreath-self-c2", "D8 wr C2")
    assert v.status == "passed"
    assert v.stats["subgroups_enumerated"] == 576
    assert v.stats["base_members"] == 25  # five members squared
    assert v.stats["members"] >= 27


def test_sym_cd_s5():
    v = run_check("sym-cd", "S5")
    assert v.status == "passed"
    assert v.stats["max_measure"] == "120"


def test_witness_present_exactly_on_failure():
    # an order-32 dihedral group wearing the fixture's name satisfies the
    # g32 gate but breaks its claims, so the check must fail with a witness
    from cdlat import named_group
    from cdlat.checks import _check_g32_nonnormal
    from cdlat.groups import Group

    fake = Group(32, name="g32", rows=named_group("D", 32).rows())
    status, witness, stats = _check_g32_nonnormal(fake)
    assert status == "failed"
    assert witness is not None and witness["note"]
    for item in witness["subgroups"]:
        assert item["order"] >= 1 and item["measure"].isdigit()


def test_default_pairs_cover_all_checks():
    pairs = default_pairs()
    covered = {cid for cid, _ in pairs}
    assert covered == set(check_ids())
    only = default_pairs("sym-cd")
    assert only == [("sym-cd", "S4"), ("sym-cd", "S5")]


def test_cd_sublattice_never_searches_inside_a_proper_subgroup(monkeypatch):
    # CD(C6 wr C2) = CD(B) lies in the base B; the check enumerates the
    # wreath and reads the lattice off the centralizers, so its only
    # discovery search runs over the whole group
    within_seen = []
    discover = subgroups._discover

    def spy(g, within):
        within_seen.append((within, (1 << g.order) - 1))
        return discover(g, within)

    monkeypatch.setattr(subgroups, "_discover", spy)
    assert run_check("cd-sublattice", fresh_group("C6 wr C2")).status == "passed"
    assert within_seen and all(within == full for within, full in within_seen)
