"""The named-check registry: verdict shapes, gates, and paper examples."""

import pytest

from cdlat import cd_lattice, check_ids, checks, default_pairs, run_check, run_pairs, subgroups
from cdlat.checks import CHECKS, CHECKS_BY_ID, CheckDef
from cdlat.groups import DEFAULT_ORDER_CAP
from cdlat.specparse import evaluate

from bruteforce import brute_cd_sublattice, brute_measure_lemmas, fresh_group


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


# (checks, specs) past the enumeration limit, none in the default corpus
_PAST_LIMIT = (
    (
        ("wreath-cd-collapse", "wreath-mmm", "wreath-not-self", "cd-subnormal"),
        ("D8 wr C3", "Q8 wr C3"),
    ),
    (("direct-cd", "direct-cl"), ("A5 x D12", "S5 x D8")),
    (("wreath-cd-collapse", "wreath-mmm"), ("C2 wr C7",)),
    (("cd-subnormal",), ("S6", "S4 wr C2", "corpus:ut52")),
    (("cd-sublattice",), ("D8 wr C3", "Q8 wr C3", "corpus:ut52", "S5 x D8")),
)


@pytest.mark.parametrize(
    "check_id, spec", [(c, s) for cs, ss in _PAST_LIMIT for s in ss for c in cs]
)
def test_each_check_passes_past_the_enumeration_limit(check_id, spec):
    # checks that read only CD(G) and centralizers run at any order under
    # the order cap, and omit the stat they cannot take there
    assert (check_id, spec) not in default_pairs()
    assert evaluate(spec).order > 512
    v = run_check(check_id, spec)
    assert v.status == "passed", (v.witness, v.stats)
    assert "subgroups_enumerated" not in v.stats


@pytest.mark.parametrize("spec", ["D8 wr C3", "Q8 wr C3", "C3 wr C5"])
@pytest.mark.parametrize("check_id", ["wreath-base-centralizer", "wreath-center"])
def test_wreath_centralizer_checks_pass_past_the_enumeration_limit(check_id, spec):
    # these checks read element centralizers alone, so they run on wreaths
    # too large to enumerate, which the default corpus leaves out
    assert (check_id, spec) not in default_pairs()
    v = run_check(check_id, spec)
    assert v.status == "passed", (v.witness, v.stats)
    assert evaluate(spec).order > 512
    assert "subgroups_enumerated" not in v.stats


def test_ungated_checks_read_no_enumeration(monkeypatch):
    # with an enumeration limit of 0 no group is enumerable; every check
    # but the two that quantify over all subgroups keeps its verdict
    gated = {"useful-prop", "measure-lemmas"}
    pairs = [(cid, spec) for cid, spec in default_pairs() if cid not in gated]
    full = run_pairs(pairs)
    monkeypatch.setattr(checks, "resolve_caps", lambda max_order: (DEFAULT_ORDER_CAP, 0))
    bare = run_pairs(pairs)
    assert any("subgroups_enumerated" in v.stats for v in full)
    for a, b in zip(full, bare, strict=True):
        stats = {k: x for k, x in a.stats.items() if k != "subgroups_enumerated"}
        assert (b.status, b.witness, b.stats) == (a.status, a.witness, stats), b


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
        # the enumeration limit (order 512) of the two checks that
        # quantify over every subgroup
        ("useful-prop", "S6", "too large"),
        ("measure-lemmas", "S6", "too large"),
        # past the limit, the other checks reach their own hypotheses
        ("simple-cd", "S6", "not simple"),
        ("wreath-self-c2", "S4 wr C2", "|Z(G)| != 2"),
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

    sym = CHECKS_BY_ID["sym-cd"]
    check = CheckDef(sym.check_id, sym.claim, broken, sym.default_specs)
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


def test_d12_check_reads_the_kept_wreath_and_keeps_its_cap(monkeypatch, capsys):
    from cdlat import OrderCapExceeded, specparse
    from cdlat.cli import main

    monkeypatch.setattr(specparse, "_EVAL_CACHE", {})
    built = []
    real = checks.wreath_cyclic

    def spy(g, n, **caps):
        built.append(real(g, n, **caps))
        return built[-1]

    monkeypatch.setattr(checks, "wreath_cyclic", spy)
    d12 = evaluate("D12")
    assert run_check("d12-counterexample", d12).status == "passed"
    # the corpus spec reads the group the check built, with its centralizers
    assert len(built) == 1 and evaluate("D12 wr C2") is built[0]
    assert run_check("d12-counterexample", d12).status == "passed"
    assert built[1] is built[0]
    # the kept group is looked up after the cap check, so a lower cap raises
    with pytest.raises(OrderCapExceeded) as err:
        run_check("d12-counterexample", d12, max_order=100)
    assert str(err.value) == "|D12 wr C2| = 288 > cap 100"
    assert main(["verify", "d12-counterexample", "D12", "--max-order", "100"]) == 3
    assert "> cap 100" in capsys.readouterr().err


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
    # CD(C6 wr C2) = CD(B) lies in the base B; the check reads the lattice
    # off the centralizers and enumerates only for its subgroups_enumerated
    # stat, so its only discovery search runs over the whole group
    within_seen = []
    discover = subgroups._discover

    def spy(g, within):
        within_seen.append((within, (1 << g.order) - 1))
        return discover(g, within)

    monkeypatch.setattr(subgroups, "_discover", spy)
    assert run_check("cd-sublattice", fresh_group("C6 wr C2")).status == "passed"
    assert within_seen and all(within == full for within, full in within_seen)


def test_measure_lemmas_fails_on_a_wrong_centralizer(monkeypatch):
    # C(G) of D8 reported as the trivial subgroup instead of the center;
    # the check reads centralizers from the group's lattice index, which
    # forms them when a fresh group first asks for it
    true_centralizer = subgroups.centralizer

    def wrong(g, h):
        if h.order == g.order:
            return subgroups.trivial_subgroup(g)
        return true_centralizer(g, h)

    monkeypatch.setattr(subgroups, "centralizer", wrong)
    g = fresh_group("D8")
    v = run_check("measure-lemmas", g)
    assert v.status == "failed"
    assert (v.status, v.witness, v.stats) == brute_measure_lemmas(g)
    assert v.witness["note"] in {
        "m(H) exceeds m(C(H))",
        "equal measures but H != C(C(H))",
        "submultiplicativity fails",
        "equality condition mismatch",
    }


def test_ut52_check_fails_on_a_non_abelian_block(monkeypatch):
    # the upper-left 4x4 block of UT(5,2) is UT(4,2): order 64, not abelian
    from cdlat import checks, closure, evaluate, ut_entry_bit

    def upper_left_block(g):
        gens = [1 << ut_entry_bit(5, i, j) for i in range(4) for j in range(i + 1, 4)]
        return closure(g, gens)

    monkeypatch.setattr(checks, "ut52_abelian_subgroup", upper_left_block)
    assert upper_left_block(evaluate("corpus:ut52")).order == 64
    v = run_check("ut52-not-self", "corpus:ut52")
    assert v.status == "failed"
    assert v.witness["note"] == "block subgroup is not abelian"


@pytest.mark.parametrize(
    "check_id, brute",
    [
        ("measure-lemmas", brute_measure_lemmas),
        ("cd-sublattice", lambda g: brute_cd_sublattice(g, cd_lattice(g).members)),
    ],
)
def test_pair_checks_match_their_per_pair_form(check_id, brute):
    # the row walk of measure-lemmas and the element lists of cd-sublattice
    # give the verdicts, witnesses and stats of the per-pair forms
    for _, spec in default_pairs(check_id):
        g = evaluate(spec)
        assert CHECKS_BY_ID[check_id].fn(g) == brute(g), spec


def test_run_pairs_parses_each_spec_once_in_order(monkeypatch):
    from cdlat import ParseError, checks, run_pairs, spec_text

    parsed, evaluated = [], []
    parse, build = checks.parse_spec, checks.evaluate

    def spy(text):
        parsed.append(text)
        return parse(text)

    def evaluate_spy(node, **caps):
        evaluated.append(spec_text(node))
        return build(node, **caps)

    monkeypatch.setattr(checks, "parse_spec", spy)
    monkeypatch.setattr(checks, "evaluate", evaluate_spy)
    pairs = [("sym-cd", "S4"), ("simple-cd", "C5"), ("sym-cd", "C5"), ("simple-cd", "S4")]
    verdicts = run_pairs(pairs)
    assert parsed == evaluated == ["S4", "C5"]
    assert [(v.check_id, v.group_spec) for v in verdicts] == pairs
    assert [v.status for v in verdicts] == ["passed", "passed", "skipped", "skipped"]
    # a bad spec raises at its own pair, after the pairs before it ran
    ran = []
    run = checks.run_check
    monkeypatch.setattr(checks, "run_check", lambda *a: ran.append(a[0]) or run(*a))
    parsed.clear()
    evaluated.clear()
    with pytest.raises(ParseError):
        run_pairs([("sym-cd", "S4"), ("sym-cd", "S("), ("sym-cd", "S5")])
    assert ran == ["sym-cd"]
    assert parsed == ["S4", "S("] and evaluated == ["S4"]


def test_cd_sublattice_fails_on_a_wrong_product_set(monkeypatch):
    # the literal product set is the check's independent test of each join
    from cdlat import checks

    monkeypatch.setattr(checks, "product_mask", lambda g, left, right: sum(1 << a for a in left))
    v = run_check("cd-sublattice", fresh_group("D8"))
    assert v.status == "failed"
    assert v.witness["note"] == "literal product set HK differs from join"
    assert len(v.witness["subgroups"]) == 2


@pytest.mark.parametrize(
    "spec, notes",
    [
        (
            "corpus:g32",
            {
                "passed": 6,
                "member intersection escapes the lattice": 4,
                "member join escapes the lattice": 3,
                "centralizer of a member is not a member": 2,
            },
        ),
        (
            "D8 wr C2",
            {
                "centralizer of a member is not a member": 6,
                "member intersection escapes the lattice": 7,
                "member join escapes the lattice": 14,
            },
        ),
    ],
)
def test_cd_sublattice_fails_on_each_member_dropped(monkeypatch, spec, notes):
    # a lattice missing one member loses a centralizer, a meet or a join
    # of the others, unless the member is none of these (then the rest is
    # still a sublattice); the counts are those of an independent reading
    # of joins and centralizers off the whole subgroup lattice
    from collections import Counter
    from types import SimpleNamespace

    g = fresh_group(spec)
    members = cd_lattice(g).members
    n = len(members) - 1
    seen = Counter()
    for drop in range(len(members)):
        kept = members[:drop] + members[drop + 1 :]
        lattice = SimpleNamespace(members=kept)
        monkeypatch.setattr(checks, "cd_lattice", lambda g, lattice=lattice: lattice)
        v = run_check("cd-sublattice", g)
        assert (v.status, v.witness, v.stats) == brute_cd_sublattice(g, kept), drop
        if v.status == "passed":
            assert v.stats["pairs_checked"] == n * (n - 1) // 2
            seen["passed"] += 1
        else:
            assert v.status == "failed" and len(v.witness["subgroups"]) == 2
            seen[v.witness["note"]] += 1
    assert seen == Counter(notes)


def test_useful_prop_reaches_every_subgroup_above_u_and_its_centralizer(monkeypatch):
    # each S with U C_G(U) <= S < G in turn drops U from its lattice: the
    # check must fail at exactly that pair, so its walk visits every such S
    from types import SimpleNamespace

    from cdlat import all_subgroups, cd_lattice, checks

    from bruteforce import brute_centralizer_mask

    g = fresh_group("corpus:g32")
    full = (1 << g.order) - 1
    expected = []
    for m in cd_lattice(g).members:
        u = m.subgroup.mask
        v = u | brute_centralizer_mask(g, u)
        expected += [(u, s.mask) for s in all_subgroups(g) if s.mask != full and not v & ~s.mask]
    v = run_check("useful-prop", g)
    assert v.status == "passed" and v.stats["pairs_checked"] == len(expected) > 20
    real = checks.cd_of_subgroup
    for u, s in expected:

        def dropping(g, sub, u=u, s=s):
            masks = real(g, sub).member_masks
            if sub.mask == s:
                masks = tuple(m for m in masks if m != u)
            return SimpleNamespace(member_masks=masks)

        monkeypatch.setattr(checks, "cd_of_subgroup", dropping)
        v = run_check("useful-prop", g)
        assert v.status == "failed"
        assert v.witness["note"] == "member with U C(U) <= S < G missing from S's lattice"
        got = [sum(1 << x for x in item["elements"]) for item in v.witness["subgroups"]]
        assert got == [u, s]
