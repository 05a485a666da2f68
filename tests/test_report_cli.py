"""JSON/DOT serialization, the on-disk cache, and CLI behavior."""

import hashlib
import json
from pathlib import Path

import pytest

from cdlat import (
    build_report,
    build_verify_report,
    cache_get,
    cache_put,
    cd_lattice,
    export_dot,
    named_group,
    report_json,
    run_pairs,
)
from cdlat import dump_cayley
from cdlat.cli import main
from cdlat.report import cache_path


def s3_report():
    g = named_group("S", 3)
    return build_report("S3", g, cd_lattice(g))


def test_report_schema():
    report = s3_report()
    assert report["spec"] == "S3"
    assert report["group"] == {"name": "S3", "order": 6}
    assert report["max_measure"] == "9"
    assert len(report["members"]) == 1
    member = report["members"][0]
    assert member["order"] == 3
    assert member["is_normal"] and member["is_centrally_large"]
    assert member["defect"] == 1
    assert member["centralizer"] == 0
    assert sorted(member.keys()) == [
        "centralizer",
        "defect",
        "elements",
        "generators",
        "is_centrally_large",
        "is_normal",
        "order",
    ]
    assert report["hasse_edges"] == []


def test_json_round_trip_and_determinism():
    text1 = report_json(s3_report())
    text2 = report_json(s3_report())
    assert text1 == text2
    parsed = json.loads(text1)
    assert report_json(parsed) == text1
    assert text1.endswith("\n")


def test_dot_format():
    g = named_group("S", 3)
    dot = export_dot(cd_lattice(g))
    assert 'n0 [label="o=3 [N][CL]"];' in dot
    assert dot.startswith("digraph cd_lattice {")
    d8 = export_dot(cd_lattice(named_group("D", 8)))
    assert d8.count("->") == 6
    assert 'label="o=2 [N]"' in d8  # the center: normal but not CL


def test_verify_report_excludes_wallclock():
    verdicts = run_pairs([("sym-cd", "S4"), ("direct-cd", "D8")])
    report = build_verify_report(verdicts)
    text = report_json(report)
    assert "elapsed" not in text
    assert report["summary"] == {"passed": 1, "failed": 0, "skipped": 1}
    assert report["verdicts"][1]["stats"]["skip_reason"] == "not a direct product"


def test_cache_round_trip(tmp_path):
    text = report_json(s3_report())
    assert cache_get(tmp_path, "S3") is None
    path = cache_put(tmp_path, "S3", text)
    assert path == cache_path(tmp_path, "S3")
    assert cache_get(tmp_path, "S3") == (text, json.loads(text))
    # key depends on the spec string
    assert cache_get(tmp_path, "S4") is None
    leftovers = [p for p in path.parent.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_cli_compute_json_and_dot(tmp_path, capsys):
    jpath, dpath = tmp_path / "r.json", tmp_path / "r.dot"
    code = main(
        [
            "compute",
            "D8",
            "--json",
            str(jpath),
            "--dot",
            str(dpath),
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
    )
    assert code == 0
    report = json.loads(jpath.read_text())
    assert report["max_measure"] == "16"
    assert len(report["members"]) == 5
    assert dpath.read_text().count("->") == 6
    out = capsys.readouterr().out
    assert "max measure:  16" in out


def test_cli_compute_cache_hit_is_byte_identical(tmp_path):
    jpath = tmp_path / "r.json"
    cache = tmp_path / "cache"
    args = ["compute", "C6", "--json", str(jpath), "--cache-dir", str(cache)]
    assert main(args) == 0
    cold = jpath.read_text()
    report = json.loads(cold)
    assert report["max_measure"] == "36" and len(report["members"]) == 1
    jpath.unlink()
    assert main(args) == 0
    assert jpath.read_text() == cold
    # and --no-cache recomputes to the same bytes
    jpath.unlink()
    assert main(args + ["--no-cache"]) == 0
    assert jpath.read_text() == cold


def test_cli_compute_caches_under_the_cache_dir_variable(tmp_path, monkeypatch, capsys):
    env_cache, home, flag_cache = tmp_path / "env", tmp_path / "home", tmp_path / "flag"
    monkeypatch.setenv("CDLAT_CACHE_DIR", str(env_cache))
    monkeypatch.setenv("HOME", str(home))
    # --cache-dir wins over the variable
    assert main(["compute", "D8", "--cache-dir", str(flag_cache)]) == 0
    (flag_entry,) = flag_cache.iterdir()
    assert not env_cache.exists()
    assert main(["compute", "D8"]) == 0
    (entry,) = env_cache.iterdir()
    assert entry.read_bytes() == flag_entry.read_bytes()

    def no_evaluate(*args, **kwargs):
        raise AssertionError("a cache hit evaluates no spec")

    monkeypatch.setattr("cdlat.cli.evaluate", no_evaluate)
    assert main(["compute", "D8"]) == 0
    assert list(env_cache.iterdir()) == [entry]
    assert not (home / ".cache").exists()
    capsys.readouterr()


@pytest.mark.parametrize(
    "corrupt",
    [lambda b: b[:100], lambda b: b[:-1], lambda b: b"{}\n", lambda b: b"\xff\xfe" + b[2:]],
    ids=["truncated", "no-final-newline", "empty-object", "not-utf8"],
)
def test_cli_compute_treats_a_corrupt_cache_entry_as_a_miss(corrupt, tmp_path, capsys):
    jpath = tmp_path / "r.json"
    args = ["compute", "D8", "--json", str(jpath), "--cache-dir", str(tmp_path / "cache")]
    assert main(args + ["--no-cache"]) == 0
    fresh = jpath.read_bytes()
    assert main(args) == 0
    (entry,) = (tmp_path / "cache").iterdir()
    assert entry.read_bytes() == fresh
    entry.write_bytes(corrupt(fresh))
    jpath.unlink()
    assert main(args) == 0
    assert jpath.read_bytes() == fresh
    assert entry.read_bytes() == fresh  # recomputed and overwritten
    assert "max measure:  16" in capsys.readouterr().out


def test_cli_compute_g32_member_annotations(tmp_path):
    from cdlat import closure, evaluate
    from cdlat.corpus import G32_GENS

    jpath = tmp_path / "g32.json"
    assert main(["compute", "corpus:g32", "--no-cache", "--json", str(jpath)]) == 0
    report = json.loads(jpath.read_text())
    g = evaluate("corpus:g32")
    x = closure(g, [G32_GENS["a"], G32_GENS["b"]])
    member = next(m for m in report["members"] if m["elements"] == x.elements())
    assert member["is_normal"] is False
    assert member["defect"] == 2


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["compute", "NOT A SPEC(("]) == 2
    assert main(["compute", "UT(9,2)", "--no-cache"]) == 3
    assert main(["compute", "corpus:nope", "--no-cache"]) == 4
    assert main(["compute", "UT(5,2)", "--no-cache"]) == 3  # enumeration limit
    assert main(["verify", "bogus-check", "C2"]) == 4
    err_json = tmp_path / "err.json"
    assert (
        main(["compute", "D7", "--no-cache", "--json", str(err_json)]) == 4
    )  # odd dihedral parameter
    payload = json.loads(err_json.read_text())
    assert payload["error"]["type"] == "BadParameter"
    capsys.readouterr()


def test_cli_compute_refuses_past_the_enumeration_limit_before_the_lattice(
    tmp_path, monkeypatch, capsys
):
    # the report replays a subgroup search, so compute keeps the limit; it
    # must refuse before cd_lattice forms a single element centralizer
    from cdlat import cdlattice, subgroups

    real = subgroups.element_centralizer
    calls = []

    def spy(g, s):
        calls.append(s)
        return real(g, s)

    monkeypatch.setattr(subgroups, "element_centralizer", spy)
    monkeypatch.setattr(cdlattice, "element_centralizer", spy)
    out = tmp_path / "e.json"
    assert main(["compute", "UT(5,2)", "--no-cache", "--json", str(out)]) == 3
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "f4016ed93f3cda4c45a2d42cb0bb9954ab879225cef9fafa4321e1f992847e66"
    )
    assert json.loads(out.read_text())["error"]["message"] == (
        "|UT(5,2)| = 1024 exceeds enumeration limit 512"
    )
    assert calls == []
    capsys.readouterr()


def test_cli_wreath_top_order_zero_is_invalid_input(tmp_path, capsys):
    err_json = tmp_path / "err.json"
    assert main(["compute", "C2 wr C0", "--no-cache", "--json", str(err_json)]) == 4
    assert json.loads(err_json.read_text())["error"]["type"] == "BadParameter"
    capsys.readouterr()


def test_cli_compute_max_order_flag(tmp_path):
    # order cap applies to construction when lowered
    assert main(["compute", "S4", "--no-cache", "--max-order", "10"]) == 3


def test_cli_missing_cayley_file(capsys):
    assert main(["compute", "cayley:/nonexistent/file.cay", "--no-cache"]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("command", [["compute", "--no-cache"], ["verify", "all"]])
def test_cli_cayley_file_that_is_not_utf8_is_invalid_input(
    command, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    Path("bad.cay").write_bytes(b"2\n0 1\n1 \xff\n")
    cmd, *flags = command
    assert main([cmd, *flags, "cayley:bad.cay", "--json", "e.json"]) == 4
    assert json.loads(Path("e.json").read_text()) == {
        "error": {
            "type": "NotAGroup",
            "message": "cayley file bad.cay is not UTF-8 text (byte 8)",
        }
    }
    capsys.readouterr()


@pytest.mark.parametrize("command", [["compute", "--no-cache"], ["verify", "all"]])
def test_cli_spec_nesting_is_bounded(command, tmp_path, capsys):
    # deep enough to exhaust the recursion of the parser, or of the
    # printer and the evaluator, without the bound
    cmd, *flags = command
    err = tmp_path / "e.json"
    for spec in ("(" * 350 + "C2" + ")" * 350, " x ".join(["C1"] * 500)):
        assert main([cmd, *flags, spec, "--json", str(err)]) == 2
        message = json.loads(err.read_text())["error"]["message"]
        assert message.startswith("spec nests deeper than 100 levels")
    # the deepest specs the bound admits still run
    for spec in ("(" * 100 + "C2" + ")" * 100, " x ".join(["C1"] * 101)):
        assert main([cmd, *flags, spec]) == 0
    capsys.readouterr()


def test_cli_cache_misses_after_cayley_file_changes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("g.cay").write_text(dump_cayley(named_group("C", 4)))
    args = ["compute", "cayley:g.cay", "--json", "r.json", "--cache-dir", "cache"]
    assert main(args) == 0
    Path("g.cay").write_text(dump_cayley(named_group("S", 3)))
    assert main(args) == 0
    assert json.loads(Path("r.json").read_text())["group"]["order"] == 6
    capsys.readouterr()


def test_cli_cache_hit_needs_the_cayley_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("g.cay").write_text(dump_cayley(named_group("C", 4)))
    args = ["compute", "cayley:g.cay", "--cache-dir", "cache"]
    assert main(args) == 0
    Path("g.cay").unlink()
    assert main(args) == 4
    capsys.readouterr()


def test_cli_cache_hit_respects_max_order(tmp_path, capsys):
    cache = ["--cache-dir", str(tmp_path / "cache")]
    assert main(["compute", "S5", *cache]) == 0
    assert main(["compute", "S5", "--max-order", "10", *cache]) == 3
    capsys.readouterr()


def test_cli_verify_max_order_raises_the_cap(capsys):
    # S8 (order 40320) is past the default cap of 20000
    assert main(["verify", "sym-cd", "S8", "--max-order", "50000"]) == 0
    capsys.readouterr()


def test_cli_verify_max_order_caps_the_corpus(capsys):
    # sym-cd runs on S4 and S5 (order 120)
    assert main(["verify", "sym-cd", "corpus", "--max-order", "100"]) == 3
    assert "S5 has order 120 > cap 100" in capsys.readouterr().err


def test_cli_verify_max_order_reaches_the_enumeration_limit(capsys):
    # C625 is past the default enumeration limit of 512
    assert main(["verify", "cd-sublattice", "C625", "--max-order", "1000"]) == 0
    assert "PASS  cd-sublattice  [C625]" in capsys.readouterr().out


def test_cli_verify_max_order_caps_groups_a_check_builds(capsys):
    # d12-counterexample builds D12 wr C2, of order 288
    assert main(["verify", "d12-counterexample", "D12", "--max-order", "30"]) == 3
    assert "> cap 30" in capsys.readouterr().err


def test_cli_max_subgroups_counts_the_replayed_subgroups(capsys):
    # CD(D12 wr C2) is one subgroup of order 36, found after 21 of the
    # 1336 subgroups of the wreath
    assert main(["compute", "D12 wr C2", "--no-cache", "--max-subgroups", "100"]) == 0
    assert main(["compute", "D12 wr C2", "--no-cache", "--max-subgroups", "20"]) == 3
    capsys.readouterr()


def test_cli_max_subgroups_caps_a_replay_of_the_seeds_alone(capsys):
    # CD(C12) is C12 itself, the second subgroup the seeding finds
    assert main(["compute", "C12", "--no-cache", "--max-subgroups", "1"]) == 3
    assert main(["compute", "C12", "--no-cache", "--max-subgroups", "2"]) == 0
    capsys.readouterr()


def test_cli_max_subgroups_error_json_is_pinned(tmp_path, capsys):
    out = tmp_path / "e.json"
    argv = ["compute", "D12 wr C2", "--no-cache", "--max-subgroups", "20"]
    assert main(argv + ["--json", str(out)]) == 3
    assert out.read_text() == (
        "{\n"
        '  "error": {\n'
        '    "message": "more than 20 subgroups in D12 wr C2",\n'
        '    "type": "SubgroupCapExceeded"\n'
        "  }\n"
        "}\n"
    )
    capsys.readouterr()


def test_cli_verify_unknown_check_writes_the_error_json(tmp_path, capsys):
    out = tmp_path / "e.json"
    assert main(["verify", "nosuch", "C2", "--json", str(out)]) == 4
    assert "error: unknown check 'nosuch' (known: " in capsys.readouterr().err
    assert "'nosuch'" in json.loads(out.read_text())["error"]["message"]


@pytest.mark.parametrize("spec", ["corpus:ut52", "cayley:g.cay"])
def test_cli_fixed_order_atoms_obey_max_order(spec, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("g.cay").write_text(dump_cayley(named_group("S", 3)))
    assert main(["verify", "sym-cd", spec, "--max-order", "5"]) == 3
    assert main(["compute", spec, "--no-cache", "--max-order", "5"]) == 3
    assert "> cap 5" in capsys.readouterr().err


def test_cli_verify_exit_one_on_failed_check(monkeypatch, capsys):
    from cdlat import checks
    from cdlat.checks import CheckDef

    def always_fails(group):
        return "failed", {"note": "forced", "subgroups": []}, {}

    fake = CheckDef("cd-sublattice", "forced failure", always_fails, ("C2",))
    monkeypatch.setitem(checks.CHECKS_BY_ID, "cd-sublattice", fake)
    assert main(["verify", "cd-sublattice", "C2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  cd-sublattice  [C2]  -- forced" in out


def test_cli_verify_single_check(capsys):
    assert main(["verify", "cd-sublattice", "Q8"]) == 0
    out = capsys.readouterr().out
    assert "PASS  cd-sublattice  [Q8]" in out
    assert "checks: 1 passed, 0 skipped, 0 failed" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "D8", "--no-cache", "--json"],
        ["compute", "D8", "--no-cache", "--dot"],
        ["verify", "all", "D8", "--json"],
    ],
    ids=["compute-json", "compute-dot", "verify-json"],
)
def test_cli_unwritable_output_path_is_invalid_input(argv, tmp_path, capsys):
    path = tmp_path / "no" / "such" / "out"
    assert main([*argv, str(path)]) == 4
    assert capsys.readouterr().err == (
        f"error: cannot write {path}: No such file or directory\n"
    )


def test_cli_unwritable_error_json_keeps_the_earlier_exit_code(tmp_path, capsys):
    path = tmp_path / "no" / "such" / "e.json"
    assert main(["compute", "D8 x", "--json", str(path)]) == 2
    parse_error, write_error = capsys.readouterr().err.splitlines()
    assert parse_error == "error: expected an integer at position 5 (expected INT)"
    assert write_error == f"error: cannot write {path}: No such file or directory"


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "D8", "--no-cache", "--max-subgroups", "-1"],
        ["compute", "D8", "--no-cache", "--max-order", "-3"],
        ["compute", "D8", "--no-cache", "--threads", "-4"],
        ["verify", "all", "D8", "--max-order", "-3"],
        ["verify", "all", "D8", "--threads", "-4"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_cli_rejects_negative_cap_flags(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: must be at least 0, got {argv[-1]}" in (
        capsys.readouterr().err
    )


def test_cli_rejects_a_non_integer_cap_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "D8", "--no-cache", "--max-order", "x"])
    assert exc.value.code == 2
    assert "argument --max-order: invalid int value: 'x'" in capsys.readouterr().err


def test_cli_cap_flags_accept_zero(capsys):
    assert main(["compute", "D8", "--no-cache", "--threads", "0"]) == 0
    assert main(["compute", "D8", "--no-cache", "--max-subgroups", "0"]) == 3
    assert main(["compute", "D8", "--no-cache", "--max-order", "0"]) == 3
    assert main(["verify", "sym-cd", "S4", "--threads", "0"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag",
    [["--dot", "x.dot"], ["--no-cache"], ["--cache-dir", "c"], ["--max-subgroups", "1"]],
    ids=["dot", "no-cache", "cache-dir", "max-subgroups"],
)
def test_cli_verify_rejects_compute_only_flags(flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "D8", *flag])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []
    capsys.readouterr()


def test_cli_verify_all_on_one_spec(capsys):
    assert main(["verify", "all", "D8"]) == 0
    out = capsys.readouterr().out
    assert "PASS  cd-sublattice  [D8]" in out
    assert "SKIP  direct-cd  [D8]" in out


def test_cli_verify_check_flag_alias(capsys):
    assert main(["verify", "--check", "sym-cd", "all", "S4"]) == 0
    out = capsys.readouterr().out
    assert "PASS  sym-cd  [S4]" in out


def test_cli_verify_json_report(tmp_path):
    jpath = tmp_path / "v.json"
    assert main(["verify", "g32-nonnormal", "corpus:g32", "--json", str(jpath)]) == 0
    report = json.loads(jpath.read_text())
    assert report["summary"]["passed"] == 1
    assert report["verdicts"][0]["check_id"] == "g32-nonnormal"
    assert "elapsed" not in jpath.read_text()


# sha256 of `compute SPEC --json` reports as recorded by the exhaustive
# enumeration; member generators are that enumeration's discovery path
PINNED_REPORTS = {
    "D8": "47f4de41480a371072c38983da92870f48f2e1967098d5af756185b5a5f774a7",
    "S3 x D8": "36ee14660e84b974c7f5caf26c0eb39a14eecf2518f72b5aef87d6d36b642633",
    "corpus:g32": "ac095cb808558e41a4200e38ab90f08d98ad0f28f5ce7829553da767e7cf6fc2",
    "D12 wr C2": "455f4ed21b0cab4d47f1acde3cd67bd9301a9903ca1206c4cd36868b25c899bf",
    "UT(4,2) x C2": "a78cac56e30babd06d8a40d7509ee98d43b4242064fc9520ea0cdef408a2f242",
    # G is its own top member: the report's replay walks most of G
    "D8 wr C2": "42e10162f448267f1d6477e7d14ab838c67b9a1c10199aaf9f72027a68300667",
    "S5": "f2139bbfe76fc136f705a3b7e080651c0d0bed357f5363bccb7ebbdaee740d10",
    "D8 x D8 x C2": "a02bd55ba71be9f173df048cdcfbcb8eb70c507bc21fb95ac073801e88de5733",
}


@pytest.mark.parametrize("spec", sorted(PINNED_REPORTS))
def test_compute_report_bytes_are_pinned(spec, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["compute", spec, "--no-cache", "--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_REPORTS[spec]
    capsys.readouterr()


# sha256 of `verify all corpus --json`: every check id, verdict, witness
# and stat (subgroups_enumerated, pairs_checked) over the default corpus
PINNED_VERIFY_CORPUS = "f46b17810a244357d365ed0e877a3ac8f46c669994c2dffa0af148f3674314d4"


def test_verify_corpus_report_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert main(["verify", "all", "corpus", "--json", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_VERIFY_CORPUS
    capsys.readouterr()
