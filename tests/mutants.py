"""Mutation harness: each mutant breaks one rule that the tests must guard.

Run it by hand from the repository root, for all mutants or some by name:

    python -m tests.mutants
    python -m tests.mutants discover-ascending-rule wreath-c1-sigma

For each mutant it copies `src/`, `tests/` and `pyproject.toml` to a
temporary directory, replaces one exact snippet of one source file there,
runs the test files expected to catch the change with `-x -q`, and prints
whether they killed it and how long they took; a last line counts the
outcomes, as `N mutants: K killed, S survived, E errors`.  It writes
nothing inside the repository.  It exits 1 if any mutant survived, or if a run ended in
anything but passing or failing tests (a collection or usage error says
nothing about the tests).

`tests/test_mutants.py` checks, in the tier-1 suite, that each snippet
occurs exactly once in its file, so a refactor has to update this list
rather than silently turn a mutant into a no-op.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # test files expected to kill it


_SUBGROUPS = "src/cdlat/subgroups.py"
_CDLATTICE = "src/cdlat/cdlattice.py"
_GROUPS = "src/cdlat/groups.py"
_PRODUCTS = "src/cdlat/products.py"
_CLI = "src/cdlat/cli.py"

MUTANTS = (
    # _discover's four pruning rules; dropping one repeats joins
    Mutant(
        "discover-trivial-rule",
        _SUBGROUPS,
        "    worklist: deque[tuple[int, int | None]] = deque((kmask, None) for kmask in list(found)[1:])\n"
        "    while worklist:  # which grows as joins are found\n"
        "        kmask, blocked = worklist.popleft()\n"
        "        gens = found[kmask]\n"
        "        if blocked is None:\n"
        "            blocked = 0\n"
        "            for h in bits_of(kmask):\n"
        "                blocked |= above[h]\n"
        "        todo = least & ~kmask & ~blocked & -(2 << gens[-1])\n",
        "    worklist: deque[tuple[int, int | None]] = deque((kmask, None) for kmask in list(found))\n"
        "    while worklist:  # which grows as joins are found\n"
        "        kmask, blocked = worklist.popleft()\n"
        "        gens = found[kmask]\n"
        "        if blocked is None:\n"
        "            blocked = 0\n"
        "            for h in bits_of(kmask):\n"
        "                blocked |= above[h]\n"
        "        todo = least & ~kmask & ~blocked & (-(2 << gens[-1]) if gens else -1)\n",
        ("tests/test_subgroups.py",),
    ),
    Mutant(
        "discover-least-generator-rule",
        _SUBGROUPS,
        "todo = least & ~kmask & ~blocked & -(2 << gens[-1])",
        "todo = within & ~kmask & ~blocked & -(2 << gens[-1])",
        ("tests/test_subgroups.py",),
    ),
    Mutant(
        "discover-ascending-rule",
        _SUBGROUPS,
        "todo = least & ~kmask & ~blocked & -(2 << gens[-1])",
        "todo = least & ~kmask & ~blocked",
        ("tests/test_subgroups.py",),
    ),
    Mutant(
        "discover-coset-rule-hx",
        _SUBGROUPS,
        "                above[table[y][xi]] |= bit[x]\n",
        "",
        ("tests/test_subgroups.py",),
    ),
    Mutant(
        "discover-coset-rule-xh",
        _SUBGROUPS,
        "                above[table[xi][y]] |= bit[x]\n",
        "",
        ("tests/test_subgroups.py",),
    ),
    # a join carries the coset rules of every element its Dimino step adds
    Mutant(
        "discover-join-drops-rules",
        _SUBGROUPS,
        "            blocked |= above[t]\n",
        "",
        ("tests/test_subgroups.py",),
    ),
    # the fold conjugates the generators it appends too, and greedy
    # generators are the least elements outside the span so far
    Mutant(
        "normal-closure-small-generators-only",
        _SUBGROUPS,
        "rows = map(table.__getitem__, gens)",
        "rows = map(table.__getitem__, small.generators())",
        ("tests/test_subgroups.py",),
    ),
    Mutant(
        "greedy-generators-descending",
        _SUBGROUPS,
        "_grow(self.ambient, 1, [], self.elements())",
        "_grow(self.ambient, 1, [], self.elements()[::-1])",
        ("tests/test_subgroups.py",),
    ),
    # C_G(s) needs every Schreier generator, and C_G(s^t) = t^-1*C_G(s)*t
    Mutant(
        "schreier-drop-generator",
        _SUBGROUPS,
        "_grow(g, 1, [], schreier)",
        "_grow(g, 1, [], schreier[1:])",
        ("tests/test_subgroups.py",),
    ),
    Mutant(
        "class-conjugate-inverse",
        _SUBGROUPS,
        "            rep, t = transversal[s]\n",
        "            rep, t = transversal[s]\n            t = g._inv[t]\n",
        ("tests/test_subgroups.py",),
    ),
    # HK is the union of the right cosets H*b, not of the left cosets b*H
    Mutant(
        "product-set-left-cosets",
        _SUBGROUPS,
        "mask |= bit[table[a][b]]",
        "mask |= bit[table[b][a]]",
        ("tests/test_subgroups.py",),
    ),
    # a subgroup lies under the subgroups that hold every one of its
    # generators, and S >= U C_G(U) lies above both U and C_G(U)
    Mutant(
        "lattice-above-skip-generator",
        _SUBGROUPS,
        "            for x in h.generators():\n                mask &= holding[x]\n",
        "            for x in h.generators()[1:]:\n                mask &= holding[x]\n",
        ("tests/test_subgroups.py",),
    ),
    Mutant(
        "useful-prop-member-above",
        "src/cdlat/checks.py",
        "lattice.above[i] & lattice.above[lattice.cent[i]]",
        "lattice.above[i]",
        ("tests/test_checks.py",),
    ),
    # the join of H and K is the least member above both, not above H alone
    Mutant(
        "cd-sublattice-join-wrong-pair",
        "src/cdlat/checks.py",
        "both = up[i] & up[j]",
        "both = up[i]",
        ("tests/test_checks.py",),
    ),
    # measure-lemmas' up-sets hold subs[j] at bit n - 1 - j, so the join
    # is their highest common bit; the lowest is G
    Mutant(
        "measure-lemmas-join-wrong-end",
        "src/cdlat/checks.py",
        "top[(h_up & k_up).bit_length()]",
        "top[(h_up & k_up & -(h_up & k_up)).bit_length()]",
        ("tests/test_checks.py",),
    ),
    # HK is formed from the element lists of both members
    Mutant(
        "cd-sublattice-product-one-side",
        "src/cdlat/checks.py",
        "product_mask(g, elems[i], elems[j])",
        "product_mask(g, elems[i], elems[i])",
        ("tests/test_checks.py",),
    ),
    # g32-nonnormal reads <a,b>'s defect at its own position in CD(G)
    Mutant(
        "g32-nonnormal-defect-position",
        "src/cdlat/checks.py",
        "result.members[position[x.mask]].defect != 2",
        "result.members[0].defect != 2",
        ("tests/test_checks.py",),
    ),
    # the centralizers in S are all intersections of element centralizers
    Mutant(
        "centralizers-skip-last",
        _CDLATTICE,
        "    for c in classes:\n",
        "    for c in list(classes)[:-1]:\n",
        ("tests/test_cdlattice.py",),
    ),
    Mutant(
        "centralizers-no-intersections",
        _CDLATTICE,
        "closed |= {m & c for m in closed}",
        "closed.add(c)",
        ("tests/test_cdlattice.py",),
    ),
    # C_S(M) is S for M inside Z(S), and otherwise the union of the classes
    # whose key holds M, each of which holds M's lowest non-central element
    Mutant(
        "scan-candidates-by-class-elements",
        _CDLATTICE,
        "if c >> x & 1]",
        "if ys >> x & 1]",
        ("tests/test_cdlattice.py",),
    ),
    Mutant(
        "scan-central-gives-itself",
        _CDLATTICE,
        "            cent = within\n",
        "            cent = m\n",
        ("tests/test_cdlattice.py",),
    ),
    # the Hasse reduction: keep every containment, or reduce by up-sets
    # that hold the member itself
    Mutant(
        "hasse-keeps-implied-edge",
        _CDLATTICE,
        "            covers &= ~above[j]\n",
        "            pass\n",
        ("tests/test_cdlattice.py",),
    ),
    Mutant(
        "hasse-up-set-reflexive",
        _CDLATTICE,
        "if j != i and mi & ~mj == 0",
        "if mi & ~mj == 0",
        ("tests/test_cdlattice.py",),
    ),
    # the result's Hasse edges are the reduction of its up-sets, which hold
    # the members above, not below
    Mutant(
        "hasse-edges-no-reduction",
        _CDLATTICE,
        "        return _hasse_edges(self.above)\n",
        "        return tuple((i, j) for i, up in enumerate(self.above) for j in bits_of(up))\n",
        ("tests/test_cdlattice.py",),
    ),
    Mutant(
        "cd-above-down-sets",
        _CDLATTICE,
        "mi & ~mj == 0",
        "mj & ~mi == 0",
        ("tests/test_cdlattice.py",),
    ),
    # a wreath by C1 has a trivial top and no sigma generator
    Mutant(
        "wreath-c1-sigma",
        _PRODUCTS,
        "top = (meta.sigma,) if n > 1 else ()",
        "top = (meta.sigma,)",
        ("tests/test_tables.py",),
    ),
    # a group whose constructor names no generators takes greedy ones
    Mutant(
        "group-default-generators",
        _GROUPS,
        "generating_set(self) if known_gens is None else known_gens",
        "() if known_gens is None else known_gens",
        ("tests/test_tables.py", "tests/test_products.py"),
    ),
    # a direct product multiplies coordinate-wise, and a permutation
    # product applies the left factor's images first
    Mutant(
        "direct-product-row",
        _PRODUCTS,
        "        a1, b1 = divmod(x, o2)\n",
        "        b1, a1 = divmod(x, o2)\n",
        ("tests/test_tables.py",),
    ),
    Mutant(
        "permutation-mul-order",
        _GROUPS,
        "_compose(_e[a], _e[b])",
        "_compose(_e[b], _e[a])",
        ("tests/test_groups.py",),
    ),
    # UT(n,2)'s carry product: a's column k against b's row k, for every
    # middle index k; the swapped operands give the opposite group
    Mutant(
        "ut-carry-operands-swapped",
        _GROUPS,
        "c ^= outer[col[a]][row[b]]",
        "c ^= outer[col[b]][row[a]]",
        ("tests/test_groups.py",),
    ),
    Mutant(
        "ut-carry-drops-last-middle",
        _GROUPS,
        "for k in range(1, n - 1):",
        "for k in range(1, n - 2):",
        ("tests/test_groups.py",),
    ),
    # a kept wreath is returned only once its order is under the cap
    Mutant(
        "wreath-memo-before-cap",
        _PRODUCTS,
        '    _cap(order, max_order, f"|{g.name} wr C{n}|", "=")\n'
        "    # one group per (bottom, top order), looked up after the cap, so the\n"
        "    # corpus spec `D12 wr C2` and d12-counterexample share one group and\n"
        "    # its centralizers\n"
        '    kept = g._cache.setdefault("wreaths", {})\n'
        "    if n in kept:\n"
        "        return kept[n]\n",
        '    kept = g._cache.setdefault("wreaths", {})\n'
        "    if n in kept:\n"
        "        return kept[n]\n"
        '    _cap(order, max_order, f"|{g.name} wr C{n}|", "=")\n',
        ("tests/test_checks.py",),
    ),
    # report_json writes the keys of every object sorted, as json.dumps
    # with sort_keys does
    Mutant(
        "report-json-unsorted",
        "src/cdlat/report.py",
        "        for k in sorted(value):\n",
        "        for k in value:\n",
        ("tests/test_report_cli.py",),
    ),
    # report_json is the only writer: a scalar it cannot write raises
    # instead of going to a second writer with the same bytes
    Mutant(
        "report-json-scalar-str",
        "src/cdlat/report.py",
        "    str: _quote,\n",
        "",
        ("tests/test_report_cli.py",),
    ),
    Mutant(
        "cache-dir-variable",
        "src/cdlat/report.py",
        "    if env:\n        return Path(env)\n",
        "",
        ("tests/test_report_cli.py",),
    ),
    Mutant(
        "run-check-assertion-handler",
        "src/cdlat/checks.py",
        "    except AssertionError as exc:  # internal invariant surfaced as a failure\n"
        '        status, witness, stats = "failed", {"note": str(exc), "subgroups": []}, {}\n',
        "",
        ("tests/test_checks.py",),
    ),
    # Light's test must try every generator of the greedy generating set
    Mutant(
        "light-skip-generator",
        _GROUPS,
        "    for s in greedy_gens:\n        row_s = row_of(table[s])\n",
        "    for s in greedy_gens[1:]:\n        row_s = row_of(table[s])\n",
        ("tests/test_axioms.py", "tests/test_groups.py"),
    ),
    # from_cayley scans columns when a later check fails, relabels values
    # as well as positions, and reports a row by its relabeled index
    Mutant(
        "cayley-columns-unchecked",
        _GROUPS,
        "        for j, column in enumerate(zip(*rows)):\n"
        "            if len(set(column)) != n:\n"
        '                raise NotAGroup(f"column {j} is not a permutation of 0..{n - 1}") from None\n',
        "",
        ("tests/test_groups.py",),
    ),
    Mutant(
        "cayley-relabel-keeps-values",
        _GROUPS,
        "            a, b = row.index(0), row.index(ident)\n            row[a], row[b] = ident, 0\n",
        "",
        ("tests/test_groups.py",),
    ),
    Mutant(
        "cayley-row-error-unswapped",
        _GROUPS,
        "min(swap.get(j, j) for j in not_permutations)",
        "min(not_permutations)",
        ("tests/test_groups.py",),
    ),
    # input checks: cycle points, spec integers, the cache write
    Mutant(
        "cycle-point-below-one",
        _GROUPS,
        "                    if min(cyc) < 1:\n"
        '                        raise BadParameter(f"cycle point {min(cyc)} is below 1")\n',
        "",
        ("tests/test_groups.py", "tests/test_report_cli.py"),
    ),
    Mutant(
        "cycle-repeated-point",
        _GROUPS,
        "                if len(set(cyc)) != len(cyc):\n"
        '                    raise BadParameter(f"cycle {cyc} repeats a point")\n',
        "",
        ("tests/test_groups.py", "tests/test_report_cli.py"),
    ),
    # the spec resolver: evaluate's Cayley-file stamps, and the paths the
    # memo keeps for them and for compute's cache key
    Mutant(
        "resolve-skips-cayley-stamps",
        "src/cdlat/specparse.py",
        "    stamps = (\n"
        "        tuple((st.st_size, st.st_mtime_ns, st.st_ino) for st in map(os.stat, paths))\n"
        "        if paths\n"
        "        else ()\n"
        "    )\n",
        "    stamps = ()\n",
        ("tests/test_specparse.py", "tests/test_report_cli.py"),
    ),
    Mutant(
        "resolve-drops-cayley-paths",
        "src/cdlat/specparse.py",
        "(node, spec_text(node), tuple(cayley_paths(node)))",
        "(node, spec_text(node), ())",
        ("tests/test_specparse.py", "tests/test_report_cli.py"),
    ),
    Mutant(
        "spec-int-isdigit",
        "src/cdlat/specparse.py",
        "self.text[self.pos].isdecimal()",
        "self.text[self.pos].isdigit()",
        ("tests/test_specparse.py",),
    ),
    Mutant(
        "compute-cache-write-error",
        _CLI,
        "            try:\n"
        "                cache_put(cache_dir, key, json_text)\n"
        "            except OSError as exc:\n",
        "            try:\n"
        "                cache_put(cache_dir, key, json_text)\n"
        "            except ArithmeticError as exc:\n",
        ("tests/test_report_cli.py",),
    ),
    # the fast argv parser defers a positional after a flag and a value
    # that starts with "-" to argparse, which rejects both
    Mutant(
        "fast-parse-positional-after-flag",
        _CLI,
        "            if seen_flag:  # argparse rejects some positionals after a flag\n"
        "                return None\n",
        "",
        ("tests/test_cli_parse.py",),
    ),
    Mutant(
        "fast-parse-dash-value",
        _CLI,
        'if value is None or value.startswith("-"):',
        "if value is None:",
        ("tests/test_cli_parse.py",),
    ),
    # a check whose comparison is dropped passes on a wrong input
    Mutant(
        "direct-cd-never-fails",
        "src/cdlat/checks.py",
        "    if got != want:\n",
        "    if False:\n",
        ("tests/test_checks.py",),
    ),
    Mutant(
        "wreath-center-never-fails",
        "src/cdlat/checks.py",
        "    if zw.mask != diag.mask:\n",
        "    if False:\n",
        ("tests/test_checks.py",),
    ),
    # the wreath checks' trivial-bottom gates: W = 1 wr C_n is C_n, whose
    # center and base centralizer are all of W; only the random groups
    # (`(perm:[(1)]) wr C2`) reach them
    Mutant(
        "wreath-center-trivial-bottom",
        "src/cdlat/checks.py",
        "    if bottom.order < 2:\n"
        '        return _skipped("bottom group is trivial")\n'
        "    n = meta.top_order\n"
        "    zw = center(g)\n",
        "    n = meta.top_order\n    zw = center(g)\n",
        ("tests/test_random_groups.py",),
    ),
    Mutant(
        "wreath-base-centralizer-trivial-bottom",
        "src/cdlat/checks.py",
        "    if bottom.order < 2:\n"
        '        return _skipped("bottom group is trivial")\n'
        "    n = meta.top_order\n"
        "    base = base_subgroup(g)\n",
        "    n = meta.top_order\n    base = base_subgroup(g)\n",
        ("tests/test_random_groups.py",),
    ),
    # run_check builds a spec text under the caps of its max_order
    Mutant(
        "run-check-drops-order-cap",
        "src/cdlat/checks.py",
        "evaluate(spec, max_order=caps[0])",
        "evaluate(spec)",
        ("tests/test_report_cli.py",),
    ),
    # the checks' subgroups_enumerated stat: taken within the enumeration
    # limit only, and never dropped there
    Mutant(
        "enumerated-stat-past-limit",
        "src/cdlat/checks.py",
        '{} if subs is None else {"subgroups_enumerated": len(subs)}',
        '{"subgroups_enumerated": len(subs or ())}',
        ("tests/test_checks.py",),
    ),
    Mutant(
        "enumerated-stat-dropped",
        "src/cdlat/checks.py",
        'else {"subgroups_enumerated": len(subs)}',
        "else {}",
        ("tests/test_checks.py", "tests/test_report_cli.py"),
    ),
    # a tuple kept by a run under a raised cap is read before the limit of
    # the running check is tested
    Mutant(
        "subgroups-kept-before-limit",
        "src/cdlat/checks.py",
        "    limit = _CAPS.get()[1]\n    if g.order > limit:\n",
        '    kept = g._cache.get("subgroups")\n'
        "    if kept is not None:\n"
        "        return kept\n"
        "    limit = _CAPS.get()[1]\n"
        "    if g.order > limit:\n",
        ("tests/test_checks.py",),
    ),
    # the record classes: Verdict defaults and type-sensitive equality
    Mutant(
        "verdict-shared-stats",
        "src/cdlat/checks.py",
        "        stats: dict | None = None,  # None gives each verdict its own empty dict\n"
        "        elapsed: float = 0.0,  # wall seconds; excluded from serialized reports\n"
        "    ):\n"
        "        self.check_id = check_id\n"
        "        self.group_spec = group_spec\n"
        "        self.status = status\n"
        "        self.witness = witness\n"
        "        self.stats = {} if stats is None else stats\n",
        "        stats: dict = {},\n"
        "        elapsed: float = 0.0,  # wall seconds; excluded from serialized reports\n"
        "    ):\n"
        "        self.check_id = check_id\n"
        "        self.group_spec = group_spec\n"
        "        self.status = status\n"
        "        self.witness = witness\n"
        "        self.stats = stats\n",
        ("tests/test_records.py",),
    ),
    Mutant(
        "spec-node-untyped-eq",
        "src/cdlat/records.py",
        "if other.__class__ is not self.__class__:",
        "if not isinstance(other, Record):",
        ("tests/test_records.py",),
    ),
)


def run(mutant: Mutant, scratch: Path) -> tuple[str, float]:
    """Apply the mutant in a fresh copy under scratch and run its tests:
    ("killed" | "survived" | "error", seconds)."""
    work = scratch / mutant.name
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, work / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", work)
    target = work / mutant.path
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.snippet) != 1:
        raise ValueError(f"{mutant.name}: snippet does not occur exactly once in {mutant.path}")
    target.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
    start = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    elapsed = time.perf_counter() - start
    # pytest exits 1 when tests fail and 0 when all pass; other codes mean
    # the run itself broke
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    return outcome, elapsed


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] if argv else list(MUTANTS)
    counts = dict.fromkeys(("killed", "survived", "error"), 0)
    with tempfile.TemporaryDirectory(prefix="cdlat-mutants-") as scratch:
        for mutant in chosen:
            outcome, elapsed = run(mutant, Path(scratch))
            counts[outcome] += 1
            print(f"{outcome:8}  {mutant.name:32}  {elapsed:6.1f} s", flush=True)
    print(
        f"{len(chosen)} mutants: {counts['killed']} killed, "
        f"{counts['survived']} survived, {counts['error']} errors"
    )
    return 1 if counts["survived"] or counts["error"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
