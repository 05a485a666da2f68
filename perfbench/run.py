"""End-to-end and per-layer benchmark of the cdlat engine (stdlib only).

Run from the repository root:

    python3 perfbench/run.py --workload compute-mix --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all           # every workload, one after another
    python3 perfbench/run.py --record-golden          # rewrite perfbench/golden.json

Workloads (see perfbench/README.md for why each was chosen):

* compute-mix    `cdlat compute SPEC --json` on fixed specs and one seeded
                 order-128 Cayley file, each into an empty cache dir, then
                 again from a fresh worker that hits the cache.
* verify-corpus  `cdlat verify all corpus --json`, then the same run again
                 in the same process with the engine's in-process caches warm.
* build-large    `specparse.evaluate` only, on large products and one seeded
                 order-512 Cayley file, then the same spec again (a spec-cache hit).

Every op runs in fresh worker processes (perfbench/worker.py), one at a
time: a closed loop with a single client.  Each worker gets its own
empty CDLAT_CACHE_DIR and HOME inside the run's temp dir, so the user's
~/.cache/cdlat is never read or written; a compute op's warm run reuses
the cache dir of its cold run.  Ops run round-robin until `--seconds` is
used up; an op's time is its median over its samples, set-up time the
median over workers.  Times are normalised to a nominal host speed by
perfbench/hostclock.py; the raw times are printed beside them.  Every sample is gated against perfbench/golden.json,
recorded from the engine at the commit that added this benchmark.

With --trace 0 the last line reports the end-to-end metrics; with
--trace 1 every op sample is followed by a traced one, and it reports the
per-layer metrics of perfbench/spans.py plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import write_cayley  # noqa: E402
from spans import COUNTERS, SPAN_NAMES, TRACED, summarize  # noqa: E402

GOLDEN_PATH = os.path.join(HERE, "golden.json")
WORKER = os.path.join(HERE, "worker.py")
WORKER_TIMEOUT_S = 150

COMPUTE_SPECS = (
    "D8",
    "S5",
    "S3 x D8",
    "corpus:g32",
    "D8 wr C2",
    "D12 wr C2",
    "D8 x D8 x C2",
    "C2 x C2 x C2 x C2 x C2 x C2",
    "UT(4,2) x C2",
)
BUILD_SPECS = ("D8 wr C3", "S4 wr C2", "S6", "S3 wr C3", "corpus:ut52")
WORKLOADS = ("compute-mix", "verify-corpus", "build-large")

# the check ids are a stable CLI contract
CHECK_IDS = (
    "cd-sublattice", "cd-subnormal", "useful-prop", "direct-cd", "direct-cl",
    "wreath-base-centralizer", "wreath-center", "wreath-not-self", "wreath-self-c2",
    "wreath-cd-collapse", "wreath-mmm", "d12-counterexample", "g32-nonnormal",
    "ut52-not-self", "embed-2group", "simple-cd", "sym-cd", "measure-lemmas",
)

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("warm_ms", "ms"), ("peak_rss_mb", "MB"))


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [
        ("subgroups.subgroups_found", "count", "lower"),
        ("subgroups.centralizer.distinct", "count", "lower"),
        ("subgroups.centralizer.useful_ratio", "ratio", "higher"),
        ("cdlattice.members", "count", "higher"),
        ("report.cache_lookups", "count", "lower"),
        ("report.cache_hits", "count", "higher"),
        ("report.cache_hit_ratio", "ratio", "higher"),
    ]
    out += [(f"checks.{cid}.s", "s", "lower") for cid in CHECK_IDS]
    out += [(f"layer.{mod}.self_s", "s", "lower") for mod in TRACED]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


# ---------------------------------------------------------------------------
# ops and the golden gate


class Run:
    """Temp dir, seeded inputs and worker bookkeeping of one benchmark run."""

    def __init__(self, seed: int):
        base = os.path.join(ROOT, ".perfbench_tmp")
        os.makedirs(base, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=base)
        self.home = os.path.join(self.tmp, "home")
        os.mkdir(self.home)
        self.seed = seed
        self._n = 0

    def cayley(self, name: str) -> str:
        """Path of the seeded Cayley file of an input group, written once."""
        path = os.path.join(self.tmp, f"{name}.cayley")
        if not os.path.exists(path):
            write_cayley(path, name, self.seed)
        return path

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may share the base dir
            os.rmdir(os.path.dirname(self.tmp))

    def fresh(self, what: str) -> str:
        self._n += 1
        return os.path.join(self.tmp, f"{what}-{self._n}")

    def worker(self, kind: str, arg: str, cache_dir: str, traced: bool) -> dict:
        """Run one op in a fresh interpreter; the result carries 'out'."""
        out = self.fresh("out")
        job = {"kind": kind, "arg": arg, "out": out}
        if traced:
            job["spans"] = out + ".spans"
        env = dict(os.environ, CDLAT_CACHE_DIR=cache_dir, HOME=self.home, TMPDIR=self.tmp)
        env.pop("PYTHONPATH", None)
        env["PERFBENCH_SPAWN_NS"] = str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, json.dumps(job)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"exit": None, "error": f"worker timed out after {WORKER_TIMEOUT_S} s", "out": out}
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"exit": None, "error": f"worker exited {proc.returncode}: {tail[0]}", "out": out}
        result["out"] = out
        if traced and os.path.exists(job["spans"]):
            with open(job["spans"], encoding="utf-8") as fh:
                result["trace"] = json.load(fh)
        return result


def report_invariants(path: str) -> dict:
    """Label-independent facts of a compute report."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    return {
        "order": report["group"]["order"],
        "max_measure": report["max_measure"],
        "members": sorted(
            [m["order"], m["is_normal"], m["defect"], m["is_centrally_large"]]
            for m in report["members"]
        ),
        "hasse_edges": len(report["hasse_edges"]),
    }


def verify_summary(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["summary"]


def readme_facts(path: str) -> str | None:
    """The README's worked example: D8 has max measure 16 and five
    members, of orders 2, 4, 4, 4, 8."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    orders = [m["order"] for m in report["members"]]
    if report["max_measure"] != "16" or orders != [2, 4, 4, 4, 8]:
        return f"D8 report disagrees with the README: {report['max_measure']}, {orders}"
    return None


class Sample:
    """One execution of an op: its timings and what the gate observed."""

    def __init__(self, key: str):
        self.key = key
        self.workers: list[dict] = []
        # normalised seconds (see hostclock.py), and raw seconds
        self.op_s = self.warm_s = self.op_s_raw = self.warm_s_raw = 0.0
        self.observed = None
        self.error: str | None = None

    def take(self, result: dict) -> bool:
        """Record a worker result; False (with self.error set) if it failed."""
        self.workers.append(result)
        if result.get("exit") != 0:
            self.error = result.get("error") or f"exit status {result.get('exit')}"
            return False
        return True


def compute_op(run: Run, key: str, spec: str, traced: bool) -> Sample:
    """`cdlat compute` into an empty cache dir, then again from a fresh
    worker that hits the cache the first one wrote."""
    s, cache_dir = Sample(key), run.fresh("cache")
    if s.take(run.worker("compute", spec, cache_dir, traced)):
        cold = s.workers[-1]
        s.op_s, s.op_s_raw = cold["op_s"], cold["op_s_raw"]
        if key.startswith("cayley:"):
            s.observed = report_invariants(cold["out"])
        else:
            s.observed = cold["sha"]
            if key == "D8":
                s.error = readme_facts(cold["out"])
    if s.error is None and s.take(run.worker("compute", spec, cache_dir, traced)):
        warm = s.workers[-1]
        s.warm_s, s.warm_s_raw = warm["op_s"], warm["op_s_raw"]
        if warm["sha"] != s.workers[0]["sha"]:
            s.error = "warm report differs from the cold report"
    return s


def verify_op(run: Run, key: str, target: str, traced: bool) -> Sample:
    s = Sample(key)
    if s.take(run.worker("verify", target, run.fresh("cache"), traced)):
        r = s.workers[-1]
        s.op_s, s.op_s_raw, s.warm_s, s.warm_s_raw = r["op_s"], r["op_s_raw"], r["warm_s"], r["warm_s_raw"]
        s.observed = {"sha": r["sha"], "summary": verify_summary(r["out"])}
        if r["warm_sha"] != r["sha"]:
            s.error = "warm verify report differs from the cold report"
    return s


def build_op(run: Run, key: str, spec: str, traced: bool) -> Sample:
    s = Sample(key)
    if s.take(run.worker("build", spec, run.fresh("cache"), traced)):
        r = s.workers[-1]
        s.op_s, s.op_s_raw, s.warm_s, s.warm_s_raw = r["op_s"], r["op_s_raw"], r["warm_s"], r["warm_s_raw"]
        s.observed = r["invariants"]
    return s


def workload_ops(workload: str, run: Run) -> list[tuple]:
    """(op function, key, argument) of each op of a workload."""
    if workload == "compute-mix":
        specs = [(s, s) for s in COMPUTE_SPECS] + [("cayley:g128", "cayley:" + run.cayley("g128"))]
        return [(compute_op, key, spec) for key, spec in specs]
    if workload == "verify-corpus":
        return [(verify_op, "verify all corpus", "corpus")]
    specs = [(s, s) for s in BUILD_SPECS] + [("cayley:g512", "cayley:" + run.cayley("g512"))]
    return [(build_op, key, spec) for key, spec in specs]


def gate(samples: list[Sample], golden: dict) -> None:
    """Mark each sample whose observed output differs from its golden value."""
    for s in samples:
        if s.error is None and s.observed != golden.get(s.key):
            s.error = f"output differs from golden: {s.observed!r}"


# ---------------------------------------------------------------------------
# metrics


def sample_layers(s: Sample) -> dict[str, float]:
    """Span calls and self times, counters and check times of one traced
    sample, summed over its workers."""
    out = dict.fromkeys(COUNTERS, 0)
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for cid in CHECK_IDS:
        out[f"checks.{cid}.s"] = 0.0
    for w in s.workers:
        trace = w.get("trace")
        if trace is None:
            continue
        for name, agg in summarize(trace["spans"]).items():
            out[f"{name}.calls"] += agg["calls"]
            out[f"{name}.self_s"] += agg["self_s"]
        for name, value in trace["counters"].items():
            out[name] += value
        for cid, seconds in trace["checks"].items():
            out[f"checks.{cid}.s"] += seconds
    return out


def per_layer(traced: dict[str, list[Sample]]) -> dict[str, float]:
    """Sum over ops of each op's median per-layer figures, plus the ratios
    and per-module sums derived from them."""
    by_op = [[sample_layers(s) for s in samples] for samples in traced.values()]
    out = {name: sum(statistics.median(d[name] for d in op) for op in by_op) for name in by_op[0][0]}
    calls, lookups = out["subgroups.centralizer.calls"], out["report.cache_lookups"]
    out["subgroups.centralizer.useful_ratio"] = out["subgroups.centralizer.distinct"] / calls if calls else 0.0
    out["report.cache_hit_ratio"] = out["report.cache_hits"] / lookups if lookups else 0.0
    for mod, fns in TRACED.items():
        out[f"layer.{mod}.self_s"] = sum(out[f"{mod}.{fn}.self_s"] for fn in fns)
    return out


def op_medians(samples: dict[str, list[Sample]], field: str) -> float:
    """Sum over ops of each op's median over its samples in the run."""
    return sum(statistics.median(getattr(s, field) for s in v) for v in samples.values())


def end_to_end(samples: dict[str, list[Sample]], suffix: str = "") -> dict[str, float]:
    """The end-to-end metrics, normalised; raw with suffix="_raw"."""
    workers = [w for v in samples.values() for s in v for w in s.workers if "setup_s" in w]
    return {
        "setup_s": statistics.median(w["setup_s" + suffix] for w in workers),
        "wall_s": op_medians(samples, "op_s" + suffix),
        "warm_ms": 1000 * op_medians(samples, "warm_s" + suffix),
        "peak_rss_mb": max(w["rss_kb"] for w in workers) / 1024,
    }


def sample_ops(ops: list[tuple], run: Run, seconds: float, trace: bool):
    """Run the ops round-robin: every op at least once, then more rounds
    while the next op is expected to finish within `seconds`.  With
    tracing, each untraced sample is followed by a traced one."""
    plain: dict[str, list[Sample]] = {key: [] for _, key, _ in ops}
    traced: dict[str, list[Sample]] = {key: [] for _, key, _ in ops}
    cost: dict[str, float] = {}
    start = time.perf_counter()
    for i in itertools.count():
        fn, key, arg = ops[i % len(ops)]
        elapsed = time.perf_counter() - start
        if i >= len(ops) and elapsed + cost[key] > seconds:
            break
        plain[key].append(fn(run, key, arg, False))
        if trace:
            traced[key].append(fn(run, key, arg, True))
        cost[key] = time.perf_counter() - start - elapsed
    return plain, traced


def run_workload(workload: str, seed: int, seconds: float, trace: bool, golden: dict | None) -> dict:
    """Sample the workload's ops for `seconds`; return the result object
    (golden=None returns the observations of the first round instead)."""
    run = Run(seed)
    try:
        plain, traced = sample_ops(workload_ops(workload, run), run, seconds, trace)
    finally:
        run.close()
    if golden is None:
        return {key: v[0].observed for key, v in plain.items()}
    every = [s for d in (plain, traced) for v in d.values() for s in v]
    gate(every, golden[workload])
    failed = [s for s in every if s.error is not None]
    for s in failed[:5]:
        print(f"FAILED {workload} [{s.key}]: {s.error}")
    rounds = min(len(v) for v in plain.values())
    n_workers = sum(len(s.workers) for v in plain.values() for s in v)
    print(f"workload {workload}: seed {seed}, {sum(map(len, plain.values()))} op samples, {n_workers} untraced workers")
    if trace:
        metrics = per_layer(traced)
        metrics["trace.overhead_s"] = end_to_end(traced)["wall_s"] - end_to_end(plain)["wall_s"]
        units = {name: unit for name, unit, _ in per_layer_metrics()}
    else:
        metrics = end_to_end(plain)
        raw = end_to_end(plain, "_raw")
        units = dict(END_TO_END)
        print("  (times normalised to a nominal host speed; raw times in brackets)")
        print(f"  setup_s      {metrics['setup_s']:.4f} s   [{raw['setup_s']:.4f}]  (median of {n_workers} workers)")
        print(f"  wall_s       {metrics['wall_s']:.4f} s   [{raw['wall_s']:.4f}]  (sum of per-op medians, >= {rounds} samples each)")
        print(f"  warm_ms      {metrics['warm_ms']:.4f} ms  [{raw['warm_ms']:.4f}]  (sum of per-op medians, >= {rounds} samples each)")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.2f} MB  (max of {n_workers} workers)")
    print(f"  fail_ratio   {len(failed) / len(every):.4f}     ({len(failed)} of {len(every)} ops)")
    return {
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def record_golden() -> None:
    golden = {w: run_workload(w, 0, 0, False, None) for w in WORKLOADS}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cdlat", "__init__.py")):
        print(f"error: no engine source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace), golden)
        ok = ok and result["correct"]
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
