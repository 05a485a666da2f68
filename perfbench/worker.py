"""Run one benchmark op in a fresh interpreter and print its result.

Usage: python3 worker.py JOB_JSON   (with PERFBENCH_SPAWN_NS in the env)

The job names the op kind, its argument, where to write outputs, and
whether to trace.  The last line of standard output is a JSON result:
set-up time (spawn until `import cdlat` returns), op time and warm time,
each normalised by hostclock.py and also raw (`*_raw`), peak RSS, exit
status, output hashes and, for builds, group invariants.  The engine's
own console output is discarded.
"""

import os
import sys

from hostclock import HostClock

CLOCK = HostClock()
SETUP: dict = {}
with CLOCK.timing(SETUP, "setup_s", start=int(os.environ["PERFBENCH_SPAWN_NS"]) / 1e9):
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import cdlat  # noqa: F401

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from cdlat import cli, specparse  # noqa: E402

from inputs import invariants  # noqa: E402
from spans import Tracer  # noqa: E402

BUILD_WARM_REPEATS = 10001


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _timed_main(argv: list[str], into: dict, key: str) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with CLOCK.timing(into, key):
            code = cli.main(argv)
    return code


def run(job: dict) -> dict:
    kind, arg, out = job["kind"], job["arg"], job["out"]
    result = {"warm_s": None, "sha": None, "warm_sha": None, "invariants": None}
    if kind == "compute":
        # one invocation; cold or warm depends on the cache dir's contents
        result["exit"] = _timed_main(["compute", arg, "--json", out], result, "op_s")
        if result["exit"] == 0:
            result["sha"] = _sha(out)
    elif kind == "verify":
        # cold run, then the same run again with in-process caches warm
        result["exit"] = _timed_main(["verify", "all", arg, "--json", out], result, "op_s")
        if result["exit"] == 0:
            result["sha"] = _sha(out)
            result["exit"] = _timed_main(["verify", "all", arg, "--json", out + ".warm"], result, "warm_s")
            if result["exit"] == 0:
                result["warm_sha"] = _sha(out + ".warm")
    elif kind == "build":
        with CLOCK.timing(result, "op_s"):
            group = specparse.evaluate(arg)
        # the same spec again is a spec-cache hit of a few microseconds:
        # time many and report the mean
        again = []
        with CLOCK.timing(result, "warm_s"):
            for _ in range(BUILD_WARM_REPEATS):
                again.append(specparse.evaluate(arg))
        result["warm_s"] /= BUILD_WARM_REPEATS
        result["warm_s_raw"] /= BUILD_WARM_REPEATS
        result["exit"] = 0 if all(g is group for g in again) else 1
        result["invariants"] = invariants(group.order, group.mul)
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    return result


def main() -> None:
    job = json.loads(sys.argv[1])
    tracer = None
    if job.get("spans"):
        tracer = Tracer()
        tracer.install()
    try:
        result = run(job)
    except Exception as exc:  # reported to the parent as a failed op
        traceback.print_exc()
        result = {"exit": None, "error": f"{type(exc).__name__}: {exc}"}
    result.update(SETUP)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        with open(job["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
