"""Layer tracing from outside the engine.

`Tracer.install` replaces each traced public function of the `cdlat.*`
modules with a wrapper, in every `cdlat` namespace that binds it:
`cdlattice`, `checks` and `cli` import functions by name, so patching
only the defining module would miss their calls.  Each wrapped call
records a span (name, start, end, parent) in memory; counters are taken
at the same boundaries.  `summarize` turns spans into per-function call
counts and self times, where a span's self time is its duration minus
the durations of its direct children.  Nested and recursive calls
(`evaluate` recurses through products and wreaths) are thereby counted
once each.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# module -> public functions traced; module names are the layer names
TRACED = {
    "cli": ("main",),
    "specparse": ("parse_spec", "evaluate"),
    "groups": ("named_group", "from_permutations", "from_cayley", "load_cayley", "check_axioms"),
    "products": ("direct_product", "wreath_cyclic"),
    "corpus": ("corpus_group",),
    "subgroups": ("all_subgroups", "centralizer", "normalizer", "subnormal_defect"),
    "cdlattice": ("cd_lattice", "cd_of_subgroup", "lattice_isomorphic"),
    "checks": ("run_check",),
    "report": ("cache_get", "cache_put", "build_report", "build_verify_report", "report_json"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

COUNTERS = (
    "subgroups.subgroups_found",
    "subgroups.centralizer.distinct",
    "cdlattice.members",
    "report.cache_lookups",
    "report.cache_hits",
)


class Tracer:
    """Spans and counters of one worker process (single-threaded)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.check_seconds: dict[str, float] = {}
        self._stack: list[int] = []
        self._centralizer_keys: set = set()
        self._seen: dict[str, set] = {"all_subgroups": set(), "cd_lattice": set()}
        self._alive: list = []  # groups whose id() is a key above

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = getattr(self, "_on_" + name.split(".", 1)[1], None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                # arguments in declaration order, however they were passed
                observe(list(signature.bind(*args, **kwargs).arguments.values()), result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "cdlat" or n.startswith("cdlat.")]
        for mod, fns in TRACED.items():
            defining = sys.modules[f"cdlat.{mod}"]
            for fn in fns:
                original = getattr(defining, fn)
                wrapper = self.wrap(f"{mod}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def _first_time(self, what: str, group) -> bool:
        seen = self._seen[what]
        if id(group) in seen:
            return False
        seen.add(id(group))
        self._alive.append(group)
        return True

    def _on_all_subgroups(self, args, result) -> None:
        if self._first_time("all_subgroups", args[0]):
            self.counters["subgroups.subgroups_found"] += len(result)

    def _on_cd_lattice(self, args, result) -> None:
        if self._first_time("cd_lattice", args[0]):
            self.counters["cdlattice.members"] += len(result.members)

    def _on_centralizer(self, args, result) -> None:
        key = (id(args[0]), args[1].mask)
        if key not in self._centralizer_keys:
            self._centralizer_keys.add(key)
            self._alive.append(args[0])
            self.counters["subgroups.centralizer.distinct"] += 1

    def _on_cache_get(self, args, result) -> None:
        self.counters["report.cache_lookups"] += 1
        self.counters["report.cache_hits"] += result is not None

    def _on_run_check(self, args, result) -> None:
        cid = result.check_id
        self.check_seconds[cid] = self.check_seconds.get(cid, 0.0) + result.elapsed

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters, "checks": self.check_seconds}


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: {"calls": n, "self_s": seconds}.

    Every span's own duration is charged to it and subtracted from its
    parent, so time inside a child (even a recursive call of the same
    function) is not counted twice.
    """
    out: dict[str, dict[str, float]] = {}
    for name, start, end, parent in spans:
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += end - start
        if parent >= 0:
            out.setdefault(spans[parent][0], {"calls": 0, "self_s": 0.0})["self_s"] -= end - start
    return out
