"""Report assembly, JSON and DOT serialization, and the on-disk cache.

Serialized output is byte-identical across runs and `--threads` values for a
fixed spec and engine version: keys are sorted, measures are exact
decimal strings, and wall-clock data never enters a report.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .cdlattice import CDResult
from .checks import Verdict
from .groups import Group
from .subgroups import DEFAULT_SUBGROUP_CAP, replay_subgroups

ENGINE_VERSION = "0.1.0"
_REPORT_KEYS = {"engine_version", "spec", "group", "max_measure", "members", "hasse_edges"}


def build_report(
    spec: str,
    group: Group,
    result: CDResult,
    *,
    max_subgroups: int = DEFAULT_SUBGROUP_CAP,
) -> dict:
    """Report dictionary for one lattice computation.

    Each member's generators are the ones all_subgroups records for it,
    replayed inside the top member (CD(G) is a lattice, so the last member
    contains the others); max_subgroups caps the subgroups that replay
    discovers."""
    masks = result.member_masks()
    replayed = replay_subgroups(group, masks[-1], masks, max_subgroups=max_subgroups)
    members = []
    for m, gens in zip(result.members, replayed):
        members.append(
            {
                "order": m.subgroup.order,
                "elements": m.subgroup.elements(),
                "generators": sorted(gens),
                "is_normal": m.is_normal,
                "defect": m.defect,
                "is_centrally_large": m.is_centrally_large,
                "centralizer": m.centralizer_index,
            }
        )
    return {
        "engine_version": ENGINE_VERSION,
        "spec": spec,
        "group": {"name": group.name, "order": group.order},
        "max_measure": str(result.max_measure),
        "members": members,
        "hasse_edges": [list(e) for e in result.hasse_edges],
    }


def build_verify_report(verdicts: list[Verdict]) -> dict:
    """Report dictionary for a verification run (no wall-clock data)."""
    items = []
    counts = {"passed": 0, "failed": 0, "skipped": 0}
    for v in verdicts:
        counts[v.status] += 1
        items.append(
            {
                "check_id": v.check_id,
                "group_spec": v.group_spec,
                "status": v.status,
                "witness": v.witness,
                "stats": v.stats,
            }
        )
    return {
        "engine_version": ENGINE_VERSION,
        "summary": counts,
        "verdicts": items,
    }


def report_json(report: dict) -> str:
    """The text of `json.dumps(report, sort_keys=True, indent=2)` plus a
    newline.  With an indent, json.dumps runs its pure-Python encoder, one
    generator step per token, about a sixth of a warm `verify all corpus`
    pass; `_json_text` writes the same bytes with one join per container.
    A value it does not cover (a float, a non-str key, a subclass of str
    or int) is left to json.dumps."""
    try:
        return _json_text(report, "\n") + "\n"
    except TypeError:
        return json.dumps(report, sort_keys=True, indent=2) + "\n"


# the text of each JSON scalar by its exact type; any other leaf (a
# float, a subclass of str or int) is left to json.dumps
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): lambda _: "null",
}


def _json_text(value, indent: str) -> str:
    # indent is the newline and indentation that close this value
    inner = indent + "  "
    items = []
    if isinstance(value, dict):
        for k in sorted(value):
            v = value[k]
            text = _SCALARS.get(type(v))
            items.append(_quote(k) + ": " + (text(v) if text else _json_text(v, inner)))
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        for v in value:
            text = _SCALARS.get(type(v))
            items.append(text(v) if text else _json_text(v, inner))
        brackets = "[]"
    elif type(value) in _SCALARS:
        return _SCALARS[type(value)](value)
    else:
        raise TypeError(f"{type(value).__name__} is left to json.dumps")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def export_dot(report: dict) -> str:
    """Hasse diagram in DOT of a build_report report, cached or fresh: one
    node per member labeled with its order plus [N]/[CL] flags, one edge
    per cover relation."""
    lines = ["digraph cd_lattice {", "  rankdir=BT;"]
    for i, m in enumerate(report["members"]):
        flags = ""
        if m["is_normal"]:
            flags += "[N]"
        if m["is_centrally_large"]:
            flags += "[CL]"
        label = f"o={m['order']}" + (f" {flags}" if flags else "")
        lines.append(f'  n{i} [label="{label}"];')
    for lo, hi in report["hasse_edges"]:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# result cache: one file per (key text, engine version) hash; the CLI's key
# text covers the spec, the bytes of its Cayley files and the caps


def default_cache_dir() -> Path:
    env = os.environ.get("CDLAT_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "cdlat"


def cache_key(spec: str) -> str:
    return hashlib.sha256(f"{spec}\n{ENGINE_VERSION}".encode("utf-8")).hexdigest()


def cache_path(cache_dir: Path, spec: str) -> Path:
    return Path(cache_dir) / f"{cache_key(spec)}.json"


def cache_get(cache_dir: Path, spec: str) -> tuple[str, dict] | None:
    """Cached report text for the spec and the report it parses to, or None.

    An entry that does not parse as a report (cut short, not UTF-8, not
    JSON, or without a report's keys) is a miss, which the caller's
    cache_put then overwrites.  A cut-short entry parses only when the
    cut took just the final newline, which the check for it catches."""
    try:
        text = cache_path(cache_dir, spec).read_text(encoding="utf-8")
        report = json.loads(text)
    except (FileNotFoundError, ValueError):
        return None
    if not text.endswith("\n") or not isinstance(report, dict) or report.keys() != _REPORT_KEYS:
        return None
    return text, report


def cache_put(cache_dir: Path, spec: str, text: str) -> Path:
    """Atomically store report text (temp file then rename)."""
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_path(cache_dir, spec)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    return path
