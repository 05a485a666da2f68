"""Command-line interface: compute lattices and verify the check corpus.

Exit codes: 0 success (verify: no failures), 1 failed checks, 2 spec
parse error or bad usage, 3 cap exceeded, 4 invalid group input or an
output file that cannot be written.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from .cdlattice import cd_lattice
from .checks import check_ids, default_pairs, run_pairs
from .errors import (
    BadParameter,
    EnumerationLimitExceeded,
    NotAGroup,
    OrderCapExceeded,
    ParseError,
    SubgroupCapExceeded,
    UnknownFixture,
)
from .report import (
    build_report,
    build_verify_report,
    cache_get,
    cache_put,
    default_cache_dir,
    export_dot,
    report_json,
)
from .specparse import cayley_paths, evaluate, parse_spec, spec_text
from .subgroups import DEFAULT_SUBGROUP_CAP, check_enumerable, resolve_caps

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_INVALID = 4

_CAP_ERRORS = (OrderCapExceeded, EnumerationLimitExceeded, SubgroupCapExceeded)
_INVALID_ERRORS = (NotAGroup, BadParameter, UnknownFixture, OSError)


def _count(text: str) -> int:
    """argparse type of the cap flags: an int, zero or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdlat",
        description="Compute and verify maximal-measure subgroup lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, max_order_help):
        p.add_argument("--json", metavar="PATH", help="write a JSON report here")
        p.add_argument("--max-order", type=_count, metavar="N", help=max_order_help)
        p.add_argument(
            "--threads",
            type=_count,
            default=1,
            metavar="N",
            help="accepted for compatibility; work runs sequentially and the output "
            "does not depend on N",
        )

    pc = sub.add_parser("compute", help="compute the lattice of one group spec")
    pc.add_argument("spec", help='group spec, e.g. "D8 wr C2" or "corpus:g32"')
    common(pc, "cap on constructed group order and enumeration size")
    pc.add_argument("--dot", metavar="PATH", help="write a DOT diagram here")
    pc.add_argument(
        "--max-subgroups",
        type=_count,
        default=DEFAULT_SUBGROUP_CAP,
        metavar="N",
        help="cap on the subgroups discovered while finding member generators",
    )
    pc.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    pc.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="cache directory (default: CDLAT_CACHE_DIR or ~/.cache/cdlat)",
    )

    pv = sub.add_parser("verify", help="run named checks against groups")
    pv.add_argument(
        "check",
        nargs="?",
        default="all",
        help='check id or "all" (default)',
    )
    pv.add_argument(
        "target",
        nargs="?",
        default="corpus",
        help='group spec or "corpus" for the default corpus (default)',
    )
    pv.add_argument("--check", dest="check_flag", metavar="ID", help="same as the positional check id")
    common(
        pv,
        "cap on the order of every group verify builds and enumerates, corpus "
        "included",
    )
    return parser


def _write(path: str, text: str) -> bool:
    """Write text to path; if that fails, say why on stderr and return
    False."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _emit_error(args, exc: Exception, code: int) -> int:
    """Report exc and return its exit code, which a failed write of the
    error JSON does not change."""
    print(f"error: {exc}", file=sys.stderr)
    if getattr(args, "json", None):
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        _write(args.json, report_json(payload))
    return code


def _cmd_compute(args) -> int:
    order_cap, enum_limit = resolve_caps(args.max_order)
    try:
        node = parse_spec(args.spec)
    except ParseError as exc:
        return _emit_error(args, exc, EXIT_PARSE)
    text = spec_text(node)
    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    key = cached = None
    try:
        if not args.no_cache:
            # key on all the output depends on: spec, Cayley file bytes, caps
            paths = cayley_paths(node)
            digests = [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths]
            caps = f"caps {order_cap} {enum_limit} {args.max_subgroups}"
            key = "\n".join([text, *digests, caps])
            cached = cache_get(cache_dir, key)
        if cached is None or args.dot:
            group = evaluate(node, max_order=order_cap)
            # the report replays a subgroup search, so compute keeps the
            # enumeration limit that cd_lattice itself does not need
            check_enumerable(group, enum_limit)
            result = cd_lattice(group)
            if cached is None:
                report = build_report(
                    text, group, result, max_subgroups=args.max_subgroups
                )
    except _CAP_ERRORS as exc:
        return _emit_error(args, exc, EXIT_CAP)
    except _INVALID_ERRORS as exc:
        return _emit_error(args, exc, EXIT_INVALID)
    if cached is None:
        json_text = report_json(report)
        if key is not None:
            cache_put(cache_dir, key, json_text)
    else:
        json_text, report = cached
    if args.json and not _write(args.json, json_text):
        return EXIT_INVALID
    if args.dot and not _write(args.dot, export_dot(result)):
        return EXIT_INVALID
    _print_compute_summary(report)
    return EXIT_OK


def _print_compute_summary(report: dict) -> None:
    print(f"spec:         {report['spec']}")
    print(f"group:        {report['group']['name']} (order {report['group']['order']})")
    print(f"max measure:  {report['max_measure']}")
    print(f"members:      {len(report['members'])}")
    for i, m in enumerate(report["members"]):
        flags = []
        if m["is_normal"]:
            flags.append("N")
        if m["is_centrally_large"]:
            flags.append("CL")
        tag = (" [" + ",".join(flags) + "]") if flags else ""
        print(
            f"  #{i}: order {m['order']}, defect {m['defect']},"
            f" centralizer #{m['centralizer']}{tag}"
        )


def _cmd_verify(args) -> int:
    check = args.check_flag or args.check
    if check != "all" and check not in check_ids():
        known = ", ".join(check_ids())
        exc = ValueError(f"unknown check {check!r} (known: {known})")
        return _emit_error(args, exc, EXIT_INVALID)
    try:
        if args.target == "corpus":
            pairs = default_pairs(None if check == "all" else check)
        else:
            text = spec_text(parse_spec(args.target))
            ids = check_ids() if check == "all" else (check,)
            pairs = [(cid, text) for cid in ids]
        verdicts = run_pairs(pairs, args.max_order)
    except ParseError as exc:
        return _emit_error(args, exc, EXIT_PARSE)
    except _CAP_ERRORS as exc:
        return _emit_error(args, exc, EXIT_CAP)
    except _INVALID_ERRORS as exc:
        return _emit_error(args, exc, EXIT_INVALID)
    report = build_verify_report(verdicts)
    if args.json and not _write(args.json, report_json(report)):
        return EXIT_INVALID
    tags = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
    for v in verdicts:
        line = f"{tags[v.status]}  {v.check_id}  [{v.group_spec}]"
        if v.status == "failed" and v.witness:
            line += f"  -- {v.witness['note']}"
        print(line)
    s = report["summary"]
    print(
        f"checks: {s['passed']} passed, {s['skipped']} skipped, {s['failed']} failed"
    )
    return EXIT_OK if s["failed"] == 0 else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compute":
        return _cmd_compute(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
