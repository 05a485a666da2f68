"""Command-line interface: compute lattices and verify the check corpus.

Exit codes: 0 success (verify: no failures), 1 failed checks, 2 spec
parse error or bad usage, 3 cap exceeded, 4 invalid group input, an
unknown verify check id, or an output file or cache entry that cannot be
written.
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
from .specparse import evaluate, resolve
from .subgroups import DEFAULT_SUBGROUP_CAP, check_enumeration_limit, resolve_caps

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_INVALID = 4

_CAP_ERRORS = (OrderCapExceeded, EnumerationLimitExceeded, SubgroupCapExceeded)
_INVALID_ERRORS = (NotAGroup, BadParameter, UnknownFixture, OSError)


def _count(text: str) -> int:
    """Type of the cap flags, in both parsers: an int, zero or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _common_flags(max_order_help: str) -> dict:
    """The flags of both commands, whose `--max-order` help differs."""
    return {
        "--json": ("json", str, None, "PATH", "write a JSON report here"),
        "--max-order": ("max_order", _count, None, "N", max_order_help),
        "--threads": (
            "threads",
            _count,
            1,
            "N",
            "accepted for compatibility; work runs sequentially and the output "
            "does not depend on N",
        ),
    }


# Each command's arguments, declared once: build_parser makes argparse
# actions of them and _parse_fast reads them directly.  A command is
# (help, positionals, flags).  A positional is (dest, default, help) and is
# required when its default is None.  A flag maps its option string to
# (dest, type, default, metavar, help); type None marks a store-true flag,
# which takes no value.
_COMMANDS = {
    "compute": (
        "compute the lattice of one group spec",
        (("spec", None, 'group spec, e.g. "D8 wr C2" or "corpus:g32"'),),
        {
            **_common_flags("cap on constructed group order and enumeration size"),
            "--dot": ("dot", str, None, "PATH", "write a DOT diagram here"),
            "--max-subgroups": (
                "max_subgroups",
                _count,
                DEFAULT_SUBGROUP_CAP,
                "N",
                "cap on the subgroups discovered while finding member generators",
            ),
            "--no-cache": ("no_cache", None, False, None, "bypass the result cache"),
            "--cache-dir": (
                "cache_dir",
                str,
                None,
                "PATH",
                "cache directory (default: CDLAT_CACHE_DIR or ~/.cache/cdlat)",
            ),
        },
    ),
    "verify": (
        "run named checks against groups",
        (
            ("check", "all", 'check id or "all" (default)'),
            ("target", "corpus", 'group spec or "corpus" for the default corpus (default)'),
        ),
        {
            "--check": ("check_flag", str, None, "ID", "same as the positional check id"),
            **_common_flags(
                "cap on the order of every group verify builds and enumerates, corpus "
                "included"
            ),
        },
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of `_COMMANDS`: it parses what `_parse_fast`
    defers, and prints help and usage errors."""
    parser = argparse.ArgumentParser(
        prog="cdlat",
        description="Compute and verify maximal-measure subgroup lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, positionals, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        for dest, default, help_ in positionals:
            if default is None:
                p.add_argument(dest, help=help_)
            else:
                p.add_argument(dest, nargs="?", default=default, help=help_)
        for option, (dest, kind, default, metavar, help_) in flags.items():
            if kind is None:
                p.add_argument(option, dest=dest, action="store_true", help=help_)
            else:
                p.add_argument(
                    option, dest=dest, type=kind, default=default, metavar=metavar, help=help_
                )
    return parser


def _parse_fast(argv) -> argparse.Namespace | None:
    """Parse the argv of a well-formed run without building argparse.

    It takes one shape: a command, its positionals, then exact long flags,
    each valued flag followed by a value that does not start with "-".  On
    that shape it returns what `build_parser().parse_args(argv)` returns.
    On any other argv (help, "--", an abbreviated flag, "--flag=value", an
    unknown flag, a value that starts with "-" or fails its type, a
    positional after a flag) it returns None, and argparse parses argv and
    reports what is wrong with it.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, positionals, flags = _COMMANDS[argv[0]]
    args = {"command": argv[0]}
    args.update((dest, default) for dest, _, default, _, _ in flags.values())
    given = []
    seen_flag = False
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            if seen_flag:  # argparse rejects some positionals after a flag
                return None
            given.append(token)
            continue
        if token not in flags:
            return None
        seen_flag = True
        dest, kind, _, _, _ = flags[token]
        if kind is None:
            args[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            args[dest] = kind(value)
        except argparse.ArgumentTypeError:
            return None
    if len(given) > len(positionals):
        return None
    for k, (dest, default, _) in enumerate(positionals):
        value = given[k] if k < len(given) else default
        if value is None:  # a required positional is missing
            return None
        args[dest] = value
    return argparse.Namespace(**args)


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
        _, text, paths = resolve(args.spec)
    except ParseError as exc:
        return _emit_error(args, exc, EXIT_PARSE)
    cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    key = cached = None
    try:
        if not args.no_cache:
            # key on all the output depends on: spec, Cayley file bytes, caps
            digests = [hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths]
            caps = f"caps {order_cap} {enum_limit} {args.max_subgroups}"
            key = "\n".join([text, *digests, caps])
            cached = cache_get(cache_dir, key)
        if cached is None:
            group = evaluate(args.spec, max_order=order_cap)
            # the report replays a subgroup search, so compute keeps the
            # enumeration limit that cd_lattice itself does not need
            check_enumeration_limit(group, enum_limit)
            report = build_report(text, cd_lattice(group), max_subgroups=args.max_subgroups)
    except _CAP_ERRORS as exc:
        return _emit_error(args, exc, EXIT_CAP)
    except _INVALID_ERRORS as exc:
        return _emit_error(args, exc, EXIT_INVALID)
    if cached is None:
        json_text = report_json(report)
        if key is not None:
            try:
                cache_put(cache_dir, key, json_text)
            except OSError as exc:
                failed = OSError(f"cannot write cache {cache_dir}: {exc.strerror or exc}")
                return _emit_error(args, failed, EXIT_INVALID)
    else:
        json_text, report = cached
    if args.json and not _write(args.json, json_text):
        return EXIT_INVALID
    if args.dot and not _write(args.dot, export_dot(report)):
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
    check = args.check if args.check_flag is None else args.check_flag
    if check != "all" and check not in check_ids():
        known = ", ".join(check_ids())
        exc = ValueError(f"unknown check {check!r} (known: {known})")
        return _emit_error(args, exc, EXIT_INVALID)
    if args.check not in ("all", check):
        exc = ValueError(f"conflicting check ids: --check {check!r} and {args.check!r}")
        return _emit_error(args, exc, EXIT_PARSE)
    try:
        if args.target == "corpus":
            pairs = default_pairs(None if check == "all" else check)
        else:
            ids = check_ids() if check == "all" else (check,)
            pairs = [(cid, args.target) for cid in ids]
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
        note = v.witness["note"] if v.witness else v.stats.get("skip_reason")
        if note:
            line += f"  -- {note}"
        print(line)
    s = report["summary"]
    print(
        f"checks: {s['passed']} passed, {s['skipped']} skipped, {s['failed']} failed"
    )
    return EXIT_OK if s["failed"] == 0 else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_fast(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    if args.command == "compute":
        return _cmd_compute(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
