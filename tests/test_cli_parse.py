"""The CLI's argv parsing: `cli._parse_fast` against argparse.

`cli.main` parses a well-formed argv with `_parse_fast` and hands every
other argv to `build_parser().parse_args`, which stays the reference: where
the fast parser accepts, its namespace must equal argparse's.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlat import cli
from cdlat.cli import build_parser, main

COMMON_FLAGS = ("--json", "--max-order", "--threads")
COMMAND_FLAGS = {
    "compute": COMMON_FLAGS + ("--dot", "--max-subgroups", "--no-cache", "--cache-dir"),
    "verify": COMMON_FLAGS + ("--check",),
}
FLAGS = COMMAND_FLAGS["compute"] + ("--check",)
# each flag exact, abbreviated and in the "=" form
FLAG_FORMS = tuple(
    form for flag in FLAGS for form in (flag, flag[:-2], f"{flag}=x", f"{flag}=3", f"{flag}=-3")
)
# values that argparse reads as values, and ones it reads as options
COUNTS = ("0", "3", "007", "12")
PLAIN = COUNTS + ("1e3", "x", "D8", "S3 x D8", " D8 ", "all", "corpus", "sym-cd", "")
DASHED = ("-3", "-", "--", "-h", "--help", "-x", "-C2 x C2")
VALUES = PLAIN + DASHED
HEADS = ("compute", "verify", "comp", "-h", "", "D8")

# a command, positionals, flags each with at most one value, and at most
# one positional after them: the shape the fast parser accepts, and its
# near misses
SHAPED = st.sampled_from(("compute", "verify")).flatmap(
    lambda command: st.builds(
        lambda positionals, flags, last: [
            command,
            *positionals,
            *chain.from_iterable(flags),
            *last,
        ],
        st.lists(st.sampled_from(PLAIN), max_size=3),
        st.lists(
            st.builds(
                lambda flag, value: [flag, *value],
                st.sampled_from(COMMAND_FLAGS[command]) | st.sampled_from(FLAGS),
                st.sampled_from(COUNTS).map(lambda v: [v])
                | st.sampled_from(PLAIN).map(lambda v: [v])
                | st.sampled_from(DASHED).map(lambda v: [v])
                | st.just([]),
            ),
            max_size=3,
        ),
        st.lists(st.sampled_from(PLAIN), max_size=1),
    )
)
ANY = st.builds(
    lambda head, rest: [head, *rest],
    st.sampled_from(HEADS),
    st.lists(st.sampled_from(FLAG_FORMS + VALUES), max_size=6),
)


def _argparse(argv):
    """`build_parser().parse_args(argv)` as a dict, or the code it exits
    with."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


@settings(max_examples=600, deadline=None)
@given(SHAPED | ANY)
def test_fast_parser_agrees_with_argparse_whenever_it_accepts(argv):
    fast = cli._parse_fast(argv)
    if fast is not None:
        assert vars(fast) == _argparse(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "S3 x D8", "--json", "r.json"],
        ["verify", "all", "corpus", "--json", "v.json"],
        ["verify", "--check", "sym-cd", "--max-order", "0", "--threads", "4"],
        ["compute", "D8", "--no-cache", "--max-subgroups", "007", "--dot", ""],
    ],
)
def test_well_formed_argv_is_parsed_without_argparse(argv):
    fast = cli._parse_fast(argv)
    assert fast is not None
    assert vars(fast) == _argparse(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "sym-cd", "--max-order", "5", "S4"],  # argparse: unrecognized S4
        ["compute", "D8", "--json", "-x"],
        ["compute", "D8", "--max-order", "-3"],
        ["compute", "D8", "--max-order", "x"],
        ["compute", "D8", "--max-o", "3"],
        ["compute", "D8", "--max-order=3"],
        ["compute", "D8", "--json"],
        ["compute", "D8", "--check", "x"],
        ["compute", "-h"],
        ["compute", "--", "D8"],
        ["compute", "D8", "S4"],
        ["compute"],
        ["verify", "a", "b", "c"],
        ["-h"],
        [],
    ],
)
def test_other_argv_is_left_to_argparse(argv):
    assert cli._parse_fast(argv) is None


def _no_parser():
    raise AssertionError("a well-formed run builds no argparse tree")


def test_successful_runs_build_no_argparse_tree(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "build_parser", _no_parser)
    compute = ["compute", "D8", "--cache-dir", str(tmp_path / "cache")]
    assert main([*compute, "--json", str(tmp_path / "miss.json")]) == 0

    def no_evaluate(*args, **kwargs):
        raise AssertionError("a cache hit builds no group")

    monkeypatch.setattr(cli, "evaluate", no_evaluate)
    monkeypatch.setattr(sys, "argv", ["cdlat", *compute, "--json", str(tmp_path / "hit.json")])
    assert main() == 0
    assert (tmp_path / "hit.json").read_bytes() == (tmp_path / "miss.json").read_bytes()
    assert main(["verify", "sym-cd", "S4", "--json", str(tmp_path / "v.json")]) == 0
    assert main(["verify", "--check", "sym-cd", "--threads", "2"]) == 0
    capsys.readouterr()


COMPUTE_USAGE = """\
usage: cdlat compute [-h] [--json PATH] [--max-order N] [--threads N]
                     [--dot PATH] [--max-subgroups N] [--no-cache]
                     [--cache-dir PATH]
                     spec
"""

COMPUTE_HELP = (
    COMPUTE_USAGE
    + """
positional arguments:
  spec               group spec, e.g. "D8 wr C2" or "corpus:g32"

options:
  -h, --help         show this help message and exit
  --json PATH        write a JSON report here
  --max-order N      cap on constructed group order and enumeration size
  --threads N        accepted for compatibility; work runs sequentially and
                     the output does not depend on N
  --dot PATH         write a DOT diagram here
  --max-subgroups N  cap on the subgroups discovered while finding member
                     generators
  --no-cache         bypass the result cache
  --cache-dir PATH   cache directory (default: CDLAT_CACHE_DIR or
                     ~/.cache/cdlat)
"""
)


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["compute", "-h"], 0, COMPUTE_HELP, ""),
        (
            ["compute", "D8", "--max-order", "x"],
            2,
            "",
            COMPUTE_USAGE + "cdlat compute: error: argument --max-order: invalid int value: 'x'\n",
        ),
    ],
)
def test_help_and_usage_errors_come_from_argparse(argv, code, out, err, monkeypatch, capsys):
    calls = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(argv) or real())
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == code
    assert capsys.readouterr() == (out, err)
    assert calls == [argv]
