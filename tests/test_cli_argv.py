"""The CLI's argv reading against a hand-written argparse parser.

``argparse_reference`` in ``helpers.py`` is the parser ``csm.cli`` once
built by hand with ``argparse``, plus the ``explain`` command; it shares no
code with ``csm.cli``. ``csm.cli`` reads a line that names its command first
and spells every option in full from its command table (``_read_exact``),
and hands every other line to an argparse parser built from the same table
(``_parser``). For any argument list the reference and ``csm.cli`` must end
in the same exit code; on success they must read the same values, and on
help or a usage error they must print the same bytes to stdout and stderr.
The reference wraps help to the terminal width, so the comparison runs at
80 columns.

Deliberate differences, each listed in CHANGES.md:

- An explicit value of ``--`` (``--seed=--``, ``-o--``): argparse drops
  the ``--`` and stores an empty list before Python 3.13, which the
  handlers then failed on with a traceback, and which ``render`` read as
  ``--format mermaid``; from 3.13 on it stores ``"--"``, or reports it as
  an invalid int or choice. ``csm.cli`` reads such a value from the
  argument itself and turns it into the usage error ``expected one
  argument`` (exit 2) on every version. ``EXPLICIT_DOUBLE_DASH`` pins that
  error, and the drawn argument lists that hold such a value are not
  compared.
- ``csm.cli`` lays help out for 80 columns whatever the terminal width.
- Help and usage errors come from the running Python's argparse, so on
  Python 3.13, whose argparse lays out ``-o, --output OUTPUT`` on one line
  and reads ``-hx`` as help, both sides change alike.
"""

import contextlib
import io
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csm import cli, validator
from csm.cli import main
from helpers import ERROR_KINDS, EXPLICIT_DOUBLE_DASH, argparse_reference

COMMANDS = list(cli._COMMANDS)
LONG = sorted(
    {"--help"}
    | {s for *_, options in cli._COMMANDS.values() for o in options for s in o[0] if s[1] == "-"}
)
# Every prefix of every long option, ambiguous ones (--s, --max) included.
PREFIXES = sorted({s[:k] for s in LONG for k in range(3, len(s) + 1)})
SHORT = [
    "-h", "-hh", "-hx", "-h=", "-h=x", "-ho", "-hoout", "-o", "-oout", "-o=out", "-o--", "-x", "-=",
]
VALUES = [
    "m.csm", "out", "0", "3", "-1", "-2.5", "-.5", "+4", "x", "1e3", "dot", "mermaid", "svg",
    "", "-", "-x y", "--json", "-x", "E-C1", "W-FP", "E-NOPE", "--=x",
]
PRE_COMMAND = [
    "-h", "--help", "--h", "--he", "-hh", "-hx", "-h=", "--help=x", "--bogus", "-x", "--",
]
ODD_COMMANDS = ["frobnicate", "valid", "", "-", "--", "-1", "-x y", "VALIDATE"]

tokens = st.one_of(
    st.sampled_from(PREFIXES + SHORT + VALUES + ["--", "--="]),
    st.builds(
        "{}={}".format, st.sampled_from(PREFIXES + ["-o", "-h", "--"]),
        st.sampled_from(VALUES + ["--"]),
    ),
)


@st.composite
def argvs(draw):
    """An argument list: a few top-level options, a command name, then
    either random tokens or the command's required options, its positional
    and a few random tokens in any order."""
    pre = draw(st.lists(st.sampled_from(PRE_COMMAND), max_size=2)) if not draw(
        st.integers(0, 3)
    ) else []
    name = draw(st.sampled_from(COMMANDS * 4 + ODD_COMMANDS))
    if name not in cli._COMMANDS or draw(st.booleans()):
        return pre + [name] + draw(st.lists(tokens, max_size=8))
    *_, options = cli._COMMANDS[name]
    groups = [[draw(st.sampled_from(VALUES))]]
    for strings, _, kind, required, _, _ in options:
        if required or draw(st.booleans()):
            string = draw(st.sampled_from(strings))
            if kind is None:
                groups.append([string])
            else:
                value = draw(st.sampled_from(
                    list(kind) if isinstance(kind, tuple) else VALUES
                ))
                form = draw(st.sampled_from(["split", "equals"]))
                groups.append([string, value] if form == "split" else [f"{string}={value}"])
    if draw(st.integers(0, 2)) == 0:
        groups += [[t] for t in draw(st.lists(tokens, min_size=1, max_size=2))]
    if draw(st.integers(0, 4)) == 0:
        groups.append(["-h"])
    if draw(st.integers(0, 4)) == 0:
        groups.insert(draw(st.integers(0, len(groups))), ["--"])
    groups = draw(st.permutations(groups))
    return pre + [name] + [t for group in groups for t in group]


def _run(read, argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        result = read(argv)
    return result, out.getvalue(), err.getvalue()


def _argparse(argv):
    try:
        return vars(argparse_reference().parse_args(argv))
    except SystemExit as exc:
        return exc.code


def _reader(argv):
    result = cli._read_argv(argv)
    return result if isinstance(result, int) else vars(result)


def _explicit_double_dash(argv) -> bool:
    before = argv[: argv.index("--")] if "--" in argv else argv
    return any(t.endswith(("=--", "o--")) and t != "--" for t in before)


def assert_same(argv):
    theirs, their_out, their_err = _run(_argparse, argv)
    ours, our_out, our_err = _run(_reader, argv)
    if isinstance(theirs, dict):
        assert ours == theirs, argv
    else:
        assert (ours, our_out, our_err) == (theirs, their_out, their_err), argv


@settings(max_examples=500, deadline=None)
@given(argvs())
def test_reader_agrees_with_argparse(argv):
    if _explicit_double_dash(argv):
        return
    assert_same(argv)


@pytest.mark.parametrize("argv", ERROR_KINDS)
def test_every_error_kind(argv):
    """Each kind of usage error, and help, once by hand."""
    assert_same(argv)


@pytest.mark.parametrize("argv, dest, theirs", EXPLICIT_DOUBLE_DASH)
def test_explicit_double_dash_is_the_value(argv, dest, theirs):
    assert _explicit_double_dash(argv)
    # argparse alone gives no usable value: [] before Python 3.13, "--" or
    # an invalid int or choice from then on.
    parsed = _run(_argparse, argv)[0]
    assert parsed == 2 or parsed[dest] in ([], "--")
    code, out, err = _run(_reader, argv)
    assert (code, out, err.splitlines()[-1]) == (theirs[0], "", theirs[1])


def test_help_ignores_the_terminal_width(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    assert main(["explore", "-h"]) == 0
    assert capsys.readouterr().out == _run(_argparse, ["explore", "-h"])[1]


class TestExplain:
    @pytest.mark.parametrize("code", sorted(validator.CATALOG))
    def test_every_catalog_code(self, capsys, code):
        assert main(["explain", code]) == 0
        assert capsys.readouterr() == (validator.explain(code) + "\n", "")

    def test_unknown_code_exits_two(self, capsys):
        assert main(["explain", "E-NOPE"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown diagnostic code 'E-NOPE'")
        assert captured.err.count("\n") == 1
