import itertools
import json
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from csm import dsl
from csm.dsl import (
    PITEM_KEYWORDS,
    _Parser,
    _read_text,
    _report_text,
    emit_json,
    emit_text,
    parse_json,
    parse_text,
)
from csm.diagnostics import _loads
from csm.fixtures import BAD_FIXTURES, FIXTURES, fixture_text
from csm.model import PRIVILEGES, STATUS_POINTS
from helpers import (
    json_outcome,
    load_bench,
    random_model,
    random_model_text,
    random_token_soup,
    reference_tokens,
)
from properties_core import reference_emit_json

MINIMAL = 'model "m" { }\n'


def codes(result):
    return sorted(d.code for d in result.diagnostics)


class TestParseText:
    def test_minimal_model(self):
        result = parse_text(MINIMAL)
        assert result.ok
        assert result.model.name == "m"
        assert result.model.roles == ()

    def test_comments_and_whitespace_ignored(self):
        text = 'model "m" {  # trailing comment\n  role A # another\n\n\n  role\tB }'
        result = parse_text(text)
        assert result.ok
        assert result.model.roles == ("A", "B")

    def test_all_fixtures_parse(self):
        for name in (*FIXTURES, *BAD_FIXTURES):
            result = parse_text(fixture_text(name), file_label=name)
            assert result.ok, f"{name}: {[d.render() for d in result.diagnostics]}"

    def test_error_yields_no_model(self):
        result = parse_text('model "m" { role }')
        assert result.model is None
        assert codes(result) == ["E-SYN"]

    def test_recovery_reports_several_errors(self):
        text = (
            'model "m" {\n'
            "  role A\n"
            "  grant A on Ghost { reference }\n"  # E-REF: undeclared class
            "  class C dynamic\n"
            "  class D dynamic\n"
            "  process P {\n"
            "    owner A\n"
            "    input C\n"
            "    output D\n"
            "    transform C -> D\n"  # E-TRF-MODE: mode keyword missing
            "  }\n"
            "}\n"
        )
        result = parse_text(text)
        assert result.model is None
        assert codes(result) == ["E-REF", "E-TRF-MODE"]

    def test_transform_mode_is_mandatory(self):
        text = 'model "m" { class A dynamic class B dynamic process P { owner R input A output B transform A -> B } role R }'
        result = parse_text(text)
        assert "E-TRF-MODE" in codes(result)
        [diag] = [d for d in result.diagnostics if d.code == "E-TRF-MODE"]
        assert diag.site == "process=P transform=A->B"

    def test_transform_endpoints_checked(self):
        text = (
            'model "m" { role R class A dynamic class B dynamic '
            "process P { owner R input A output B transform B -> A leaving } }"
        )
        result = parse_text(text)
        assert codes(result) == ["E-TRF-END", "E-TRF-END"]

    def test_self_transform_is_an_endpoint_error(self):
        text = (
            'model "m" { role R class A dynamic '
            "process P { owner R input A output A transform A -> A leaving } }"
        )
        result = parse_text(text)
        assert codes(result) == ["E-TRF-END"]

    def test_duplicate_declarations(self):
        result = parse_text('model "m" { role A role A class C class C }')
        assert codes(result) == ["E-DUP", "E-DUP"]

    def test_duplicate_grant(self):
        result = parse_text(
            'model "m" { role A class C grant A on C { reference } grant A on C { creation } }'
        )
        assert codes(result) == ["E-DUP"]

    def test_undeclared_references(self):
        text = 'model "m" { role A process P { owner B input C } }'
        result = parse_text(text)
        assert codes(result) == ["E-REF", "E-REF"]

    def test_spans_point_at_the_source(self):
        result = parse_text('model "m" {\n  role A\n  role A\n}', file_label="f.csm")
        [diag] = result.diagnostics
        assert diag.span is not None
        assert (diag.span.file, diag.span.line, diag.span.column) == ("f.csm", 3, 8)
        span = json.loads(diag.to_json())["span"]
        assert span == {"file": "f.csm", "line": 3, "column": 8, "length": 1}

    def test_diagnostics_sorted_by_position(self):
        text = 'model "m" {\n  grant X on Y { reference }\n  role A\n  role A\n}'
        result = parse_text(text)
        lines = [d.span.line for d in result.diagnostics]
        assert lines == sorted(lines)

    def test_unknown_privilege_and_status_point(self):
        result = parse_text('model "m" { role A class C { soon } grant A on C { magic } }')
        assert codes(result) == ["E-SYN", "E-SYN"]

    @pytest.mark.parametrize(
        "text, messages",
        [
            (
                'model "m" { class D class C { soon, } role B grant B on D { magic } }',
                [
                    "unknown status point 'soon'",
                    "expected status point, got '}'",
                    "unknown privilege 'magic'",
                ],
            ),
            (
                'model "m" { class D class C { waiting role B grant B on D { magic } }',
                ["expected '}', got 'role'", "unknown privilege 'magic'"],
            ),
            ('model "m" { model >\n} # responsible\n ', ["expected a declaration, got 'model'"]),
            ('model "m" { class C # c\n { soon } }', ["unknown status point 'soon'"]),
            ('model "m" { class C # c\n dynamic role A }', []),
            ('model "m" { class C\u2028dynamic { soon } }', ["unknown status point 'soon'"]),
            (
                'model "m" { class C dynamic { waiting } { } }',
                ["expected a declaration, got '{'", "unexpected input after model: '}'"],
            ),
            (
                'model "m" { role A grant A # c\n on C { magic } }',
                ["class 'C' is not declared", "unknown privilege 'magic'"],
            ),
        ],
    )
    def test_recovery_after_a_mistake_inside_a_list(self, text, messages):
        # The list's own '}' is not the end of the model, and an item
        # keyword inside an unclosed list starts the next declaration. A
        # comment inside a declaration, or after the model's '}', changes
        # nothing: a class is read whole, by pattern or by tokens.
        result = parse_text(text)
        assert [d.message for d in result.diagnostics] == messages

    def test_string_token_span_covers_its_quotes(self):
        [diag] = parse_text('model "m" { "oops" }').diagnostics
        assert (diag.span.line, diag.span.column, diag.span.length) == (1, 13, 6)
        assert diag.site == '"oops"'
        assert diag.message == "expected a declaration, got '\"oops\"'"


def _offset(text, line, column):
    return sum(len(row) + 1 for row in text.split("\n")[: line - 1]) + column - 1


class TestTokenSoup:
    def test_syntax_errors_point_at_their_tokens(self):
        rng = random.Random(20261018)
        for _ in range(2000):
            text = random_token_soup(rng)
            diagnostics = parse_text(text).diagnostics
            positions = [(d.span.line, d.span.column) for d in diagnostics]
            assert positions == sorted(positions), text
            for d in diagnostics:
                if d.code != "E-SYN":
                    continue
                at = _offset(text, d.span.line, d.span.column)
                if d.site == "end of input":
                    assert (at, d.span.length) == (len(text), 1), text
                else:
                    assert text.startswith(d.site, at), text
                    assert d.span.length == len(d.site), text


def _plant_mistakes(rng, text):
    """Emitted model text with one to four resolution mistakes on random
    lines: a role line written twice, a grant on an undeclared class, or a
    process item naming an undeclared role or class."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(lines))
        keyword, _, rest = lines[i].strip().partition(" ")
        if keyword == "role":
            lines.insert(i, lines[i])
        elif keyword == "grant":
            lines[i] = lines[i].replace(" on ", " on Undeclared", 1)
        elif keyword in PITEM_KEYWORDS - {"transform"}:
            lines[i] = lines[i].replace(rest, "Undeclared" + rest)
    return "\n".join(lines)


def _located_name(site):
    """The name a resolution diagnostic's span covers: a grant's role, a
    transform's source, else the last name of the site."""
    fields = dict(field.partition("=")[::2] for field in site.split())
    if "transform" in fields:
        return fields["transform"].split("->")[0]
    return fields["role"] if "grant" in fields else site.rsplit("=", 1)[1]


class TestResolutionSpans:
    def test_resolution_errors_point_at_their_names(self):
        # Random layouts, about half of them read by the line reader and the
        # rest by the token parser, and emitted text, read by the line reader.
        rng, lined = random.Random(20261021), random.Random(20261026)
        seen = set()
        for _ in range(400):
            for text in (
                random_model_text(rng, _plant_mistakes),
                _plant_mistakes(lined, emit_text(random_model(lined))),
            ):
                for d in parse_text(text).diagnostics:
                    assert d.code in ("E-DUP", "E-REF", "E-TRF-END"), (d.render(), text)
                    name = _located_name(d.site)
                    at = _offset(text, d.span.line, d.span.column)
                    assert text.startswith(name, at), (d.render(), text)
                    assert d.span.length == len(name), (d.render(), text)
                    seen.add((d.code, d.site.split("=")[0]))
        assert seen >= {
            ("E-DUP", "role"),
            ("E-REF", "grant role"),
            ("E-REF", "process"),
            ("E-TRF-END", "process"),
        }

    def test_a_well_formed_parse_builds_no_span(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "csmbench"))
        synth = load_bench("synth")
        texts = [fixture_text(name) for name in FIXTURES + BAD_FIXTURES]
        texts.append(synth.to_text(synth.generate(24, 100, 100, 0.08, 511)["model"]))

        def no_line_index(*args):
            raise AssertionError("line index built")

        def no_span(*args):
            raise AssertionError("span built")

        # The line reader's locator, and the token parser's line index.
        monkeypatch.setattr(dsl, "_line_spans", lambda lines, file_label: no_span)
        monkeypatch.setattr(dsl, "_line_starts", no_line_index)
        monkeypatch.setattr(dsl, "SourceSpan", no_span)
        for text in texts:
            assert parse_text(text).ok
            assert _report_text(text, "f.csm").ok

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                'model "m" { role A class C { waiting } grant A on C { waiting } }',
                "unknown privilege 'waiting'",
            ),
            (
                'model "m" { role A class D grant A on D { reference } class C { reference } }',
                "unknown status point 'reference'",
            ),
        ],
    )
    def test_listings_are_read_per_list_kind(self, text, message):
        # The line reader remembers what each listing read, once per list
        # kind: a grant's listing spelled like an earlier class's is still
        # read as privileges, and the other way round. The text is read as
        # given, by the token parser, and a declaration a line.
        lined = text.rpartition(" }")[0] + "\n}\n"
        for keyword in (" role ", " class ", " grant "):
            lined = lined.replace(keyword, "\n" + keyword)
        for source in (text, lined):
            [diag] = parse_text(source).diagnostics
            assert (diag.code, diag.message) == ("E-SYN", message)


class TestLexer:
    """The reporting path's tokens are those of a lexer written apart from it."""

    def test_tokens_match_a_reference_lexer(self):
        rng = random.Random(20261020)
        for _ in range(2000):
            text = random_token_soup(rng)
            parser = _Parser(text, "f.csm")
            tokens = [tuple(parser.tok)]
            while tokens[-1][0] != "eof":
                parser.advance()
                tokens.append(tuple(parser.tok))
            assert tokens == reference_tokens(text), text

    def test_holds_one_token_at_a_time(self, monkeypatch):
        # The token parser lexes as it reads: on a 239 kB text its peak stays
        # within 2x that of the line reader (about 0.95x); a lexer that lists
        # every token first peaks at more than twice as much.
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "csmbench"))
        synth = load_bench("synth")
        text = synth.to_text(synth.generate(24, 600, 600, 0.08, 511)["model"])

        def peak(read) -> int:
            tracemalloc.start()
            try:
                assert read(text, "s.csm").ok
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_pass, token_parser = peak(parse_text), peak(_report_text)
        assert token_parser < 2 * one_pass, (token_parser, one_pass)


# A small well-formed model, and one planted mistake per row: the text it
# replaces (once), its replacement, and the diagnostics as (code, site, line,
# column). A row without diagnostics still leaves the line reader, but for
# those in _LINED_CLEAN.
_PLANTED = """model "m" {
  role A
  role B
  class C dynamic { waiting }
  class D dynamic
  class E
  process P {
    owner A
    responsible B
    input C
    output D
    transform C -> D leaving
  }
  process Q {
    owner B
    input D
    output E
  }
  grant A on C { creation, reference, reference+ }
  grant B on C { reference+ }
}
"""
_PLANTED_TEXT = [
    ("duplicate role", "  role B\n", "  role B\n  role A\n", [("E-DUP", "role=A", 4, 8)]),
    ("duplicate class", "  class E\n", "  class E\n  class D\n", [("E-DUP", "class=D", 7, 9)]),
    ("duplicate process", "  process Q {", "  process P {", [("E-DUP", "process=P", 14, 11)]),
    (
        "owner also responsible",
        "    responsible B\n",
        "    responsible B\n    responsible A\n",
        [("E-DUP", "process=P role=A", 10, 17)],
    ),
    ("undeclared role in a process", "    owner B\n", "    owner Z\n",
     [("E-REF", "process=Q role=Z", 15, 11)]),
    ("undeclared class in a process", "    output E\n", "    output Z\n",
     [("E-REF", "process=Q class=Z", 17, 12)]),
    ("undeclared role in a grant", "  grant B on C", "  grant Z on C",
     [("E-REF", "grant role=Z class=C", 20, 9)]),
    ("undeclared class in a grant", "  grant B on C", "  grant B on Z",
     [("E-REF", "grant role=B class=Z", 20, 9)]),
    ("transform source not an input", "transform C -> D", "transform E -> D",
     [("E-TRF-END", "process=P transform=E->D", 12, 15)]),
    ("transform target not an output", "transform C -> D", "transform C -> E",
     [("E-TRF-END", "process=P transform=C->E", 12, 15)]),
    ("self transform", "transform C -> D", "transform C -> C",
     [("E-TRF-END", "process=P transform=C->C", 12, 15)]),
    ("missing transform mode", " leaving\n", "\n",
     [("E-TRF-MODE", "process=P transform=C->D", 12, 5)]),
    ("unknown status point", "{ waiting }", "{ waiting, later }", [("E-SYN", "later", 4, 30)]),
    ("unknown privilege", "{ reference+ }", "{ reference+, ownership }",
     [("E-SYN", "ownership", 20, 30)]),
    ("comment inside a declaration", "  grant B on C {", "  grant B on C # shared\n  {", []),
    ("comment inside a process item", "    input D\n", "    input # from P\n D\n", []),
    ("model header inside the model", "  role B\n", '  role B\n  model "n" { }\n',
     [("E-SYN", "model", 4, 3)]),
    ("trailing input", " }\n}\n", " }\n}\nrole X\n", [("E-SYN", "role", 22, 1)]),
    ("missing closing brace", " }\n}\n", " }\n", [("E-SYN", "end of input", 21, 1)]),
    ("non-ASCII whitespace", "  role A\n", "  role\u00a0A\n", []),
    ("non-ASCII whitespace after the model", " }\n}\n", " }\n}\u3000\n", []),
    ("lone surrogate in the model name", 'model "m"', 'model "m\ud800"',
     [("E-SYN", "model", 1, 7)]),
]
# Whitespace that is not ASCII is whitespace to the line reader too.
_LINED_CLEAN = {"non-ASCII whitespace", "non-ASCII whitespace after the model"}
# The same for the JSON form of _PLANTED: the path of the value to set (an
# index one past the end appends; the empty path replaces the document), the
# value, and the diagnostics as (code, site, message). A row with several
# mistakes gives a list of paths and a list of their values.
_PLANTED_JSON = [
    ("duplicate role", ("roles", 2), "A", [("E-DUP", "role=A", "role 'A' declared twice")]),
    ("duplicate class", ("classes", 3), {"name": "D", "dynamic": True},
     [("E-DUP", "class=D", "class 'D' declared twice")]),
    ("duplicate process", ("processes", 1, "name"), "P",
     [("E-DUP", "process=P", "process 'P' declared twice")]),
    ("owner also responsible", ("processes", 0, "responsibles", 1), "A",
     [("E-DUP", "process=P role=A", "role 'A' already holds a privilege on this process")]),
    ("undeclared role in a process", ("processes", 1, "owners", 0), "Z",
     [("E-REF", "process=Q role=Z", "role 'Z' is not declared")]),
    ("undeclared class in a process", ("processes", 1, "outputs", 0), "Z",
     [("E-REF", "process=Q class=Z", "class 'Z' is not declared")]),
    ("undeclared role in a grant", ("grants", 1, "role"), "Z",
     [("E-REF", "grant role=Z class=C", "role 'Z' is not declared")]),
    ("undeclared class in a grant", ("grants", 1, "class"), "Z",
     [("E-REF", "grant role=B class=Z", "class 'Z' is not declared")]),
    ("transform source not an input", ("processes", 0, "transforms", 0, "from"), "E",
     [("E-TRF-END", "process=P transform=E->D",
       "transform source 'E' is not an input of the process")]),
    ("transform target not an output", ("processes", 0, "transforms", 0, "to"), "E",
     [("E-TRF-END", "process=P transform=C->E",
       "transform target 'E' is not an output of the process")]),
    ("unknown status point", ("classes", 0, "status_points", 1), "later",
     [("E-JSON", "class=C", "unknown status point 'later'")]),
    ("status point that cannot be hashed", ("classes", 0, "status_points", 1), ["waiting"],
     [("E-JSON", "class=C", "unknown status point ['waiting']")]),
    ("unknown privilege", ("grants", 1, "privileges", 1), "ownership",
     [("E-JSON", "grant role=B class=C", "unknown privilege 'ownership'")]),
    ("unknown transform mode", ("processes", 0, "transforms", 0, "mode"), "later",
     [("E-JSON", "process=P", "transform mode must be 'remaining' or 'leaving', got 'later'")]),
    ("class name not an identifier", ("classes", 3), {"name": "F-1"},
     [("E-JSON", "classes", "class name must be an identifier, got 'F-1'")]),
    ("role name not an identifier", ("roles", 2), "not a name",
     [("E-JSON", "roles", "role name must be an identifier, got 'not a name'")]),
    ("grant not an object", ("grants", 2), "grant",
     [("E-JSON", "grants", "missing required key 'role'"),
      ("E-JSON", "grants", "missing required key 'class'")]),
    ("dynamic not a boolean", ("classes", 1, "dynamic"), 1,
     [("E-JSON", "class=D", "'dynamic' must be true or false")]),
    # Names that refer to a declaration are type-checked by resolving them.
    ("owner not a string", ("processes", 1, "owners", 0), 5,
     [("E-JSON", "process=Q", "'owners' entries must be strings")]),
    ("owner that cannot be hashed", ("processes", 1, "owners", 0), ["B"],
     [("E-JSON", "process=Q", "'owners' entries must be strings")]),
    ("input that cannot be hashed", ("processes", 1, "inputs", 0), {"D": 1},
     [("E-JSON", "process=Q", "'inputs' entries must be strings")]),
    ("inputs not an array", ("processes", 1, "inputs"), "D",
     [("E-JSON", "process=Q", "'inputs' must be an array")]),
    ("owners null", ("processes", 1, "owners"), None,
     [("E-JSON", "process=Q", "'owners' must be an array")]),
    ("transform not an object", ("processes", 0, "transforms", 0), "C->D",
     [("E-JSON", "process=P", "transform needs 'from' and 'to' strings")]),
    ("transform source not a string", ("processes", 0, "transforms", 0, "from"), 1,
     [("E-JSON", "process=P", "transform needs 'from' and 'to' strings")]),
    ("transform mode that cannot be hashed", ("processes", 0, "transforms", 0, "mode"),
     ["leaving"],
     [("E-JSON", "process=P",
       "transform mode must be 'remaining' or 'leaving', got ['leaving']")]),
    ("grant role not a string", ("grants", 1, "role"), 1,
     [("E-JSON", "grants", "grant needs 'role' and 'class' strings")]),
    ("grant class that cannot be hashed", ("grants", 1, "class"), ["C"],
     [("E-JSON", "grants", "grant needs 'role' and 'class' strings")]),
    ("privileges not an array", ("grants", 1, "privileges"), {"reference+": 1},
     [("E-JSON", "grant role=B class=C", "'privileges' must be an array")]),
    ("process not an object", ("processes", 2), "R",
     [("E-JSON", "processes", "missing required key 'name'")]),
    ("class not an object", ("classes", 1), "D",
     [("E-JSON", "classes", "missing required key 'name'")]),
    ("model name with a line break", ("name",), "a\nb",
     [("E-JSON", "document", "'name' may not contain '\"' or a line break")]),
    ("model name null", ("name",), None,
     [("E-JSON", "document", "missing required key 'name'")]),
    ("model name that is not UTF-8", ("name",), "\ud800",
     [("E-JSON", "document", "'name' must encode as UTF-8")]),
    ("top-level array", (), ["roles"],
     [("E-JSON", "document", "top-level value must be an object")]),
    ("class without a name", ("classes", 3), {"dynamic": True},
     [("E-JSON", "classes", "missing required key 'name'")]),
    ("transform without a mode", ("processes", 0, "transforms", 0), {"from": "C", "to": "D"},
     [("E-JSON", "process=P", "transform mode must be 'remaining' or 'leaving', got None")]),
    ("grant without a class", ("grants", 1), {"role": "B", "privileges": ["reference+"]},
     [("E-JSON", "grants", "missing required key 'class'")]),
    # The document lists grants before roles; the kinds are reported in a
    # fixed order: the name, roles, classes, processes, grants.
    ("mistakes in roles, classes and grants",
     [("grants", 0, "privileges", 0), ("classes", 2, "dynamic"), ("roles", 1)], ["x", "no", 7],
     [("E-JSON", "roles", "role name must be an identifier, got 7"),
      ("E-JSON", "class=E", "'dynamic' must be true or false"),
      ("E-JSON", "grant role=A class=C", "unknown privilege 'x'")]),
]


def _one_line(text: str) -> str:
    return " ".join(line.partition("#")[0] for line in text.split("\n"))


# Other layouts of a model text, by name. The line reader reads each but
# those in _TOKEN_LAYOUTS, which only the token parser reads.
_LAYOUTS = {
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "tabs": lambda t: t.replace("  ", "\t").replace(" ", "\t"),
    "form feeds": lambda t: t.replace("\n", "\n\x0c"),
    "file separators": lambda t: t.replace(" ", " \x1c"),
    "trailing spaces": lambda t: t.replace("\n", "  \n"),
    "blank lines": lambda t: t.replace("\n", "\n\n"),
    "comment lines in a process": lambda t: t.replace(" {\n", " {\n    # a comment\n"),
    "comment after a brace": lambda t: t.replace("}\n", "} # the end }\n"),
    "glued": lambda t: t.replace(" {", "{").replace("{ ", "{").replace(" }", "}")
    .replace(", ", ",").replace(" -> ", "->"),
    "glued crlf tabs": lambda t: t.replace(" {", "{").replace(", ", ",").replace(" -> ", "->")
    .replace("  ", "\t").replace("\n", " \r\n"),
    "one line": _one_line,
    "split declarations": lambda t: t.replace(" {", "\n{"),
    "non-ASCII whitespace": lambda t: t.replace("  role", "\u00a0 role"),
}
_TOKEN_LAYOUTS = {"one line", "split declarations"}


# Characters that an editor may put into a model text: whitespace that is not
# ASCII, the ASCII separators that str.split and the lexer's \s take for
# whitespace too, then letters, a digit and format characters that are not
# ASCII.
_INSERTED = (
    "\u00a0\u0085\u1680" + "".join(map(chr, range(0x2000, 0x200B)))
    + "\u2028\u2029\u202f\u205f\u3000\x1c\x1d\x1e\x1f"
    + "\u00e9\u01c5\u0663\uff21\u200b\ufeff"
)


def _insert_characters(rng, text):
    """``text`` with one to three characters of _INSERTED put in, each at a
    random place or next to a space or line break."""
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            at = rng.choice([i for i, c in enumerate(text) if c in " \n"])
        else:
            at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(_INSERTED) + text[at:]
    return text


def _exact(result):
    """A parse result, with the order that equal dicts may differ in: that
    of the grants, which the renderers and emitters follow. Every other
    part of a model is a tuple, so equality already compares its order."""
    m = result.model
    return result, m and list(m.class_grants)


# The codes of name resolution: a planted row with only these is read by the
# line reader, and any other row by the token parser.
_RESOLUTION_CODES = {"E-DUP", "E-REF", "E-TRF-END"}


def _no_token_parser(*args):
    raise AssertionError("text read token by token")


def _put(doc, path, value):
    """``doc`` with ``value`` set at ``path``."""
    if not path:
        return value
    root = doc
    *parents, last = path
    for key in parents:
        doc = doc[key]
    if isinstance(doc, list) and last == len(doc):
        doc.append(value)
    else:
        doc[last] = value
    return root


class TestOnePassReader:
    """``parse_text`` reads text laid out a declaration a line with the line
    reader and hands any other text to the token parser; either way it
    returns what the token parser alone returns, model and diagnostics
    alike. ``parse_json`` reads every
    document in one walk, which reports each mistake where it finds it."""

    def test_text_agrees_with_the_reporting_path(self):
        rng = random.Random(20261025)
        texts = [fixture_text(name) for name in FIXTURES + BAD_FIXTURES]
        layouts = [random_model_text(rng) for _ in range(300)]
        # Both readers get a fair share of the random layouts.
        lined = sum(_read_text(text) is not None for text in layouts)
        assert 100 <= lined <= 200, lined
        texts += layouts
        texts += [random_token_soup(rng) for _ in range(2000)]
        # A non-ASCII letter is junk to the lexer, and other whitespace is not.
        texts += [
            'model "m" { role Aé }',
            'model "m" { class C dynamic é }',
            'model "m" {\u00a0role A }',
            'model "m" { class C\u2028dynamic\u00a0{ waiting } }',
        ]
        for text in texts:
            assert _exact(parse_text(text, "f.csm")) == _exact(_report_text(text, "f.csm")), text

    def test_reads_well_formed_input_in_one_pass(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "csmbench"))
        synth = load_bench("synth")
        doc = synth.generate(24, 100, 100, 0.08, 511)["model"]
        rng = random.Random(20261027)
        texts = [fixture_text(name) for name in FIXTURES + BAD_FIXTURES]
        texts += [emit_text(random_model(rng)) for _ in range(100)]
        texts += [_PLANTED, synth.to_text(doc)]
        reported = [_report_text(text, "f.csm") for text in texts]
        base = parse_text(_PLANTED).model
        monkeypatch.setattr(dsl, "_Parser", _no_token_parser)
        for text, report in zip(texts, reported):
            assert _read_text(text) is not None, text
            result = parse_text(text, "f.csm")
            assert result.ok and _exact(result) == _exact(report)
            assert parse_json(emit_json(result.model)).model == result.model
        assert parse_json(synth.to_json(doc)).model == parse_text(synth.to_text(doc)).model
        # Keys that may be left out are left out of every entry.
        short = json.loads(emit_json(base))
        for entry in short["classes"] + short["processes"] + short["grants"]:
            for key in ("dynamic", "status_points", "owners", "responsibles", "inputs",
                        "outputs", "transforms", "privileges"):
                if key in entry and not entry[key]:
                    del entry[key]
        assert parse_json(json.dumps(short)).model == base

    def test_reports_resolution_mistakes_from_the_one_pass_draft(self, monkeypatch):
        # Text that the line reader accepts is never read token by token,
        # not even when a name does not resolve.
        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "csmbench"))
        synth = load_bench("synth")
        scale = synth.to_text(synth.generate(24, 100, 100, 0.08, 511)["model"])
        undeclared = scale.replace("\n    owner ", "\n    owner Zz", 1)
        line = undeclared[: undeclared.index("owner Zz")].count("\n") + 1
        cases = [
            (_PLANTED.replace(old, new), expected)
            for _, old, new, expected in _PLANTED_TEXT
            if expected and {row[0] for row in expected} <= _RESOLUTION_CODES
        ]
        assert len(cases) == 11
        reported = [_report_text(text, "m.csm") for text, _ in cases]
        scale_report = _report_text(undeclared, "m.csm")
        monkeypatch.setattr(dsl, "_Parser", _no_token_parser)
        for (text, expected), report in zip(cases, reported):
            result = parse_text(text, "m.csm")
            assert _exact(result) == _exact(report)
            found = [(d.code, d.site, d.span.line, d.span.column) for d in result.diagnostics]
            assert found == expected
        result = parse_text(undeclared, "m.csm")
        assert _exact(result) == _exact(scale_report)
        [diag] = result.diagnostics
        assert (diag.code, diag.span.line, diag.span.column) == ("E-REF", line, 11)

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    def test_layouts_agree_with_the_reporting_path(self, layout):
        # Every fixture, _PLANTED and each of its rows that only name
        # resolution rejects, laid out another way: the line reader reads
        # what it accepts as the token parser does, spans included.
        texts = [fixture_text(name) for name in FIXTURES + BAD_FIXTURES] + [_PLANTED]
        texts += [
            _PLANTED.replace(old, new)
            for _, old, new, expected in _PLANTED_TEXT
            if expected and {row[0] for row in expected} <= _RESOLUTION_CODES
        ]
        for text in texts:
            variant = _LAYOUTS[layout](text)
            assert _exact(parse_text(variant, "f.csm")) == _exact(_report_text(variant, "f.csm"))
            assert (_read_text(variant) is not None) == (layout not in _TOKEN_LAYOUTS), variant

    def test_inserted_characters_agree_with_the_reporting_path(self):
        # Every fixture, _PLANTED and each of its rows that only name
        # resolution rejects, with characters put in: whitespace is
        # whitespace to both readers, and any other character that is not
        # ASCII stays out of the names that the line reader takes.
        rng = random.Random(20261038)
        texts = [fixture_text(name) for name in FIXTURES + BAD_FIXTURES] + [_PLANTED]
        texts += [
            _PLANTED.replace(old, new)
            for _, old, new, expected in _PLANTED_TEXT
            if expected and {row[0] for row in expected} <= _RESOLUTION_CODES
        ]
        lined = 0
        for text in texts:
            for _ in range(100):
                variant = _insert_characters(rng, text)
                assert _exact(parse_text(variant, "f.csm")) == _exact(
                    _report_text(variant, "f.csm")
                ), variant
                lined += _read_text(variant) is not None
        # About half; 273 of the 2400 while any character that is not ASCII
        # outside a comment and the model name sent a text to the token parser.
        assert lined >= 1000, lined

    @pytest.mark.parametrize(
        "name, old, new, expected", _PLANTED_TEXT, ids=[r[0] for r in _PLANTED_TEXT]
    )
    def test_planted_text_mistake_reaches_the_reporting_path(self, name, old, new, expected):
        assert _PLANTED.count(old) == 1
        text = _PLANTED.replace(old, new)
        kinds = {row[0] for row in expected}
        lined = kinds <= _RESOLUTION_CODES and bool(expected or name in _LINED_CLEAN)
        assert (_read_text(text) is not None) == lined
        result = parse_text(text, "m.csm")
        assert _exact(result) == _exact(_report_text(text, "m.csm"))
        found = [(d.code, d.site, d.span.line, d.span.column) for d in result.diagnostics]
        assert found == expected
        for d in result.diagnostics:
            d.render().encode("utf-8")  # no diagnostic quotes an unwritable name
        if not expected:
            assert result.model == parse_text(_PLANTED).model

    @pytest.mark.parametrize(
        "path, value, expected", [row[1:] for row in _PLANTED_JSON],
        ids=[r[0] for r in _PLANTED_JSON],
    )
    def test_planted_json_mistake_reaches_the_reporting_path(self, path, value, expected):
        doc = json.loads(emit_json(parse_text(_PLANTED).model))
        edits = zip(path, value) if isinstance(path, list) else [(path, value)]
        for at, planted in edits:
            doc = _put(doc, at, planted)
        result = parse_json(json.dumps(doc))
        assert result.model is None
        assert [(d.code, d.site, d.message) for d in result.diagnostics] == expected


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURES + BAD_FIXTURES)
    def test_text_round_trip_fixture(self, name):
        model = parse_text(fixture_text(name)).model
        text = emit_text(model)
        again = parse_text(text)
        assert again.ok and again.model == model
        assert emit_text(again.model) == text

    @pytest.mark.parametrize("name", FIXTURES + BAD_FIXTURES)
    def test_json_round_trip_fixture(self, name):
        model = parse_text(fixture_text(name)).model
        blob = emit_json(model)
        again = parse_json(blob)
        assert again.ok and again.model == model
        assert emit_json(again.model) == blob
        assert parse_json(bytearray(blob)) == parse_json(blob.decode("utf-8")) == again

    def test_random_round_trips(self):
        rng = random.Random(7)
        for _ in range(100):
            m = random_model(rng)
            assert parse_text(emit_text(m)).model == m
            assert parse_json(emit_json(m)).model == m

    def test_json_round_trip_reads_what_text_reads(self):
        rng = random.Random(20261026)
        models = [parse_text(fixture_text(name)).model for name in FIXTURES + BAD_FIXTURES]
        models += [random_model(rng) for _ in range(100)]
        for m in models:
            blob = emit_json(m)
            assert _exact(parse_json(blob)) == _exact(parse_text(emit_text(m))), blob

    @pytest.mark.parametrize(
        "path, name",
        [
            (("roles", 0), "has space"),
            (("classes", 0, "name"), 'x"];evil'),
            (("processes", 0, "name"), "x\"];evil"),
            (("processes", 0, "name"), "9lives"),
            (("classes", 0, "name"), 5),
            (("classes", 0, "name"), None),
            (("grants", 0, "role"), None),
            (("name",), None),
            (("name",), 'say "hi"'),
            (("name",), "two\nlines"),
        ],
    )
    def test_json_names_the_text_grammar_cannot_spell(self, path, name):
        doc = json.loads(emit_json(parse_text(fixture_text("gp_lab")).model))
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = name
        result = parse_json(json.dumps(doc))
        assert result.model is None
        assert codes(result) == ["E-JSON"]

    def test_hash_in_model_name_round_trips(self):
        text = 'model "a#b # c" { # comment "with a quote\n  role A # "x" }\n}\n'
        model = parse_text(text).model
        assert model is not None and model.name == "a#b # c" and model.roles == ("A",)
        assert parse_text(emit_text(model)).model == model
        doc = json.loads(emit_json(model))
        assert doc["name"] == "a#b # c"
        assert parse_json(json.dumps(doc)).model == model

    def test_json_keyword_names_round_trip(self):
        doc = {
            "name": "odd but fine: {}->,+",
            "roles": ["role", "on"],
            "classes": [{"name": "dynamic", "dynamic": True}, {"name": "waiting"}],
            "processes": [
                {
                    "name": "process",
                    "owners": ["on"],
                    "inputs": ["dynamic"],
                    "outputs": ["waiting"],
                    "transforms": [{"from": "dynamic", "to": "waiting", "mode": "leaving"}],
                }
            ],
            "grants": [{"role": "role", "class": "dynamic", "privileges": ["reference+"]}],
        }
        model = parse_json(json.dumps(doc)).model
        assert model is not None
        assert parse_text(emit_text(model)).model == model
        assert parse_json(emit_json(model)).model == model

    def test_emit_lists_members_in_declaration_order(self):
        privileges = [
            "creation", "modification", "reference", "suppression",
            "modification+", "reference+", "suppression+",
        ]
        points = ["waiting", "fail", "decision"]
        model = parse_text(
            'model "m" { role A class C dynamic { decision, fail, waiting } '
            "grant A on C { suppression+, reference+, modification+, suppression, "
            "reference, modification, creation } }"
        ).model
        assert model.class_def("C").status_points == set(STATUS_POINTS)
        assert model.grants("A", "C") == set(PRIVILEGES)
        text = emit_text(model)
        assert f"class C dynamic {{ {', '.join(points)} }}" in text
        assert f"grant A on C {{ {', '.join(privileges)} }}" in text
        doc = json.loads(emit_json(model))
        assert doc["classes"][0]["status_points"] == points
        assert doc["grants"][0]["privileges"] == privileges

    def test_emit_is_canonical(self):
        text = 'model "m" { role B role A class Z class Y }'
        emitted = emit_text(parse_text(text).model)
        assert emitted.index("role A") < emitted.index("role B")
        assert emitted.index("class Y") < emitted.index("class Z")


class TestJson:
    def test_emit_json_is_deterministic_bytes(self, scenarios):
        for m in scenarios.values():
            assert emit_json(m) == emit_json(m) == reference_emit_json(m)
            assert emit_json(m).endswith(b"\n")

    def test_document_shape(self, scenarios):
        doc = json.loads(emit_json(scenarios["gp_lab"]))
        assert set(doc) == {"name", "roles", "classes", "processes", "grants"}
        [perform] = [p for p in doc["processes"] if p["name"] == "PerformTest"]
        assert perform["transforms"] == [
            {"from": "TestRequest", "to": "SentTestResult", "mode": "leaving"}
        ]

    def test_malformed_json(self):
        result = parse_json(b"{not json")
        assert result.model is None
        assert codes(result) == ["E-JSON"]

    @pytest.mark.parametrize(
        "text", ["[" * 100_000, '{"name": ' * 100_000], ids=["array", "object"]
    )
    def test_too_deeply_nested_json_is_malformed(self, text):
        result = parse_json(text)
        assert result.model is None
        [diag] = result.diagnostics
        assert diag.code == "E-JSON" and diag.message.startswith("malformed JSON: ")

    def test_number_past_the_digit_limit(self, scenarios):
        # Python 3.11 and later refuse to decode an integer of more than 4 300
        # digits; an interpreter without that limit reads a wrong type.
        doc = json.loads(emit_json(scenarios["gp_lab"]))
        doc["classes"][0]["dynamic"] = "@"
        result = parse_json(json.dumps(doc).replace('"@"', "9" * 5000))
        assert result.model is None
        assert {d.code for d in result.diagnostics} == {"E-JSON"}

    def test_missing_keys(self):
        result = parse_json(json.dumps({"name": "m"}))
        assert result.model is None
        assert set(codes(result)) == {"E-JSON"}

    def test_unknown_privilege(self):
        doc = {
            "name": "m",
            "roles": ["A"],
            "classes": [{"name": "C"}],
            "processes": [],
            "grants": [{"role": "A", "class": "C", "privileges": ["magic"]}],
        }
        result = parse_json(json.dumps(doc))
        assert codes(result) == ["E-JSON"]

    def test_bad_transform_mode(self):
        doc = {
            "name": "m",
            "roles": ["A"],
            "classes": [{"name": "C", "dynamic": True}, {"name": "D", "dynamic": True}],
            "processes": [
                {
                    "name": "P",
                    "owners": ["A"],
                    "inputs": ["C"],
                    "outputs": ["D"],
                    "transforms": [{"from": "C", "to": "D", "mode": "sometimes"}],
                }
            ],
            "grants": [],
        }
        result = parse_json(json.dumps(doc))
        assert codes(result) == ["E-JSON"]

    def test_semantic_checks_shared_with_text(self):
        doc = {
            "name": "m",
            "roles": ["A", "A"],
            "classes": [],
            "processes": [],
            "grants": [],
        }
        result = parse_json(json.dumps(doc))
        assert codes(result) == ["E-DUP"]

    def test_values_that_cannot_be_hashed(self):
        doc = {
            "name": "m",
            "roles": ["A"],
            "classes": [
                {"name": "C", "dynamic": True, "status_points": [{}]},
                {"name": "D", "dynamic": True},
            ],
            "processes": [
                {
                    "name": "P",
                    "owners": ["A"],
                    "inputs": ["C"],
                    "outputs": ["D"],
                    "transforms": [{"from": "C", "to": "D", "mode": []}],
                }
            ],
            "grants": [{"role": "A", "class": "C", "privileges": [[]]}],
        }
        result = parse_json(json.dumps(doc))
        assert [d.message for d in result.diagnostics] == [
            "unknown status point {}",
            "transform mode must be 'remaining' or 'leaving', got []",
            "unknown privilege []",
        ]

    def test_ill_typed_entries_between_well_typed_ones(self):
        # Per kind, ill-typed entries sit between well-typed ones: each
        # ill-typed entry is reported in document order, and the well-typed
        # ones around it are read as in a document without it.
        good = {
            "roles": ["A", "B", "C"],
            "classes": [
                {"name": "C", "dynamic": True, "status_points": ["waiting"]},
                {"name": "D", "dynamic": True},
                {"name": "F", "status_points": []},
                {"name": "I"},
            ],
            "processes": [
                {"name": "P", "owners": ["A"], "inputs": ["C"], "outputs": ["D"],
                 "transforms": [{"from": "C", "to": "D", "mode": "leaving"}]},
                {"name": "R", "responsibles": ["B"], "outputs": ["F"]},
                {"name": "U", "owners": ["B"]},
                {"name": "W"},
            ],
            "grants": [
                {"role": "A", "class": "C", "privileges": ["creation", "reference"]},
                {"role": "B", "class": "F", "privileges": ["creation", "reference"]},
                {"role": "A", "class": "F", "privileges": ["reference+"]},
                {"role": "B", "class": "D"},
            ],
        }
        bad = {
            "roles": ["not a name", 7],
            "classes": ["D", {"name": "E", "dynamic": 1}, {"name": "G-1"},
                        {"name": "H", "status_points": ["waiting", ["fail"]]}],
            "processes": [
                {"name": "Q", "transforms": [{"from": "C", "to": "D", "mode": ["leaving"]}]},
                ["S"],
                {"name": "T", "owners": ["A", 1], "inputs": "C"},
                {"name": "V", "transforms": [{"from": "C"}]},
            ],
            "grants": [
                {"role": "A", "class": "D", "privileges": ["reference", 1]},
                "grant",
                {"role": "B", "class": 3, "privileges": ["reference"]},
                {"role": "B", "class": "C", "privileges": [["reference"]]},
            ],
        }
        mixed = {"name": "m"}
        for kind in good:
            mixed[kind] = [
                entry
                for pair in itertools.zip_longest(good[kind], bad[kind], fillvalue=None)
                for entry in pair
                if entry is not None
            ]
        result = parse_json(json.dumps(mixed))
        assert result.model is None
        assert [(d.code, d.site, d.message) for d in result.diagnostics] == [
            ("E-JSON", "roles", "role name must be an identifier, got 'not a name'"),
            ("E-JSON", "roles", "role name must be an identifier, got 7"),
            ("E-JSON", "classes", "missing required key 'name'"),
            ("E-JSON", "class=E", "'dynamic' must be true or false"),
            ("E-JSON", "classes", "class name must be an identifier, got 'G-1'"),
            ("E-JSON", "class=H", "unknown status point ['fail']"),
            ("E-JSON", "process=Q",
             "transform mode must be 'remaining' or 'leaving', got ['leaving']"),
            ("E-JSON", "processes", "missing required key 'name'"),
            ("E-JSON", "process=T", "'owners' entries must be strings"),
            ("E-JSON", "process=T", "'inputs' must be an array"),
            ("E-JSON", "process=V", "transform needs 'from' and 'to' strings"),
            ("E-JSON", "grant role=A class=D", "unknown privilege 1"),
            ("E-JSON", "grants", "missing required key 'role'"),
            ("E-JSON", "grants", "missing required key 'class'"),
            ("E-JSON", "grants", "grant needs 'role' and 'class' strings"),
            ("E-JSON", "grant role=B class=C", "unknown privilege ['reference']"),
        ]
        model = parse_json(json.dumps({"name": "m", **good})).model
        assert model.roles == ("A", "B", "C")
        assert model.class_names == ("C", "D", "F", "I")
        assert model.process_names == ("P", "R", "U", "W")
        assert list(model.class_grants) == [("A", "C"), ("A", "F"), ("B", "F")]

    def test_not_utf8(self):
        result = parse_json(b"\xff\xfe{}")
        assert codes(result) == ["E-JSON"]


class TestLoads:
    """``diagnostics._loads``, the decoder that ``parse_json`` and the CLI's
    side files use, gives what ``json.loads`` gives: an equal value, or an
    error of the same type with the same message, which for malformed text
    is json.loads' own."""

    @staticmethod
    def check(text):
        got = json_outcome(_loads, text)
        assert got == json_outcome(json.loads, text), text[:200]
        return got

    @pytest.mark.parametrize("name", FIXTURES + BAD_FIXTURES)
    def test_fixture_documents(self, name):
        text = emit_json(parse_text(fixture_text(name)).model).decode("utf-8")
        for variant in (text, text.rstrip(), json.dumps(json.loads(text)), f"\r\n\t {text}  "):
            assert self.check(variant)[0] == "value"

    @pytest.mark.parametrize(
        "path, value", [row[1:3] for row in _PLANTED_JSON], ids=[r[0] for r in _PLANTED_JSON]
    )
    def test_planted_json_documents(self, path, value):
        doc = json.loads(emit_json(parse_text(_PLANTED).model))
        edits = zip(path, value) if isinstance(path, list) else [(path, value)]
        for at, planted in edits:
            doc = _put(doc, at, planted)
        for text in (json.dumps(doc), json.dumps(doc, indent=2), json.dumps(doc)[:-1]):
            self.check(text)

    @pytest.mark.parametrize("text", [
        "\ufeff{}", "\ufeff", "{} x", "[]\n\n{}", "[1] 2", " \t\r\n[1]\n ", "\n\n  [] ",
        "", " ", " \n\t ", "\x0c[]", "[]\x0c", "NaN", "[NaN, Infinity, -Infinity]",
        '{"x": -Infinity}', "nan", "-NaN", "[1.5e400, -0, -0.0, 1e-400, 10, 1.0]",
        "9" * 5000, "[" + "9" * 5000 + "]", "-" + "9" * 4300, "[" * 100_000,
        '{"a": ' * 100_000, "[" * 50 + "]" * 50, '"\\ud800"', '"\\udfff\\ud800x"',
        '{"\\ud800": "\\udc00"}', '"\\ud83d\\ude00"', '"a\tb"', '["\\x"]', '["abc',
        "[1,]", '{"a": 1,}', '{"a" 1}', "{1: 2}", '{"a": 1, "a": 2}', "[1 2]", "tru",
        "\x00", '"\x00"', "\u00a0[]", "[]\u2028", '"\u2028"',
    ])
    def test_edge_cases(self, text):
        self.check(text)

    @pytest.mark.parametrize("text", ['["a\tb"]', '["\\x"]', '["abc', '{"a" 1}'])
    def test_error_inside_a_document_before_json_is_loaded(self, text):
        # Before Python 3.12 the C scanner can raise such an error only once
        # json.decoder is loaded, and json.loads, which _loads hands the text
        # to, loads it. Each text runs in a fresh process, where it is not.
        src = str(Path(dsl.__file__).parent.parent)
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys\n"
             "sys.path.insert(0, sys.argv[2])\n"
             "from csm.diagnostics import _loads\n"
             "loaded = [m for m in sys.modules if m.partition('.')[0] == 'json']\n"
             "try:\n"
             "    _loads(sys.argv[1])\n"
             "except ValueError as exc:\n"
             "    print(loaded, type(exc).__module__, type(exc).__name__, exc)\n",
             text, src],
            capture_output=True, text=True, timeout=60,
        )
        _, message = json_outcome(json.loads, text)
        assert (proc.stdout, proc.stderr) == (f"[] json.decoder JSONDecodeError {message}\n", "")
