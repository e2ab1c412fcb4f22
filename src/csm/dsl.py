"""Textual and JSON forms of a service model.

Text grammar (free-form whitespace; ``#`` outside a string starts a comment
that runs to end of line):

    model  := "model" STRING "{" item* "}"
    item   := "role" IDENT
            | "class" IDENT ["dynamic"] ["{" point ("," point)* "}"]
            | "process" IDENT "{" pitem* "}"
            | "grant" IDENT "on" IDENT "{" priv ("," priv)* "}"
    pitem  := "owner" IDENT | "responsible" IDENT
            | "input" IDENT | "output" IDENT
            | "transform" IDENT "->" IDENT ("remaining" | "leaving")
    point  := "waiting" | "fail" | "decision"
    priv   := "creation" | "modification" | "reference" | "suppression"
            | "modification+" | "reference+" | "suppression+"

Text laid out one declaration, process item or closing brace a line, as
``emit_text`` writes it, is read line by line with ``str`` methods
(``_read_text``): each line is split into words, checked, and goes straight
into a draft with its line index; no pattern is compiled and ``re`` is not
loaded. Blank and comment lines may come anywhere and a comment may end any
line; words are separated by whitespace, and braces, commas and ``->`` may
touch their neighbours. Any other text (a syntax mistake, a declaration
split over lines or sharing one, a model written on one line) goes whole to
the recovering token parser, with the same result. It lexes the text as
one lazy stream of tokens as it reads, reports every syntax diagnostic and
recovers at item boundaries, so several independent mistakes are reported
in one pass.
Either draft then goes through the one name-resolution pass
(``model._resolve``), which checks duplicates and references and locates
each that fails. JSON has one reader, since the C scanner that
``json.loads`` wraps lexes it (``diagnostics._loads``, which leaves the
``json`` package unloaded unless the text is malformed): ``_read_json``
walks the decoded document once, tests each key of an entry once, reports
each ill-typed entry where it finds it and fills a draft for the same pass.
A transform's mode keyword is mandatory: there is no default for whether
the source token survives the firing.
"""

from __future__ import annotations

from itertools import accumulate

from .diagnostics import Diagnostic, SourceSpan, has_errors
from .diagnostics import _esc, _json_array, _loads, _record
from .model import (
    ClassDef,
    Model,
    PRIVILEGES,
    STATUS_POINTS,
    TRANSFORM_MODES,
    Transform,
    _Draft,
    _IDENT,
    _NO_OFFSET,
    _ProcessItem,
    _identifier_problem,
    _is_identifier,
    _name_problem,
    _resolve,
    canonicalize,
)

ITEM_KEYWORDS = frozenset({"role", "class", "process", "grant"})
PITEM_KEYWORDS = frozenset({"owner", "responsible", "input", "output", "transform"})


class ParseResult(_record("ParseResult", "model diagnostics")):
    """Outcome of a parse: a canonical model unless errors were found, and
    the list of diagnostics."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.model is not None


# kind is "ident", "string", "punct", "junk" or "eof"; offset is where the
# token starts in the source. A string token keeps its quotes.
_Token = _record("_Token", "kind text offset")


def _token_pattern():
    """One token after optional whitespace; the group that matched gives its
    kind. A '#' starts a comment only where no string has started. ``re``
    is loaded, and the pattern compiled, only when the reporting path lexes:
    once per parse, and ``re.compile`` keeps its own cache of patterns."""
    import re

    return re.compile(rf'\s*(?:("[^"\n]*")|(#[^\n]*)|({_IDENT})|(->|[{{}}+,])|(\S))')


_KIND_BY_GROUP = (None, "string", "comment", "ident", "punct", "junk")
_COMMENT_GROUP = _KIND_BY_GROUP.index("comment")

# The word tables: each word a reader accepts to the one string of its
# model tuple, so that the sets a model holds share their members.
_PRIVILEGE = {p: p for p in PRIVILEGES}
_STATUS_POINT = {s: s for s in STATUS_POINTS}
_MODE = {m: m for m in TRANSFORM_MODES}


def _listed(tail: str, members: dict, memo: dict) -> frozenset | None:
    """The members that a listing names (``members`` is a word table), or
    ``None`` unless every entry names one. ``tail`` is the rest of a line
    after its ``{``: the entries, then ``}`` and nothing but whitespace.
    What it names is stored in ``memo`` under ``tail``, so that each
    listing is read once."""
    raw, close, after = tail.partition("}")
    if not close or after.strip():
        return None
    found = frozenset([members.get(word.strip()) for word in raw.split(",")])
    if None in found:
        return None
    memo[tail] = found
    return found


def _read_text(text: str, file_label: str = "<string>") -> _Draft | None:
    """The draft of text written one declaration, process item or closing
    brace a line, read line by line with ``str`` methods: each entry goes
    straight into the draft with the index of its line, for ``_resolve`` to
    check. A line may end in a comment, and blank and comment lines may come
    anywhere. ``None`` for any other text, which the token parser then
    reads: a line that holds anything else or more than that (a syntax
    mistake, a declaration split over lines or sharing one), a missing
    brace, trailing input, or a model name that neither form can write
    (``_name_problem``). Words split on what the lexer takes for
    whitespace, and any other character that is not ASCII lands in a word
    that a keyword, ``_is_identifier`` or a word table rejects."""
    lines = text.split("\n")
    rows = enumerate(lines)
    for li, line in rows:
        if line.partition("#")[0].strip():
            break
    else:
        return None
    # The header, model "name" {, whose name may hold '#' and any character.
    head = line.lstrip()
    quoted = head[5:].lstrip()
    end = quoted.find('"', 1)
    if not head.startswith("model") or quoted[:1] != '"' or end < 0:
        return None
    name = quoted[1:end]
    rest = quoted[end + 1 :].partition("#")[0]
    if rest.split() != ["{"]:
        return None
    if _name_problem(name):
        return None
    draft = _Draft(name)
    draft.locate = _line_spans(lines, file_label)
    roles, classes, processes, grants = draft.roles, draft.classes, draft.processes, draft.grants
    # What each listing read, one table per list kind: a word valid in one
    # kind is unknown in the other.
    point_lists: dict = {}
    privilege_lists: dict = {}
    # A text that holds no '#' needs no test of it per line.
    comments = "#" in text
    proc = None  # the open process
    for li, line in rows:
        if comments and "#" in line:
            line = line[: line.index("#")]
        head, brace, tail = line.partition("{")
        words = head.split()
        if not words:
            if brace:
                return None
            continue
        kw = words[0]
        if proc is not None:
            if brace:
                return None
            if len(words) == 2:
                item = words[1]
                if not _is_identifier(item):
                    return None
                if kw == "input":
                    inputs.append((item, li))
                elif kw == "output":
                    outputs.append((item, li))
                elif kw == "owner":
                    owners.append((item, li))
                elif kw == "responsible":
                    responsibles.append((item, li))
                else:
                    return None
            elif kw == "transform":
                source, arrow, target = line.partition("->")
                source, target = source.split(), target.split()
                if (
                    not arrow or len(source) != 2 or len(target) != 2
                    or target[1] not in _MODE
                    or not _is_identifier(source[1]) or not _is_identifier(target[0])
                ):
                    return None
                transforms.append(
                    (tuple.__new__(Transform, (source[1], target[0], _MODE[target[1]])), li)
                )
            elif kw == "}" and len(words) == 1:
                processes.append(proc)
                proc = None
            else:
                return None
        elif kw == "grant":
            if len(words) != 4 or words[2] != "on":
                return None
            if not _is_identifier(words[1]) or not _is_identifier(words[3]):
                return None
            privs = privilege_lists.get(tail) or _listed(tail, _PRIVILEGE, privilege_lists)
            if privs is None:
                return None
            grants.append((words[1], words[3], privs, li))
        elif kw == "class":
            if not 2 <= len(words) <= 3 or not _is_identifier(words[1]):
                return None
            if len(words) == 3 and words[2] != "dynamic":
                return None
            points = frozenset()
            if brace:
                points = point_lists.get(tail) or _listed(tail, _STATUS_POINT, point_lists)
                if points is None:
                    return None
            classes.append((tuple.__new__(ClassDef, (words[1], len(words) == 3, points)), li))
        elif kw == "process":
            if len(words) != 2 or not brace or tail.strip() or not _is_identifier(words[1]):
                return None
            proc = tuple.__new__(_ProcessItem, (words[1], li, [], [], [], [], []))
            _, _, owners, responsibles, inputs, outputs, transforms = proc
        elif kw == "role":
            if len(words) != 2 or brace or not _is_identifier(words[1]):
                return None
            roles.append((words[1], li))
        elif kw == "}" and len(words) == 1 and not brace:
            # The end of the model: only blank and comment lines may follow.
            for li, line in rows:
                if line.partition("#")[0].strip():
                    return None
            return draft
        else:
            return None
    return None


def _line_spans(lines: list[str], file_label: str):
    """The line reader's ``locate``: a line index and a name to the
    ``SourceSpan`` of that name, the word after the line's keyword."""

    def span(li: int, name: str) -> SourceSpan:
        line = lines[li]
        at = len(line) - len(line.lstrip().split(None, 1)[1])
        return SourceSpan(file_label, li + 1, at + 1, len(name))

    return span


def _line_starts(text: str) -> list[int]:
    """The offset where each line of ``text`` starts, and one past its end."""
    return [*accumulate((len(line) + 1 for line in text.split("\n")), initial=0)]


def _spans(text: str, file_label: str):
    """The token parser's ``locate``: a token's offset and text to its
    ``SourceSpan``. The line index is built, and ``bisect`` loaded, on the
    first call, since only a diagnostic makes one."""
    line_starts: list[int] = []

    def span(offset: int, token: str) -> SourceSpan:
        from bisect import bisect_right

        if not line_starts:
            line_starts.extend(_line_starts(text))
        li = bisect_right(line_starts, offset) - 1
        return SourceSpan(file_label, li + 1, offset - line_starts[li] + 1, max(len(token), 1))

    return span


class _Recover(Exception):
    """Internal signal: abandon the current item and resynchronize."""


class _Parser:
    """The recovering token parser. It reads the text as one lazy stream of
    tokens, comments left out, and holds only the current token (``tok``),
    which is the eof token once the stream ends."""

    def __init__(self, text: str, file_label: str) -> None:
        # Every match consumes a character and can fail only at the end
        # bound, so the matches lie back to back. Ending them at the last
        # non-space character keeps the lexer's leading \s* from
        # backtracking over trailing whitespace.
        self.stream = (
            _Token(_KIND_BY_GROUP[k], m[k], m.start(k))
            for m in _token_pattern().finditer(text, 0, len(text.rstrip()))
            for k in (m.lastindex,)
            if k != _COMMENT_GROUP
        )
        self.eof = _Token("eof", "", len(text))
        self.tok = next(self.stream, self.eof)
        self.spans = _spans(text, file_label)
        self.diagnostics: list[Diagnostic] = []
        self.draft = _Draft()

    # -- token plumbing -----------------------------------------------------

    def advance(self) -> _Token:
        """The current token; the next one becomes current."""
        tok = self.tok
        self.tok = next(self.stream, self.eof)
        return tok

    def at(self, kind: str, text: str) -> bool:
        return self.tok.kind == kind and self.tok.text == text

    def span(self, tok: _Token) -> SourceSpan:
        return self.spans(tok.offset, tok.text)

    def error(self, code: str, message: str, tok: _Token, site: str = "") -> None:
        self.diagnostics.append(
            Diagnostic(
                code=code,
                site=site or (tok.text or "end of input"),
                message=message,
                span=self.span(tok),
            )
        )

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> _Token:
        """Consume a token of ``kind`` (and ``text``, if given); otherwise
        report "expected ``what``" (default: the quoted text) and recover."""
        tok = self.tok
        if tok.kind != kind or (text is not None and tok.text != text):
            self.error("E-SYN", f"expected {what or repr(text)}, got {tok.text!r}", tok)
            raise _Recover
        return self.advance()

    def sync_item(self) -> None:
        """Skip ahead to the next top-level item keyword or closing brace."""
        depth = 0
        while True:
            tok = self.tok
            if tok.kind == "eof":
                return
            if self.at("punct", "{"):
                depth += 1
            elif self.at("punct", "}"):
                if depth == 0:
                    return
                depth -= 1
            elif depth == 0 and tok.kind == "ident" and tok.text in ITEM_KEYWORDS:
                return
            self.advance()

    def sync_pitem(self) -> None:
        """Skip ahead to the next process item keyword or closing brace."""
        while True:
            tok = self.tok
            if tok.kind == "eof" or self.at("punct", "}"):
                return
            if tok.kind == "ident" and tok.text in PITEM_KEYWORDS:
                return
            self.advance()

    def block(self, keywords: frozenset, noun: str, eof_message: str, read, sync) -> None:
        """Read items up to the closing brace. Each starts with one of
        ``keywords``; ``read`` gets that keyword's token, and after an error
        ``sync`` skips to where the next item can start."""
        while True:
            tok = self.tok
            if tok.kind == "eof":
                self.error("E-SYN", eof_message, tok)
                return
            if self.at("punct", "}"):
                self.advance()
                return
            if tok.kind == "ident" and tok.text in keywords:
                try:
                    read(self.advance())
                except _Recover:
                    sync()
            else:
                self.error("E-SYN", f"expected {noun}, got {tok.text!r}", tok)
                self.advance()
                sync()

    def comma_list(self, members: dict, noun: str) -> frozenset:
        """Read ``name ("," name)* "}"`` into the values of ``members`` (a
        word table); a privilege name may end in ``+``."""
        found = set()
        try:
            while True:
                tok = self.expect("ident", what=noun)
                text = tok.text
                if members is _PRIVILEGE and self.at("punct", "+"):
                    self.advance()
                    text += "+"
                if text in members:
                    found.add(members[text])
                else:
                    self.error("E-SYN", f"unknown {noun} {text!r}", tok)
                if not self.at("punct", ","):
                    break
                self.advance()
            self.expect("punct", "}")
        except _Recover:
            # Skip past the list's own '}', so that recovery does not take
            # it for the end of the model.
            self.sync_item()
            if self.at("punct", "}"):
                self.advance()
            raise
        return frozenset(found)

    # -- grammar ------------------------------------------------------------

    def parse(self) -> _Draft | None:
        try:
            self.expect("ident", "model")
            name_tok = self.tok
            if name_tok.kind != "string":
                self.error("E-SYN", "expected quoted model name", name_tok)
                raise _Recover
            self.advance()
            self.draft.name = name_tok.text[1:-1]
            if problem := _name_problem(self.draft.name):
                self.error("E-SYN", f"model name {problem}", name_tok, "model")
            self.expect("punct", "{")
        except _Recover:
            return None
        # Each item keyword names its reader: "role" is read by parse_role.
        self.block(
            ITEM_KEYWORDS,
            "a declaration",
            "unexpected end of input, missing '}'",
            lambda kw: getattr(self, f"parse_{kw.text}")(),
            self.sync_item,
        )
        trailing = self.tok
        if trailing.kind != "eof":
            self.error("E-SYN", f"unexpected input after model: {trailing.text!r}", trailing)
        return self.draft

    def parse_role(self) -> None:
        tok = self.expect("ident", what="role name")
        self.draft.roles.append((tok.text, tok.offset))

    def parse_class(self) -> None:
        name_tok = self.expect("ident", what="class name")
        dynamic = self.at("ident", "dynamic")
        if dynamic:
            self.advance()
        points = frozenset()
        if self.at("punct", "{"):
            self.advance()
            points = self.comma_list(_STATUS_POINT, "status point")
        self.draft.classes.append(
            (ClassDef(name_tok.text, dynamic=dynamic, status_points=points), name_tok.offset)
        )

    def parse_process(self) -> None:
        name_tok = self.expect("ident", what="process name")
        proc = _ProcessItem(name_tok.text, name_tok.offset, [], [], [], [], [])
        self.expect("punct", "{")

        def read(kw_tok: _Token) -> None:
            if kw_tok.text == "transform":
                self.parse_transform(proc, kw_tok)
                return
            tok = self.expect("ident", what=f"{kw_tok.text} name")
            getattr(proc, kw_tok.text + "s").append((tok.text, tok.offset))

        self.block(
            PITEM_KEYWORDS,
            "a process item",
            "unexpected end of input in process body",
            read,
            self.sync_pitem,
        )
        self.draft.processes.append(proc)

    def parse_transform(self, proc: _ProcessItem, kw_tok: _Token) -> None:
        src = self.expect("ident", what="transform source class")
        self.expect("punct", "->")
        dst = self.expect("ident", what="transform target class")
        tok = self.tok
        if tok.kind == "ident" and tok.text in _MODE:
            self.advance()
            proc.transforms.append((Transform(src.text, dst.text, _MODE[tok.text]), src.offset))
        else:
            self.error(
                "E-TRF-MODE",
                "transform requires an explicit 'remaining' or 'leaving' mode",
                kw_tok,
                site=f"process={proc.name} transform={src.text}->{dst.text}",
            )

    def parse_grant(self) -> None:
        role_tok = self.expect("ident", what="role name")
        self.expect("ident", "on")
        class_tok = self.expect("ident", what="class name")
        self.expect("punct", "{")
        privs = self.comma_list(_PRIVILEGE, "privilege")
        self.draft.grants.append((role_tok.text, class_tok.text, privs, role_tok.offset))


def parse_text(source: str, file_label: str = "<string>") -> ParseResult:
    """Parse model source text: text that ``_read_text`` accepts line by
    line, any other by the token parser, which recovers at item boundaries
    and reports every syntax diagnostic. Either draft then goes through
    name resolution."""
    draft = _read_text(source, file_label)
    if draft is None:
        return _report_text(source, file_label)
    return _resolved_text(draft, [])


def _report_text(source: str, file_label: str) -> ParseResult:
    """What ``parse_text`` returns, found by the token parser alone."""
    parser = _Parser(source, file_label)
    draft = parser.parse()
    if draft is not None:
        draft.locate = parser.spans
    return _resolved_text(draft, parser.diagnostics)


def _resolved_text(draft: _Draft | None, diagnostics: list[Diagnostic]) -> ParseResult:
    """The model and every diagnostic of a text: name resolution of its
    draft, if it has one, after the syntax ``diagnostics``, sorted by
    position."""
    model: Model | None = None
    if draft is not None:
        model, semantic = _resolve(draft)
        diagnostics.extend(semantic)
    diagnostics.sort(
        key=lambda d: (d.span.line, d.span.column) if d.span else (0, 0)
    )
    if has_errors(diagnostics):
        model = None
    return ParseResult(model=model, diagnostics=diagnostics)


def emit_text(model: Model) -> str:
    """Pretty-print the canonical form; parses back to the same model."""
    m = canonicalize(model)
    lines = [f'model "{m.name}" {{']
    for r in m.roles:
        lines.append(f"  role {r}")
    for c in m.classes:
        head = f"  class {c.name}"
        if c.dynamic:
            head += " dynamic"
        if c.status_points:
            pts = ", ".join(s for s in STATUS_POINTS if s in c.status_points)
            head += f" {{ {pts} }}"
        lines.append(head)
    for p in m.processes:
        lines.append(f"  process {p.name} {{")
        for r in p.owners:
            lines.append(f"    owner {r}")
        for r in p.responsibles:
            lines.append(f"    responsible {r}")
        for c in p.inputs:
            lines.append(f"    input {c}")
        for c in p.outputs:
            lines.append(f"    output {c}")
        for t in p.transforms:
            lines.append(f"    transform {t.source} -> {t.target} {t.mode}")
        lines.append("  }")
    listings: dict[frozenset[str], str] = {}
    for (role, class_name), privs in m.class_grants.items():
        listed = listings.get(privs)
        if listed is None:
            listed = listings[privs] = ", ".join(p for p in PRIVILEGES if p in privs)
        lines.append(f"  grant {role} on {class_name} {{ {listed} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"


_MODEL_JSON = (
    '{\n  "classes": %s,\n  "grants": %s,\n  "name": %s,\n'
    '  "processes": %s,\n  "roles": %s\n}\n'
)
_CLASS_JSON = '{\n      "dynamic": %s,\n      "name": %s,\n      "status_points": %s\n    }'
_PROCESS_JSON = (
    '{\n      "inputs": %s,\n      "name": %s,\n      "outputs": %s,\n'
    '      "owners": %s,\n      "responsibles": %s,\n      "transforms": %s\n    }'
)
_TRANSFORM_JSON = '{\n          "from": %s,\n          "mode": %s,\n          "to": %s\n        }'
_GRANT_JSON = '{\n      "class": %s,\n      "privileges": %s,\n      "role": %s\n    }'


def emit_json(model: Model) -> bytes:
    """Deterministic JSON bytes: sorted keys, canonical member order.

    ``{"classes", "grants", "name", "processes", "roles"}`` of the canonical
    model in UTF-8, as ``json.dumps(..., indent=2, sort_keys=True) + "\\n"``
    writes it; built record by record from templates.
    """
    m = canonicalize(model)
    pad = "      "
    listings: dict[frozenset, str] = {}

    def listing(members: frozenset, words: tuple) -> str:
        """``members`` in the order of ``words``, formatted once per set."""
        listed = listings.get(members)
        if listed is None:
            listed = listings[members] = _json_array(
                (_esc(x) for x in words if x in members), pad
            )
        return listed

    classes = [
        _CLASS_JSON % (
            "true" if c.dynamic else "false",
            _esc(c.name),
            listing(c.status_points, STATUS_POINTS),
        )
        for c in m.classes
    ]
    processes = [
        _PROCESS_JSON % (
            _json_array(map(_esc, p.inputs), pad),
            _esc(p.name),
            _json_array(map(_esc, p.outputs), pad),
            _json_array(map(_esc, p.owners), pad),
            _json_array(map(_esc, p.responsibles), pad),
            _json_array(
                (
                    _TRANSFORM_JSON % (_esc(t.source), _esc(t.mode), _esc(t.target))
                    for t in p.transforms
                ),
                pad,
            ),
        )
        for p in m.processes
    ]
    grants = [
        _GRANT_JSON % (_esc(class_name), listing(privs, PRIVILEGES), _esc(role))
        for (role, class_name), privs in m.class_grants.items()
    ]
    return (
        _MODEL_JSON % (
            _json_array(classes, "  "),
            _json_array(grants, "  "),
            _esc(m.name),
            _json_array(processes, "  "),
            _json_array(map(_esc, m.roles), "  "),
        )
    ).encode("utf-8")


# The value of an absent array key: read, never written.
_NO_ENTRIES: list = []
# What an entry that is not an object reads as, so that each of its required
# keys is reported missing: read, never written.
_NOT_AN_OBJECT: dict = {}
# Whether a value is a string, called from C: ``all(map(_IS_STR, names))``.
_IS_STR = str.__instancecheck__


def _json_error(message: str, site: str = "document") -> Diagnostic:
    return Diagnostic("E-JSON", site, message)


def parse_json(data: bytes | bytearray | str, file_label: str = "<json>") -> ParseResult:
    """Parse the JSON interchange form into a canonical model.

    Names follow the text grammar: role, class and process names are
    identifiers, and the model name is a string the text form can quote.
    The decoded document is read in one walk (``_read_json``).
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            return ParseResult(None, [_json_error(f"not valid UTF-8: {exc}")])
    try:
        doc = _loads(data)
    except (ValueError, RecursionError) as exc:
        # ValueError: JSONDecodeError, or an integer past the interpreter's
        # int-string limit. RecursionError: nesting deeper than the
        # interpreter's stack allows.
        return ParseResult(None, [_json_error(f"malformed JSON: {exc}")])
    return _read_json(doc)


def _read_json(doc) -> ParseResult:
    """The model and every diagnostic of a decoded document, in one walk:
    the name, then the roles, classes, processes and grants in document
    order. One block per entry fetches each key once, tests it once and
    fills a draft without offsets, writing an E-JSON diagnostic where a test
    fails; an entry that is not an object reads as one without keys. With
    no diagnostic, the draft goes through ``_resolve``, which checks
    duplicates and references.

    Declared names must be identifiers. A name that refers to a declaration
    (an owner, an input, a transform's end, a grant's role or class) must be
    a string, which ``_resolve`` then looks up.
    """
    if type(doc) is not dict:
        return ParseResult(None, [_json_error("top-level value must be an object")])
    errors: list[Diagnostic] = []

    def error(message: str, site: str = "document") -> None:
        errors.append(_json_error(message, site))

    def array(obj: dict, key: str, site: str = "document") -> list:
        """The array under ``key``, else ``[]`` after its diagnostic: a key of
        the document is required, and one of an entry is not."""
        value = obj.get(key)
        if type(value) is list:
            return value
        if key in obj:
            error(f"{key!r} must be an array", site)
        elif site == "document":
            error(f"missing required key {key!r}")
        return _NO_ENTRIES

    def listing(entry: dict, key: str, members: dict, noun: str, memo: dict, site: str):
        """The members of the word table ``members`` that the array under ``key``
        names, after a diagnostic for each entry that names none; kept in
        ``memo`` when every entry names one."""
        mark = len(errors)
        words = array(entry, key, site)
        named = []
        for word in words:
            if type(word) is str and word in members:
                named.append(members[word])
            else:
                error(f"unknown {noun} {word!r}", site)
        found = frozenset(named)
        if len(errors) == mark:
            memo[tuple(words)] = found
        return found

    name = doc.get("name")
    if name is None:
        error("missing required key 'name'")
    elif type(name) is not str:
        error("'name' must be a string")
    elif problem := _name_problem(name):
        error(f"'name' {problem}")
    draft = _Draft(name)

    roles = array(doc, "roles")
    for r in roles:
        if problem := _identifier_problem("role", r):
            error(problem, "roles")
    draft.roles = zip(roles, _NO_OFFSET)

    # Equal listings share one set, read once; one memo per list kind. A
    # value that is not an array is looked up as None, which neither holds.
    point_lists: dict[tuple, frozenset[str]] = {}
    privilege_lists: dict[tuple, frozenset[str]] = {}
    classes = []
    for entry in array(doc, "classes"):
        if type(entry) is not dict:
            entry = _NOT_AN_OBJECT
        cname = entry.get("name")
        if problem := _identifier_problem("class", cname):
            error(problem if cname is not None else "missing required key 'name'", "classes")
            continue
        dynamic = entry.get("dynamic", False)
        if type(dynamic) is not bool:
            error("'dynamic' must be true or false", f"class={cname}")
        points = entry.get("status_points", _NO_ENTRIES)
        try:
            found = point_lists[tuple(points) if type(points) is list else None]
        except (KeyError, TypeError):  # not read yet, or an entry cannot be hashed
            found = listing(entry, "status_points", _STATUS_POINT, "status point",
                            point_lists, f"class={cname}")
        classes.append(tuple.__new__(ClassDef, (cname, dynamic, found)))
    draft.classes = zip(classes, _NO_OFFSET)

    for entry in array(doc, "processes"):
        if type(entry) is not dict:
            entry = _NOT_AN_OBJECT
        pname = entry.get("name")
        if problem := _identifier_problem("process", pname):
            error(problem if pname is not None else "missing required key 'name'", "processes")
            continue
        owners = entry.get("owners", _NO_ENTRIES)
        responsibles = entry.get("responsibles", _NO_ENTRIES)
        inputs = entry.get("inputs", _NO_ENTRIES)
        outputs = entry.get("outputs", _NO_ENTRIES)
        if not (
            type(owners) is type(responsibles) is type(inputs) is type(outputs) is list
            and all(map(_IS_STR, [*owners, *responsibles, *inputs, *outputs]))
        ):
            site = f"process={pname}"
            for key in ("owners", "responsibles", "inputs", "outputs"):
                for v in array(entry, key, site):
                    if type(v) is not str:
                        error(f"'{key}' entries must be strings", site)
            owners = responsibles = inputs = outputs = _NO_ENTRIES
        transforms = entry.get("transforms", _NO_ENTRIES)
        if type(transforms) is not list:
            transforms = array(entry, "transforms", f"process={pname}")
        items = []
        for t in transforms:
            if type(t) is not dict:
                t = _NOT_AN_OBJECT
            src, dst, mode = t.get("from"), t.get("to"), t.get("mode")
            if type(src) is not str or type(dst) is not str:
                error("transform needs 'from' and 'to' strings", f"process={pname}")
            elif type(mode) is not str or mode not in _MODE:
                error(f"transform mode must be 'remaining' or 'leaving', got {mode!r}",
                      f"process={pname}")
            else:
                items.append((tuple.__new__(Transform, (src, dst, _MODE[mode])), None))
        draft.processes.append(tuple.__new__(_ProcessItem, (
            pname, None, zip(owners, _NO_OFFSET), zip(responsibles, _NO_OFFSET),
            zip(inputs, _NO_OFFSET), zip(outputs, _NO_OFFSET), items,
        )))

    for entry in array(doc, "grants"):
        if type(entry) is not dict:
            entry = _NOT_AN_OBJECT
        role, cname = entry.get("role"), entry.get("class")
        if type(role) is not str or type(cname) is not str:
            if role is None:
                error("missing required key 'role'", "grants")
            if cname is None:
                error("missing required key 'class'", "grants")
            if role is not None and cname is not None:
                error("grant needs 'role' and 'class' strings", "grants")
            continue
        privileges = entry.get("privileges", _NO_ENTRIES)
        try:
            found = privilege_lists[tuple(privileges) if type(privileges) is list else None]
        except (KeyError, TypeError):
            found = listing(entry, "privileges", _PRIVILEGE, "privilege", privilege_lists,
                            f"grant role={role} class={cname}")
        draft.grants.append((role, cname, found, None))

    if errors:
        return ParseResult(None, errors)
    return ParseResult(*_resolve(draft))
