"""Parser and serializer for the `.ras` scenario format.

Line-oriented grammar.  `#` starts a comment that runs to the end of the
line; spaces, tabs, CRs and newlines separate tokens; `{ } : = ? ->`
self-delimit.  An atom is a run of any other characters except control
characters, which are a lex error outside a comment.

    universe NAME = { atom+ }
    partition NAME on UNIV = { { atom+ }+ }
    set NAME on UNIV = { atom* }
    table NAME on UNIV carrier { atom+ } = { (atom : cell+)+ }
    map NAME from SETNAME to SETNAME = { (atom -> atom)+ }

Table rows are positional: one row per carrier element, cells in carrier
declaration order; a `?` cell is an indeterminate entry.  Every diagnostic
carries a 1-based line and column.  `serialize_scenario` writes a canonical
form that re-parses to an equal scenario, and refuses any name or label
that is not one atom, and any declaration built on another universe or set
than the one it names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .approx import Partition, Subset, Universe, make_partition, make_universe
from .algebra import INDET, OpTable, make_table
from .errors import RoughAlgError
from .morphisms import Mapping, make_mapping
from .report import table_json


class ParseError(RoughAlgError):
    """Diagnostic at line:col, with the offending token and expected set if any."""

    def __init__(self, line: int, col: int, message: str,
                 token: str | None = None, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.line = line
        self.col = col
        self.message = message
        self.token = token
        self.expected = expected

    def __str__(self) -> str:
        s = f"{self.line}:{self.col}: {self.message}"
        if self.expected:
            s += f" (expected {', '.join(self.expected)})"
        return s


class LexError(ParseError):
    pass


class UnknownReferenceError(ParseError):
    pass


class DuplicateNameError(ParseError):
    pass


class ArityError(ParseError):
    pass


class ValidationError(ParseError):
    """Domain validation failure attributed to its declaration."""


class Token(NamedTuple):
    kind: str  # atom { } : = ? -> eof
    value: str
    line: int
    col: int


# An atom: a run of characters other than blanks, control characters, `#`
# and `{ } : = ?`, in which no `-` is followed by `>`.
_ATOM = r"(?:[^{}:=?#\x00-\x20\x7f-]|-(?!>))+"
# Blanks, then one token: a newline or the end of the text (either after an
# optional comment), a symbol, an atom, or a stray control character.  The
# end of the text sits at the `#` of a trailing comment.
_TOKEN = (r"[ \t\r]*(?:(?P<nl>(?:#[^\n]*)?\n)|(?P<eof>(?:#[^\n]*)?\Z)"
          r"|(?P<sym>->|[{}:=?])|(?P<atom>" + _ATOM + r")|(?P<bad>.))")


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, bol = 1, 0  # bol: offset where the current line begins
    for m in re.finditer(_TOKEN, text):
        kind = m.lastgroup
        value = m[kind]
        col = m.start(kind) - bol + 1
        if kind == "nl":
            line, bol = line + 1, m.end()
        elif kind == "bad":
            raise LexError(line, col, f"control character {value!r}", token=value)
        elif kind == "eof":
            toks.append(Token("eof", "", line, col))
            break
        else:
            toks.append(Token(value if kind == "sym" else "atom", value, line, col))
    return toks


@dataclass(frozen=True)
class PartitionDecl:
    universe_name: str
    partition: Partition


@dataclass(frozen=True)
class SetDecl:
    universe_name: str
    subset: Subset


@dataclass(frozen=True)
class TableDecl:
    universe_name: str
    table: OpTable


@dataclass(frozen=True)
class MapDecl:
    from_name: str
    to_name: str
    mapping: Mapping


@dataclass
class Scenario:
    """Named universes, partitions, sets, tables and mappings; equality is
    structural."""

    universes: dict[str, Universe] = field(default_factory=dict)
    partitions: dict[str, PartitionDecl] = field(default_factory=dict)
    sets: dict[str, SetDecl] = field(default_factory=dict)
    tables: dict[str, TableDecl] = field(default_factory=dict)
    mappings: dict[str, MapDecl] = field(default_factory=dict)

    def is_empty(self) -> bool:
        return not (self.universes or self.partitions or self.sets or self.tables or self.mappings)


_DECLS = ("universe", "partition", "set", "table", "map")


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.out = Scenario()

    # token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def advance(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, what: str | None = None, value: str | None = None) -> Token:
        """The next token, which must have this kind (and value, if given);
        the diagnostic expects `what`, else the value, else the kind."""
        t = self.peek()
        if t.kind != kind or (value is not None and t.value != value):
            shown = "end of input" if t.kind == "eof" else f"token {t.value!r}"
            raise ParseError(t.line, t.col, f"unexpected {shown}",
                             token=t.value, expected=(what or value or kind,))
        return self.advance()

    # reference and name helpers

    def declare(self, category: str, what: str) -> str:
        tok = self.expect("atom", f"{what} name")
        if tok.value in getattr(self.out, category):
            raise DuplicateNameError(tok.line, tok.col,
                                     f"{category[:-1]} {tok.value!r} already declared",
                                     token=tok.value)
        return tok.value

    def ref(self, category: str, what: str):
        """Name and declaration of an earlier `what` in `category`."""
        tok = self.expect("atom", f"{what} name")
        decls = getattr(self.out, category)
        if tok.value not in decls:
            raise UnknownReferenceError(tok.line, tok.col,
                                        f"unknown {what} {tok.value!r}", token=tok.value)
        return tok.value, decls[tok.value]

    def element(self, universe: Universe, tok: Token) -> str:
        if tok.value not in universe:
            raise ValidationError(tok.line, tok.col,
                                  f"element {tok.value!r} not in universe", token=tok.value)
        return tok.value

    def elements(self, universe: Universe | None = None) -> Iterator[Token]:
        """Yield the atoms of `{ atom* }`, each checked against `universe`
        if given; the closing brace is read once the atoms run out."""
        self.expect("{")
        while self.peek().kind == "atom":
            t = self.advance()
            if universe is not None:
                self.element(universe, t)
            yield t
        self.expect("}", "element or }")

    def validated(self, kw: Token, build, *args):
        """build(*args), with a domain error reported at the keyword `kw`."""
        try:
            return build(*args)
        except RoughAlgError as e:
            raise ValidationError(kw.line, kw.col, str(e)) from e

    # declarations

    def run(self) -> Scenario:
        while (t := self.peek()).kind != "eof":
            if t.kind != "atom" or t.value not in _DECLS:
                what = "unknown declaration" if t.kind == "atom" else "unexpected token"
                raise ParseError(t.line, t.col, f"{what} {t.value!r}", token=t.value,
                                 expected=_DECLS)
            getattr(self, f"{t.value}_decl")()
        return self.out

    def universe_decl(self) -> None:
        kw = self.advance()
        name = self.declare("universes", "universe")
        self.expect("=")
        labels = [t.value for t in self.elements()]
        self.out.universes[name] = self.validated(kw, make_universe, labels)

    def partition_decl(self) -> None:
        kw = self.advance()
        name = self.declare("partitions", "partition")
        self.expect("atom", value="on")
        uname, universe = self.ref("universes", "universe")
        self.expect("=")
        self.expect("{")
        blocks = []
        while self.peek().kind == "{":
            labels = [t.value for t in self.elements(universe)]
            blocks.append(Subset.from_labels(universe, labels))
        self.expect("}", "{ or }")
        partition = self.validated(kw, make_partition, universe, blocks)
        self.out.partitions[name] = PartitionDecl(uname, partition)

    def set_decl(self) -> None:
        self.advance()
        name = self.declare("sets", "set")
        self.expect("atom", value="on")
        uname, universe = self.ref("universes", "universe")
        self.expect("=")
        labels = [t.value for t in self.elements(universe)]
        self.out.sets[name] = SetDecl(uname, Subset.from_labels(universe, labels))

    def table_decl(self) -> None:
        kw = self.advance()
        name = self.declare("tables", "table")
        self.expect("atom", value="on")
        uname, universe = self.ref("universes", "universe")
        self.expect("atom", value="carrier")
        carrier: list[str] = []
        for t in self.elements(universe):
            if t.value in carrier:
                raise ValidationError(t.line, t.col, f"carrier lists {t.value!r} twice",
                                      token=t.value)
            carrier.append(t.value)
        if not carrier:
            raise ValidationError(kw.line, kw.col, "carrier is empty")
        self.expect("=")
        self.expect("{")
        k = len(carrier)
        rows: dict[tuple[str, str], str | None] = {}
        seen_rows: set[str] = set()
        while self.peek().kind != "}":
            label_tok = self.expect("atom", "row label or }")
            row_label = self.element(universe, label_tok)
            if row_label not in carrier:
                raise ValidationError(label_tok.line, label_tok.col,
                                      f"row label {row_label!r} not in carrier", token=row_label)
            if row_label in seen_rows:
                raise ValidationError(label_tok.line, label_tok.col,
                                      f"row {row_label!r} given twice", token=row_label)
            seen_rows.add(row_label)
            self.expect(":")
            for j, y in enumerate(carrier):
                t = self.peek()
                if t.kind not in ("?", "atom"):
                    raise ArityError(t.line, t.col,
                                     f"row {row_label!r} has {j} cells; expected {k}",
                                     token=t.value, expected=("cell",))
                self.advance()
                rows[(row_label, y)] = INDET if t.kind == "?" else self.element(universe, t)
            t = self.peek()
            if t.kind == "?" or (t.kind == "atom" and self.peek(1).kind != ":"):
                raise ArityError(t.line, t.col,
                                 f"row {row_label!r} has more than {k} cells", token=t.value)
        self.expect("}")
        table = self.validated(kw, make_table, universe, Subset.from_labels(universe, carrier), rows)
        self.out.tables[name] = TableDecl(uname, table)

    def map_decl(self) -> None:
        kw = self.advance()
        name = self.declare("mappings", "map")
        self.expect("atom", value="from")
        from_name, src = self.ref("sets", "set")
        self.expect("atom", value="to")
        to_name, dst = self.ref("sets", "set")
        self.expect("=")
        self.expect("{")
        images: dict[str, str] = {}
        codomain = dst.subset.universe
        while self.peek().kind == "atom":
            a = self.advance()
            self.expect("->")
            b = self.expect("atom", "image element")
            if a.value not in src.subset.universe or not src.subset.contains_label(a.value):
                raise ValidationError(a.line, a.col,
                                      f"{a.value!r} not in the domain set", token=a.value)
            if a.value in images:
                raise ValidationError(a.line, a.col,
                                      f"two images given for {a.value!r}", token=a.value)
            if b.value not in codomain:
                raise ValidationError(b.line, b.col,
                                      f"image {b.value!r} not in the codomain universe",
                                      token=b.value)
            images[a.value] = b.value
        self.expect("}", "element or }")
        mapping = self.validated(kw, make_mapping, src.subset, codomain, images.items(), dst.subset)
        self.out.mappings[name] = MapDecl(from_name, to_name, mapping)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    return _Parser(text).run()


def _words(*words: str) -> str:
    """The words joined by spaces; each must lex back as exactly one atom."""
    for w in words:
        if not re.fullmatch(_ATOM, w):
            raise ValueError(f"{w!r} is not a .ras atom, so it cannot be serialized")
    return " ".join(words)


def _ref(decl: str, ref: str, names_its_object: bool) -> str:
    """`_words(ref)`, where `ref` must name the universe or set that the
    declaration `decl` is built on."""
    word = _words(ref)
    if not names_its_object:
        raise ValueError(f"{decl} is not built on what {ref!r} names, so its text would not re-parse")
    return word


def serialize_scenario(s: Scenario) -> str:
    """Canonical text: sorted names, index-ordered elements, LF newlines.

    Raises ValueError for the first declaration name or universe label that
    would not read back as one atom, and for a declaration built on another
    universe than the one it names, or a map whose domain is not its `from`
    set or whose target is not its `to` set over the codomain.
    """
    lines: list[str] = []

    def on(kind: str, name: str, ref: str, universe: Universe) -> str:
        head = f"{kind} {_words(name)} on "
        return head + _ref(f"{kind} {name!r}", ref, s.universes.get(ref) == universe)

    for name in sorted(s.universes):
        lines.append(f"universe {_words(name)} = {{ {_words(*s.universes[name].labels)} }}")
    for name in sorted(s.partitions):
        d = s.partitions[name]
        blocks = " ".join("{ " + " ".join(b.labels()) + " }" for b in d.partition.blocks)
        lines.append(f"{on('partition', name, d.universe_name, d.partition.universe)} = {{ {blocks} }}")
    for name in sorted(s.sets):
        d = s.sets[name]
        body = " ".join(d.subset.labels())
        inner = f"{{ {body} }}" if body else "{ }"
        lines.append(f"{on('set', name, d.universe_name, d.subset.universe)} = {inner}")
    for name in sorted(s.tables):
        d = s.tables[name]
        tj = table_json(d.table)
        carrier = " ".join(tj["carrier"])
        lines.append(f"{on('table', name, d.universe_name, d.table.universe)} carrier {{ {carrier} }} = {{")
        for lab, row in zip(tj["carrier"], tj["rows"]):
            lines.append(f"  {lab} : {' '.join(row)}")
        lines.append("}")
    for name in sorted(s.mappings):
        d, m = s.mappings[name], s.mappings[name].mapping
        body = " ".join(f"{a} -> {b}" for a, b in m.pairs())
        inner = f"{{ {body} }}" if body else "{ }"
        src, dst = (getattr(s.sets.get(ref), "subset", None) for ref in (d.from_name, d.to_name))
        head = f"map {_words(name)} from {_ref(f'map {name!r}', d.from_name, src == m.domain)} to "
        lines.append(head + _ref(f"map {name!r}", d.to_name, dst == m.target and dst.universe == m.codomain)
                     + f" = {inner}")
    return "\n".join(lines) + ("\n" if lines else "")
