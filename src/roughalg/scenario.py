"""Parser and serializer for the `.ras` scenario format.

Line-oriented grammar; `#` starts a comment, tokens are whitespace
separated, and `{ } : = ? ->` self-delimit.  Element atoms are any other
token.

    universe NAME = { atom+ }
    partition NAME on UNIV = { { atom+ }+ }
    set NAME on UNIV = { atom* }
    table NAME on UNIV carrier { atom+ } = { (atom : cell+)+ }
    map NAME from SETNAME to SETNAME = { (atom -> atom)+ }

Table rows are positional: one row per carrier element, cells in carrier
declaration order; a `?` cell is an indeterminate entry.  Every diagnostic
carries a 1-based line and column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .approx import Partition, Subset, Universe, make_partition, make_universe
from .algebra import INDET, OpTable, make_table
from .errors import RoughAlgError
from .morphisms import Mapping, make_mapping
from .report import table_json


class ParseError(RoughAlgError):
    """Diagnostic with position, offending token and expected-token set."""

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


_SPECIALS = "{}:=?"


def _tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in _SPECIALS:
            toks.append(Token(c, c, line, col))
            i += 1
            col += 1
            continue
        if text.startswith("->", i):
            toks.append(Token("->", "->", line, col))
            i += 2
            col += 2
            continue
        if ord(c) < 32 or ord(c) == 127:
            raise LexError(line, col, f"control character {c!r}", token=c)
        start_col = col
        j = i
        while j < n:
            cj = text[j]
            if cj in _SPECIALS or cj in " \t\r\n#" or text.startswith("->", j):
                break
            if ord(cj) < 32 or ord(cj) == 127:
                break
            j += 1
        toks.append(Token("atom", text[i:j], line, start_col))
        col += j - i
        i = j
    toks.append(Token("eof", "", line, col))
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
    """Named universes, partitions, sets, tables and mappings.

    Equality is structural; source spans are bookkeeping only.
    """

    universes: dict[str, Universe] = field(default_factory=dict)
    partitions: dict[str, PartitionDecl] = field(default_factory=dict)
    sets: dict[str, SetDecl] = field(default_factory=dict)
    tables: dict[str, TableDecl] = field(default_factory=dict)
    mappings: dict[str, MapDecl] = field(default_factory=dict)
    spans: dict[tuple[str, str], tuple[int, int]] = field(default_factory=dict, compare=False)

    def is_empty(self) -> bool:
        return not (self.universes or self.partitions or self.sets or self.tables or self.mappings)


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

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(t.line, t.col, f"unexpected {self._show(t)}",
                             token=t.value, expected=(what or kind,))
        return self.advance()

    def expect_atom(self, what: str) -> Token:
        t = self.peek()
        if t.kind != "atom":
            raise ParseError(t.line, t.col, f"unexpected {self._show(t)}",
                             token=t.value, expected=(what,))
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        t = self.peek()
        if t.kind != "atom" or t.value != word:
            raise ParseError(t.line, t.col, f"unexpected {self._show(t)}",
                             token=t.value, expected=(word,))
        return self.advance()

    @staticmethod
    def _show(t: Token) -> str:
        return "end of input" if t.kind == "eof" else f"token {t.value!r}"

    # reference and name helpers

    def declare(self, category: str, tok: Token) -> str:
        table = getattr(self.out, category)
        if tok.value in table:
            raise DuplicateNameError(tok.line, tok.col,
                                     f"{category[:-1]} {tok.value!r} already declared",
                                     token=tok.value)
        self.out.spans[(category, tok.value)] = (tok.line, tok.col)
        return tok.value

    def ref_universe(self, tok: Token) -> Universe:
        if tok.value not in self.out.universes:
            raise UnknownReferenceError(tok.line, tok.col,
                                        f"unknown universe {tok.value!r}", token=tok.value)
        return self.out.universes[tok.value]

    def ref_set(self, tok: Token) -> SetDecl:
        if tok.value not in self.out.sets:
            raise UnknownReferenceError(tok.line, tok.col,
                                        f"unknown set {tok.value!r}", token=tok.value)
        return self.out.sets[tok.value]

    def element(self, universe: Universe, tok: Token) -> str:
        if tok.value not in universe:
            raise ValidationError(tok.line, tok.col,
                                  f"element {tok.value!r} not in universe", token=tok.value)
        return tok.value

    # declarations

    def run(self) -> Scenario:
        while True:
            t = self.peek()
            if t.kind == "eof":
                return self.out
            if t.kind != "atom":
                raise ParseError(t.line, t.col, f"unexpected {self._show(t)}",
                                 token=t.value,
                                 expected=("universe", "partition", "set", "table", "map"))
            if t.value == "universe":
                self.universe_decl()
            elif t.value == "partition":
                self.partition_decl()
            elif t.value == "set":
                self.set_decl()
            elif t.value == "table":
                self.table_decl()
            elif t.value == "map":
                self.map_decl()
            else:
                raise ParseError(t.line, t.col, f"unknown declaration {t.value!r}",
                                 token=t.value,
                                 expected=("universe", "partition", "set", "table", "map"))

    def universe_decl(self) -> None:
        kw = self.advance()
        name = self.declare("universes", self.expect_atom("universe name"))
        self.expect("=")
        self.expect("{")
        labels = []
        while self.peek().kind == "atom":
            labels.append(self.advance().value)
        self.expect("}", "element or }")
        try:
            self.out.universes[name] = make_universe(labels)
        except RoughAlgError as e:
            raise ValidationError(kw.line, kw.col, str(e)) from e

    def partition_decl(self) -> None:
        kw = self.advance()
        name = self.declare("partitions", self.expect_atom("partition name"))
        self.expect_keyword("on")
        utok = self.expect_atom("universe name")
        universe = self.ref_universe(utok)
        self.expect("=")
        self.expect("{")
        blocks = []
        while self.peek().kind == "{":
            self.advance()
            labels = []
            while self.peek().kind == "atom":
                labels.append(self.element(universe, self.advance()))
            self.expect("}", "element or }")
            blocks.append(Subset.from_labels(universe, labels))
        self.expect("}", "{ or }")
        try:
            partition = make_partition(universe, blocks)
        except RoughAlgError as e:
            raise ValidationError(kw.line, kw.col, str(e)) from e
        self.out.partitions[name] = PartitionDecl(utok.value, partition)

    def set_decl(self) -> None:
        self.advance()
        name = self.declare("sets", self.expect_atom("set name"))
        self.expect_keyword("on")
        utok = self.expect_atom("universe name")
        universe = self.ref_universe(utok)
        self.expect("=")
        self.expect("{")
        labels = []
        while self.peek().kind == "atom":
            labels.append(self.element(universe, self.advance()))
        self.expect("}", "element or }")
        self.out.sets[name] = SetDecl(utok.value, Subset.from_labels(universe, labels))

    def table_decl(self) -> None:
        kw = self.advance()
        name = self.declare("tables", self.expect_atom("table name"))
        self.expect_keyword("on")
        utok = self.expect_atom("universe name")
        universe = self.ref_universe(utok)
        self.expect_keyword("carrier")
        self.expect("{")
        carrier_labels: list[str] = []
        while self.peek().kind == "atom":
            t = self.advance()
            lab = self.element(universe, t)
            if lab in carrier_labels:
                raise ValidationError(t.line, t.col, f"carrier lists {lab!r} twice", token=lab)
            carrier_labels.append(lab)
        self.expect("}", "element or }")
        if not carrier_labels:
            raise ValidationError(kw.line, kw.col, "carrier is empty")
        self.expect("=")
        self.expect("{")
        k = len(carrier_labels)
        rows: dict[tuple[str, str], str | None] = {}
        seen_rows: set[str] = set()
        while self.peek().kind != "}":
            label_tok = self.expect_atom("row label or }")
            row_label = self.element(universe, label_tok)
            if row_label not in carrier_labels:
                raise ValidationError(label_tok.line, label_tok.col,
                                      f"row label {row_label!r} not in carrier", token=row_label)
            if row_label in seen_rows:
                raise ValidationError(label_tok.line, label_tok.col,
                                      f"row {row_label!r} given twice", token=row_label)
            seen_rows.add(row_label)
            self.expect(":")
            for j in range(k):
                t = self.peek()
                if t.kind == "?":
                    self.advance()
                    rows[(row_label, carrier_labels[j])] = INDET
                elif t.kind == "atom":
                    self.advance()
                    rows[(row_label, carrier_labels[j])] = self.element(universe, t)
                else:
                    raise ArityError(t.line, t.col,
                                     f"row {row_label!r} has {j} cells; expected {k}",
                                     token=t.value, expected=("cell",))
            t = self.peek()
            if t.kind == "?" or (t.kind == "atom" and self.peek(1).kind != ":"):
                raise ArityError(t.line, t.col,
                                 f"row {row_label!r} has more than {k} cells", token=t.value)
        self.expect("}")
        try:
            table = make_table(universe, Subset.from_labels(universe, carrier_labels), rows)
        except RoughAlgError as e:
            raise ValidationError(kw.line, kw.col, str(e)) from e
        self.out.tables[name] = TableDecl(utok.value, table)

    def map_decl(self) -> None:
        kw = self.advance()
        name = self.declare("mappings", self.expect_atom("map name"))
        self.expect_keyword("from")
        from_tok = self.expect_atom("set name")
        src = self.ref_set(from_tok)
        self.expect_keyword("to")
        to_tok = self.expect_atom("set name")
        dst = self.ref_set(to_tok)
        self.expect("=")
        self.expect("{")
        pairs: list[tuple[str, str]] = []
        seen: set[str] = set()
        codomain = dst.subset.universe
        while self.peek().kind == "atom":
            a = self.advance()
            self.expect("->")
            b = self.expect_atom("image element")
            if a.value not in src.subset.universe or not src.subset.contains_label(a.value):
                raise ValidationError(a.line, a.col,
                                      f"{a.value!r} not in the domain set", token=a.value)
            if a.value in seen:
                raise ValidationError(a.line, a.col,
                                      f"two images given for {a.value!r}", token=a.value)
            seen.add(a.value)
            if b.value not in codomain:
                raise ValidationError(b.line, b.col,
                                      f"image {b.value!r} not in the codomain universe",
                                      token=b.value)
            pairs.append((a.value, b.value))
        self.expect("}", "element or }")
        try:
            mapping = make_mapping(src.subset, codomain, pairs, target=dst.subset)
        except RoughAlgError as e:
            raise ValidationError(kw.line, kw.col, str(e)) from e
        self.out.mappings[name] = MapDecl(from_tok.value, to_tok.value, mapping)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    return _Parser(text).run()


def serialize_scenario(s: Scenario) -> str:
    """Canonical text: sorted names, index-ordered elements, LF newlines."""
    lines: list[str] = []
    for name in sorted(s.universes):
        u = s.universes[name]
        lines.append(f"universe {name} = {{ {' '.join(u.labels)} }}")
    for name in sorted(s.partitions):
        d = s.partitions[name]
        blocks = " ".join("{ " + " ".join(b.labels()) + " }" for b in d.partition.blocks)
        lines.append(f"partition {name} on {d.universe_name} = {{ {blocks} }}")
    for name in sorted(s.sets):
        d = s.sets[name]
        body = " ".join(d.subset.labels())
        inner = f"{{ {body} }}" if body else "{ }"
        lines.append(f"set {name} on {d.universe_name} = {inner}")
    for name in sorted(s.tables):
        d = s.tables[name]
        tj = table_json(d.table)
        carrier = " ".join(tj["carrier"])
        lines.append(f"table {name} on {d.universe_name} carrier {{ {carrier} }} = {{")
        for lab, row in zip(tj["carrier"], tj["rows"]):
            lines.append(f"  {lab} : {' '.join(row)}")
        lines.append("}")
    for name in sorted(s.mappings):
        d = s.mappings[name]
        body = " ".join(f"{a} -> {b}" for a, b in d.mapping.pairs())
        inner = f"{{ {body} }}" if body else "{ }"
        lines.append(f"map {name} from {d.from_name} to {d.to_name} = {inner}")
    return "\n".join(lines) + ("\n" if lines else "")
