import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from roughalg import (
    EXAMPLE31_RAS,
    INDET,
    Scenario,
    Subset,
    make_universe,
    parse_scenario,
    serialize_scenario,
)
from roughalg.scenario import (
    ArityError,
    DuplicateNameError,
    LexError,
    ParseError,
    SetDecl,
    UnknownReferenceError,
    ValidationError,
    _tokenize,
)

from conftest import tokenize_oracle


def test_parse_bundled_fixture():
    s = parse_scenario(EXAMPLE31_RAS)
    assert s.universes["U"].labels == ("1", "2", "3", "4", "5", "6")
    p = s.partitions["P"].partition
    assert [b.labels() for b in p.blocks] == [("1", "2", "3"), ("4",), ("5",), ("6",)]
    assert s.sets["A"].subset.labels() == ("1", "2", "5")
    ta = s.tables["TA"].table
    assert ta.carrier.labels() == ("1", "2", "5")
    assert ta.product("1", "1") == "4"
    assert ta.product("2", "5") == "3"
    assert ta.product("5", "5") == "6"
    assert s.mappings == {}


def test_empty_input():
    s = parse_scenario("")
    assert s.is_empty()
    assert s == Scenario()
    assert serialize_scenario(s) == ""


def test_comments_and_crlf():
    text = "universe U = { a b } # trailing\r\n# whole line\r\nset S on U = { a }\r\n"
    s = parse_scenario(text)
    assert s.sets["S"].subset.labels() == ("a",)


def test_indeterminate_cells_roundtrip():
    text = (
        "universe U = { 1 2 }\n"
        "table T on U carrier { 1 2 } = {\n"
        "  1 : ? 2\n"
        "  2 : 1 ?\n"
        "}\n"
    )
    s = parse_scenario(text)
    t = s.tables["T"].table
    assert t.product("1", "1") is INDET
    assert t.product("1", "2") == "2"
    out = serialize_scenario(s)
    assert "1 : ? 2" in out
    assert parse_scenario(out) == s


def test_arity_error_short_row():
    text = "universe U = { 1 2 }\ntable T on U carrier { 1 2 } = { 1 : 1 }\n"
    with pytest.raises(ArityError) as e:
        parse_scenario(text)
    assert (e.value.line, e.value.col) == (2, 40)  # the closing brace token


def test_arity_error_long_row():
    text = (
        "universe U = { 1 2 }\n"
        "table T on U carrier { 1 2 } = {\n"
        "  1 : 1 2 1\n"
        "  2 : 1 2\n"
        "}\n"
    )
    with pytest.raises(ArityError) as e:
        parse_scenario(text)
    assert e.value.line == 3


def test_missing_row_is_validation_error():
    text = "universe U = { 1 2 }\ntable T on U carrier { 1 2 } = { 1 : 1 2 }\n"
    with pytest.raises(ValidationError):
        parse_scenario(text)


def test_unknown_reference_and_duplicate_name():
    with pytest.raises(UnknownReferenceError) as e:
        parse_scenario("set S on U = { }")
    assert e.value.token == "U"
    with pytest.raises(DuplicateNameError):
        parse_scenario("universe U = { a }\nuniverse U = { b }\n")


def test_validation_errors_carry_position():
    with pytest.raises(ValidationError) as e:
        parse_scenario("universe U = { 1 2 3 }\npartition P on U = { { 1 2 } }\n")
    assert e.value.line == 2 and e.value.col == 1
    with pytest.raises(ValidationError) as e:
        parse_scenario("universe U = { 1 }\nset S on U = { 2 }\n")
    assert (e.value.line, e.value.col, e.value.token) == (2, 16, "2")


def test_lex_error_on_control_chars():
    with pytest.raises(LexError):
        parse_scenario("universe U = { a \x01 }")


def test_diagnostic_expected_sets():
    with pytest.raises(ParseError) as e:
        parse_scenario("partition = x")
    assert e.value.expected == ("partition name",)
    with pytest.raises(ParseError) as e:
        parse_scenario("frobnicate U = { }")
    assert "universe" in e.value.expected


_U12 = "universe U = { 1 2 }\n"
_MAP = _U12 + "set D on U = { 1 }\nset T on U = { 2 }\n"
_KEYWORDS = ("universe", "partition", "set", "table", "map")

# One input per raise site in roughalg.scenario, with the full diagnostic:
# (exception type, line, col, message, token, expected).
_DIAGNOSTICS = [
    ('lex-control', 'universe U = { a \x01 }',
     LexError, 1, 18, "control character '\\x01'", '\x01', ()),
    ('lex-control-after-tab-cr', 'set\t\r\x7f',
     LexError, 1, 6, "control character '\\x7f'", '\x7f', ()),
    ('expect-kind', 'universe U { a }',
     ParseError, 1, 12, "unexpected token '{'", '{', ('=',)),
    ('expect-kind-what', 'universe U = { a = }',
     ParseError, 1, 18, "unexpected token '='", '=', ('element or }',)),
    ('expect-end-of-input', 'universe U = {',
     ParseError, 1, 15, 'unexpected end of input', '', ('element or }',)),
    ('expect-atom', 'partition = x',
     ParseError, 1, 11, "unexpected token '='", '=', ('partition name',)),
    ('expect-keyword', 'set S in U = { }',
     ParseError, 1, 7, "unexpected token 'in'", 'in', ('on',)),
    ('top-level-non-atom', 'universe U = { a }\n}',
     ParseError, 2, 1, "unexpected token '}'", '}', _KEYWORDS),
    ('unknown-declaration', 'frobnicate U = { }',
     ParseError, 1, 1, "unknown declaration 'frobnicate'", 'frobnicate', _KEYWORDS),
    ('duplicate-name', 'universe U = { a }\nuniverse U = { b }\n',
     DuplicateNameError, 2, 10, "universe 'U' already declared", 'U', ()),
    ('unknown-universe', 'set S on V = { }',
     UnknownReferenceError, 1, 10, "unknown universe 'V'", 'V', ()),
    ('unknown-set', _MAP + 'map M from D to X = { }',
     UnknownReferenceError, 4, 17, "unknown set 'X'", 'X', ()),
    ('element-not-in-universe', 'universe U = { 1 }\nset S on U = { 2 }\n',
     ValidationError, 2, 16, "element '2' not in universe", '2', ()),
    ('carrier-twice', _U12 + 'table T on U carrier { 1 1 } = { }',
     ValidationError, 2, 26, "carrier lists '1' twice", '1', ()),
    ('carrier-empty', _U12 + 'table T on U carrier { } = { }',
     ValidationError, 2, 1, 'carrier is empty', None, ()),
    ('row-label-not-in-carrier', _U12 + 'table T on U carrier { 1 } = { 2 : 1 }',
     ValidationError, 2, 32, "row label '2' not in carrier", '2', ()),
    ('row-twice', _U12 + 'table T on U carrier { 1 } = { 1 : 1\n  1 : 2 }',
     ValidationError, 3, 3, "row '1' given twice", '1', ()),
    ('short-row', _U12 + 'table T on U carrier { 1 2 } = { 1 : 1 }',
     ArityError, 2, 40, "row '1' has 1 cells; expected 2", '}', ('cell',)),
    ('long-row', _U12 + 'table T on U carrier { 1 2 } = { 1 : 1 2 ? }',
     ArityError, 2, 42, "row '1' has more than 2 cells", '?', ()),
    ('map-domain', _MAP + 'map M from D to T = { 2 -> 2 }',
     ValidationError, 4, 23, "'2' not in the domain set", '2', ()),
    ('map-two-images', _MAP + 'map M from D to T = { 1 -> 2 1 -> 2 }',
     ValidationError, 4, 30, "two images given for '1'", '1', ()),
    ('map-image-codomain', _MAP + 'map M from D to T = { 1 -> 9 }',
     ValidationError, 4, 28, "image '9' not in the codomain universe", '9', ()),
    ('map-domain-outside-universe', _MAP + 'map M from D to T = { 7 -> 2 }',
     ValidationError, 4, 23, "'7' not in the domain set", '7', ()),
    ('map-arrow', _MAP + 'map M from D to T = { 1 2 }',
     ParseError, 4, 25, "unexpected token '2'", '2', ('->',)),
    ('map-image-atom', _MAP + 'map M from D to T = { 1 -> }',
     ParseError, 4, 28, "unexpected token '}'", '}', ('image element',)),
    ('long-row-atom', _U12 + 'table T on U carrier { 1 2 } = { 1 : 1 2 1 }',
     ArityError, 2, 42, "row '1' has more than 2 cells", '1', ()),
    ('eof-after-trailing-comment', 'universe U = { a   # no newline',
     ParseError, 1, 20, 'unexpected end of input', '', ('element or }',)),
    ('control-character-in-comment', '# \x01\nset',
     ParseError, 2, 4, 'unexpected end of input', '', ('set name',)),
    ('make-universe', 'universe U = { a b a }',
     ValidationError, 1, 1, "duplicate element 'a'", None, ()),
    ('make-partition', 'universe U = { 1 2 3 }\npartition P on U = { { 1 2 } }\n',
     ValidationError, 2, 1, 'cover misses {3}', None, ()),
    ('make-table', _U12 + 'table T on U carrier { 1 2 } = { 1 : 1 2 }',
     ValidationError, 2, 1, 'no entry for (2, 1)', None, ()),
    ('make-mapping', _MAP + 'map M from D to T = { }',
     ValidationError, 4, 1, "no image for '1'", None, ()),
]


@pytest.mark.parametrize("text,exc,line,col,message,token,expected",
                         [case[1:] for case in _DIAGNOSTICS],
                         ids=[case[0] for case in _DIAGNOSTICS])
def test_diagnostic_goldens(text, exc, line, col, message, token, expected):
    with pytest.raises(ParseError) as e:
        parse_scenario(text)
    got = e.value
    assert type(got) is exc
    assert (got.line, got.col, got.message, got.token, got.expected) == (
        line, col, message, token, expected)


def test_map_parsing_and_roundtrip():
    text = (
        "universe U = { 1 2 }\n"
        "universe V = { a b }\n"
        "set D on U = { 1 2 }\n"
        "set T on V = { a b }\n"
        "map M from D to T = { 1 -> a 2 -> b }\n"
    )
    s = parse_scenario(text)
    m = s.mappings["M"].mapping
    assert m.apply("1") == "a" and m.apply("2") == "b"
    assert m.target.labels() == ("a", "b")
    assert parse_scenario(serialize_scenario(s)) == s


def test_map_validation():
    base = (
        "universe U = { 1 2 }\n"
        "set D on U = { 1 }\n"
        "set T on U = { 2 }\n"
    )
    with pytest.raises(ValidationError):
        parse_scenario(base + "map M from D to T = { 2 -> 2 }")  # 2 not in D
    with pytest.raises(ValidationError):
        parse_scenario(base + "map M from D to T = { 1 -> 1 1 -> 2 }")
    with pytest.raises(ValidationError):
        parse_scenario(base + "map M from D to T = { }")  # missing pair for 1


def test_empty_domain_mapping_roundtrip():
    # degenerate but valid: a map whose domain set is empty
    text = (
        "universe U = { 1 }\n"
        "set D on U = { }\n"
        "set T on U = { 1 }\n"
        "map M from D to T = { }\n"
    )
    s = parse_scenario(text)
    assert s.mappings["M"].mapping.pairs() == ()
    out = serialize_scenario(s)
    assert parse_scenario(out) == s and "{  }" not in out


def test_serialize_idempotent_and_canonical():
    s = parse_scenario(EXAMPLE31_RAS)
    once = serialize_scenario(s)
    assert serialize_scenario(parse_scenario(once)) == once
    # canonical output drops comments and normalizes whitespace
    assert "#" not in once
    assert once.endswith("\n") and "\r" not in once


def test_atoms_may_glue_to_braces():
    s = parse_scenario("universe U = {1 2 3}\npartition P on U = {{1 2}{3}}\n")
    assert [b.labels() for b in s.partitions["P"].partition.blocks] == [("1", "2"), ("3",)]


def test_arrow_splits_tokens():
    text = (
        "universe U = { x->y z }\n"
    )
    # '->' always self-delimits, so the universe has three atoms; 'x', 'y'
    # parse as elements and the arrow itself is a syntax error here
    with pytest.raises(ParseError):
        parse_scenario(text)


# Symbols, blanks, atom characters, every kind of control character, and
# characters that other tools treat as blanks or line breaks.
_LEX_ALPHABET = (list("{}:=?->#") + [" ", "\t", "\r", "\n", "a", "Z", "0", "9"]
                 + ["\x00", "\x01", "\x0b", "\x0c", "\x1f", "\x7f", "\xa0", "é", "\u2028"])


def _lexed(tokenize, text):
    try:
        return tokenize(text)
    except LexError as e:
        return (e.line, e.col, e.message, e.token)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=_LEX_ALPHABET, max_size=40),
       st.none() | st.text(alphabet=[c for c in _LEX_ALPHABET if c != "\n"], max_size=8))
@example("a  # trailing comment", None)
@example("x->y a-->b -", None)
def test_lexer_matches_reference(text, trailing_comment):
    # a comment with no newline after it ends the text; eof sits at its `#`
    if trailing_comment is not None:
        text += "#" + trailing_comment
    assert _lexed(_tokenize, text) == _lexed(tokenize_oracle, text)


@pytest.mark.parametrize("label", ["a b", "x->y", "#1", "{", ""])
def test_serialize_rejects_labels_that_are_not_atoms(label):
    s = Scenario(universes={"U": make_universe([label, "c"])})
    with pytest.raises(ValueError, match=f"^{re.escape(repr(label))} "):
        serialize_scenario(s)


def test_serialize_rejects_names_that_are_not_atoms():
    text = "universe U = { 1 }\nset D on U = { 1 }\nmap M from D to D = { 1 -> 1 }\n"
    edits = {
        "U 2": lambda s: s.universes.update({"U 2": s.universes["U"]}),
        "x->y": lambda s: s.sets.update(D=replace(s.sets["D"], universe_name="x->y")),
        "#D": lambda s: s.mappings.update(M=replace(s.mappings["M"], from_name="#D")),
        "": lambda s: s.mappings.update(M=replace(s.mappings["M"], to_name="")),
    }
    for bad, edit in edits.items():
        s = parse_scenario(text)
        edit(s)
        with pytest.raises(ValueError, match=f"^{re.escape(repr(bad))} "):
            serialize_scenario(s)


def test_serialize_rejects_declarations_not_built_on_what_they_name():
    # each would serialize to text that does not re-parse, or re-parses to another scenario
    u, one, v = make_universe(["1", "2"]), make_universe(["1"]), make_universe(["x"])
    text = "universe U = { 1 2 }\nset D on U = { 1 }\nset E on U = { 1 2 }\nmap M from D to E = { 1 -> 2 }\n"

    def edited(edit):
        s = parse_scenario(text)
        edit(s)
        return s

    def remap(s, **changes):
        s.mappings["M"] = replace(s.mappings["M"], **changes)

    def target_over_v(s):
        s.universes["V"] = v
        s.sets["T"] = SetDecl("V", Subset.full(v))
        remap(s, to_name="T", mapping=replace(s.mappings["M"].mapping, target=Subset.full(v)))

    cases = [
        # `set S on V`, with no universe V
        ("set 'S'", Scenario(universes={"U": u}, sets={"S": SetDecl("V", Subset.full(u))})),
        # a two-element set on a one-element U
        ("set 'S'", Scenario(universes={"U": one}, sets={"S": SetDecl("U", Subset.full(u))})),
        ("map 'M'", edited(lambda s: remap(s, from_name="E"))),  # E is not the domain
        ("map 'M'", edited(lambda s: remap(s, to_name="D"))),  # D is not the target
        ("map 'M'", edited(lambda s: remap(s, to_name="Z"))),  # no set Z
        ("map 'M'", edited(target_over_v)),  # the target T is not over the codomain U
    ]
    for decl, s in cases:
        with pytest.raises(ValueError, match=f"^{decl} is not built on"):
            serialize_scenario(s)
    assert parse_scenario(serialize_scenario(parse_scenario(text))) == parse_scenario(text)


def test_serialize_keeps_labels_that_are_atoms():
    s = Scenario(universes={"U": make_universe(["a-", "-", ">", "x>y", "é", "a\xa0b"])})
    assert parse_scenario(serialize_scenario(s)) == s


_atom = st.text(alphabet="abcxyz0189_-", min_size=1, max_size=4).filter(
    lambda s: "->" not in s)


@st.composite
def scenarios(draw):
    import random as _random

    from roughalg import Subset, make_partition, make_table, make_universe
    from roughalg.morphisms import make_mapping
    from roughalg.scenario import MapDecl, PartitionDecl, SetDecl, TableDecl

    rng = _random.Random(draw(st.integers(0, 2**30)))
    labels = sorted(draw(st.sets(_atom, min_size=1, max_size=5)))
    u = make_universe(labels)
    s = Scenario()
    s.universes["U"] = u

    rgs = [0]
    for _ in range(u.size - 1):
        rgs.append(rng.randint(0, max(rgs) + 1))
    blocks = [Subset.from_indices(u, [i for i, v in enumerate(rgs) if v == b])
              for b in range(max(rgs) + 1)]
    s.partitions["P"] = PartitionDecl("U", make_partition(u, blocks))

    s.sets["S0"] = SetDecl("U", Subset(u, rng.randrange(1 << u.size)))
    s.sets["S1"] = SetDecl("U", Subset(u, rng.randrange(1 << u.size)))

    carrier_mask = rng.randrange(1, 1 << u.size)
    carrier = Subset(u, carrier_mask)
    rows = {}
    for x in carrier.labels():
        for y in carrier.labels():
            rows[(x, y)] = None if rng.random() < 0.2 else rng.choice(labels)
    s.tables["T"] = TableDecl("U", make_table(u, carrier, rows))

    if s.sets["S0"].subset and s.sets["S1"].subset:
        dst = s.sets["S1"].subset
        pairs = [(x, rng.choice(dst.labels())) for x in s.sets["S0"].subset.labels()]
        s.mappings["M"] = MapDecl("S0", "S1", make_mapping(
            s.sets["S0"].subset, u, pairs, target=dst))
    return s


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_generated_scenarios_roundtrip(s):
    text = serialize_scenario(s)
    again = parse_scenario(text)
    assert again == s
    assert serialize_scenario(again) == text


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
def test_fuzz_never_crashes(text):
    try:
        s = parse_scenario(text)
    except ParseError as e:
        assert e.line >= 1 and e.col >= 1
    else:
        assert isinstance(s, Scenario)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=60))
def test_fuzz_binary_never_crashes(blob):
    try:
        s = parse_scenario(blob.decode("latin-1"))
    except ParseError:
        pass
    else:
        assert isinstance(s, Scenario)
