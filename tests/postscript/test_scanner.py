"""Scanner unit tests: tokens, strings, procedures, radix numbers."""

import io
import string
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.postscript.interp import Interp
from repro.postscript.objects import Name, PSArray, PSError, String
from repro.postscript.scanner import EOF, Scanner


def scan_all(text):
    return list(Scanner(text))


class TestNumbers:
    def test_integer(self):
        assert scan_all("42") == [42]

    def test_negative_integer(self):
        assert scan_all("-17") == [-17]

    def test_real(self):
        (obj,) = scan_all("3.5")
        assert obj == 3.5 and isinstance(obj, float)

    def test_real_exponent(self):
        assert scan_all("1.5e3") == [1500.0]

    def test_leading_dot_real(self):
        assert scan_all(".5") == [0.5]

    def test_radix_16(self):
        assert scan_all("16#000023d8") == [0x23D8]

    def test_radix_2(self):
        assert scan_all("2#1010") == [10]

    def test_radix_8(self):
        assert scan_all("8#777") == [0o777]

    def test_bad_radix_digits_raises(self):
        with pytest.raises(PSError):
            scan_all("16#zz")

    def test_number_like_name_is_name(self):
        (obj,) = scan_all("1abc#")
        assert isinstance(obj, Name)


class TestNames:
    def test_executable_name(self):
        (obj,) = scan_all("add")
        assert isinstance(obj, Name) and obj.text == "add" and not obj.literal

    def test_literal_name(self):
        (obj,) = scan_all("/foo")
        assert isinstance(obj, Name) and obj.text == "foo" and obj.literal

    def test_ampersand_name(self):
        """Names like &elemsize from the paper's ARRAY code are ordinary."""
        (obj,) = scan_all("&elemsize")
        assert isinstance(obj, Name) and obj.text == "&elemsize"

    def test_name_with_underscore_and_dot(self):
        (obj,) = scan_all("ExpressionServer.lookup")
        assert obj.text == "ExpressionServer.lookup"

    def test_anchor_symbol_name(self):
        (obj,) = scan_all("/_stanchor__V2935334b_e288a")
        assert obj.text == "_stanchor__V2935334b_e288a" and obj.literal

    def test_names_split_at_delimiters(self):
        objs = scan_all("a/b")
        assert [o.text for o in objs] == ["a", "b"]
        assert not objs[0].literal and objs[1].literal


class TestStrings:
    def test_simple(self):
        (obj,) = scan_all("(hello)")
        assert isinstance(obj, String) and obj.text == "hello"

    def test_nested_parens(self):
        (obj,) = scan_all("(a (b) c)")
        assert obj.text == "a (b) c"

    def test_escapes(self):
        (obj,) = scan_all(r"(a\nb\tc\\d\(e\))")
        assert obj.text == "a\nb\tc\\d(e)"

    def test_octal_escape(self):
        (obj,) = scan_all(r"(\101\102)")
        assert obj.text == "AB"

    def test_line_continuation(self):
        (obj,) = scan_all("(a\\\nb)")
        assert obj.text == "ab"

    def test_multiline_string(self):
        (obj,) = scan_all("(line one\nline two)")
        assert obj.text == "line one\nline two"

    def test_unterminated_raises(self):
        with pytest.raises(PSError):
            scan_all("(oops")

    def test_string_containing_postscript(self):
        """The deferral technique quotes code as a string (Sec. 5)."""
        (obj,) = scan_all("({INT} 30 Regset0 Absolute)")
        assert obj.text == "{INT} 30 Regset0 Absolute"


class TestProcedures:
    def test_flat_procedure(self):
        (obj,) = scan_all("{1 2 add}")
        assert isinstance(obj, PSArray) and not obj.literal
        assert obj.items[0] == 1 and obj.items[1] == 2
        assert obj.items[2].text == "add"

    def test_nested_procedure(self):
        (obj,) = scan_all("{ { 1 } { 2 } ifelse }")
        assert isinstance(obj.items[0], PSArray)
        assert isinstance(obj.items[1], PSArray)

    def test_unmatched_close_raises(self):
        with pytest.raises(PSError):
            scan_all("}")

    def test_unterminated_raises(self):
        with pytest.raises(PSError):
            scan_all("{1 2")


class TestStructure:
    def test_brackets_are_names(self):
        objs = scan_all("[1 2]")
        assert objs[0].text == "[" and objs[-1].text == "]"

    def test_dict_brackets_are_names(self):
        objs = scan_all("<< /a 1 >>")
        assert objs[0].text == "<<" and objs[-1].text == ">>"

    def test_hex_string_rejected(self):
        with pytest.raises(PSError):
            scan_all("<41>")

    def test_comment_skipped(self):
        assert scan_all("1 % comment\n2") == [1, 2]

    def test_comment_at_eof(self):
        assert scan_all("1 % trailing") == [1]

    def test_empty_input(self):
        assert scan_all("") == []

    def test_whitespace_only(self):
        assert scan_all(" \t\n\r ") == []


class TestStreamInput:
    def test_scan_from_stream(self):
        stream = io.StringIO("1 2 add\n(more)\n")
        objs = list(Scanner(stream))
        assert objs[0] == 1 and objs[1] == 2
        assert objs[3].text == "more"

    def test_scan_from_bytes_stream(self):
        stream = io.BytesIO(b"/x 10 def\n")
        objs = list(Scanner(stream))
        assert objs[0].text == "x" and objs[1] == 10

    def test_incremental_objects(self):
        scanner = Scanner(io.StringIO("1 2"))
        assert scanner.next_object() == 1
        assert scanner.next_object() == 2
        assert scanner.next_object() is EOF


class TestRoundTrip:
    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_integers_round_trip(self, n):
        assert scan_all(str(n)) == [n]

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_radix_16_round_trip(self, n):
        assert scan_all("16#%08x" % n) == [n]

    @given(st.text(alphabet=st.characters(blacklist_characters="()\\"),
                   max_size=100))
    def test_plain_strings_round_trip(self, text):
        (obj,) = scan_all("(%s)" % text)
        assert obj.text == text

    @given(st.text(alphabet="abcdefgXYZ&_.0", min_size=1, max_size=30))
    def test_names_round_trip(self, text):
        if text[0].isdigit():
            text = "x" + text
        (obj,) = scan_all("/" + text)
        assert obj.text == text


# -- an oracle that knows nothing of the scanner ------------------------------
#
# Programs are generated as (text, objects) pairs: each piece renders
# itself and says what it stands for, so the expected objects come from
# the generator, never from a scan.

#: a name may not start like a number (digits, sign, dot)
NAME_START = string.ascii_letters + "&_?!*=@$^~|'\"`,;:"
NAME_REST = NAME_START + string.digits + ".#+-"
DIGITS36 = string.digits + string.ascii_lowercase
#: string text that needs no escape (parens and backslash do)
PLAIN = "".join(c for c in string.printable if c not in "()\\") + "\xe9"
COMMENT = "".join(c for c in string.printable if c not in "\n\r")

NAMES = st.builds(lambda first, rest: first + rest,
                  st.sampled_from(NAME_START), st.text(NAME_REST, max_size=8))


def in_base(n, base):
    digits = ""
    while True:
        n, digit = divmod(n, base)
        digits = DIGITS36[digit] + digits
        if not n:
            return digits


ESCAPES = st.one_of(
    st.sampled_from([("\\n", "\n"), ("\\t", "\t"), ("\\r", "\r"),
                     ("\\\\", "\\"), ("\\(", "("), ("\\)", ")"),
                     ("\\\n", ""), ("\\q", "q")]),
    st.integers(0, 255).map(lambda c: ("\\%03o" % c, chr(c))))


def string_body(depth):
    """(rendered body, the text it stands for), parens nested ``depth``
    deep."""
    part = st.one_of(st.text(PLAIN, max_size=12).map(lambda t: (t, t)),
                     ESCAPES)
    if depth:
        part = st.one_of(part, string_body(depth - 1).map(
            lambda body: ("(" + body[0] + ")", "(" + body[1] + ")")))
    return st.lists(part, max_size=5).map(
        lambda parts: ("".join(r for r, _ in parts),
                       "".join(t for _, t in parts)))


ATOMS = st.one_of(
    NAMES.map(lambda n: (n, ("name", n, False))),
    st.tuples(st.sampled_from(["/", "//"]), NAMES).map(
        lambda p: (p[0] + p[1], ("name", p[1], True))),
    st.sampled_from(["[", "]", "<<", ">>"]).map(
        lambda t: (t, ("name", t, False))),
    st.integers(-2**40, 2**40).map(lambda n: (str(n), ("int", n))),
    st.tuples(st.integers(2, 36), st.integers(0, 2**32)).map(
        lambda p: ("%d#%s" % (p[0], in_base(p[1], p[0])), ("int", p[1]))),
    st.floats(allow_nan=False, allow_infinity=False).map(
        lambda x: (repr(x), ("float", x))),
    string_body(2).map(
        lambda body: ("(" + body[0] + ")", ("string", body[1], True))))

SEPARATORS = st.one_of(
    st.sampled_from(["", " ", "\n", "\t", " \r\n ", "\f"]),
    st.text(COMMENT, max_size=10).map(lambda c: " %" + c + "\n"))


@st.composite
def joined(draw, items):
    """Render ``items`` with drawn separators between them; a token
    that runs on (a name or a number) keeps one blank before the next."""
    text = ""
    for rendered, _ in items:
        sep = draw(SEPARATORS)
        if not sep and text and text[-1] not in ")}]>" \
                and rendered[0] not in "({[/<":
            sep = " "
        text += sep + rendered
    return text, [obj for _, obj in items]


def procedures(children):
    return st.lists(children, max_size=5).flatmap(joined).map(
        lambda p: ("{" + p[0] + "}", ("proc", False, p[1])))


ITEMS = st.recursive(ATOMS, procedures, max_leaves=25)


@st.composite
def programs(draw):
    text, objects = draw(st.lists(ITEMS, max_size=12).flatmap(joined))
    return text + draw(st.sampled_from(["", "\n", " % done", "\n%\n"])), \
        objects


def shape(obj):
    if isinstance(obj, Name):
        return ("name", obj.text, obj.literal)
    if isinstance(obj, String):
        return ("string", obj.text, obj.literal)
    if isinstance(obj, PSArray):
        return ("proc", obj.literal, [shape(item) for item in obj.items])
    return (type(obj).__name__, obj)


class Pieces:
    """A stream whose ``readline`` hands the text out piece by piece."""

    def __init__(self, text, cuts=()):
        bounds = sorted({0, len(text), *cuts,
                         *(i + 1 for i, c in enumerate(text) if c == "\n")})
        self.pieces = [text[a:b] for a, b in zip(bounds, bounds[1:])]

    def readline(self):
        return self.pieces.pop(0) if self.pieces else ""


def four_sources(text, cuts):
    return [text, io.StringIO(text), io.BytesIO(text.encode("latin-1")),
            Pieces(text, cuts)]


class TestOracle:
    @settings(deadline=None)
    @given(programs(), st.data())
    def test_every_source_scans_the_generated_objects(self, program, data):
        text, objects = program
        cuts = data.draw(st.sets(st.integers(1, max(1, len(text)))))
        for source in four_sources(text, cuts):
            scanner = Scanner(source)
            assert [shape(obj) for obj in scanner] == objects
            assert scanner.src.line == text.count("\n") + 1

    @pytest.mark.parametrize("text, message", [
        (")", "unmatched ) at line 1"),
        ("1\n2 (x)\n)", "unmatched ) at line 3"),
        ("a\n\n}", "unmatched } at line 3"),
        ("(abc", "unterminated string"),
        ("(a\\\n", "unterminated string"),
        ("(\\12", "unterminated string"),
        ("x (a(b)", "unterminated string"),
        ("(\\", "unterminated string escape"),
        ("{1 {2}", "unterminated procedure"),
        ("<41>", "hex strings are not in the dialect"),
        ("1 <", "hex strings are not in the dialect"),
        ("\n\n>x", "stray > at line 3"),
        ("16#zz", "bad radix number '16#zz'"),
        ("2#102", "bad radix number '2#102'"),
    ])
    def test_malformed_input_gives_the_same_error_from_every_source(
            self, text, message):
        for source in four_sources(text, range(1, len(text))):
            outcome = []

            def scan():
                try:
                    list(Scanner(source))
                except PSError as err:
                    outcome.append(err)

            # on a thread, so a scan that never ends fails the test
            # instead of hanging the suite
            thread = threading.Thread(target=scan, daemon=True)
            thread.start()
            thread.join(10)
            assert not thread.is_alive(), "the scan did not finish"
            (err,) = outcome
            assert (err.errname, err.detail) == ("syntaxerror", message)


# -- number syntax, shared by the scanner and cvi/cvr --------------------------

#: (token, what it scans as): ASCII PostScript numerals are numbers, and
#: any other token that starts like one is a name
NUMERALS = [
    ("0", ("int", 0)), ("-0", ("int", 0)), ("+5", ("int", 5)),
    ("007", ("int", 7)), ("1.", ("float", 1.0)), ("-.5", ("float", -0.5)),
    ("1e3", ("float", 1000.0)), ("+1.5E-2", ("float", 0.015)),
    ("16#ff", ("int", 255)), ("16#FF", ("int", 255)),
    ("36#zz", ("int", 1295)), ("2#101", ("int", 5)),
] + [(text, ("name", text, False)) for text in [
    "1_0", "1_000.5", "+inf", "-inf", "-nan", "+infinity", "٣",
    "١٢", "0x10", "1e", "1e+", ".", "+", "-.", "1.2.3", "1e1.5",
    "+16#ff", "16#", "37#1", "1#1",
]]

#: radix numbers whose digits do not fit the base
BAD_RADIX = ["16#zz", "2#102", "16#f_f", "16#-1", "16#0x10", "2#0b1", "8#0o7",
             "10#٣"]


def number_sources(text):
    """The four oracle sources; a stream of bytes is read as Latin-1,
    which holds no other script's digits, so those skip it."""
    cuts = range(1, len(text))
    if text.isascii():
        return four_sources(text, cuts)
    return [text, io.StringIO(text), Pieces(text, cuts)]


def convert(text, op):
    """``(text) op`` on a bare interpreter: the value, or the error."""
    interp = Interp(stdout=io.StringIO())
    interp.push(String(text))
    try:
        interp.execute(interp.systemdict[op])
    except PSError as err:
        return err
    return interp.pop()


class TestNumberSyntax:
    @pytest.mark.parametrize("text, scanned", NUMERALS)
    def test_every_source_scans_the_same(self, text, scanned):
        for source in number_sources(text):
            assert [shape(obj) for obj in Scanner(source)] == [scanned]

    @pytest.mark.parametrize("text", BAD_RADIX)
    def test_bad_radix_digits_raise_from_every_source(self, text):
        for source in number_sources(text):
            with pytest.raises(PSError) as info:
                list(Scanner(source))
            assert (info.value.errname, info.value.detail) == \
                ("syntaxerror", "bad radix number %r" % text)

    @pytest.mark.parametrize("text, scanned", NUMERALS)
    def test_cvi_and_cvr_take_what_the_scanner_takes(self, text, scanned):
        if scanned[0] == "name":
            for op in ("cvi", "cvr"):
                err = convert(text, op)
                assert isinstance(err, PSError)
                assert (err.errname, err.detail) == \
                    ("syntaxerror", "%s of %r" % (op, text))
            return
        value = scanned[1]
        assert convert(text, "cvi") == int(value)
        real = convert(text, "cvr")
        assert real == float(value) and isinstance(real, float)

    @pytest.mark.parametrize("text", BAD_RADIX)
    def test_cvi_and_cvr_reject_bad_radix_digits(self, text):
        for op in ("cvi", "cvr"):
            err = convert(text, op)
            assert (err.errname, err.detail) == \
                ("syntaxerror", "bad radix number %r" % text)

    @pytest.mark.parametrize("source, errname", [
        ("(1e999) cvi", "rangecheck"),
        ("1e999 cvi", "rangecheck"),
        ("(%s) cvr" % ("9" * 400), "rangecheck"),
    ])
    def test_conversions_out_of_range(self, source, errname):
        interp = Interp(stdout=io.StringIO())
        with pytest.raises(PSError) as info:
            interp.run(source)
        assert info.value.errname == errname

    def test_numbers_past_the_digit_limit(self):
        (obj,) = scan_all("9" * 5000)
        assert obj == float("inf")
        (obj,) = scan_all("1" * 5000 + "#1")
        assert isinstance(obj, Name)
        with pytest.raises(PSError) as info:
            scan_all("10#" + "9" * 5000)
        assert info.value.detail.startswith("bad radix number")
