"""Operator tests: arithmetic, comparison, arrays, strings, conversions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.postscript import Interp, Name, PSArray, PSError, String


def _fresh_interp():
    import io
    return Interp(stdout=io.StringIO())


class TestArithmetic:
    @pytest.mark.parametrize("src,expected", [
        ("1 2 add", 3),
        ("5 3 sub", 2),
        ("4 6 mul", 24),
        ("7 2 idiv", 3),
        ("-7 2 idiv", -3),
        ("7 -2 idiv", -3),
        ("7 3 mod", 1),
        ("-7 3 mod", -1),
        ("5 neg", -5),
        ("-5 abs", 5),
        ("2 10 exp", 1024.0),
        ("3.7 floor", 3.0),
        ("3.2 ceiling", 4.0),
        ("3.5 round", 4.0),
        ("-3.7 truncate", -3.0),
        ("1 4 bitshift", 16),
        ("16 -4 bitshift", 1),
        ("3 5 min", 3),
        ("3 5 max", 5),
    ])
    def test_result(self, bare_ps, src, expected):
        assert bare_ps.eval(src) == expected

    def test_div_is_real(self, bare_ps):
        result = bare_ps.eval("1 2 div")
        assert result == 0.5 and isinstance(result, float)

    def test_div_by_zero(self, bare_ps):
        with pytest.raises(PSError) as info:
            bare_ps.interp.run("1 0 div")
        assert info.value.errname == "undefinedresult"

    def test_sqrt_negative(self, bare_ps):
        with pytest.raises(PSError):
            bare_ps.interp.run("-1 sqrt")

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_add_matches_python(self, a, b):
        interp = _fresh_interp()
        interp.run("%d %d add" % (a, b))
        assert interp.pop() == a + b

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    def test_idiv_mod_identity(self, a, b):
        """PostScript truncating division: (a idiv b)*b + (a mod b) == a."""
        interp = _fresh_interp()
        interp.run("%d %d idiv %d %d mod" % (a, b, a, b))
        r = interp.pop()
        q = interp.pop()
        assert q * b + r == a


class TestComparison:
    @pytest.mark.parametrize("src,expected", [
        ("1 2 lt", True),
        ("2 2 le", True),
        ("3 2 gt", True),
        ("2 3 ge", False),
        ("2 2.0 eq", True),
        ("1 2 ne", True),
        ("(abc) (abc) eq", True),
        ("(abc) (abd) eq", False),
        ("(abc) /abc eq", True),
        ("(a) (b) lt", True),
        ("true false or", True),
        ("true false and", False),
        ("true true xor", False),
        ("true not", False),
        ("12 10 and", 8),
        ("12 10 or", 14),
        ("12 10 xor", 6),
        ("0 not", -1),
        ("null null eq", True),
    ])
    def test_result(self, bare_ps, src, expected):
        assert bare_ps.eval(src) == expected

    def test_arrays_compare_by_identity(self, bare_ps):
        assert bare_ps.eval("[1] [1] eq") is False
        assert bare_ps.eval("[1] dup eq") is True

    def test_ordering_strings_and_numbers_raises(self, bare_ps):
        with pytest.raises(PSError):
            bare_ps.interp.run("(a) 1 lt")


#: a 400-digit integer: the scanner reads it, no real can hold it
HUGE = "1" + "0" * 399


def huge_ids(value):
    """Test ids that name the 400-digit integer instead of spelling it."""
    return str(value).replace(HUGE, "HUGE")


class TestNumbersGiveAResultOrATypedError:
    """Integers are unbounded, reals are not: every operation on either
    answers a number or a PostScript error ``stopped`` catches, never a
    Python exception or a non-PostScript value."""

    @staticmethod
    def stopped_with(bare_ps, source):
        interp = bare_ps.interp
        interp.run("{ %s } stopped" % source)
        assert interp.pop() is True, source
        return interp.stop_error.errname

    @pytest.mark.parametrize("source", [
        HUGE + " 1.5 add", HUGE + " 2.0 sub", HUGE + " 1.5 mul",
        "2.5 " + HUGE + " mul", HUGE + " 3 div", HUGE + " 0.5 div",
        HUGE + " sqrt", "10 400 exp", HUGE + " 1 exp", "2 " + HUGE + " exp",
    ], ids=huge_ids)
    def test_beyond_the_reals_is_a_rangecheck(self, bare_ps, source):
        assert self.stopped_with(bare_ps, source) == "rangecheck"

    @pytest.mark.parametrize("source", ["-8 0.5 exp", "-8 1 3 div exp",
                                        "0 -1 exp", "0.0 -1.5 exp"])
    def test_exp_without_a_real_result_is_undefinedresult(self, bare_ps,
                                                         source):
        assert self.stopped_with(bare_ps, source) == "undefinedresult"

    @pytest.mark.parametrize("src,expected", [
        ("9007199254740993 9007199254740992 eq", False),
        ("9007199254740993 9007199254740992 ne", True),
        ("9007199254740993 9007199254740992.0 eq", False),
        ("9007199254740992 9007199254740992.0 eq", True),
        (HUGE + " " + HUGE + " eq", True),
        (HUGE + " " + HUGE + " ne", False),
        (HUGE + " 1e300 eq", False),
        (HUGE + " 1 add " + HUGE + " sub", 1),
        (HUGE + " " + HUGE + " mul " + HUGE + " idiv", int(HUGE)),
        ("-8 3 exp", -512.0),
        ("-8 2.0 exp", 64.0),
        ("1 1000000000000 bitshift", 0),
    ], ids=huge_ids)
    def test_exact_results(self, bare_ps, src, expected):
        result = bare_ps.eval(src)
        assert result == expected and type(result) is type(expected)

    @pytest.mark.parametrize("op", ["ceiling", "floor", "round", "truncate"])
    def test_rounding_an_infinity_keeps_it(self, bare_ps, op):
        assert bare_ps.eval("1e308 10 mul %s" % op) == float("inf")
        assert bare_ps.eval("1e308 -10 mul %s" % op) == float("-inf")

    @given(st.one_of(st.integers(), st.integers(2**53 - 4, 2**53 + 4),
                     st.integers(10**399, 10**399 + 4)),
           st.one_of(st.integers(), st.integers(2**53 - 4, 2**53 + 4),
                     st.integers(10**399, 10**399 + 4)))
    def test_eq_on_integers_is_integer_equality(self, a, b):
        interp = _fresh_interp()
        interp.run("%d %d eq %d %d ne" % (a, b, a, b))
        assert interp.pop() is (a != b)
        assert interp.pop() is (a == b)


class TestArrays:
    def test_literal_array(self, bare_ps):
        arr = bare_ps.eval("[1 (two) /three]")
        assert len(arr) == 3
        assert arr[1].text == "two"

    def test_array_of_n(self, bare_ps):
        arr = bare_ps.eval("3 array")
        assert len(arr) == 3 and arr[0] is None

    def test_get_put(self, bare_ps):
        assert bare_ps.eval("[10 20 30] dup 1 99 put 1 get") == 99

    def test_get_out_of_range(self, bare_ps):
        with pytest.raises(PSError) as info:
            bare_ps.interp.run("[1] 5 get")
        assert info.value.errname == "rangecheck"

    def test_aload(self, bare_ps):
        bare_ps.interp.run("[1 2 3] aload pop")
        assert bare_ps.interp.pop_n(3) == [1, 2, 3]

    def test_astore(self, bare_ps):
        arr = bare_ps.eval("7 8 9 3 array astore")
        assert arr.items == [7, 8, 9]

    def test_array_evaluated_inside(self, bare_ps):
        """[ ... ] contents are executed: names resolve."""
        arr = bare_ps.eval("/S1 1 def /S6 6 def [ S1 S6 ]")
        assert arr.items == [1, 6]


class TestStrings:
    def test_length(self, bare_ps):
        assert bare_ps.eval("(hello) length") == 5

    def test_get_char_code(self, bare_ps):
        assert bare_ps.eval("(A) 0 get") == 65

    def test_put_raises_immutable(self, bare_ps):
        """Strings are immutable in the dialect (paper Sec. 5)."""
        with pytest.raises(PSError) as info:
            bare_ps.interp.run("(abc) 0 65 put")
        assert info.value.errname == "invalidaccess"

    def test_cat(self, bare_ps):
        assert bare_ps.eval("(foo) (bar) cat").text == "foobar"

    def test_search_found(self, bare_ps):
        bare_ps.interp.run("(abcdef) (cd) search")
        assert bare_ps.interp.pop() is True
        assert bare_ps.interp.pop().text == "ab"
        assert bare_ps.interp.pop().text == "cd"
        assert bare_ps.interp.pop().text == "ef"

    def test_search_not_found(self, bare_ps):
        bare_ps.interp.run("(abc) (zz) search")
        assert bare_ps.interp.pop() is False
        assert bare_ps.interp.pop().text == "abc"

    def test_anchorsearch(self, bare_ps):
        bare_ps.interp.run("(_fib) (_) anchorsearch")
        assert bare_ps.interp.pop() is True

    def test_chr(self, bare_ps):
        assert bare_ps.eval("65 chr").text == "A"

    def test_hexstring(self, bare_ps):
        assert bare_ps.eval("16#23d8 hexstring").text == "23d8"

    def test_hexstring_negative_is_unsigned32(self, bare_ps):
        assert bare_ps.eval("-1 hexstring").text == "ffffffff"


class TestConversions:
    def test_cvi_from_string(self, bare_ps):
        assert bare_ps.eval("(42) cvi") == 42

    def test_cvi_from_real(self, bare_ps):
        assert bare_ps.eval("3.9 cvi") == 3

    def test_cvr(self, bare_ps):
        assert bare_ps.eval("(2.5) cvr") == 2.5

    def test_cvn(self, bare_ps):
        name = bare_ps.eval("(foo) cvn")
        assert isinstance(name, Name) and name.text == "foo"

    def test_cvs(self, bare_ps):
        assert bare_ps.eval("42 cvs").text == "42"

    def test_cvs_boolean(self, bare_ps):
        assert bare_ps.eval("true cvs").text == "true"

    def test_cvx_cvlit_xcheck(self, bare_ps):
        assert bare_ps.eval("/a cvx xcheck") is True
        assert bare_ps.eval("{1} cvlit xcheck") is False

    def test_type_names(self, bare_ps):
        assert bare_ps.eval("1 type").text == "integertype"
        assert bare_ps.eval("1.0 type").text == "realtype"
        assert bare_ps.eval("(s) type").text == "stringtype"
        assert bare_ps.eval("/n type").text == "nametype"
        assert bare_ps.eval("[] type").text == "arraytype"
        assert bare_ps.eval("<< >> type").text == "dicttype"
        assert bare_ps.eval("true type").text == "booleantype"
        assert bare_ps.eval("null type").text == "nulltype"


class TestOutput:
    def test_print_writes_string(self, bare_ps):
        assert bare_ps.run("(hello) print") == "hello"

    def test_equals_adds_newline(self, bare_ps):
        assert bare_ps.run("42 =") == "42\n"

    def test_pstack_preserves_stack(self, bare_ps):
        bare_ps.interp.run("1 2")
        bare_ps.run("pstack")
        assert bare_ps.interp.pop_n(2) == [1, 2]

    def test_a_dictionary_prints_as_dict(self, bare_ps):
        # systemdict holds itself: printing it must still answer
        assert bare_ps.run("systemdict ==") == "-dict-\n"
        assert bare_ps.run("userdict pstack") == "-dict-\n"

    def test_an_array_being_printed_prints_as_array(self, bare_ps):
        assert (bare_ps.run("[ 1 2 ] dup dup 0 exch put ==")
                == "[ -array- 2 ]\n")
        # one array reached twice, but not inside itself, prints twice
        assert (bare_ps.run("[ 1 ] dup 2 array astore ==")
                == "[ [ 1 ] [ 1 ] ]\n")

    def test_a_procedure_prints_its_body(self, bare_ps):
        assert (bare_ps.run("{ 1 [ 2 ] (x) /y GlobalData } ==")
                == "{ 1 [ 2 ] (x) /y GlobalData }\n")
