"""Arithmetic, bitwise, and relational operators.

Integer arithmetic follows PostScript: ``div`` always yields a real,
``idiv`` and ``mod`` are integer-only.  ``and``/``or``/``xor``/``not``
operate on booleans or integers (bitwise), as in Adobe PostScript.

Every number gives a result or a PostScript error that ``stopped``
catches: integers are unbounded (the scanner reads any numeral), so a
result or operand beyond the reals is a ``rangecheck``, as for
``cvr``, and ``exp`` with no real result is an ``undefinedresult``.
Numbers compare exactly, integers with reals included.
"""

from __future__ import annotations

import math
import operator

from .objects import Name, PSArray, PSDict, PSError, String


def _binary_number(interp):
    b = interp.pop_number()
    a = interp.pop_number()
    return a, b


def _arithmetic(interp, name: str, fn) -> None:
    a, b = _binary_number(interp)
    try:
        interp.push(fn(a, b))
    except OverflowError:
        raise PSError("rangecheck", "%s beyond the reals" % name)


def _divide(a, b):
    if b == 0:
        raise PSError("undefinedresult", "div by zero")
    return a / b


def op_add(interp) -> None:
    _arithmetic(interp, "add", operator.add)


def op_sub(interp) -> None:
    _arithmetic(interp, "sub", operator.sub)


def op_mul(interp) -> None:
    _arithmetic(interp, "mul", operator.mul)


def op_div(interp) -> None:
    _arithmetic(interp, "div", _divide)


def op_idiv(interp) -> None:
    b = interp.pop_int()
    a = interp.pop_int()
    if b == 0:
        raise PSError("undefinedresult", "idiv by zero")
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    interp.push(quotient)


def op_mod(interp) -> None:
    b = interp.pop_int()
    a = interp.pop_int()
    if b == 0:
        raise PSError("undefinedresult", "mod by zero")
    remainder = abs(a) % abs(b)
    interp.push(-remainder if a < 0 else remainder)


def op_neg(interp) -> None:
    interp.push(-interp.pop_number())


def op_abs(interp) -> None:
    interp.push(abs(interp.pop_number()))


def op_sqrt(interp) -> None:
    value = interp.pop_number()
    if value < 0:
        raise PSError("rangecheck", "sqrt of negative")
    try:
        interp.push(math.sqrt(value))
    except OverflowError:
        raise PSError("rangecheck", "sqrt beyond the reals")


def op_exp(interp) -> None:
    try:
        _arithmetic(interp, "exp", math.pow)
    except ValueError:
        # a negative base to a fractional power, or 0 to a negative one
        raise PSError("undefinedresult", "exp without a real result")


def op_ln(interp) -> None:
    value = interp.pop_number()
    if value <= 0:
        raise PSError("rangecheck", "ln of nonpositive")
    interp.push(math.log(value))


def _to_integral(interp, fn) -> None:
    """Round a real to an integral real with ``fn``; integers and the
    infinities are their own."""
    value = interp.pop_number()
    if isinstance(value, float) and math.isfinite(value):
        value = float(fn(value))
    interp.push(value)


def op_ceiling(interp) -> None:
    _to_integral(interp, math.ceil)


def op_floor(interp) -> None:
    _to_integral(interp, math.floor)


def op_round(interp) -> None:
    _to_integral(interp, lambda value: math.floor(value + 0.5))


def op_truncate(interp) -> None:
    _to_integral(interp, math.trunc)


def op_bitshift(interp) -> None:
    shift = interp.pop_int()
    value = interp.pop_int()
    if shift >= 0:
        # 32 places shift every bit out: no need to build a huge integer
        interp.push((value << min(shift, 32)) & 0xFFFFFFFF)
    else:
        interp.push((value & 0xFFFFFFFF) >> -shift)


def _comparable(interp):
    b = interp.pop()
    a = interp.pop()
    if isinstance(a, (Name, String)) and isinstance(b, (Name, String)):
        return a.text, b.text
    if isinstance(a, bool) or isinstance(b, bool):
        raise PSError("typecheck", "ordered comparison of booleans")
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a, b
    raise PSError("typecheck", "cannot compare %r and %r" % (a, b))


def _equatable(obj):
    """Map ``obj`` to a value with PostScript equality semantics."""
    if isinstance(obj, (Name, String)):
        return ("text", obj.text)
    if isinstance(obj, (PSArray, PSDict)):
        return ("identity", id(obj))
    if isinstance(obj, bool):
        return ("bool", obj)
    if isinstance(obj, (int, float)):
        return ("number", obj)  # int == float compares exactly
    return ("other", obj)


def op_eq(interp) -> None:
    b = interp.pop()
    a = interp.pop()
    interp.push(_equatable(a) == _equatable(b))


def op_ne(interp) -> None:
    b = interp.pop()
    a = interp.pop()
    interp.push(_equatable(a) != _equatable(b))


def op_gt(interp) -> None:
    a, b = _comparable(interp)
    interp.push(a > b)


def op_ge(interp) -> None:
    a, b = _comparable(interp)
    interp.push(a >= b)


def op_lt(interp) -> None:
    a, b = _comparable(interp)
    interp.push(a < b)


def op_le(interp) -> None:
    a, b = _comparable(interp)
    interp.push(a <= b)


def _logical(interp, int_fn, bool_fn) -> None:
    b = interp.pop()
    a = interp.pop()
    if isinstance(a, bool) and isinstance(b, bool):
        interp.push(bool_fn(a, b))
    elif isinstance(a, bool) or isinstance(b, bool):
        raise PSError("typecheck", "logical op mixes boolean and integer")
    elif isinstance(a, int) and isinstance(b, int):
        interp.push(int_fn(a, b))
    else:
        raise PSError("typecheck", "logical op on %r, %r" % (a, b))


def op_and(interp) -> None:
    _logical(interp, lambda a, b: a & b, lambda a, b: a and b)


def op_or(interp) -> None:
    _logical(interp, lambda a, b: a | b, lambda a, b: a or b)


def op_xor(interp) -> None:
    _logical(interp, lambda a, b: a ^ b, lambda a, b: a is not b)


def op_not(interp) -> None:
    a = interp.pop()
    if isinstance(a, bool):
        interp.push(not a)
    elif isinstance(a, int):
        interp.push(~a)
    else:
        raise PSError("typecheck", "not on %r" % (a,))


def op_min(interp) -> None:
    a, b = _binary_number(interp)
    interp.push(a if a <= b else b)


def op_max(interp) -> None:
    a, b = _binary_number(interp)
    interp.push(a if a >= b else b)


def install(interp) -> None:
    interp.defop("add", op_add)
    interp.defop("sub", op_sub)
    interp.defop("mul", op_mul)
    interp.defop("div", op_div)
    interp.defop("idiv", op_idiv)
    interp.defop("mod", op_mod)
    interp.defop("neg", op_neg)
    interp.defop("abs", op_abs)
    interp.defop("sqrt", op_sqrt)
    interp.defop("exp", op_exp)
    interp.defop("ln", op_ln)
    interp.defop("ceiling", op_ceiling)
    interp.defop("floor", op_floor)
    interp.defop("round", op_round)
    interp.defop("truncate", op_truncate)
    interp.defop("bitshift", op_bitshift)
    interp.defop("eq", op_eq)
    interp.defop("ne", op_ne)
    interp.defop("gt", op_gt)
    interp.defop("ge", op_ge)
    interp.defop("lt", op_lt)
    interp.defop("le", op_le)
    interp.defop("and", op_and)
    interp.defop("or", op_or)
    interp.defop("xor", op_xor)
    interp.defop("not", op_not)
    interp.defop("min", op_min)
    interp.defop("max", op_max)
    interp.systemdict["true"] = True
    interp.systemdict["false"] = False
    interp.systemdict["null"] = None
