"""String and conversion operators.

Strings are immutable (paper Sec. 5), so the mutating Adobe operators are
absent; ``cat`` builds a new string, the Modula-3 ``TEXT`` idiom.
"""

from __future__ import annotations

import math

from .objects import (
    Name,
    PSError,
    String,
    cvlit,
    cvx,
    is_executable,
    to_string,
    type_name,
)
from .scanner import parse_number


def op_cat(interp) -> None:
    b = interp.pop_string()
    a = interp.pop_string()
    interp.push(String(a.text + b.text))


def op_search(interp) -> None:
    seek = interp.pop_string()
    where = interp.pop_string()
    at = where.text.find(seek.text)
    if at < 0:
        interp.push(where)
        interp.push(False)
    else:
        interp.push(String(where.text[at + len(seek.text) :]))  # post
        interp.push(String(seek.text))  # match
        interp.push(String(where.text[:at]))  # pre
        interp.push(True)


def op_anchorsearch(interp) -> None:
    seek = interp.pop_string()
    where = interp.pop_string()
    if where.text.startswith(seek.text):
        interp.push(String(where.text[len(seek.text) :]))
        interp.push(String(seek.text))
        interp.push(True)
    else:
        interp.push(where)
        interp.push(False)


def op_cvs(interp) -> None:
    interp.push(String(to_string(interp.pop())))


def _numeral(obj: String, op: str):
    number = parse_number(obj.text)
    if number is None:
        raise PSError("syntaxerror", "%s of %r" % (op, obj.text))
    return number


def op_cvi(interp) -> None:
    obj = interp.pop()
    if isinstance(obj, bool):
        raise PSError("typecheck", "cvi of boolean")
    if isinstance(obj, String):
        obj = _numeral(obj, "cvi")
    if isinstance(obj, int):
        interp.push(obj)
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise PSError("rangecheck", "cvi of %r" % obj)
        interp.push(int(obj))
    else:
        raise PSError("typecheck", "cvi of %r" % (obj,))


def op_cvr(interp) -> None:
    obj = interp.pop()
    if isinstance(obj, bool):
        raise PSError("typecheck", "cvr of boolean")
    if isinstance(obj, String):
        obj = _numeral(obj, "cvr")
    if not isinstance(obj, (int, float)):
        raise PSError("typecheck", "cvr of %r" % (obj,))
    try:
        interp.push(float(obj))
    except OverflowError:
        raise PSError("rangecheck", "cvr of an integer beyond the reals")


def op_cvn(interp) -> None:
    text = interp.pop_string()
    interp.push(Name(text.text, literal=text.literal))


def op_cvx(interp) -> None:
    interp.push(cvx(interp.pop()))


def op_cvlit(interp) -> None:
    interp.push(cvlit(interp.pop()))


def op_xcheck(interp) -> None:
    interp.push(is_executable(interp.pop()))


def op_type(interp) -> None:
    interp.push(Name(type_name(interp.pop()), literal=True))


def install(interp) -> None:
    interp.defop("cat", op_cat)
    interp.defop("search", op_search)
    interp.defop("anchorsearch", op_anchorsearch)
    interp.defop("cvs", op_cvs)
    interp.defop("cvi", op_cvi)
    interp.defop("cvr", op_cvr)
    interp.defop("cvn", op_cvn)
    interp.defop("cvx", op_cvx)
    interp.defop("cvlit", op_cvlit)
    interp.defop("xcheck", op_xcheck)
    interp.defop("type", op_type)
