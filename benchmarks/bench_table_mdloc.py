"""T1 — the paper's Sec. 4.3 table: machine-dependent lines of code.

    |               | MIPS | 68020 | SPARC | VAX | shared |
    | Debugger (M3) |  476 |   187 |   206 | 199 |  12193 |
    | PostScript    |   15 |    18 |    18 |  13 |   1203 |
    | Nub (C, asm)  |   34 |    73 |     5 |  72 |    632 |

Shape expectations reproduced here: per-target machine-dependent code is
*small* (hundreds of lines) against a much larger shared core; the MIPS
debugger column is the largest (no frame pointer -> its own linker
interface); the SPARC nub column is the smallest ("the operating system
provides most of the registers and there is no other machine-dependent
dirt").
"""

import inspect
import io
import os
import textwrap
import tokenize

import pytest

from .conftest import report

SRC_ROOT = os.path.join(os.path.dirname(__file__), "..", "src", "repro")

#: tokens that are not code: comments, line ends, indentation, the end
_NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def loc_of_source(source):
    """Lines of Python code: every line a token of a statement covers,
    except blank lines, comments and docstrings (a statement that is
    nothing but string literals)."""
    lines = set()
    statement = []
    tokens = tokenize.generate_tokens(
        io.StringIO(textwrap.dedent(source)).readline)
    for token in tokens:
        if token.type not in _NOT_CODE:
            statement.append(token)
        elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(tok.type != tokenize.STRING for tok in statement):
                for tok in statement:
                    lines.update(range(tok.start[0], tok.end[0] + 1))
            statement = []
    return len(lines)


def loc_of_file(path):
    """Lines of code in a Python file (:func:`loc_of_source`), or the
    non-blank lines of a PostScript file that are not %-comments."""
    with open(path) as f:
        text = f.read()
    if path.endswith(".py"):
        return loc_of_source(text)
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.strip().startswith("%"))


def debugger_md_loc():
    """Per-target machine-dependent debugger code."""
    from repro.ldb import linker
    from repro.ldb.machdep import m68k, mips, sparc, vax

    out = {}
    base = os.path.join(SRC_ROOT, "ldb", "machdep")
    out["rmips"] = loc_of_file(os.path.join(base, "mips.py")) \
        + loc_of_source(inspect.getsource(linker.MipsLinkerInterface))
    out["rm68k"] = loc_of_file(os.path.join(base, "m68k.py"))
    out["rsparc"] = loc_of_file(os.path.join(base, "sparc.py"))
    out["rvax"] = loc_of_file(os.path.join(base, "vax.py"))
    return out


def debugger_shared_loc():
    total = 0
    for sub in ("ldb", "postscript"):
        base = os.path.join(SRC_ROOT, sub)
        for dirpath, _dirs, files in os.walk(base):
            if "machdep" in dirpath or "data" in dirpath:
                continue
            for name in files:
                if name.endswith(".py"):
                    total += loc_of_file(os.path.join(dirpath, name))
    return total


def postscript_md_loc():
    base = os.path.join(SRC_ROOT, "postscript", "data")
    return {arch: loc_of_file(os.path.join(base, arch + ".ps"))
            for arch in ("rmips", "rsparc", "rm68k", "rvax")}


def postscript_shared_loc():
    base = os.path.join(SRC_ROOT, "postscript", "data")
    return (loc_of_file(os.path.join(base, "prelude.ps"))
            + loc_of_file(os.path.join(base, "symload.ps")))


def nub_md_loc():
    from repro.nub import nub as nub_mod

    return {
        "rmips": loc_of_source(inspect.getsource(nub_mod.MipsNubMD)),
        "rm68k": loc_of_source(inspect.getsource(nub_mod.M68kNubMD)),
        "rsparc": loc_of_source(inspect.getsource(nub_mod.SparcNubMD)),
        "rvax": loc_of_source(inspect.getsource(nub_mod.VaxNubMD)),
    }


def nub_shared_loc():
    base = os.path.join(SRC_ROOT, "nub")
    total = 0
    for name in os.listdir(base):
        if name.endswith(".py"):
            total += loc_of_file(os.path.join(base, name))
    md = sum(nub_md_loc().values())
    return total - md


def test_mdloc_table(benchmark):
    rows = {
        "Debugger (Py)": (debugger_md_loc(), debugger_shared_loc()),
        "PostScript": (postscript_md_loc(), postscript_shared_loc()),
        "Nub": (nub_md_loc(), nub_shared_loc()),
    }
    benchmark(debugger_md_loc)  # timing anchor: counting is the "work"

    order = ("rmips", "rm68k", "rsparc", "rvax")
    report("", "T1. Machine-dependent code per target (paper Sec. 4.3)",
           "%-15s %7s %7s %7s %7s %8s"
           % ("", "MIPS", "68020", "SPARC", "VAX", "shared"))
    for label, (per_arch, shared) in rows.items():
        report("%-15s %7d %7d %7d %7d %8d"
               % (label, per_arch["rmips"], per_arch["rm68k"],
                  per_arch["rsparc"], per_arch["rvax"], shared))
    dbg, dbg_shared = rows["Debugger (Py)"]
    report("paper shape: per-target totals of 250-550 lines vs ~14k shared;",
           "MIPS largest debugger column; SPARC smallest effective nub.")

    # -- shape assertions -------------------------------------------------
    # every MD column is small compared to the shared core
    for per_arch, shared in rows.values():
        assert all(v < shared for v in per_arch.values())
    # total per-target MD code lands in the low hundreds
    for arch in order:
        total_md = sum(rows[r][0][arch] for r in rows)
        assert 50 <= total_md <= 800, (arch, total_md)
    # the MIPS debugger column is the largest (the missing frame pointer)
    assert dbg["rmips"] == max(dbg.values())
    # per-target PostScript is tiny, like the paper's 13-18 lines
    ps, _ = rows["PostScript"]
    assert all(v <= 30 for v in ps.values())
