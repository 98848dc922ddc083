"""Seeded C programs for the benchmark's three workloads.

Each generator returns the C source the program under debug receives
plus the facts the benchmark checks answers against (call chains,
values at known hits, fault kinds).  The seed changes names, constants
and filler code, never the amount of work, so two seeds cost the same
to debug and a run-to-run spread measures the debugger, not the draw.
"""

from __future__ import annotations

import random
from typing import Dict, List

ALL_ARCHES = ["rmips", "rmipsel", "rsparc", "rm68k", "rvax"]

_WORDS = ["alpha", "brisk", "cedar", "delta", "ember", "fable", "gamut",
          "haven", "ivory", "jolly", "karma", "lunar", "mango", "noble",
          "oasis", "pixel", "quill", "raven", "sable", "tango"]


def _names(rng: random.Random, count: int, prefix: str) -> List[str]:
    words = rng.sample(_WORDS, count)
    return ["%s_%s" % (prefix, word) for word in words]


def _filler(name: str, callee, rng: random.Random) -> str:
    """A large_program-style function: params, a struct local, a loop,
    a static, and sometimes a call.  It pads the symbol table (set-up
    and name-lookup cost) without changing what the hot path does."""
    limit = rng.randrange(3, 9)
    bias = rng.randrange(1, 5)
    call = ("        acc += %s(i, %d) & 15;\n" % (callee, bias)
            if callee is not None and rng.random() < 0.5 else "")
    return """int %(name)s(int a, int b) {
    static int memo;
    struct record r;
    int acc = 0;
    int i;
    r.key = a; r.value = b; r.weight = a + b;
    for (i = 0; i < %(limit)d; i++) {
        int step = i * %(bias)d + r.weight;
        if (step > 100) step = step %% 100;
        acc += step;
%(call)s    }
    if (acc > memo) memo = acc;
    pool[(a + b) & 63] = memo;
    visits++;
    return acc + memo;
}
""" % {"name": name, "limit": limit, "bias": bias, "call": call}


#: how many filler functions each interactive unit carries, and how
#: many frames sit between ``main`` and the hot function; both fixed so
#: every seed walks and looks up the same amount
INTERACTIVE_FILLERS = 24
INTERACTIVE_DEPTH = 3


def interactive_unit(seed: int) -> Dict:
    """The forever-looping unit one gateway session debugs.

    ``main`` loops without end through a fixed call chain into the hot
    function, so every ``continue`` stops at the next hit after a run
    of a few dozen instructions and no session ever exits mid-run.  At
    the ``k``-th hit (from 1) the hot function's parameters are
    ``a == k + offset`` and ``b == bias``.
    """
    rng = random.Random(seed)
    fillers = ["work%03d" % i for i in range(INTERACTIVE_FILLERS)]
    hot = _names(rng, 1, "hot")[0]
    mids = _names(rng, INTERACTIVE_DEPTH, "mid")
    steps = [rng.randrange(1, 9) for _ in mids]
    bias = rng.randrange(3, 40)
    parts = ["struct record { int key; int value; int weight; };",
             "static int pool[64];",
             "int visits = 0;",
             "int hits = 0;",
             "int mark = 0;",
             ""]
    for index, name in enumerate(fillers):
        callee = fillers[rng.randrange(index)] if index else None
        parts.append(_filler(name, callee, rng))
    parts.append("""int %s(int a, int b) {
    int acc;
    acc = a * 3 + b;
    hits = hits + 1;
    return acc & 1023;
}
""" % hot)
    callee = hot
    # innermost first: the mid next to the hot function passes the bias
    for depth in range(len(mids) - 1, -1, -1):
        name, step = mids[depth], steps[depth]
        if callee == hot:
            call = "%s(n + %d, %d)" % (hot, step, bias)
        else:
            call = "%s(n + %d)" % (callee, step)
        parts.append("""int %s(int n) {
    int r;
    r = %s;
    return r + %d;
}
""" % (name, call, step))
        callee = name
    parts.append("""int main(void) {
    int round;
    int total = 0;
    for (round = 1; ; round++)
        total = total + %s(round);
    return total;
}
""" % mids[0])
    return {
        "source": "\n".join(parts),
        "hot": hot,
        # innermost frame first, as a backtrace lists them
        "chain": [hot] + list(reversed(mids)) + ["main"],
        "offset": sum(steps),
        "bias": bias,
    }


def interactive_value(unit: Dict, hit: int) -> int:
    """``a * 3 + b`` in the hot function at the ``hit``-th stop."""
    return (hit + unit["offset"]) * 3 + unit["bias"]


#: breakpoint hits per reverse program and the inner-loop length between
#: them; together ~1e6 retired instructions on rmips
REVERSE_HITS = 16
REVERSE_SPIN = 3300


def reverse_unit(seed: int) -> Dict:
    """The loop-then-crash program with a long history.

    Each of ``REVERSE_HITS`` rounds spins ``REVERSE_SPIN`` iterations,
    stops at a statement breakpoint in ``main`` (line ``call_line``) and
    then at the entry of ``mark_fn``; after the last round a wild store
    raises SIGSEGV.  The hit icounts are taken from the forward run;
    the ``k``-th ``mark_fn`` hit (from 0) sees its parameter equal ``k``.
    """
    rng = random.Random(seed)
    spin, mark_fn = _names(rng, 2, "rev")
    xor = rng.randrange(1, 255)
    lines = [
        "int g;",
        "int hits;",
        "int %s(int n) {" % spin,
        "    int i;",
        "    int s = 0;",
        "    for (i = 0; i < n; i++)",
        "        s = s + (i ^ %d);" % xor,
        "    return s;",
        "}",
        "void %s(int k) { hits = hits + 1; g = g + k; }" % mark_fn,
        "void poke(int *p) { *p = 42; }",
        "int main(void) {",
        "    int k;",
        "    for (k = 0; k < %d; k++) {" % REVERSE_HITS,
        "        g = g + %s(%d);" % (spin, REVERSE_SPIN),
        "        %s(k);" % mark_fn,
        "    }",
        "    poke((int *)0x7fffffff);",
        "    return 0;",
        "}",
    ]
    call_line = lines.index("        %s(k);" % mark_fn) + 1
    return {"source": "\n".join(lines) + "\n", "mark": mark_fn,
            "call_line": call_line, "hits": REVERSE_HITS}


#: each family is one bug; ``%(spin)d`` is the benign variation that
#: makes duplicates differ in icount and data without moving the crash.
#: ``chain`` is the expected backtrace, innermost first; ``signal`` the
#: fatal signal.  The shape follows tools/make_crash_corpus.py.
CRASH_FAMILIES = {
    "nullwrite": {
        "source": """int g;
void %(a)s(int *p) { *p = 42; }
int main(void) {
    int i;
    for (i = 0; i < %(spin)d; i++)
        g = g + i;
    %(a)s((int *)0x7fffffff);
    return 0;
}
""",
        "chain": ["%(a)s", "main"], "signal": "SIGSEGV"},
    "divzero": {
        "source": """int g;
int %(a)s(int x, int y) { return x / y; }
int main(void) {
    int i;
    for (i = 0; i < %(spin)d; i++)
        g = g + 2;
    g = %(a)s(100, g - g);
    return 0;
}
""",
        "chain": ["%(a)s", "main"], "signal": "SIGFPE"},
    "deepchain": {
        "source": """int g;
void %(a)s(int *p) { *p = 42; }
void %(b)s(void) { %(a)s((int *)0x7ffffff3); }
void %(c)s(void) { %(b)s(); }
void %(d)s(void) { %(c)s(); }
int main(void) {
    int i;
    for (i = 0; i < %(spin)d; i++)
        g = g + i;
    %(d)s();
    return 0;
}
""",
        "chain": ["%(a)s", "%(b)s", "%(c)s", "%(d)s", "main"],
        "signal": "SIGSEGV"},
}


def crash_batch(seed: int, arches: List[str], dupes: int) -> List[Dict]:
    """One seeded crash corpus: every family on every ISA, ``dupes``
    variants each.  The seed draws the function names (so it changes
    the stack hashes) and which variant gets which spin count; the set
    of spin counts is fixed, so every seed does the same work."""
    rng = random.Random(seed)
    crashes = []
    for family in sorted(CRASH_FAMILIES):
        spec = CRASH_FAMILIES[family]
        names = dict(zip("abcd", _names(rng, 4, family[:4])))
        spins = [9 + 16 * variant for variant in range(dupes)]
        rng.shuffle(spins)
        for arch in arches:
            for variant, spin in enumerate(spins):
                fill = dict(names, spin=spin)
                crashes.append({
                    "arch": arch, "family": family, "variant": variant,
                    "label": "%s:%s" % (arch, family),
                    "source": spec["source"] % fill,
                    "chain": [frame % fill for frame in spec["chain"]],
                    "signal": spec["signal"],
                })
    return crashes
