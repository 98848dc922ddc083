"""The initial PostScript is read once per process and copied per debugger.

``read_initial`` is the reference: every interpreter ``new_interp``
hands out must equal a fresh read object for object, share no mutable
object with the template or another interpreter, and keep the read's
aliasing (``rmipsel`` is ``rmips``).
"""

import io
import sys
import threading

import pytest

import repro.postscript as postscript
from repro.ldb import Ldb
from repro.postscript import (
    Interp,
    Location,
    Name,
    Operator,
    PSArray,
    PSDict,
    String,
    copy_initial,
    new_interp,
    read_initial,
)

from .fakes import FakeMemory


class Correspondence:
    """Holds ``b`` to be a structural copy of ``a``: the same types,
    values, literal flags and keys, one copy per mutable object (a
    dictionary, an array, an array's ``items`` list, a location), never
    the object itself, and the operators each systemdict names."""

    def __init__(self, a: Interp, b: Interp):
        self.a_ops = a.systemdict.store
        self.b_ops = b.systemdict.store
        self.forward = {}
        self.backward = {}
        self.pair(a.systemdict, b.systemdict)
        self.pair(a.userdict, b.userdict)
        self.same_entries(a.systemdict, b.systemdict)
        self.same_entries(a.userdict, b.userdict)

    def pair(self, a, b) -> bool:
        """Record that ``a`` became ``b``; False if already recorded."""
        if id(a) in self.forward:
            assert self.forward[id(a)] is b, "aliasing differs at %r" % (a,)
            return False
        assert id(b) not in self.backward, "two objects became %r" % (b,)
        assert a is not b, "mutable %r is shared" % (a,)
        self.forward[id(a)] = b
        self.backward[id(b)] = a
        return True

    def same_entries(self, a: PSDict, b: PSDict) -> None:
        assert list(a.store) == list(b.store)
        for key, value in a.store.items():
            self.same(value, b.store[key])

    def same(self, a, b) -> None:
        assert type(a) is type(b), (a, b)
        if isinstance(a, PSDict):
            if self.pair(a, b):
                self.same_entries(a, b)
        elif isinstance(a, PSArray):
            assert a.literal == b.literal
            self.pair(a, b)
            if self.pair(a.items, b.items):
                assert len(a.items) == len(b.items)
                for x, y in zip(a.items, b.items):
                    self.same(x, y)
        elif isinstance(a, Location):
            if self.pair(a, b):
                assert (a.mode, a.space, a.offset, a.value) == \
                    (b.mode, b.space, b.offset, b.value)
        elif isinstance(a, Operator):
            assert a.name == b.name
            assert a is self.a_ops[a.name] and b is self.b_ops[b.name], \
                "operator %s is not its interpreter's own" % a.name
        elif isinstance(a, (Name, String)):
            assert (a.text, a.literal) == (b.text, b.literal)
        else:
            assert a == b


def reference() -> Interp:
    interp = Interp(stdout=io.StringIO())
    read_initial(interp)
    return interp


def mutable_ids(interp: Interp) -> set:
    """The ids of every mutable object reachable from ``interp``'s
    userdict and ``ArchDicts``."""
    found = set()
    todo = [interp.userdict, interp.systemdict["ArchDicts"]]
    while todo:
        obj = todo.pop()
        if isinstance(obj, (PSDict, PSArray, Location)) and id(obj) not in found:
            found.add(id(obj))
            if isinstance(obj, PSDict):
                todo.extend(obj.store.values())
            elif isinstance(obj, PSArray):
                found.add(id(obj.items))
                todo.extend(obj.items)
    return found


class TestCopyEqualsTheRead:
    def test_copy_equals_a_fresh_read(self):
        Correspondence(reference(), new_interp(stdout=io.StringIO()))

    def test_copy_shares_nothing_mutable_with_the_template(self):
        copied = new_interp(stdout=io.StringIO())
        template = postscript._initial_template()
        Correspondence(template, copied)
        assert not mutable_ids(template) & mutable_ids(copied)

    def test_two_copies_share_nothing_mutable(self):
        Correspondence(new_interp(stdout=io.StringIO()),
                       new_interp(stdout=io.StringIO()))

    def test_rmipsel_stays_the_rmips_dictionary(self):
        arch_dicts = new_interp(stdout=io.StringIO()).systemdict["ArchDicts"]
        assert arch_dicts["rmipsel"] is arch_dicts["rmips"]

    def test_arrays_sharing_items_still_share_them(self):
        template = reference()
        template.run("/A [1 [2] 3] def /B A cvx def /C [/A load /B load] def")
        copied = Interp(stdout=io.StringIO())
        copy_initial(template, copied)
        Correspondence(template, copied)
        a, b, c = (copied.userdict[n] for n in "ABC")
        assert a is not b and a.items is b.items
        assert c.items[0] is a and c.items[1] is b
        assert a.items is not template.userdict["A"].items

    def test_a_cycle_is_copied_as_a_cycle(self):
        template = reference()
        template.run("/A [0] def A 0 A put")
        copied = Interp(stdout=io.StringIO())
        copy_initial(template, copied)
        a = copied.userdict["A"]
        assert a.items[0] is a


class TestIsolation:
    MUTATIONS = ("/Private 42 def "
                 "/INT load 0 /florble put "
                 "ArchDicts /rmips get begin /Regset0 (zz) def end")

    def test_mutations_stay_in_their_debugger(self):
        before = Ldb(stdout=io.StringIO())
        mutated = Ldb(stdout=io.StringIO())
        mutated.interp.run(self.MUTATIONS)
        after = Ldb(stdout=io.StringIO())

        # the mutations took, aliasing included ...
        interp = mutated.interp
        assert interp.userdict["Private"] == 42
        assert interp.userdict["INT"].items[0] == Name("florble")
        assert interp.systemdict["ArchDicts"]["rmipsel"]["Regset0"].text == "zz"
        # ... and nothing else sees them
        fresh = reference()
        for other in (before.interp, after.interp,
                      postscript._initial_template()):
            Correspondence(fresh, other)

    def test_replacing_an_operator_stays_in_its_interpreter(self):
        """Interpreters share the operator objects but not the
        dictionaries that hold them."""
        one, two = new_interp(stdout=io.StringIO()), Ldb(stdout=io.StringIO())
        one.run("systemdict /add { mul } put "
                "systemdict /Put { pop (*) = } put")
        assert one.systemdict["add"] is not two.interp.systemdict["add"]
        one.run("3 4 add (x) Put")
        assert one.pop() == 12 and one.stdout.getvalue() == "*\n"
        for other in (two.interp, Interp(stdout=io.StringIO()),
                      new_interp(stdout=io.StringIO())):
            other.run("3 4 add (x) Put")
            assert other.pop() == 7 and other.stdout.getvalue() == "x"
            assert isinstance(other.systemdict["add"], Operator)
        Correspondence(reference(), postscript._initial_template())

    def test_a_store_into_a_location_stays_in_its_debugger(self):
        one, two = Ldb(stdout=io.StringIO()), Ldb(stdout=io.StringIO())
        one.interp.systemdict["ArchDicts"]["rmips"]["PC"].offset = 7
        assert two.interp.systemdict["ArchDicts"]["rmips"]["PC"].offset == 0
        Correspondence(reference(), postscript._initial_template())


class TestPrinterBinding:
    def test_prelude_printer_writes_to_its_own_stdout(self):
        outs = [io.StringIO(), io.StringIO()]
        ldbs = [Ldb(stdout=out) for out in outs]
        ldbs[0].interp.define("M", FakeMemory().put("d", 0, -5))
        ldbs[0].interp.run("M 0 (d) Absolute << /printer {INT} >> print "
                           "Newline")
        assert [out.getvalue() for out in outs] == ["-5\n", ""]

    def test_bound_operators_are_the_copy_s_own(self):
        template = reference()
        template.run("/BoundPut { Put } bind def /PutOp /Put load def")
        assert template.userdict["BoundPut"].items[0] \
            is template.systemdict["Put"]
        out = io.StringIO()
        copied = Interp(stdout=out)
        copy_initial(template, copied)
        Correspondence(template, copied)
        copied.run("(a) BoundPut (b) PutOp")
        assert out.getvalue() == "ab"
        assert template.stdout.getvalue() == ""


class TestFirstUseFromThreads:
    def test_sixteen_threads_read_once(self, monkeypatch):
        reads = []

        def counting_read(interp):
            reads.append(threading.get_ident())
            read_initial(interp)

        monkeypatch.setattr(postscript, "_template", None)
        monkeypatch.setattr(postscript, "read_initial", counting_read)
        start = threading.Barrier(16)
        made = [None] * 16

        def make(index):
            start.wait(10)
            made[index] = new_interp(stdout=io.StringIO())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=make, args=(i,), daemon=True)
                       for i in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(reads) == 1
        fresh = reference()
        seen = set()
        for interp in made:
            Correspondence(fresh, interp)
            ids = mutable_ids(interp)
            assert not ids & seen
            seen |= ids


class TestLoudFailure:
    @pytest.mark.parametrize("source", [
        "userdict [1] 2 put",
        "/D << << >> 1 >> def",
        "ArchDicts /rmips get 7 (seven) put",
        "/M mark def",
    ])
    def test_what_the_copy_cannot_hold_raises(self, source):
        template = reference()
        template.run(source)
        with pytest.raises(TypeError):
            copy_initial(template, Interp(stdout=io.StringIO()))
