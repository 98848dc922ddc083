"""How fast the host runs Python right now, measured beside the workload.

On a shared virtual machine the processor time of a fixed piece of
Python work drifts by a third or more over minutes, with the load of
the machine's other tenants.  A :class:`HostSpeed` runs a fixed
reference task between the workload's operations, keeping the task's
processor time at ``SHARE`` of the workload's, so its samples are
spread over the run the way the workload's time is.  The mean sample
over :data:`NOMINAL_S` is the host's slowness during the run; the
end-to-end times are divided by it, which reads them as processor time
on a host of nominal speed.

The reference task is interpreter-bound work with a large code
footprint, like the debugger's: tokenizing and diffing Python source,
pure-Python JSON encoding (all from the standard library), and a small
register machine of this file's own with a decode cache and a byte
memory.  On a 2-vCPU shared Xeon virtual machine, over an eight-minute
timeline of ``reverse`` cycles, the mean of such a task over each
35-second window tracked the simulator's (correlation 0.9; a tight
arithmetic loop 0.8), and dividing by it cut the windows' spread from
12% to 5%.  A single sample, or a single cycle, tracks nothing (0.4):
short bursts of the neighbours' load hit the two differently, which is
why only run-long means are used.  Nothing here imports the program
under test, so two versions of the program are measured against the
same reference.
"""

from __future__ import annotations

import difflib
import io
import json
import random
import time
import tokenize
from typing import List

#: mean processor seconds of one reference sample on the nominal host (a
#: quiet 2-vCPU Xeon virtual machine, Python 3.11)
NOMINAL_S = 0.011
#: reference time kept as a share of the workload's processor time
SHARE = 0.15


def _corpus(rng: random.Random) -> str:
    """A fixed hundred lines of Python source."""
    lines = []
    for index in range(12):
        name = "fn_%d_%d" % (index, rng.randrange(1000))
        lines.append("def %s(a, b=%d):" % (name, rng.randrange(100)))
        for step in range(rng.randrange(3, 9)):
            lines.append("    a = (a * %d + b) & 0x%x  # step %d"
                         % (rng.randrange(2, 50), rng.randrange(1 << 16),
                            step))
        lines.append("    return {'k': a, 'v': [b, %r]}" % name)
        lines.append("")
    return "\n".join(lines) + "\n"


class _Machine:
    """A register machine over a byte memory, with a block decode cache
    and one bound method per opcode: the shape of an instruction-set
    simulator's inner loop."""

    def __init__(self, rng: random.Random):
        self.mem = bytearray(rng.randrange(256) for _ in range(1 << 16))
        self.regs = [0] * 16
        self.blocks = {}
        self.ops = [self.add, self.sub, self.xor, self.shl, self.mul,
                    self.load, self.store, self.loadb, self.storeb,
                    self.less, self.branch]

    def _decode(self, pc: int):
        word = int.from_bytes(self.mem[pc:pc + 4], "little")
        return (self.ops[(word & 0xf) % len(self.ops)], (word >> 4) & 0xf,
                (word >> 8) & 0xf, word >> 12)

    def _block(self, pc: int):
        block = self.blocks.get(pc)
        if block is None:
            block = [self._decode((pc + 4 * i) & 0xfffc) for i in range(8)]
            self.blocks[pc] = block
        return block

    def add(self, a, c, imm):
        self.regs[a] = (self.regs[c] + imm) & 0xffffffff

    def sub(self, a, c, imm):
        self.regs[a] = (self.regs[c] - imm) & 0xffffffff

    def xor(self, a, c, imm):
        self.regs[a] = self.regs[c] ^ imm

    def shl(self, a, c, imm):
        self.regs[a] = (self.regs[c] << (imm & 7)) & 0xffffffff

    def mul(self, a, c, imm):
        self.regs[a] = (self.regs[c] * (imm | 1)) & 0xffffffff

    def less(self, a, c, imm):
        self.regs[0] = int(self.regs[a] < self.regs[c])

    def load(self, a, c, imm):
        at = (self.regs[c] + imm) & 0xfffc
        self.regs[a] = int.from_bytes(self.mem[at:at + 4], "little")

    def store(self, a, c, imm):
        at = (self.regs[c] ^ imm) & 0xfffc
        self.mem[at:at + 4] = self.regs[a].to_bytes(4, "little")

    def loadb(self, a, c, imm):
        self.regs[a] = self.mem[(self.regs[c] + imm) & 0xffff]

    def storeb(self, a, c, imm):
        self.mem[(self.regs[c] + imm) & 0xffff] = self.regs[a] & 0xff

    def branch(self, a, c, imm):
        return (imm * 32) & 0xffe0

    def run(self, blocks: int) -> int:
        pc = 0
        for _ in range(blocks):
            nxt = (pc + 32) & 0xffe0
            for op, a, c, imm in self._block(pc):
                target = op(a, c, imm)
                if target is not None:
                    nxt = target
                    break
            pc = nxt
        return self.regs[1]


class Reference:
    """The fixed reference task; every call does the same work."""

    def __init__(self):
        rng = random.Random(20240611)
        self.source = _corpus(rng)
        self.old = self.source.splitlines()
        self.new = [line.replace("a", "b") if i % 3 == 0 else line
                    for i, line in enumerate(self.old)]
        self.doc = {"k%d" % i: [i, str(i), {"x": i, "y": [i] * 3}]
                    for i in range(160)}
        self.machine = _Machine(rng)
        self.encoder = json.JSONEncoder()
        self()  # the first call fills the decode cache

    def __call__(self) -> int:
        tokens = sum(1 for _ in tokenize.generate_tokens(
            io.StringIO(self.source).readline))
        opcodes = difflib.SequenceMatcher(None, self.old,
                                          self.new).get_opcodes()
        text = "".join(self.encoder.iterencode(self.doc))
        return tokens + len(opcodes) + len(text) + self.machine.run(2000)


class HostSpeed:
    """Reference samples kept at ``SHARE`` of the workload's processor
    time; see the module."""

    def __init__(self):
        self.reference = Reference()
        self.samples: List[float] = []
        self._start = time.process_time()
        self._spent = 0.0

    def top_up(self) -> None:
        """Run reference samples until they make up ``SHARE`` of the
        processor time since the first call (call it between operations,
        never inside a timed one)."""
        while True:
            workload = time.process_time() - self._start - self._spent
            if self._spent >= SHARE * workload:
                return
            spent = _timed(self.reference)
            self.samples.append(spent)
            self._spent += spent

    def slowness(self) -> float:
        """Mean sample over the nominal one (1.0 on the nominal host,
        above 1 on a slower one)."""
        return sum(self.samples) / len(self.samples) / NOMINAL_S


def _timed(call) -> float:
    """Processor time of ``call`` on this thread alone: a server thread
    finishing its work beside a sample is not the sample's cost."""
    cpu = time.thread_time()
    call()
    return time.thread_time() - cpu
