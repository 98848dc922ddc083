"""Deterministic fault injection for nub channels.

Robustness claims are only as good as the failures they were tested
against, so this module makes failure a first-class, *reproducible*
input: a :class:`FaultInjectingChannel` wraps any :class:`Channel` and
mangles outgoing frames according to a seeded :class:`FaultSchedule`.
The same seed always yields the same fault sequence, so a recovery bug
found by the fault matrix replays exactly.

Fault kinds (per outgoing frame):

* ``drop``      — the frame is silently discarded (a lost datagram /
  half-dead connection); the peer never sees the request;
* ``corrupt``   — one bit after the header is flipped; the receiver's
  CRC check catches it (the nub answers ``ERROR ERR_BAD_MESSAGE``);
* ``truncate``  — only a prefix of the frame is written and the socket
  is closed: a connection cut mid-frame (the "debugger crash" of paper
  Sec. 7.1 at its least convenient moment);
* ``duplicate`` — the frame is sent twice (a retransmit gone wrong);
  its sequence id lets the receiver discard the echo;
* ``delay``     — the frame is delivered after ``latency`` seconds of
  artificial latency.

One failure is deliberately *not* in :data:`FAULT_KINDS` (it is not a
frame fault the retry layer can absorb): **process death**.  A schedule
built with ``kill_after=N`` (or a scripted ``"kill"`` action) tears the
connection down on the N-th frame and raises :class:`NubKilled` in the
nub, simulating the target process dying mid-session — the case where
the debugger must stop retrying and degrade to post-mortem debugging.

Corruption deliberately avoids the length field: a mangled length is a
different failure (unframeable stream) exercised separately by the
serve-loop fuzz tests.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..machines.faultschedule import SeededSchedule
from .channel import Channel, ChannelClosed
from .protocol import HEADER_SIZE, Message, encode

#: every *recoverable* fault kind a schedule can inject; process death
#: ("kill") is separate — it is terminal, not absorbable by retries
FAULT_KINDS = ("drop", "corrupt", "truncate", "duplicate", "delay")


class NubKilled(Exception):
    """Injected process death: the nub (and with it the target) died
    mid-session.  Raised out of the nub's send path so the nub's main
    loop can fall over the way a killed process would — after leaving a
    core behind, if it was configured to."""


class FaultSchedule(SeededSchedule):
    """A deterministic, seeded schedule of frame faults (see
    :class:`~repro.machines.faultschedule.SeededSchedule` for the
    probabilistic and scripted modes and ``after``).

    Beyond the shared logic it adds the ``delay`` fault's ``latency``
    and process death: from frame ``kill_after`` on, every action is
    ``"kill"``.
    """

    KINDS = FAULT_KINDS
    SCRIPT_EXTRA = ("kill",)
    #: every key a serialized spec may carry (the JSON gateway accepts
    #: exactly these in a spawn request's ``fault`` object)
    SPEC_KEYS = ("seed", "drop", "corrupt", "truncate", "duplicate", "delay",
                 "latency", "limit", "script", "kill_after", "after")

    def __init__(self, seed: int = 0, drop: float = 0.0, corrupt: float = 0.0,
                 truncate: float = 0.0, duplicate: float = 0.0,
                 delay: float = 0.0, latency: float = 0.01,
                 limit: Optional[int] = None,
                 script: Optional[List[str]] = None,
                 kill_after: Optional[int] = None,
                 after: int = 0):
        super().__init__(seed, {"drop": drop, "corrupt": corrupt,
                                "truncate": truncate,
                                "duplicate": duplicate, "delay": delay},
                         limit, script, after)
        self.latency = latency
        if kill_after is not None and kill_after < 0:
            raise ValueError("bad kill_after %r" % kill_after)
        #: kill the process on this (0-based) outgoing frame
        self.kill_after = kill_after

    def spec(self) -> Dict:
        out = super().spec()
        if self.latency != 0.01:
            out["latency"] = self.latency
        if self.kill_after is not None:
            out["kill_after"] = self.kill_after
        return out

    def _draw(self, frame: int) -> str:
        if self.kill_after is not None and frame >= self.kill_after:
            return "kill"
        return super()._draw(frame)


class FaultInjectingChannel:
    """A :class:`Channel` look-alike that injects scheduled faults into
    the frames it sends.  Receiving is passed through untouched — wrap
    whichever end's sends should suffer."""

    def __init__(self, channel: Channel, schedule: FaultSchedule):
        self.inner = channel
        self.schedule = schedule

    @property
    def sock(self):
        return self.inner.sock

    def send(self, msg: Message) -> None:
        raw = encode(msg)
        action = self.schedule.next_action()
        if action == "kill":
            # process death: the socket dies with the process, and the
            # nub's main loop unwinds on NubKilled
            try:
                self.inner.sock.close()
            except OSError:
                pass
            raise NubKilled("injected nub process death")
        if action == "drop":
            return
        if action == "delay":
            time.sleep(self.schedule.latency)
        try:
            if action == "corrupt":
                self.inner.sock.sendall(_flip_bit(raw, self.schedule))
            elif action == "truncate":
                cut = max(1, len(raw) // 2)
                self.inner.sock.sendall(raw[:cut])
                self.inner.sock.close()  # the connection dies mid-frame
            elif action == "duplicate":
                self.inner.sock.sendall(raw)
                self.inner.sock.sendall(raw)
            else:
                self.inner.sock.sendall(raw)
        except OSError as err:
            raise ChannelClosed(str(err))

    def recv(self, timeout: Optional[float] = None) -> Message:
        return self.inner.recv(timeout)

    def drain(self) -> int:
        return self.inner.drain()

    def close(self) -> None:
        self.inner.close()


def _flip_bit(raw: bytes, schedule: FaultSchedule) -> bytes:
    """Flip one bit of a frame's payload or trailer, sparing the header
    so the stream stays framed (length corruption is the serve-loop
    fuzz tests' job)."""
    index = HEADER_SIZE + schedule._rng.randrange(len(raw) - HEADER_SIZE)
    bit = 1 << schedule._rng.randrange(8)
    return raw[:index] + bytes([raw[index] ^ bit]) + raw[index + 1:]
