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

import random
import time
from typing import Dict, List, Optional

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


class FaultSchedule:
    """A deterministic, seeded schedule of frame faults.

    Two modes:

    * probabilistic — per-kind rates (``drop=0.2, corrupt=0.1, ...``)
      drawn from ``random.Random(seed)``; ``limit`` caps the total
      number of injected faults so retries eventually meet a clean
      channel and the workload converges;
    * scripted — an explicit ``script`` of actions (``"ok"`` or a fault
      kind) consumed one per frame, then clean forever.
    """

    def __init__(self, seed: int = 0, drop: float = 0.0, corrupt: float = 0.0,
                 truncate: float = 0.0, duplicate: float = 0.0,
                 delay: float = 0.0, latency: float = 0.01,
                 limit: Optional[int] = None,
                 script: Optional[List[str]] = None,
                 kill_after: Optional[int] = None,
                 after: int = 0):
        self.rates = {"drop": drop, "corrupt": corrupt, "truncate": truncate,
                      "duplicate": duplicate, "delay": delay}
        for kind, rate in self.rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError("bad %s rate %r" % (kind, rate))
        self.latency = latency
        self.limit = limit
        self.script = list(script) if script else []
        for action in self.script:
            if action != "ok" and action != "kill" and action not in FAULT_KINDS:
                raise ValueError("unknown scripted action %r" % action)
        if kill_after is not None and kill_after < 0:
            raise ValueError("bad kill_after %r" % kill_after)
        #: kill the process on this (0-based) outgoing frame
        self.kill_after = kill_after
        if after < 0:
            raise ValueError("bad after %r" % after)
        #: frames before this index pass clean — lets a chaos schedule
        #: spare the spawn handshake and strike mid-session
        self.after = after
        self._frames = 0
        self.seed = seed
        self._rng = random.Random(seed)
        self.injected = 0
        self.counts: Dict[str, int] = {}

    #: every key a serialized spec may carry (the JSON gateway accepts
    #: exactly these in a spawn request's ``fault`` object)
    SPEC_KEYS = ("seed", "drop", "corrupt", "truncate", "duplicate", "delay",
                 "latency", "limit", "script", "kill_after", "after")

    @classmethod
    def from_spec(cls, spec: Dict) -> "FaultSchedule":
        """Build a schedule from a plain JSON-able dict — the form a
        session server receives inside a spawn request.  Unknown keys
        are rejected loudly: a typo'd chaos spec that silently injects
        nothing would make a whole chaos run vacuous."""
        unknown = sorted(set(spec) - set(cls.SPEC_KEYS))
        if unknown:
            raise ValueError("unknown fault spec keys: %s"
                             % ", ".join(unknown))
        return cls(**spec)

    def spec(self) -> Dict:
        """The JSON-able description of this schedule's *configuration*
        (not its consumed state): round-trips through :meth:`from_spec`."""
        out: Dict = {"seed": self.seed}
        for kind, rate in self.rates.items():
            if rate:
                out[kind] = rate
        if self.latency != 0.01:
            out["latency"] = self.latency
        if self.limit is not None:
            out["limit"] = self.limit
        if self.script:
            out["script"] = list(self.script)
        if self.kill_after is not None:
            out["kill_after"] = self.kill_after
        if self.after:
            out["after"] = self.after
        return out

    def next_action(self) -> str:
        """The action for the next outgoing frame."""
        frame = self._frames
        self._frames += 1
        if frame < self.after:
            return "ok"
        if self.kill_after is not None and frame >= self.kill_after:
            self.injected += 1
            self.counts["kill"] = self.counts.get("kill", 0) + 1
            return "kill"
        if self.script:
            action = self.script.pop(0)
        elif self.limit is not None and self.injected >= self.limit:
            action = "ok"
        else:
            action = "ok"
            roll = self._rng.random()
            total = 0.0
            for kind in FAULT_KINDS:
                total += self.rates[kind]
                if roll < total:
                    action = kind
                    break
        if action != "ok":
            self.injected += 1
            self.counts[action] = self.counts.get(action, 0) + 1
        return action


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
