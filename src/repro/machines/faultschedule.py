"""Seeded fault schedules: one action per operation, and the same
sequence of actions for the same seed.

The wire harness (:class:`repro.nub.faults.FaultSchedule`) and the
filesystem harness (:class:`repro.machines.atomicio.FsFaultSchedule`)
share this logic; each names its own fault kinds and spec keys.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple


class SeededSchedule:
    """A deterministic, seeded schedule of faults.

    Two modes:

    * probabilistic — per-kind rates drawn from ``random.Random(seed)``;
      ``limit`` caps the total number of injected faults so retries
      eventually meet a clean channel or disk and the workload
      converges;
    * scripted — an explicit ``script`` of actions (``"ok"`` or a fault
      kind) consumed one per operation, then clean forever.

    ``after`` spares the first N operations: the setup lands, and the
    faults strike mid-session.
    """

    #: the fault kinds, in the order a roll tests their rates
    KINDS: Tuple[str, ...] = ()
    #: the actions a script may name besides ``"ok"`` and the kinds
    SCRIPT_EXTRA: Tuple[str, ...] = ()
    #: every key a serialized spec may carry
    SPEC_KEYS: Tuple[str, ...] = ()
    #: what the schedule's spec is called in error messages
    SPEC_NAME = "fault"

    def __init__(self, seed: int, rates: Dict[str, float],
                 limit: Optional[int], script: Optional[List[str]],
                 after: int):
        for kind, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError("bad %s rate %r" % (kind, rate))
        self.rates = rates
        self.limit = limit
        self.script = list(script) if script else []
        for action in self.script:
            if action != "ok" and action not in self.KINDS + self.SCRIPT_EXTRA:
                raise ValueError("unknown scripted action %r" % action)
        if after < 0:
            raise ValueError("bad after %r" % after)
        self.after = after
        self.seed = seed
        self._rng = random.Random(seed)
        self._ops = 0
        self.injected = 0
        self.counts: Dict[str, int] = {}

    @classmethod
    def from_spec(cls, spec: Dict):
        """Build a schedule from a plain JSON-able dict.  Unknown keys
        are rejected loudly: a typo'd spec that silently injects
        nothing would make a whole fault run vacuous."""
        unknown = sorted(set(spec) - set(cls.SPEC_KEYS))
        if unknown:
            raise ValueError("unknown %s spec keys: %s"
                             % (cls.SPEC_NAME, ", ".join(unknown)))
        return cls(**spec)

    def spec(self) -> Dict:
        """The JSON-able description of this schedule's *configuration*
        (not its consumed state): round-trips through :meth:`from_spec`."""
        out: Dict = {"seed": self.seed}
        for kind, rate in self.rates.items():
            if rate:
                out[kind] = rate
        if self.limit is not None:
            out["limit"] = self.limit
        if self.script:
            out["script"] = list(self.script)
        if self.after:
            out["after"] = self.after
        return out

    def next_action(self) -> str:
        """The action for the next operation."""
        op = self._ops
        self._ops += 1
        if op < self.after:
            return "ok"
        action = self._draw(op)
        if action != "ok":
            self.injected += 1
            self.counts[action] = self.counts.get(action, 0) + 1
        return action

    def _draw(self, op: int) -> str:
        """The scripted or rolled action for operation ``op``."""
        if self.script:
            return self.script.pop(0)
        if self.limit is not None and self.injected >= self.limit:
            return "ok"
        roll = self._rng.random()
        total = 0.0
        for kind in self.KINDS:
            total += self.rates[kind]
            if roll < total:
                return kind
        return "ok"
