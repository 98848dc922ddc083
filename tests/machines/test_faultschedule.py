"""The seeded fault schedules of the wire and filesystem harnesses run
on one implementation; these tables, recorded before the two were
merged, hold each schedule's first 64 actions for a seed and a
configuration, so a fault run found with a seed still replays exactly.

One letter per action: ``.`` is ok, the rest name the fault kinds.
"""

import pytest

from repro.machines.atomicio import FsFaultSchedule
from repro.nub.faults import FaultSchedule

WIRE = {"ok": ".", "drop": "d", "corrupt": "c", "truncate": "t",
        "duplicate": "u", "delay": "l", "kill": "k"}
DISK = {"ok": ".", "enospc": "n", "torn": "t", "powercut": "p", "eio": "e"}

#: (spec, first 64 actions, faults injected among them)
WIRE_TABLE = [
    ({"seed": 11, "drop": 0.3, "corrupt": 0.3, "duplicate": 0.2},
     "cc.cccdcuudcd.ud..uuddcddddcc.cucucd...ucddduc.c..dd.c.cduuddc.u", 50),
    ({"seed": 3, "drop": 0.25, "limit": 5},
     "d....dd..d.....d................................................", 5),
    ({"seed": 7, "drop": 0.1, "corrupt": 0.1, "truncate": 0.1,
      "duplicate": 0.1, "delay": 0.1, "after": 5, "kill_after": 40},
     ".....uc.d.ud.dlddl.ct...u.d.tccu.c..u.ddkkkkkkkkkkkkkkkkkkkkkkkk", 46),
    ({"seed": 0, "drop": 0.5, "script": ["ok", "drop", "kill", "corrupt"]},
     ".dkc..dd.d.dd...d..d....d...ddd...d.d..d.d..dd.dd.d.d..ddd..d...", 28),
    ({"seed": 42, "delay": 0.5, "truncate": 0.2, "limit": 10, "after": 3},
     "...ltll.l.tltll.................................................", 10),
    ({"seed": 5, "drop": 0.5, "kill_after": 2, "after": 6},
     "......kkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkk", 58),
]

DISK_TABLE = [
    ({"seed": 1, "enospc": 0.2, "torn": 0.2, "powercut": 0.2, "eio": 0.2},
     "n.etppeenn.penpet..nnp.ttpntpptttptn.pen..ntee.p.etp..ppntepnpee", 52),
    ({"seed": 9, "enospc": 0.1, "powercut": 0.05, "limit": 3, "after": 2},
     "....p.n..n......................................................", 3),
    ({"seed": 0, "powercut": 0.5, "script": ["ok", "eio", "torn"]},
     ".et..pp.p.pp...p..p....p...ppp...p.p..p.p..pp.pp.p.p..ppp..p....", 27),
    ({"seed": 123, "eio": 0.5, "limit": 7},
     "eeee.e.e.e......................................................", 7),
    ({"seed": 17, "torn": 0.3, "after": 10},
     ".............t...tt..t......t..t...t....t...t...t.t......t....t.", 13),
]

CASES = ([(FaultSchedule, WIRE) + row for row in WIRE_TABLE]
         + [(FsFaultSchedule, DISK) + row for row in DISK_TABLE])


@pytest.mark.parametrize("cls,letters,spec,actions,injected", CASES)
def test_first_64_actions_match_the_recorded_table(cls, letters, spec,
                                                   actions, injected):
    schedule = cls.from_spec(dict(spec))
    drawn = "".join(letters[schedule.next_action()] for _ in range(64))
    assert drawn == actions
    assert schedule.injected == injected
    assert schedule.injected == sum(schedule.counts.values())
