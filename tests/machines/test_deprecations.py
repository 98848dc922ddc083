"""The tree ships warning-clean: nothing in the examples, benchmarks,
or library uses the retired ``Cpu.steps`` alias (``Cpu.icount`` replaced
it), and a representative workload runs without tripping any
DeprecationWarning.
"""

import pathlib
import re
import warnings

from repro.cc.driver import compile_and_link
from repro.machines import Process

REPO = pathlib.Path(__file__).resolve().parent.parent.parent

SOURCE = """int main(void) {
    int i, total;
    total = 0;
    for (i = 0; i < 50; i++)
        total = total + i;
    return total;
}
"""


def test_no_source_still_uses_the_steps_alias():
    # `cpu.steps` is the retired alias (engine blocks have their own,
    # unrelated `steps` attribute, so match the cpu access specifically)
    pattern = re.compile(r"\bcpu\.steps\b", re.IGNORECASE)
    offenders = []
    for tree in ("examples", "benchmarks", "src"):
        for path in (REPO / tree).rglob("*.py"):
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if pattern.search(line):
                    offenders.append("%s:%d: %s"
                                     % (path.relative_to(REPO), number,
                                        line.strip()))
    assert offenders == []


def test_workload_runs_without_deprecation_warnings():
    exe = compile_and_link({"clean.c": SOURCE}, "rmips", debug=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        process = Process(exe)
        event = process.run_until_event()
        assert process.cpu.icount > 0
        assert event is not None
