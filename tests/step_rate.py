"""Time one machine step in each of pulsehit's two step loops:
``machine.classical_run`` and ``reversible.LiveRun.run``.

Prints the process CPU time per step, in nanoseconds, of each loop on
three inputs:

- ``counter_family(10**4)`` and ``counter_family(10**5)``, which read every
  cell of the input and write none;
- a right-mover, ``q0 _ -> q0 1 R``, with a halt rule on ``1`` that it
  never reaches, run for 10**5 steps: every step writes, so the live run's
  undo log takes a cell each step.

A ``classical_run`` time includes building its rule table and its tape; a
``LiveRun.run`` time is the call alone, on a run built before the timer
starts.  Each figure is the median over ``ROUNDS`` rounds; a round runs
every (input, loop) pair once, in an order that is reversed on every other
round, so a host that slows down for a while slows both loops alike.  Every run's step
count is checked.  Only the standard library is used, and the pulsehit
package is whichever one ``PYTHONPATH`` names::

    PYTHONPATH=src python tests/step_rate.py
"""

from __future__ import annotations

import statistics
import sys
import time

from pulsehit.machine import Halted, MachineSpec, Rule, classical_run
from pulsehit.reduction import counter_family
from pulsehit.reversible import BeaconStep, LiveRun, Unbounded

ROUNDS = 21
RIGHT_MOVER = MachineSpec(
    ("q0", "qH"),
    ("_", "1"),
    "q0",
    "qH",
    (Rule("q0", "_", "q0", "1", "R"), Rule("q0", "1", "qH", "1", "S")),
)
# (name, machine, the number of steps each run must take)
INPUTS = (
    ("counter_family(10**4)", counter_family(10**4), 10**4 + 1),
    ("counter_family(10**5)", counter_family(10**5), 10**5 + 1),
    ("right-mover", RIGHT_MOVER, 10**5),
)


def time_classical(spec: MachineSpec, steps: int) -> float:
    """CPU ns per step of one ``classical_run`` of ``steps`` steps."""
    t0 = time.process_time_ns()
    out = classical_run(spec, steps)
    t1 = time.process_time_ns()
    done = out.steps if isinstance(out, Halted) else out.at.step_count
    if done != steps:
        sys.exit(f"classical_run took {done} steps, not {steps}")
    return (t1 - t0) / steps


def time_live(spec: MachineSpec, steps: int) -> float:
    """CPU ns per step of one ``LiveRun.run(steps)`` from the initial label."""
    beacon = BeaconStep(spec, Unbounded())
    run = LiveRun(beacon, beacon.initial_label())
    t0 = time.process_time_ns()
    run.run(steps)
    t1 = time.process_time_ns()
    if run.n != steps:
        sys.exit(f"LiveRun.run took {run.n} steps, not {steps}")
    return (t1 - t0) / steps


LOOPS = (("classical_run", time_classical), ("LiveRun.run", time_live))


def main() -> int:
    pairs = [(inp, loop) for inp in INPUTS for loop in LOOPS]
    times: dict[tuple[str, str], list[float]] = {}
    for r in range(ROUNDS):
        for (name, spec, steps), (loop, timer) in pairs if r % 2 == 0 else pairs[::-1]:
            times.setdefault((name, loop), []).append(timer(spec, steps))
    print(f"ns per step, median of {ROUNDS} rounds of process CPU time")
    print(f"{'input':<24} {'steps':>7} " + " ".join(f"{loop:>14}" for loop, _ in LOOPS))
    for name, _, steps in INPUTS:
        cells = " ".join(f"{statistics.median(times[name, loop]):>14.1f}" for loop, _ in LOOPS)
        print(f"{name:<24} {steps:>7} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
