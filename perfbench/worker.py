"""One workload in one fresh interpreter.  Started by ``run.py``; not
meant to be run by hand.

Modes:

* ``setup``: import pulsehit, build the workload's inputs, report the
  process's CPU time when set-up ended, exit.
* ``time``: the same set-up, then jobs with tracing off until ``--seconds``
  have passed (at least ``MIN_JOBS``); every output is checked.
* ``trace``: set-up with the tracer installed, the growth probe of this
  workload, then traced jobs alternating with untraced ones (which give
  the tracing overhead) until ``--seconds`` have passed since the probe
  began.

Jobs and set-up are timed in CPU time of this process, and each time is
also reported against a calibration loop run next to it in the same
process (see ``calibrate``), so that ``run.py`` can rescale it to a fixed
host speed.

The last line of stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from tracer import MODULES, Tracer

MIN_JOBS = 3
PROBE_REPEATS = 5
CAL_ITERS = 10_000  # about 25 ms
# spans whose calls drive a grid scan
SCAN = ("hitting.uhit_semidecide", "hitting.fidelity_trace", "protocol.run_bounded_protocol")
SERIALIZERS = (
    "reduction.reduction_report_json",
    "protocol.sweep_report_json",
    "hitting.hit_report_json",
    "hitting.trace_to_csv",
)


def measure(workload, inputs, seconds: float, tracer=None) -> dict:
    """Run jobs until ``seconds`` have passed and at least ``MIN_JOBS`` ran.

    With a tracer, jobs alternate between traced (odd) and untraced
    (even); checks always run with tracing off and outside the timing.
    The peak resident memory is read after the first job, before any
    check has added its own data; later jobs repeat the same work.  The
    calibration loop runs before the first job and after every job;
    ``cals[i]`` is the mean of the two loops around untraced job ``i``."""
    times: list[float] = []
    cals: list[float] = []
    traced: list[float] = []
    stdout_bytes: list[int] = []
    failed = 0
    first_failure: Optional[str] = None
    peak_rss_mb = 0.0
    least = MIN_JOBS if tracer is None else 2 * MIN_JOBS
    start = time.perf_counter()
    cal = calibrate()
    while len(times) + len(traced) < least or time.perf_counter() - start < seconds:
        on = tracer is not None and (len(times) + len(traced)) % 2 == 1
        if on:
            tracer.job_id = len(traced) + 1
            tracer.install()
        t0 = time.process_time()
        try:
            out = workload.job(inputs)
        finally:
            dt = time.process_time() - t0
            if on:
                tracer.uninstall()
        if not times and not traced:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cal_before, cal = cal, calibrate()
        if on:
            traced.append(dt)
        else:
            times.append(dt)
            cals.append((cal_before + cal) / 2)
        if on and hasattr(out, "stdout"):
            stdout_bytes.append(len(out.stdout.encode()))
        problem = workload.check(inputs, out)
        if problem is not None:
            failed += 1
            first_failure = first_failure or problem
        out = None  # not held while the next job runs
    return {
        "times": times,
        "cals": cals,
        "traced_times": traced,
        "stdout_bytes": stdout_bytes,
        "attempted": len(times) + len(traced),
        "failed": failed,
        "first_failure": first_failure,
        "peak_rss_mb": peak_rss_mb,
    }


def _cpu_s() -> float:
    """CPU time of this process since the interpreter started."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def calibrate() -> float:
    """CPU time of a fixed pure-Python loop that does the kinds of work
    pulsehit's jobs do: ``Fraction`` arithmetic, tuple keys and dict
    stores.  It calls no pulsehit code, so only the host's speed moves it.

    On a shared host the same job's CPU time changes by up to 1.9x, over
    seconds and over minutes, with no time counted as stolen: the core
    runs slower, and this loop slows with it.  The garbage collector is
    off during the loop, so the program's heap does not change its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        acc = Fraction(0)
        seen = {}
        for i in range(1, CAL_ITERS):
            acc += Fraction(i % 7, 2 + i % 5)
            seen[(i & 1023, i & 7)] = acc.numerator & 255
            if acc > 100:
                acc -= 100
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def growth_exponent(w, seed: int, scale: float, scratch: Path,
                    corpus: Path) -> tuple[float, int, int]:
    """log2(t_full / t_half) of one workload's job, at sizes ``scale``
    and half of it.  Each time is the fastest of ``PROBE_REPEATS``
    untraced jobs, the two sizes taking turns so that both meet the same
    host load; outputs are checked too."""
    attempted = failed = 0
    sizes = (scale / 2, scale)
    inputs = [w.build(random.Random(seed), size, corpus, Path(tempfile.mkdtemp(dir=scratch)))
              for size in sizes]
    best = [math.inf, math.inf]
    for _ in range(PROBE_REPEATS):
        for i, x in enumerate(inputs):
            t0 = time.process_time()
            result = w.job(x)
            best[i] = min(best[i], time.process_time() - t0)
            attempted += 1
            failed += w.check(x, result) is not None
    return math.log2(best[1] / best[0]), attempted, failed


def src_lines(package: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in package.rglob("*.py"))


def layer_metrics(tracer, run: dict, exponent: float, lines: int) -> dict:
    dur, self_t, calls, counts = tracer.totals()
    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    def ratio(a, b):
        return a / b if b else 0.0

    put("machine.parse_s", dur["machine.parse_machine"], "s")
    put("machine.parse_calls", calls["machine.parse_machine"], "count")
    put("machine.classical_run_s", dur["machine.classical_run"], "s")
    put("machine.classical_run_calls", calls["machine.classical_run"], "count")
    put("machine.classical_steps", counts["machine.classical_steps"], "count")
    put("machine.classical_trace_s", dur["machine.classical_trace"], "s")

    put("reversible.forward_s", dur["reversible.forward"], "s")
    put("reversible.forward_calls", calls["reversible.forward"], "count")
    put("reversible.forward_us_per_call",
        1e6 * ratio(dur["reversible.forward"], calls["reversible.forward"]), "us")
    put("reversible.predicate_s", dur["reversible.predicate"], "s")
    put("reversible.predicate_calls", calls["reversible.predicate"], "count")
    put("reversible.step_init_calls", calls["reversible.step_init"], "count")
    put("reversible.step_init_s", dur["reversible.step_init"], "s")

    put("dynamics.cycle_of_s", dur["dynamics.cycle_of"], "s")
    put("dynamics.max_cycle_len", counts["dynamics.max_cycle_len"], "count")
    put("dynamics.fractional_coeffs_s", dur["dynamics.fractional_coeffs"], "s")
    put("dynamics.fractional_coeffs_calls", calls["dynamics.fractional_coeffs"], "count")
    put("dynamics.evolve_to_s", dur["dynamics.evolve_to"], "s")
    put("dynamics.approx_unitary_s", dur["dynamics.approx_unitary"], "s")
    put("dynamics.approx_unitary_calls", calls["dynamics.approx_unitary"], "count")
    put("dynamics.certified_entries", counts["dynamics.certified_entries"], "count")

    scan_s = sum(dur[n] for n in SCAN)
    points = sum(counts[f"hitting.points_{k}"] for k in ("int", "pulse_end", "mid"))
    put("hitting.scan_s", scan_s, "s")
    put("hitting.scan_self_s", sum(self_t[n] for n in SCAN), "s")
    put("hitting.points", points, "count")
    put("hitting.points_int", counts["hitting.points_int"], "count")
    put("hitting.points_pulse_end", counts["hitting.points_pulse_end"], "count")
    put("hitting.points_mid", counts["hitting.points_mid"], "count")
    put("hitting.us_per_point", 1e6 * ratio(scan_s, points), "us")
    put("hitting.evaluated_ratio", ratio(points, counts["hitting.grid_points"]), "ratio")

    put("reduction.load_corpus_s", dur["reduction.load_corpus"], "s")
    put("reduction.validate_entry_s", dur["reduction.validate_entry"], "s")
    put("reduction.encode_s", dur["reduction.encode"], "s")
    put("reduction.encode_calls", calls["reduction.encode"], "count")

    members = calls["reduction.counter_family"]
    put("protocol.sweep_s", dur["protocol.adversarial_sweep"], "s")
    put("protocol.bounded_protocol_s", dur["protocol.run_bounded_protocol"], "s")
    put("protocol.family_members", members, "count")
    put("protocol.useful_ratio", ratio(counts["protocol.witnesses"], members), "ratio")

    put("cli.main_s", dur["cli.main"], "s")
    put("cli.serialize_s", sum(dur[n] for n in SERIALIZERS), "s")
    put("cli.stdout_bytes", statistics.fmean(run["stdout_bytes"] or [0]), "bytes")

    for module in MODULES:
        put(f"{module}.self_s", sum(v for k, v in self_t.items() if k.startswith(module + ".")), "s")

    put("trace.overhead_frac",
        statistics.median(run["traced_times"]) / statistics.median(run["times"]) - 1, "ratio")
    put("scaling.exponent", exponent, "log2")
    put("src_lines", lines, "lines")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True, help="directory for scratch files and spans")
    args = parser.parse_args(argv)

    cal_before = calibrate()
    import pulsehit

    package = Path(pulsehit.__file__).resolve().parent
    if package.parent != args.src.resolve():
        print(f"imported pulsehit from {package}, not from {args.src}", file=sys.stderr)
        return 1
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    corpus = package / "corpus"
    args.out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.out) as scratch:
        scratch = Path(scratch)
        tracer = None
        if args.mode == "trace":
            tracer = Tracer()
            tracer.install()
        try:
            inputs = workload.build(random.Random(args.seed), args.scale, corpus, scratch)
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_s = _cpu_s() - cal_before
        result = {"setup_s": setup_s, "setup_cal": (cal_before + calibrate()) / 2}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0
        seconds = args.seconds
        if tracer is not None:  # the probe's time counts toward --seconds
            started = time.perf_counter()
            exponent, probe_attempted, probe_failed = growth_exponent(
                workload, args.seed, args.scale, scratch, corpus)
            seconds -= time.perf_counter() - started
        run = measure(workload, inputs, seconds, tracer)
        result.update(
            attempted=run["attempted"],
            failed=run["failed"],
            first_failure=run["first_failure"],
            times=run["times"],
            cals=run["cals"],
            peak_rss_mb=run["peak_rss_mb"],
        )
        if tracer is not None:
            result["attempted"] += probe_attempted
            result["failed"] += probe_failed
            result["metrics"] = layer_metrics(tracer, run, exponent, src_lines(package))
            tracer.save(args.out / f"spans-{workload.name}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
