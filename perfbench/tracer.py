"""Spans around the calls into pulsehit's public functions.

Tracing is installed at run time: each traced function is replaced by a
wrapper in every ``pulsehit`` module namespace that holds it (a function
imported with ``from .dynamics import fractional_coeffs`` is a separate
name in ``hitting`` and must be replaced there too), and methods are
replaced on their class.  Nothing under ``src/`` is edited, and
``uninstall`` puts every original back.

A span is (name, start, end, parent, job).  Spans live in compact arrays
in memory and are written out once, by ``save``.  Each wrapper also adds
its own duration to its parent's child time, so a span's self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from typing import Callable

# (module, attribute) -> span name.  ``BeaconStep.target_predicate`` is
# replaced too, so that the predicate it returns is traced as
# ``reversible.predicate``.
FUNCTIONS = {
    ("machine", "parse_machine"): "machine.parse_machine",
    ("machine", "classical_run"): "machine.classical_run",
    ("dynamics", "cycle_of"): "dynamics.cycle_of",
    ("dynamics", "fractional_coeffs"): "dynamics.fractional_coeffs",
    ("dynamics", "evolve_to"): "dynamics.evolve_to",
    ("dynamics", "approx_unitary"): "dynamics.approx_unitary",
    ("hitting", "uhit_semidecide"): "hitting.uhit_semidecide",
    ("hitting", "fidelity_trace"): "hitting.fidelity_trace",
    ("hitting", "grid_for"): "hitting.grid_for",
    ("hitting", "hit_report_json"): "hitting.hit_report_json",
    ("hitting", "trace_to_csv"): "hitting.trace_to_csv",
    ("reduction", "load_corpus"): "reduction.load_corpus",
    ("reduction", "validate_entry"): "reduction.validate_entry",
    ("reduction", "encode"): "reduction.encode",
    ("reduction", "verify_corpus"): "reduction.verify_corpus",
    ("reduction", "counter_family"): "reduction.counter_family",
    ("reduction", "reduction_report_json"): "reduction.reduction_report_json",
    ("protocol", "adversarial_sweep"): "protocol.adversarial_sweep",
    ("protocol", "run_bounded_protocol"): "protocol.run_bounded_protocol",
    ("protocol", "sweep_report_json"): "protocol.sweep_report_json",
    ("cli", "main"): "cli.main",
}
GENERATORS = {
    ("machine", "classical_trace"): "machine.classical_trace",
}
METHODS = {
    "__init__": "reversible.step_init",
    "forward": "reversible.forward",
}
MODULES = ("machine", "reversible", "dynamics", "hitting", "reduction", "protocol", "cli")


class Tracer:
    """Span store plus per-job counters for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.child = array("d")
        self._stack = [-1]
        self.job_id = 0
        # job -> counter -> value; ``maxima`` keeps largest values instead
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.maxima: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def intern(self, name: str) -> int:
        ix = self._ids.get(name)
        if ix is None:
            ix = self._ids[name] = len(self.names)
            self.names.append(name)
        return ix

    def open(self, name_ix: int) -> int:
        i = len(self.name)
        self.name.append(name_ix)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.child.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        t = time.perf_counter()
        self.end[i] = t
        self._stack.pop()
        parent = self._stack[-1]
        if parent >= 0:
            self.child[parent] += t - self.start[i]

    def count(self, key: str, value: float) -> None:
        self.counts[self.job_id][key] += value

    def count_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def wrap(self, fn: Callable, name: str) -> Callable:
        ix = self.intern(name)
        after = _AFTER.get(name)

        def traced(*args, **kwargs):
            i = self.open(ix)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """One span per resumption of the generator."""
        ix = self.intern(name)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = self.open(ix)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(i)
                yield item

        return traced

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        import pulsehit
        from pulsehit import reversible

        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "pulsehit"]
        for table, wrapper in ((FUNCTIONS, self.wrap), (GENERATORS, self.wrap_generator)):
            for (module, attr), name in table.items():
                original = getattr(getattr(pulsehit, module), attr)
                traced = wrapper(original, name)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._restore.append((ns, key, value))
                            setattr(ns, key, traced)
        cls = reversible.BeaconStep
        for attr, name in METHODS.items():
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name))
        target_predicate = cls.__dict__["target_predicate"]
        self._restore.append((cls, "target_predicate", target_predicate))

        def traced_target_predicate(step, target):
            return self.wrap(target_predicate(step, target), "reversible.predicate")

        cls.target_predicate = traced_target_predicate

    def uninstall(self) -> None:
        while self._restore:
            ns, key, value = self._restore.pop()
            setattr(ns, key, value)

    # -- reading -------------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write every span as compressed arrays (``numpy.load`` reads it)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
        )

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, float], dict[str, float]]:
        """Per span name: duration, self time and call count, each taken as
        the set-up (job 0) plus the mean over traced jobs; and the counters
        combined the same way."""
        jobs = len({j for j in self.job if j > 0}) or 1
        sums = [[defaultdict(float), defaultdict(float)] for _ in range(4)]  # [setup, jobs]
        dur, self_t, calls, counts = sums
        for i in range(len(self.name)):
            part = self.job[i] > 0
            name = self.names[self.name[i]]
            d = self.end[i] - self.start[i]
            dur[part][name] += d
            self_t[part][name] += d - self.child[i]
            calls[part][name] += 1
        for j, bucket in self.counts.items():
            for key, value in bucket.items():
                counts[j > 0][key] += value
        out = []
        for setup, per_jobs in sums:
            combined = defaultdict(float, setup)
            for key, value in per_jobs.items():
                combined[key] += value / jobs
            out.append(combined)
        out[3].update(self.maxima)
        return tuple(out)


# -- counters recorded at span boundaries ------------------------------------------


def _classical_steps(tracer, args, kwargs, run):
    from pulsehit.machine import Halted

    tracer.count("machine.classical_steps", run.steps if isinstance(run, Halted) else run.at.step_count)


def _cycle_len(tracer, args, kwargs, cycle):
    tracer.count_max("dynamics.max_cycle_len", len(cycle))


def _certified_entries(tracer, args, kwargs, matrix):
    tracer.count("dynamics.certified_entries", len(matrix.basis) ** 2)


def _grid_points(inst) -> int:
    """Grid points {n + j delta / G} in [0, horizon]: G + 1 per unit
    interval (the integer, G - 1 mid-pulse points, the pulse end) plus the
    horizon itself."""
    return inst.horizon * (inst.grid + 1) + 1


def _count_up_to(tracer, inst, t_end: Fraction) -> None:
    """Points a scan yields up to ``t_end`` on a clock where no mid-pulse
    point is evaluable (every workload scans unbounded clocks this way)."""
    from pulsehit.reversible import Unbounded

    if not isinstance(inst.schedule.clock, Unbounded):
        raise ValueError("point counts from a report need an unbounded clock")
    whole = t_end.numerator // t_end.denominator
    tracer.count("hitting.points_int", whole + 1)
    if t_end >= inst.schedule.delta:
        past = t_end - inst.schedule.delta
        tracer.count("hitting.points_pulse_end", past.numerator // past.denominator + 1)
    tracer.count("hitting.grid_points", _grid_points(inst))


def _semidecide_points(tracer, args, kwargs, report):
    from pulsehit.hitting import Hit

    inst = args[0]
    t_end = report.t_hit if isinstance(report, Hit) else Fraction(report.horizon)
    _count_up_to(tracer, inst, Fraction(t_end))


def _protocol_points(tracer, args, kwargs, outcome):
    _count_up_to(tracer, args[0], Fraction(outcome.resources.time_used))


def _trace_points(tracer, args, kwargs, rows):
    delta = args[0].schedule.delta
    ints = ends = mids = 0
    for t, _fid in rows:
        if t.denominator == 1:
            ints += 1
        elif t - t.numerator // t.denominator == delta:
            ends += 1
        else:
            mids += 1
    tracer.count("hitting.points_int", ints)
    tracer.count("hitting.points_pulse_end", ends)
    tracer.count("hitting.points_mid", mids)
    tracer.count("hitting.grid_points", _grid_points(args[0]))


def _witnesses(tracer, args, kwargs, witnesses):
    tracer.count("protocol.witnesses", len(witnesses))


_AFTER = {
    "machine.classical_run": _classical_steps,
    "dynamics.cycle_of": _cycle_len,
    "dynamics.approx_unitary": _certified_entries,
    "hitting.uhit_semidecide": _semidecide_points,
    "hitting.fidelity_trace": _trace_points,
    "protocol.run_bounded_protocol": _protocol_points,
    "protocol.adversarial_sweep": _witnesses,
}
