"""The benchmark's workloads: inputs drawn from a seed, one job, and the
check of the job's output.

Each workload builds its inputs once (the set-up), then runs the same job
repeatedly.  The seed changes which inputs are drawn, never how much work
they need.  ``scale`` shrinks every size for the growth probe (1/2) and
for the benchmark's own tests; 1 is the benchmarked size.

Every call into pulsehit goes through a module attribute at call time, so
the tracer's run-time wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

from pulsehit import cli, dynamics, hitting, machine, reduction, reversible

EPSILON = Fraction(1, 4)
DELTA = Fraction(1, 2)
HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (rng, scale, corpus dir, scratch dir) -> inputs
    build: Callable[[random.Random, float, Path, Path], Any]
    job: Callable[[Any], Any]
    # (inputs, output) -> None when correct, else the first mismatch
    check: Callable[[Any, Any], Optional[str]]


class CliRun(NamedTuple):
    code: int
    stdout: str


def _run_cli(argv: list[str]) -> CliRun:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return CliRun(code, out.getvalue())


def _scaled(size: int, scale: float, least: int) -> int:
    return max(least, round(size * scale))


def _corpus_rows(corpus: Path) -> list[dict]:
    return json.loads((corpus / "manifest.json").read_text())


def _parse(corpus: Path, name: str):
    row = next(r for r in _corpus_rows(corpus) if r["name"] == name)
    return machine.parse_machine((corpus / row["machine_file"]).read_text()), row


# ---------------------------------------------------------------------------
# verify-corpus: the headline command, in process


@dataclass
class VerifyInputs:
    argv: list[str]
    order: list[str]
    horizon: int
    golden: dict[str, str]


def _build_verify(rng: random.Random, scale: float, corpus: Path, scratch: Path) -> VerifyInputs:
    horizon = _scaled(10_000, scale, 250)  # every halter (K <= 200) still hits
    rows = _corpus_rows(corpus)
    rng.shuffle(rows)
    for row in rows:
        row["machine_file"] = str(corpus.resolve() / row["machine_file"])
    manifest = scratch / "manifest.json"
    manifest.write_text(json.dumps(rows))
    reduction.load_corpus(manifest)  # reads and parses every machine once
    lines = (HERE / "golden" / "verify-corpus.jsonl").read_text().splitlines()
    golden = {json.loads(line)["name"]: line for line in lines}
    return VerifyInputs(
        argv=["verify", "--horizon", str(horizon), "--corpus", str(manifest)],
        order=[row["name"] for row in rows],
        horizon=horizon,
        golden=golden,
    )


def _check_verify(inputs: VerifyInputs, run: CliRun) -> Optional[str]:
    if run.code != 0:
        return f"verify exited {run.code}"
    lines = run.stdout.splitlines()
    if len(lines) != len(inputs.order):
        return f"{len(lines)} report lines for {len(inputs.order)} entries"
    for name, line in zip(inputs.order, lines):
        got = json.loads(line)
        want = json.loads(inputs.golden[name])
        if want["observed"]["outcome"] == "exhausted":
            want["observed"]["horizon"] = inputs.horizon
        if got.get("verdict") != "agree":
            return f"{name}: verdict {got.get('verdict')!r}"
        if got != want:
            return f"{name}: {line} differs from the recorded line"
    return None


VERIFY = Workload(
    name="verify-corpus",
    why="the headline command: verify at horizon 10^4 over the 17-machine corpus; "
        "looper scans on the unbounded clock, no mid-pulse work",
    build=_build_verify,
    job=lambda inputs: _run_cli(inputs.argv),
    check=_check_verify,
)


# ---------------------------------------------------------------------------
# cyclic-trace: mid-pulse evaluation and the exact-label predicate

GRID = 5  # j / 2G is never a Niven point for 0 < j < G, so sin^2 is a float


@dataclass
class TraceInputs:
    machine: Any
    halt_step: int
    horizon: int
    beacon: Any
    exact: Any
    exact_period: int
    target_steps: int
    samples: list[tuple[int, int]]  # (n, j) mid-pulse points to certify
    points: list = None
    reference: dict = None


def _build_trace(rng: random.Random, scale: float, corpus: Path, scratch: Path) -> TraceInputs:
    spec, row = _parse(corpus, "scan-199")
    halt_step = row["ground_truth"]["K"]
    horizon = _scaled(3000, scale, halt_step + 100)
    # the exact half sums O(cycle length) weights per mid-pulse point, so
    # its period is drawn among those whose cycle has 14 labels
    beacon_period, exact_period = rng.randint(5, 13), rng.choice((7, 14))
    target_steps = halt_step + rng.randint(1, 13)
    clock = reversible.Cyclic(exact_period)
    step = reversible.BeaconStep(spec, clock)
    label = step.initial_label()
    for _ in range(target_steps):
        label = step.forward(label)
    beacon = reduction.encode(spec, EPSILON, DELTA, reversible.Cyclic(beacon_period),
                              reversible.BeaconSubspace(), horizon, GRID)
    exact = reduction.encode(spec, EPSILON, DELTA, clock, reversible.ExactLabel(label),
                             horizon, GRID)
    samples = [(rng.randrange(halt_step, horizon), rng.randint(1, GRID - 1)) for _ in range(3)]
    return TraceInputs(spec, halt_step, horizon, beacon, exact, exact_period,
                       target_steps, samples)


def _trace_job(inputs: TraceInputs):
    return hitting.fidelity_trace(inputs.beacon), hitting.fidelity_trace(inputs.exact)


def _expected_points(inputs: TraceInputs) -> list[tuple[Fraction, int, int]]:
    """Every grid point the scan evaluates, as (t, n, j): the integer n
    (j = 0), the G - 1 mid-pulse points of each pulse that starts from a
    halted label, and the pulse end (j = G)."""
    points = []
    for n in range(inputs.horizon + 1):
        points.append((Fraction(n), n, 0))
        if n == inputs.horizon:
            break
        if n >= inputs.halt_step:
            points.extend((n + Fraction(j, GRID) * DELTA, n, j) for j in range(1, GRID))
        points.append((n + DELTA, n, GRID))
    return points


def _certified_weight(inputs: TraceInputs, n: int, j: int) -> float:
    """Fidelity with the exact target at n + j delta / G, from the
    certified operator on the cycle through the label at time n."""
    clock = reversible.Cyclic(inputs.exact_period)
    step = reversible.BeaconStep(inputs.machine, clock)
    label = step.initial_label()
    for _ in range(n):
        label = step.forward(label)
    basis = dynamics.cycle_of(step, label)
    sched = dynamics.PulseSchedule(DELTA, clock)
    column = dynamics.approx_unitary(step, sched, basis, Fraction(j, GRID) * DELTA, 40).column(0)
    phi = inputs.exact.target.phi
    return sum(float(re) ** 2 + float(im) ** 2
               for (re, im), lab in zip(column, basis) if lab == phi)


def _check_trace(inputs: TraceInputs, output) -> Optional[str]:
    if inputs.reference is None:  # computed once, outside the timed jobs
        inputs.points = _expected_points(inputs)
        inputs.reference = {s: _certified_weight(inputs, *s) for s in inputs.samples}
    beacon, exact = output
    for half, rows in (("beacon", beacon), ("exact", exact)):
        if len(rows) != len(inputs.points):
            return f"{half} half: {len(rows)} points, expected {len(inputs.points)}"
    halt, cycle = inputs.halt_step, math.lcm(inputs.exact_period, 2)
    sin2 = [math.sin(math.pi * j / (2 * GRID)) ** 2 for j in range(GRID)]
    for (t, n, j), (tb, fb), (te, fe) in zip(inputs.points, beacon, exact):
        if tb != t or te != t:
            return f"evaluated t={tb} and t={te} where t={t} was expected"
        if 0 < j < GRID:
            lit = n > halt and (n - halt) % 2 == 1
            want = 1 - sin2[j] if lit else sin2[j]
            if abs(fb - want) > 1e-12:
                return f"beacon mid-pulse fidelity {fb} at t={t}, expected {want}"
            continue
        at = n + (j == GRID)  # a pulse end shows the label one step on
        lit = at > halt and (at - halt) % 2 == 1
        on = at >= halt and (at - inputs.target_steps) % cycle == 0
        if fb != float(lit) or fe != float(on):
            return f"fidelities {fb}, {fe} at t={t}, expected {float(lit)}, {float(on)}"
    by_time = dict(exact)
    for (n, j), want in inputs.reference.items():
        got = by_time[n + Fraction(j, GRID) * DELTA]
        if abs(got - want) > 1e-9:
            return f"exact fidelity {got} at n={n}, j={j}; certified route gives {want}"
    return None


CYCLIC = Workload(
    name="cyclic-trace",
    why="mid-pulse evaluation: fidelity_trace of scan-199 on cyclic clocks at grid 5, "
        "beacon target (sin^2 branch) and an exact post-halt target (FFT weights, serial compares)",
    build=_build_trace,
    job=_trace_job,
    check=_check_trace,
)


# ---------------------------------------------------------------------------
# certified-route: evolve_to against approx_unitary at large cycles

CYCLES = (32, 64, 128, 256)


@dataclass
class RouteInputs:
    cases: list[tuple[Any, Any, Any, Any, int, Fraction]]  # step, sched, psi0, label_n, n, s


def _build_route(rng: random.Random, scale: float, corpus: Path, scratch: Path) -> RouteInputs:
    spec, row = _parse(corpus, "scan-20")
    halt_step = row["ground_truth"]["K"]
    cases = []
    for k in CYCLES:
        period = max(2, round(k * scale))  # even period: the cycle length is the period
        clock = reversible.Cyclic(period)
        step = reversible.BeaconStep(spec, clock)
        n = halt_step + rng.randrange(period)
        label = step.initial_label()
        for _ in range(n):
            label = step.forward(label)
        s = Fraction(rng.randint(1, 63), 64) * DELTA
        psi0 = dynamics.SparseState.basis_state(step.initial_label())
        cases.append((step, dynamics.PulseSchedule(DELTA, clock), psi0, label, n, s))
    return RouteInputs(cases)


def _route_job(inputs: RouteInputs):
    out = []
    for step, sched, psi0, label, n, s in inputs.cases:
        psi = dynamics.evolve_to(step, sched, psi0, n + s)
        basis = dynamics.cycle_of(step, label)
        out.append((psi, basis, dynamics.approx_unitary(step, sched, basis, s, 40)))
    return out


def _check_route(inputs: RouteInputs, output) -> Optional[str]:
    if len(output) != len(inputs.cases):
        return f"{len(output)} results for {len(inputs.cases)} cycles"
    for (step, _sched, _psi0, _label, n, s), (psi, basis, matrix) in zip(inputs.cases, output):
        k = len(basis)
        if abs(float(psi.norm2()) - 1.0) > 1e-12:
            return f"k={k}: evolve_to norm {float(psi.norm2())}"
        if matrix.bound != Fraction(1, 2**40):
            return f"k={k}: certified bound {matrix.bound}"
        weight = 0.0
        for (re, im), lab in zip(matrix.column(0), basis):
            amp = psi.amplitude(lab)
            got = amp.as_complex() if amp else 0j
            if abs(got - complex(float(re), float(im))) > 1e-9:
                return f"k={k}, t={n + s}: routes differ at {lab!r}"
            weight += abs(got) ** 2
        if abs(weight - 1.0) > 1e-12:
            return f"k={k}: weight {weight} outside the cycle"
    return None


CERTIFIED = Workload(
    name="certified-route",
    why="the only workload where approx_unitary works: O(k^2) certified operator "
        "against evolve_to at cycle lengths 32..256",
    build=_build_route,
    job=_route_job,
    check=_check_route,
)


# ---------------------------------------------------------------------------
# budget-sweep: budgeted protocols over the counter family

BUDGETS = (10, 100, 1000, 2000)


@dataclass
class SweepInputs:
    argv: list[str]
    budgets: list[int]


def _build_sweep(rng: random.Random, scale: float, corpus: Path, scratch: Path) -> SweepInputs:
    budgets = [_scaled(b, scale, 1) + rng.randint(0, 9) for b in BUDGETS]
    return SweepInputs(["sweep", "--budgets", ",".join(map(str, budgets))], budgets)


def _check_sweep(inputs: SweepInputs, run: CliRun) -> Optional[str]:
    if run.code != 0:
        return f"sweep exited {run.code}"
    lines = run.stdout.splitlines()
    if len(lines) != len(inputs.budgets):
        return f"{len(lines)} witnesses for {len(inputs.budgets)} budgets"
    for b, line in zip(inputs.budgets, lines):
        got = json.loads(line)
        witness, used = got["witness"], got["resources"]
        if got["budget"] != {"tau_max": str(b), "e_max": b}:
            return f"budget {b}: reported as {got['budget']}"
        if witness != {"name": f"counter-{b}", "n": b, "K": b + 1}:
            return f"budget {b}: witness {witness}"
        if got["outcome"] != "reported-unreachable":
            return f"budget {b}: outcome {got['outcome']}"
        if Fraction(used["time_used"]) > b or used["work_used"] > b:
            return f"budget {b}: resources {used} overdraw the budget"
        run_ = machine.classical_run(reduction.counter_family(witness["n"]), witness["n"] + 2)
        if not isinstance(run_, machine.Halted) or run_.steps != witness["K"]:
            return f"budget {b}: classical run gives {run_}"
    return None


SWEEP = Workload(
    name="budget-sweep",
    why="sweep --budgets 10,100,1000,2000 (+ seeded 0-9): the quadratic walk of "
        "classical_run over family members, many short gated scans",
    build=_build_sweep,
    job=lambda inputs: _run_cli(inputs.argv),
    check=_check_sweep,
)


WORKLOADS = {w.name: w for w in (VERIFY, CYCLIC, CERTIFIED, SWEEP)}
