"""Halting questions recast as hitting questions, and the shipped corpus.

The compilation is thin by design: a machine, a threshold margin, a
schedule and a target determine one hitting instance, and the biconditional
does the rest (the machine halts at step K iff the beacon subspace is hit,
with the hitting time inside [K, K + delta]).  The corpus carries machines
whose halting behaviour is known with checkable certificates: a halting
entry states its exact step count, a looping entry states two steps whose
configurations coincide, which by determinism pins the machine in a cycle
forever.  Certificates are replayed before any scanning, and a certificate
that fails to replay is a corpus bug, reported as its own error type so it
can never masquerade as a verdict about the reduction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Sequence, Union

from .dynamics import PulseSchedule
from .errors import CorpusBugError, MachineSyntaxError, as_count, as_rational, is_count
from .hitting import (
    Exhausted,
    Hit,
    HitReport,
    InstanceDescriptor,
    grid_for,
    _json_lines,
    _report_payload,
    uhit_semidecide,
)
from .machine import Halted, MachineSpec, Rule, classical_run, parse_machine, read_document
from .reversible import BeaconSubspace, ClockMode, ExactLabel


@dataclass(frozen=True)
class Halts:
    """The machine halts after exactly this many steps."""

    steps: int


@dataclass(frozen=True)
class LoopsForever:
    """The configurations at the two named steps coincide, so the machine
    cycles forever without halting."""

    revisit: tuple[int, int]


GroundTruth = Union[Halts, LoopsForever]


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    machine: MachineSpec
    ground_truth: GroundTruth


@dataclass(frozen=True)
class ReductionReport:
    entry: CorpusEntry
    observed: HitReport
    verdict: str  # "agree" | "disagree"


def encode(
    machine: MachineSpec,
    epsilon: Fraction,
    delta: Fraction,
    mode: ClockMode,
    target: Union[BeaconSubspace, ExactLabel],
    horizon: int,
    grid: int | None = None,
) -> InstanceDescriptor:
    """The hitting instance of one halting question.  The grid refinement
    defaults to the epsilon-dependent value that cannot step over the
    threshold crossing within a pulse."""
    if grid is None:
        grid = grid_for(epsilon)
    return InstanceDescriptor(
        machine=machine,
        epsilon=epsilon,
        schedule=PulseSchedule(delta, mode),
        target=target,
        horizon=horizon,
        grid=grid,
    )


# ---------------------------------------------------------------------------
# certificate replay


def _replay_halts(entry: CorpusEntry, claim: Halts) -> None:
    if not is_count(claim.steps) or claim.steps < 0:
        raise CorpusBugError(f"{entry.name}: not a nonnegative step count: {claim.steps!r}")
    run = classical_run(entry.machine, claim.steps)
    if not isinstance(run, Halted):
        raise CorpusBugError(
            f"{entry.name}: still in state {run.at.state} after "
            f"{claim.steps} steps, not halted"
        )
    if run.steps != claim.steps:
        raise CorpusBugError(
            f"{entry.name}: claimed to halt at step {claim.steps} but the "
            f"trace ended at {run.steps}"
        )


def _replay_loops(entry: CorpusEntry, claim: LoopsForever) -> None:
    pair = claim.revisit
    if not (
        isinstance(pair, (tuple, list))
        and len(pair) == 2
        and all(is_count(r) for r in pair)
        and 0 <= pair[0] < pair[1]
    ):
        raise CorpusBugError(f"{entry.name}: malformed revisit pair {pair}")
    r, r2 = pair
    at_r2 = classical_run(entry.machine, r2)
    if isinstance(at_r2, Halted):
        raise CorpusBugError(f"{entry.name}: halts at step {at_r2.steps}, cannot loop")
    # not halted by step r2, so still running at r < r2
    if not classical_run(entry.machine, r).at.same_snapshot(at_r2.at):
        raise CorpusBugError(
            f"{entry.name}: configurations at steps {r} and {r2} differ, "
            "revisit certificate is false"
        )


def validate_entry(entry: CorpusEntry) -> None:
    """Replay the entry's certificate; raises CorpusBugError when it lies."""
    if isinstance(entry.ground_truth, Halts):
        _replay_halts(entry, entry.ground_truth)
    elif isinstance(entry.ground_truth, LoopsForever):
        _replay_loops(entry, entry.ground_truth)
    else:
        raise CorpusBugError(
            f"{entry.name}: unknown ground truth {entry.ground_truth!r}"
        )


# ---------------------------------------------------------------------------
# corpus verification


def _agrees(
    truth: GroundTruth,
    observed: HitReport,
    epsilon: Fraction,
    delta: Fraction,
    horizon: int,
) -> bool:
    if isinstance(truth, Halts):
        if truth.steps <= horizon - 1:
            # detectable: the hit window must overlap [K, K + delta]
            if not isinstance(observed, Hit):
                return False
            lo, hi = observed.window
            return lo <= truth.steps + delta and hi >= truth.steps
        # halts beyond the scan: exhaustion is the right answer
        return isinstance(observed, Exhausted)
    if not isinstance(observed, Exhausted):
        return False
    return observed.max_fidelity_seen <= epsilon


def verify_corpus(
    corpus: Sequence[CorpusEntry],
    epsilon: Fraction,
    delta: Fraction,
    mode: ClockMode,
    horizon: int,
) -> list[ReductionReport]:
    """Replay every certificate, scan every instance for the beacon
    subspace, compare the two.

    The parameters are checked once, before any replay or scan, so a bad
    one is rejected even for an empty corpus."""
    epsilon = as_rational(epsilon, "epsilon")
    grid = grid_for(epsilon)
    delta = PulseSchedule(delta, mode).delta
    as_count(horizon, "horizon", 1)
    reports = []
    for entry in corpus:
        validate_entry(entry)
        inst = encode(entry.machine, epsilon, delta, mode, BeaconSubspace(), horizon, grid)
        observed = uhit_semidecide(inst)
        agree = _agrees(entry.ground_truth, observed, epsilon, delta, horizon)
        reports.append(
            ReductionReport(
                entry=entry,
                observed=observed,
                verdict="agree" if agree else "disagree",
            )
        )
    return reports


def _truth_payload(truth: GroundTruth) -> dict:
    if isinstance(truth, Halts):
        return {"kind": "halts", "K": truth.steps}
    return {"kind": "loops", "revisit": list(truth.revisit)}


def reduction_report_json(reports: Sequence[ReductionReport]) -> str:
    """One JSON object per line, one line per corpus entry."""
    return _json_lines(
        {
            "name": rep.entry.name,
            "expected": _truth_payload(rep.entry.ground_truth),
            "observed": _report_payload(rep.observed),
            "verdict": rep.verdict,
        }
        for rep in reports
    )


# ---------------------------------------------------------------------------
# the adversarial family and corpus loading


def counter_family(n: int) -> MachineSpec:
    """Unary right-scanner over n ones: halts after exactly n + 1 steps,
    so the halting step grows without bound along the family.  The
    adversarial sweep relies on this count to name its witness for a time
    budget tau_max as member floor(tau_max)."""
    as_count(n, "family index")
    return MachineSpec(
        states=("q0", "qH"),
        alphabet=("_", "1"),
        start_state="q0",
        halt_state="qH",
        input_word=("1",) * n,
        rules=(
            Rule("q0", "1", "q0", "1", "R"),
            Rule("q0", "_", "qH", "_", "S"),
        ),
    )


def _parse_ground_truth(name: str, raw) -> GroundTruth:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise CorpusBugError(f"{name}: malformed ground truth {raw!r}")
    if raw["kind"] == "halts":
        steps = raw.get("K")
        if not is_count(steps):
            raise CorpusBugError(f"{name}: halting entry needs an integer K")
        return Halts(steps)
    if raw["kind"] == "loops":
        pair = raw.get("revisit")
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(is_count(x) for x in pair)
        ):
            raise CorpusBugError(f"{name}: looping entry needs revisit [r, r']")
        return LoopsForever((pair[0], pair[1]))
    raise CorpusBugError(f"{name}: unknown ground truth kind {raw['kind']!r}")


def _corpus_from(root, manifest: str) -> list[CorpusEntry]:
    """Corpus from the manifest named ``manifest`` under ``root``, a
    :class:`Path` or an ``importlib.resources`` Traversable; machine files
    are resolved under ``root`` too."""
    try:
        rows = json.loads(read_document(root.joinpath(manifest)))
    except (json.JSONDecodeError, MachineSyntaxError) as exc:
        raise CorpusBugError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(rows, list):
        raise CorpusBugError("manifest must be a JSON list")
    entries = []
    seen = set()
    for row in rows:
        name = row.get("name") if isinstance(row, dict) else None
        if not isinstance(name, str) or not isinstance(row.get("machine_file"), str):
            raise CorpusBugError(f"malformed manifest row {row!r}")
        if name in seen:
            raise CorpusBugError(f"duplicate corpus entry name {name!r}")
        seen.add(name)
        machine = parse_machine(read_document(root.joinpath(row["machine_file"])))
        entries.append(
            CorpusEntry(name, machine, _parse_ground_truth(name, row.get("ground_truth")))
        )
    return entries


def load_corpus(manifest_path: Union[str, Path]) -> list[CorpusEntry]:
    """Corpus from a manifest file; machine files are siblings of it."""
    manifest_path = Path(manifest_path)
    return _corpus_from(manifest_path.parent, manifest_path.name)


def builtin_corpus() -> list[CorpusEntry]:
    """The corpus shipped inside the package."""
    return _corpus_from(resources.files("pulsehit").joinpath("corpus"), "manifest.json")
