"""Command-line surface tying the pipeline together.

Six commands: ``compile`` a machine into a hitting instance, ``evolve``
the initial state to a rational time and dump it, ``hit`` to semi-decide
the instance, ``trace`` its fidelity samples, ``verify`` a corpus against
its certificates, and ``sweep`` budgeted protocols over the counter
family.

Rational parameters are written exactly as ``p/q`` (or a bare integer);
float spellings are rejected so thresholds and grid ties stay exact.
Every command is deterministic: the same invocation produces the same
bytes.  Exit codes are stable across commands: 0 for success or a hit,
2 for a negative semi-decision (exhausted, or a corpus disagreement),
1 for any error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

from .dynamics import PulseSchedule, SparseState, evolve_to, state_to_json
from .errors import ParameterRangeError, PulsehitError
from .hitting import (
    Hit,
    fidelity_trace,
    hit_report_json,
    trace_to_csv,
    uhit_semidecide,
)
from .machine import parse_machine
from .protocol import ProtocolBudget, adversarial_sweep, sweep_report_json
from .reduction import builtin_corpus, encode, load_corpus, verify_corpus, reduction_report_json
from .reversible import BeaconStep, BeaconSubspace, ClockMode, Cyclic, ExactLabel, Unbounded

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2

_RATIONAL = re.compile(r"-?\d+(?:/[1-9]\d*)?")


def _rational(text: str) -> Fraction:
    if not _RATIONAL.fullmatch(text):
        raise argparse.ArgumentTypeError(
            f"expected an exact rational like 1/4 or 3, got {text!r}"
        )
    return Fraction(text)


def _clock(text: str) -> ClockMode:
    if text == "unbounded":
        return Unbounded()
    m = re.fullmatch(r"cyclic:(\d+)", text)
    if m:
        try:
            return Cyclic(int(m.group(1)))
        except PulsehitError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    raise argparse.ArgumentTypeError(
        f"expected unbounded or cyclic:L, got {text!r}"
    )


def _target(text: str) -> tuple[str, int]:
    if text == "beacon":
        return ("beacon", 0)
    if text == "exact":
        return ("exact", 0)
    m = re.fullmatch(r"exact:(\d+)", text)
    if m:
        return ("exact", int(m.group(1)))
    raise argparse.ArgumentTypeError(
        f"expected beacon, exact, or exact:N, got {text!r}"
    )


def _budgets(text: str) -> list[int]:
    items = [piece.strip() for piece in text.split(",")]
    if not items or any(not piece.isdigit() or int(piece) < 1 for piece in items):
        raise argparse.ArgumentTypeError(
            f"expected a comma list of positive integers, got {text!r}"
        )
    return [int(piece) for piece in items]


@dataclass(frozen=True)
class RunConfig:
    """One fully parsed invocation, re-validated at the boundary."""

    command: str
    machine_path: Optional[str] = None
    epsilon: Fraction = Fraction(1, 4)
    delta: Fraction = Fraction(1, 2)
    horizon: int = 100
    grid: Optional[int] = None
    clock_mode: ClockMode = Unbounded()
    target_mode: tuple[str, int] = ("beacon", 0)
    time: Optional[Fraction] = None
    budgets: Optional[list[int]] = None
    family_cap: int = 10_000
    corpus_path: Optional[str] = None
    output_path: Optional[str] = None
    format: Optional[str] = None

    def __post_init__(self):
        if self.command not in {"compile", "evolve", "hit", "verify", "sweep", "trace"}:
            raise ParameterRangeError(f"unknown command {self.command!r}")
        if not 0 < self.epsilon < Fraction(1, 2):
            raise ParameterRangeError(
                f"epsilon must lie strictly between 0 and 1/2, got {self.epsilon}"
            )
        if not 0 < self.delta < 1:
            raise ParameterRangeError(
                f"delta must lie strictly between 0 and 1, got {self.delta}"
            )
        if self.horizon < 1:
            raise ParameterRangeError(f"horizon must be at least 1, got {self.horizon}")
        if self.grid is not None and self.grid < 1:
            raise ParameterRangeError(f"grid must be at least 1, got {self.grid}")
        if self.time is not None and self.time < 0:
            raise ParameterRangeError(f"time must be nonnegative, got {self.time}")
        if self.format not in (None, "json", "csv"):
            raise ParameterRangeError(f"format must be json or csv, got {self.format!r}")


def _read_machine(config: RunConfig):
    return parse_machine(Path(config.machine_path).read_text())


def _resolve_target(machine, config: RunConfig) -> Union[BeaconSubspace, ExactLabel]:
    kind, steps = config.target_mode
    if kind == "beacon":
        return BeaconSubspace()
    step = BeaconStep(machine, config.clock_mode)
    label = step.initial_label()
    for _ in range(steps):
        label = step.forward(label)
    return ExactLabel(label)


def _instance(config: RunConfig):
    machine = _read_machine(config)
    target = _resolve_target(machine, config)
    return encode(
        machine,
        config.epsilon,
        config.delta,
        config.clock_mode,
        target,
        config.horizon,
        config.grid,
    )


def _emit(text: str, config: RunConfig) -> None:
    if config.output_path:
        Path(config.output_path).write_text(text)
    else:
        sys.stdout.write(text)


def _clock_payload(clock: ClockMode) -> str:
    return "unbounded" if isinstance(clock, Unbounded) else f"cyclic:{clock.period}"


def _target_payload(config: RunConfig) -> str:
    kind, steps = config.target_mode
    return "beacon" if kind == "beacon" else f"exact:{steps}"


def _require_json(config: RunConfig) -> None:
    if config.format == "csv":
        raise ParameterRangeError("csv output is only defined for the trace command")


def cmd_compile(config: RunConfig) -> int:
    _require_json(config)
    inst = _instance(config)
    spec = inst.machine
    payload = {
        "clock": _clock_payload(config.clock_mode),
        "delta": str(inst.schedule.delta),
        "epsilon": str(inst.epsilon),
        "grid": inst.grid,
        "horizon": inst.horizon,
        "machine": {
            "alphabet": list(spec.alphabet),
            "halt": spec.halt_state,
            "input": list(spec.input_word),
            "rules": [
                [r.state, r.read, r.next_state, r.write, r.move] for r in spec.rules
            ],
            "start": spec.start_state,
            "states": list(spec.states),
        },
        "target": _target_payload(config),
    }
    _emit(json.dumps(payload, sort_keys=True) + "\n", config)
    return EXIT_OK


def cmd_evolve(config: RunConfig) -> int:
    _require_json(config)
    machine = _read_machine(config)
    step = BeaconStep(machine, config.clock_mode)
    sched = PulseSchedule(config.delta, config.clock_mode)
    psi0 = SparseState.basis_state(step.initial_label())
    psi = evolve_to(step, sched, psi0, config.time)
    _emit(state_to_json(psi) + "\n", config)
    return EXIT_OK


def cmd_hit(config: RunConfig) -> int:
    _require_json(config)
    report = uhit_semidecide(_instance(config))
    _emit(hit_report_json(report) + "\n", config)
    return EXIT_OK if isinstance(report, Hit) else EXIT_NEGATIVE


def cmd_trace(config: RunConfig) -> int:
    trace = fidelity_trace(_instance(config))
    if config.format == "json":
        rows = [[str(t), fid] for t, fid in trace]
        _emit(json.dumps(rows) + "\n", config)
    else:
        _emit(trace_to_csv(trace), config)
    return EXIT_OK


def cmd_verify(config: RunConfig) -> int:
    _require_json(config)
    corpus = load_corpus(config.corpus_path) if config.corpus_path else builtin_corpus()
    if config.target_mode[0] != "beacon":
        raise ParameterRangeError("verify only supports the beacon target")
    reports = verify_corpus(
        corpus,
        config.epsilon,
        config.delta,
        config.clock_mode,
        BeaconSubspace(),
        config.horizon,
    )
    _emit(reduction_report_json(reports), config)
    agreed = all(rep.verdict == "agree" for rep in reports)
    return EXIT_OK if agreed else EXIT_NEGATIVE


def cmd_sweep(config: RunConfig) -> int:
    _require_json(config)
    budgets = [ProtocolBudget(n, n) for n in config.budgets]
    witnesses = adversarial_sweep(
        budgets,
        epsilon=config.epsilon,
        delta=config.delta,
        family_cap=config.family_cap,
    )
    _emit(sweep_report_json(witnesses), config)
    return EXIT_OK


_COMMANDS = {
    "compile": cmd_compile,
    "evolve": cmd_evolve,
    "hit": cmd_hit,
    "trace": cmd_trace,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 1, keeping 2 reserved for negative verdicts."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_instance_flags(sub, *, horizon_default: int) -> None:
    sub.add_argument("--epsilon", type=_rational, default=Fraction(1, 4),
                     help="threshold gap as an exact rational in (0, 1/2)")
    sub.add_argument("--delta", type=_rational, default=Fraction(1, 2),
                     help="pulse width as an exact rational in (0, 1)")
    sub.add_argument("--horizon", type=int, default=horizon_default,
                     help="last integer time the scan examines")
    sub.add_argument("--grid", type=int, default=None,
                     help="sub-pulse grid refinement (default: derived from epsilon)")
    sub.add_argument("--clock", type=_clock, default=Unbounded(),
                     help="unbounded or cyclic:L")
    sub.add_argument("--target", type=_target, default=("beacon", 0),
                     help="beacon, exact (initial label), or exact:N (N forward steps)")


def _add_output_flags(sub) -> None:
    sub.add_argument("--out", default=None, help="write output here instead of stdout")
    sub.add_argument("--format", choices=("json", "csv"), default=None,
                     help="output format (csv is defined for trace only)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pulsehit", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    for name, needs_machine, horizon_default in (
        ("compile", True, 100),
        ("hit", True, 100),
        ("trace", True, 100),
    ):
        sub = commands.add_parser(name)
        sub.add_argument("machine", help="machine document to read")
        _add_instance_flags(sub, horizon_default=horizon_default)
        _add_output_flags(sub)

    evolve = commands.add_parser("evolve")
    evolve.add_argument("machine", help="machine document to read")
    evolve.add_argument("--time", type=_rational, required=True,
                        help="rational time to evolve the initial state to")
    evolve.add_argument("--delta", type=_rational, default=Fraction(1, 2))
    evolve.add_argument("--clock", type=_clock, default=Unbounded())
    _add_output_flags(evolve)

    verify = commands.add_parser("verify")
    verify.add_argument("--corpus", default=None,
                        help="manifest path (default: the corpus shipped in the package)")
    _add_instance_flags(verify, horizon_default=10_000)
    _add_output_flags(verify)

    sweep = commands.add_parser("sweep")
    sweep.add_argument("--budgets", type=_budgets, required=True,
                       help="comma list N,...; each becomes tau_max = e_max = N")
    sweep.add_argument("--epsilon", type=_rational, default=Fraction(1, 4))
    sweep.add_argument("--delta", type=_rational, default=Fraction(1, 2))
    sweep.add_argument("--family-cap", type=int, default=10_000,
                       help="largest counter-family index the search may try")
    _add_output_flags(sweep)

    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    fields = {"command": args.command}
    for src, dst in (
        ("machine", "machine_path"),
        ("epsilon", "epsilon"),
        ("delta", "delta"),
        ("horizon", "horizon"),
        ("grid", "grid"),
        ("clock", "clock_mode"),
        ("target", "target_mode"),
        ("time", "time"),
        ("budgets", "budgets"),
        ("family_cap", "family_cap"),
        ("corpus", "corpus_path"),
        ("out", "output_path"),
        ("format", "format"),
    ):
        if hasattr(args, src):
            fields[dst] = getattr(args, src)
    return RunConfig(**fields)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _config_from(args)
        return _COMMANDS[config.command](config)
    except PulsehitError as exc:
        print(f"pulsehit: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"pulsehit: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
