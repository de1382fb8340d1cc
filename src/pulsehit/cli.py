"""Command-line surface tying the pipeline together.

Six commands: ``compile`` a machine into a hitting instance, ``evolve``
the initial state to a rational time and dump it, ``hit`` to semi-decide
the instance, ``trace`` its fidelity samples, ``verify`` a corpus against
its certificates, and ``sweep`` budgeted protocols over the counter
family.

Each command declares only the flags it reads.  ``compile``, ``hit`` and
``trace`` take ``--epsilon --delta --horizon --grid --clock --target``;
``evolve`` takes ``--time --delta --clock``; ``verify`` takes ``--corpus
--epsilon --delta --horizon --clock``; ``sweep`` takes ``--budgets
--epsilon --delta --family-cap``.  Every command takes ``--out``, and
``trace`` alone takes ``--format csv|json``.  The parser only turns text
into exact values; the library checks every range and raises a typed
error.  Each command returns its text and exit code, and :func:`main`
alone writes the text, to stdout or to the ``--out`` file.

Rational parameters are written exactly as ``p/q`` (or a bare integer);
float spellings are rejected so thresholds and grid ties stay exact.
Every number is written in ASCII digits; any other spelling exits 1 with
an "expected ..." message.
Every command is deterministic: the same invocation produces the same
bytes.  Exit codes are stable across commands: 0 for success or a hit,
2 for a negative semi-decision (exhausted, or a corpus disagreement),
1 for any error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .dynamics import PulseSchedule, SparseState, evolve_to, state_to_json
from .errors import PulsehitError
from .hitting import (
    Hit,
    fidelity_trace,
    hit_report_json,
    trace_to_csv,
    uhit_semidecide,
)
from .machine import parse_machine, read_document
from .protocol import ProtocolBudget, adversarial_sweep, sweep_report_json
from .reduction import builtin_corpus, encode, load_corpus, verify_corpus, reduction_report_json
from .reversible import BeaconStep, BeaconSubspace, ClockMode, Cyclic, ExactLabel, Unbounded

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2

# Every number on the command line is written in ASCII digits: re's \d,
# str.isdigit and int() also accept other scripts' digits (int() also takes
# "1_000"), so each pattern below is built from this one.
_DIGITS = "[0-9]+"
_INTEGER = re.compile(f"-?{_DIGITS}")
_RATIONAL = re.compile(f"-?{_DIGITS}(?:/[1-9][0-9]*)?")


def _integer(text: str) -> int:
    # a negative value parses, so the library's typed check names it
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer like 100, got {text!r}")
    return int(text)


def _rational(text: str) -> Fraction:
    if not _RATIONAL.fullmatch(text):
        raise argparse.ArgumentTypeError(
            f"expected an exact rational like 1/4 or 3, got {text!r}"
        )
    return Fraction(text)


def _clock(text: str) -> ClockMode:
    if text == "unbounded":
        return Unbounded()
    m = re.fullmatch(f"cyclic:({_DIGITS})", text)
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
    m = re.fullmatch(f"exact(?::({_DIGITS}))?", text)
    if m:
        return ("exact", int(m.group(1) or 0))
    raise argparse.ArgumentTypeError(
        f"expected beacon, exact, or exact:N, got {text!r}"
    )


def _budgets(text: str) -> list[int]:
    items = [piece.strip() for piece in text.split(",")]
    if any(not re.fullmatch(_DIGITS, piece) or int(piece) < 1 for piece in items):
        raise argparse.ArgumentTypeError(
            f"expected a comma list of positive integers, got {text!r}"
        )
    return [int(piece) for piece in items]


def _read_machine(args: argparse.Namespace):
    return parse_machine(read_document(Path(args.machine)))


def _instance(args: argparse.Namespace):
    machine = _read_machine(args)
    # encode checks every parameter before an exact:N target walks a step
    inst = encode(machine, args.epsilon, args.delta, args.clock, BeaconSubspace(),
                  args.horizon, args.grid)
    kind, steps = args.target
    if kind == "beacon":
        return inst
    step = BeaconStep(machine, args.clock)
    near = min(steps, inst.horizon + 1)
    label = step.advance(step.initial_label(), near)
    if label.h:
        label = step.advance(label, steps - near)
    # else the run is live past step horizon + 1: this label and the one N
    # steps in outgrow every scanned history, and no mid-pulse row exists
    # (that needs a halt by step horizon - 1), so both read 0 everywhere
    return replace(inst, target=ExactLabel(label))


def _clock_payload(clock: ClockMode) -> str:
    return "unbounded" if isinstance(clock, Unbounded) else f"cyclic:{clock.period}"


def _target_payload(args: argparse.Namespace) -> str:
    kind, steps = args.target
    return "beacon" if kind == "beacon" else f"exact:{steps}"


def cmd_compile(args: argparse.Namespace) -> tuple[str, int]:
    inst = _instance(args)
    spec = inst.machine
    payload = {
        "clock": _clock_payload(args.clock),
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
        "target": _target_payload(args),
    }
    return json.dumps(payload, sort_keys=True) + "\n", EXIT_OK


def cmd_evolve(args: argparse.Namespace) -> tuple[str, int]:
    machine = _read_machine(args)
    step = BeaconStep(machine, args.clock)
    sched = PulseSchedule(args.delta, args.clock)
    psi0 = SparseState.basis_state(step.initial_label())
    psi = evolve_to(step, sched, psi0, args.time)
    return state_to_json(psi) + "\n", EXIT_OK


def cmd_hit(args: argparse.Namespace) -> tuple[str, int]:
    report = uhit_semidecide(_instance(args))
    return hit_report_json(report) + "\n", EXIT_OK if isinstance(report, Hit) else EXIT_NEGATIVE


def cmd_trace(args: argparse.Namespace) -> tuple[str, int]:
    trace = fidelity_trace(_instance(args))
    if args.format == "json":
        return json.dumps([(str(t), fid) for t, fid in trace]) + "\n", EXIT_OK
    return trace_to_csv(trace), EXIT_OK


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    corpus = load_corpus(args.corpus) if args.corpus else builtin_corpus()
    reports = verify_corpus(corpus, args.epsilon, args.delta, args.clock, args.horizon)
    agreed = all(rep.verdict == "agree" for rep in reports)
    return reduction_report_json(reports), EXIT_OK if agreed else EXIT_NEGATIVE


def cmd_sweep(args: argparse.Namespace) -> tuple[str, int]:
    budgets = [ProtocolBudget(n, n) for n in args.budgets]
    witnesses = adversarial_sweep(
        budgets,
        epsilon=args.epsilon,
        delta=args.delta,
        family_cap=args.family_cap,
    )
    return sweep_report_json(witnesses), EXIT_OK


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


def _add_threshold_flags(sub) -> None:
    sub.add_argument("--epsilon", type=_rational, default=Fraction(1, 4),
                     help="threshold gap as an exact rational in (0, 1/2)")
    sub.add_argument("--delta", type=_rational, default=Fraction(1, 2),
                     help="pulse width as an exact rational in (0, 1)")


def _add_clock_flag(sub) -> None:
    sub.add_argument("--clock", type=_clock, default=Unbounded(),
                     help="unbounded or cyclic:L")


def _add_out_flag(sub) -> None:
    sub.add_argument("--out", default=None, help="write output here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parsing leaves
    it unchanged and every default is immutable, so calls can share it."""
    parser = _Parser(prog="pulsehit", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    for name in ("compile", "hit", "trace"):
        sub = commands.add_parser(name)
        sub.add_argument("machine", help="machine document to read")
        _add_threshold_flags(sub)
        sub.add_argument("--horizon", type=_integer, default=100,
                         help="last integer time the scan examines")
        sub.add_argument("--grid", type=_integer, default=None,
                         help="sub-pulse grid refinement (default: derived from epsilon)")
        _add_clock_flag(sub)
        sub.add_argument("--target", type=_target, default=("beacon", 0),
                         help="beacon, exact (initial label), or exact:N (N forward steps)")
        _add_out_flag(sub)
        if name == "trace":
            sub.add_argument("--format", choices=("json", "csv"), default="csv",
                             help="output format")

    evolve = commands.add_parser("evolve")
    evolve.add_argument("machine", help="machine document to read")
    evolve.add_argument("--time", type=_rational, required=True,
                        help="rational time to evolve the initial state to")
    evolve.add_argument("--delta", type=_rational, default=Fraction(1, 2),
                        help="pulse width as an exact rational in (0, 1)")
    _add_clock_flag(evolve)
    _add_out_flag(evolve)

    verify = commands.add_parser("verify")
    verify.add_argument("--corpus", default=None,
                        help="manifest path (default: the corpus shipped in the package)")
    _add_threshold_flags(verify)
    verify.add_argument("--horizon", type=_integer, default=10_000,
                        help="last integer time each scan examines")
    _add_clock_flag(verify)
    _add_out_flag(verify)

    sweep = commands.add_parser("sweep")
    sweep.add_argument("--budgets", type=_budgets, required=True,
                       help="comma list N,...; each becomes tau_max = e_max = N")
    _add_threshold_flags(sweep)
    sweep.add_argument("--family-cap", type=_integer, default=10_000,
                       help="largest counter-family index the search may try")
    _add_out_flag(sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text, code = _COMMANDS[args.command](args)
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        return code
    except (PulsehitError, OSError) as exc:
        print(f"pulsehit: error: {exc}", file=sys.stderr)
        return EXIT_ERROR

if __name__ == "__main__":
    sys.exit(main())
