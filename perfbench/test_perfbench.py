"""The benchmark's own tests: run with ``python3 -m pytest perfbench``.

Tiny-size runs of every workload print every declared metric with its
unit, and a wrong output counts as a failure.
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 1 / 16
CORPUS = ROOT / "src" / "pulsehit" / "corpus"


def _run(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "7", "--seconds", "0",
         "--scale", str(TINY), *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    lines, result = _run("--workload", workload, "--trace", trace)
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    text = "\n".join(lines[:-1])
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and f" {m['unit']} " in line + " "
                   for line in lines[:-1]), m["name"]
    if trace == "0":
        assert "failed_frac" in text


def _flip_verdict(run):
    return run._replace(stdout=run.stdout.replace('"verdict": "agree"', '"verdict": "disagree"', 1))


def _wrong_witness(run):
    return run._replace(stdout=run.stdout.replace('"n": ', '"n": 1', 1))


def _nudge_mid_pulse(output):
    beacon, exact = output
    i = next(i for i, (t, _) in enumerate(beacon) if t.denominator > 2)
    t, fid = beacon[i]
    return beacon[:i] + [(t, fid + 1e-9)] + beacon[i + 1:], exact


def _nudge_amplitude(output):
    psi, basis, matrix = output[-1]
    re, im = matrix.entries[0][0]
    entries = ((re + Fraction(1, 10**6), im),) + matrix.entries[0][1:]
    bent = dataclasses.replace(matrix, entries=(entries,) + matrix.entries[1:])
    return output[:-1] + [(psi, basis, bent)]


@pytest.mark.parametrize("name, corrupt", [
    ("verify-corpus", _flip_verdict),
    ("budget-sweep", _wrong_witness),
    ("cyclic-trace", _nudge_mid_pulse),
    ("certified-route", _nudge_amplitude),
])
def test_wrong_output_raises_failed_frac(name, corrupt, tmp_path):
    honest = workloads.WORKLOADS[name]
    inputs = honest.build(random.Random(7), TINY, CORPUS, tmp_path)
    assert honest.check(inputs, honest.job(inputs)) is None
    broken = dataclasses.replace(honest, job=lambda i: corrupt(honest.job(i)))
    run = worker.measure(broken, inputs, seconds=0)
    assert run["failed"] / run["attempted"] > 0
    assert run["first_failure"]


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
