"""The CLI's pinned outputs, in one table.

Each row is one command line with the exit code it must return and, where
its bytes are pinned, the md5 of its output (or the whole text, when it is
short); a row may instead require the same output as an earlier row, or a
count of the lines holding some text.  The output is stdout, or the file
that the command's ``--out`` names.  Paths are relative to the repository
root, and ``{tmp}`` stands for a scratch directory that holds the input
files of :data:`INPUTS`.

Run as a script, the table needs only the standard library: each row runs
as ``python -m pulsehit`` in a subprocess, from the repository root, under
the row's timeout::

    PYTHONPATH=src python tests/cli_pins.py

``tests/test_cli.py`` runs the same rows in process, through ``cli.main``.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent

# input files the rows read, by name under {tmp}
INPUTS = {
    # a translated looper: it writes 1s rightwards and never reads one
    "right-mover.tm": (
        "states: q0 qH\nalphabet: _ 1\nstart: q0\nhalt: qH\n"
        "rule: q0 _ -> q0 1 R\nrule: q0 1 -> qH 1 S\n"
    ),
    "empty-manifest.json": "[]\n",
}

MOVER = "src/pulsehit/corpus/move-right-3.tm"
BLINK = "src/pulsehit/corpus/loop-blink.tm"
SCAN_20 = "src/pulsehit/corpus/scan-20.tm"
SCAN_199 = "src/pulsehit/corpus/scan-199.tm"


@dataclass(frozen=True)
class Pin:
    """One command line and the checks on what it returns."""

    name: str
    argv: tuple[str, ...]
    code: int = 0
    md5: Optional[str] = None  # of the output
    text: Optional[str] = None  # the whole output
    same: Optional[str] = None  # the row whose output this one's equals
    count: Optional[tuple[str, int]] = None  # the lines holding a text, and how many
    timeout: Optional[int] = None  # seconds, for the subprocess run

    def args(self, tmp: str) -> list[str]:
        return [arg.replace("{tmp}", tmp) for arg in self.argv]

    def output(self, stdout: bytes, tmp: str) -> bytes:
        """The bytes the checks read: the ``--out`` file, else stdout."""
        if "--out" in self.argv:
            return Path(self.args(tmp)[self.argv.index("--out") + 1]).read_bytes()
        return stdout

    def problems(self, code: int, output: bytes, outputs: dict[str, bytes]) -> list[str]:
        """What is wrong with one run of the row; ``outputs`` holds the
        outputs of the rows run before it, by name."""
        found = []
        if code != self.code:
            found.append(f"exit code {code}, want {self.code}")
        if self.md5 is not None and hashlib.md5(output).hexdigest() != self.md5:
            found.append(f"md5 {hashlib.md5(output).hexdigest()}, want {self.md5}")
        if self.text is not None and output != self.text.encode():
            found.append(f"output {output[:200]!r}, want {self.text!r}")
        if self.same is not None and output != outputs[self.same]:
            found.append(f"output differs from {self.same}")
        if self.count is not None:
            text, want = self.count
            got = sum(text in line for line in output.decode().splitlines())
            if got != want:
                found.append(f"{got} lines hold {text!r}, want {want}")
        return found


PINS = (
    Pin("compile-mover", ("compile", MOVER)),
    Pin("hit-mover", ("hit", MOVER)),
    Pin("evolve-23-5", ("evolve", MOVER, "--time", "23/5", "--clock", "cyclic:3"),
        md5="cec081522f55119d7c9a61caca5a2495"),
    Pin("evolve-13-4", ("evolve", MOVER, "--time", "13/4", "--clock", "cyclic:2"),
        md5="177b1f47cca2b810dc71bc31c870cfec"),
    Pin("evolve-scan-20", ("evolve", SCAN_20, "--time", "101/4", "--clock", "cyclic:6"),
        md5="38bf489ca636e89aca89d398afc02039"),
    Pin("hit-tiny-epsilon", ("hit", MOVER, "--epsilon", "1/1" + "0" * 100), code=1, timeout=10),
    Pin("trace-exact-5", ("trace", MOVER, "--clock", "cyclic:3", "--grid", "5",
                          "--target", "exact:5", "--horizon", "8")),
    Pin("evolve-cyclic-1e9", ("evolve", MOVER, "--clock", "cyclic:3", "--time", "1000000000"),
        timeout=10),
    Pin("evolve-1e9", ("evolve", MOVER, "--time", "1000000000"), timeout=10),
    Pin("hit-exact-1e9", ("hit", MOVER, "--target", "exact:1000000000", "--horizon", "10"),
        code=2, timeout=10),
    Pin("hit-blink-exact-1e9", ("hit", BLINK, "--target", "exact:1000000000", "--horizon", "10"),
        code=2, timeout=10),
    Pin("hit-off-run", ("hit", MOVER, "--target", "exact:1000000000", "--horizon", "10000000"),
        code=2, timeout=10, md5="09ef4d824c33e4d5f54edbb97c06bcff"),
    Pin("hit-right-mover", ("hit", "{tmp}/right-mover.tm", "--horizon", "1000000"),
        code=2, timeout=10),
    Pin("compile-blink-exact-1e9",
        ("compile", BLINK, "--target", "exact:1000000000", "--horizon", "10"), timeout=10),
    Pin("hit-blink-1e9", ("hit", BLINK, "--horizon", "1000000000"), code=2, timeout=10),
    Pin("hit-loop-cyclic", ("hit", BLINK, "--horizon", "1000000000", "--clock", "cyclic:7"),
        code=2, timeout=10, md5="5bf091d0af8b2b85ef198d49abbae8ae"),
    Pin("verify-1e9", ("verify", "--horizon", "1000000000"), timeout=10,
        count=('"verdict": "agree"', 17)),
    Pin("evolve-long-clock", ("evolve", MOVER, "--clock", "cyclic:10000001", "--time", "10000000"),
        timeout=10),
    Pin("hit-cyclic-exact", ("hit", MOVER, "--clock", "cyclic:3", "--grid", "5",
                             "--target", "exact:1000000000", "--horizon", "20"),
        timeout=10, md5="b23ad949879b5ef8bc777a9e63fa576a"),
    Pin("hit-cyclic-1e7", ("hit", MOVER, "--horizon", "10", "--clock", "cyclic:10000000"),
        timeout=10),
    Pin("hit-long-clock", ("hit", SCAN_20, "--grid", "5", "--target", "exact:30",
                           "--horizon", "3000", "--clock", "cyclic:10000000"),
        timeout=10, md5="c8002da619db1778ac6c118a485a3d52"),
    Pin("evolve-32769", ("evolve", MOVER, "--clock", "cyclic:32769", "--time", "13/4"),
        timeout=60, md5="77e55c4fc16cb4811388b37920ba5cbb"),
    Pin("evolve-scan-20-4096", ("evolve", SCAN_20, "--clock", "cyclic:4096", "--time", "401/4"),
        timeout=10, md5="a4b3dcef543656c6a73515fdfbc065d1"),
    Pin("trace-exact", ("trace", SCAN_199, "--clock", "cyclic:14", "--grid", "5",
                        "--target", "exact:210", "--horizon", "3000", "--format", "json"),
        md5="6a6d45eb843ee07b43ccf0bf95d36675"),
    Pin("trace-scan-20-4096", ("trace", SCAN_20, "--clock", "cyclic:4096", "--grid", "5",
                               "--target", "exact:30", "--horizon", "3000", "--format", "json"),
        timeout=60),
    Pin("trace-long-clock", ("trace", SCAN_20, "--clock", "cyclic:10000000", "--grid", "6",
                             "--target", "exact:30", "--horizon", "3000", "--format", "json"),
        timeout=10),
    Pin("trace-beacon-csv", ("trace", SCAN_199, "--clock", "cyclic:14", "--grid", "5",
                             "--horizon", "100000"),
        timeout=30, md5="1b194d66e5c502d5112c4675040c5d31"),
    Pin("trace-beacon-json", ("trace", SCAN_199, "--clock", "cyclic:14", "--grid", "5",
                              "--horizon", "100000", "--format", "json"),
        timeout=30, md5="d333c4113252632df15d1170a7dd95a4"),
    Pin("trace-unbounded", ("trace", SCAN_20, "--target", "exact:30", "--horizon", "3000"),
        timeout=10, md5="3b6a8d1e64a1c168a23c62c701a84ff4"),
    Pin("sweep-20000", ("sweep", "--budgets", "20000", "--family-cap", "30000"),
        timeout=60, md5="071ef384bdc4c6149a3ea595dc5c31d9"),
    Pin("sweep-20000-cap-at-witness", ("sweep", "--budgets", "20000", "--family-cap", "20000"),
        timeout=60),
    Pin("sweep-20000-cap-below-witness",
        ("sweep", "--budgets", "20000", "--family-cap", "19999"), code=1),
    Pin("verify-builtin", ("verify", "--horizon", "10000"),
        timeout=60, md5="775c7d47a5faf52edbfffa9530d80749"),
    Pin("verify-path", ("verify", "--corpus", "src/pulsehit/corpus/manifest.json",
                        "--horizon", "10000"),
        timeout=60, same="verify-builtin"),
    Pin("verify-out", ("verify", "--horizon", "10000", "--out", "{tmp}/verify-out.jsonl"),
        timeout=60, same="verify-builtin"),
    Pin("verify-empty", ("verify", "--corpus", "{tmp}/empty-manifest.json"), text=""),
    Pin("verify-cyclic", ("verify", "--horizon", "10000", "--clock", "cyclic:7"),
        timeout=60, md5="033d40196c6eea280fe3a10eb79f2e09"),
    Pin("sweep", ("sweep", "--budgets", "10,100,1000,2000"),
        timeout=60, md5="f681cef4b9c9f3d065baf5ef1940d1b4"),
    Pin("sweep-out", ("sweep", "--budgets", "10,100,1000,2000", "--out", "{tmp}/sweep-out.json"),
        timeout=60, same="sweep"),
    Pin("verify-grid", ("verify", "--grid", "3"), code=1),
)

BY_NAME = {pin.name: pin for pin in PINS}


def write_inputs(tmp: Path) -> None:
    for name, text in INPUTS.items():
        (tmp / name).write_text(text)


def main() -> int:
    """Run every row as a subprocess; print one line per row and return 1
    if any row failed."""
    failed = 0
    outputs: dict[str, bytes] = {}
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for pin in PINS:
            cmd = [sys.executable, "-m", "pulsehit", *pin.args(tmp)]
            try:
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=pin.timeout)
            except subprocess.TimeoutExpired:
                found, stderr = [f"ran past its {pin.timeout} s timeout"], b""
            else:
                outputs[pin.name] = output = pin.output(proc.stdout, tmp)
                found, stderr = pin.problems(proc.returncode, output, outputs), proc.stderr
            if found:
                failed += 1
                print(f"FAIL {pin.name}: {'; '.join(found)}")
                sys.stdout.write(stderr.decode(errors="replace")[-2000:])
            else:
                print(f"ok   {pin.name}")
    print(f"{len(PINS) - failed} of {len(PINS)} rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
