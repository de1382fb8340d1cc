"""pulsehit benchmark: whole-command metrics per workload, or per-module
metrics from a traced run.

    python3 perfbench/run.py --workload verify-corpus --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Each workload runs in fresh single-threaded interpreters (``worker.py``),
one at a time, on the pulsehit source under ``src/`` of this checkout
(``--src`` picks another tree).  With ``--trace 0`` it prints the
end-to-end metrics of BENCHMARK.json plus ``failed_frac``; with
``--trace 1`` the per-layer metrics.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --bench-out BENCH_scan.json --before-src ../parent/src

runs every workload on the parent tree and on this one, alternating which
goes first, and writes before/after numbers per layer and for the whole
command.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("verify-corpus", "cyclic-trace", "certified-route", "budget-sweep")
# setup_s is the median over the timed worker and this many fresh set-up-only
# interpreters on each side of it: the host's speed changes within seconds,
# so set-ups taken at two moments a run apart give a steadier median
SETUPS_AROUND = 4
DEADLINE_S = 175.0  # one workload's runs, start to end
RUNS = 10  # before/after pairs per workload in a --bench-out file
# Times are rescaled to a host on which worker.calibrate() takes CAL_REF_S:
# each set-up or job counts as its CPU time * CAL_REF_S / the calibration
# loops run just before and after it.  On a shared host the CPU time of the
# same job changes by up to 1.9x, over seconds and over minutes, and the
# loop run next to it changes with it.
CAL_REF_S = 0.025


class BenchError(Exception):
    pass


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _worker(mode: str, workload: str, seed: int, seconds: float, scale: float,
            src: Path, deadline: float) -> dict:
    """Start one worker, wait for it, return its result."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(WORKER), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--scale", str(scale),
           "--src", str(src), "--out", str(ROOT / ".perfbench")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker ({mode}) ran past the deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: float,
                 src: Path) -> dict:
    """One workload's result, in the shape of the final JSON line, plus the
    sample counts behind each metric under ``samples``."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        res = _worker("trace", workload, seed, seconds, scale, src, deadline)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()}
        samples = {}
    else:
        setups, setup_cals = [], []

        def setup(mode):
            res = _worker(mode, workload, seed, seconds, scale, src, deadline)
            setups.append(res["setup_s"])
            setup_cals.append(res["setup_cal"])
            return res

        for _ in range(SETUPS_AROUND):
            setup("setup")
        res = setup("time")
        for _ in range(SETUPS_AROUND):
            setup("setup")
        times, cals = res["times"], res["cals"]
        metrics = {
            "setup_s": {"value": _rescaled(setups, setup_cals), "unit": "s"},
            "wall_s": {"value": _rescaled(times, cals), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        samples = {
            "setup_s": f"median of {len(setups)} set-ups; measured {statistics.median(setups):.6f} s "
                       f"CPU, calibration {statistics.median(setup_cals):.6f} s",
            "wall_s": f"median of {len(times)} jobs; measured {statistics.median(times):.6f} s "
                      f"CPU, calibration {statistics.median(cals):.6f} s",
            "peak_rss_mb": "the timed worker, after its first job",
        }
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "samples": samples,
        "first_failure": res["first_failure"],
    }


def _rescaled(times: list[float], cals: list[float]) -> float:
    return statistics.median(t * CAL_REF_S / c for t, c in zip(times, cals))


def _check_names(result: dict, trace: bool) -> None:
    declared = {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        raise BenchError(f"metrics {sorted(set(got) ^ set(declared))} differ from BENCHMARK.json")


def _print(workload: str, result: dict) -> None:
    print(f"== {workload}: {result['attempted']} jobs, {result['failed']} failed")
    for name, m in result["metrics"].items():
        note = result["samples"].get(name, "")
        print(f"  {name:<36} {m['value']:>16.6f} {m['unit']:<6} {note}")
    if not result["samples"]:
        return
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<36} {frac:>16.6f} {'ratio':<6} "
          f"{result['failed']} of {result['attempted']} jobs")
    if result["first_failure"]:
        print(f"  first failure: {result['first_failure']}")


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def bench_file(path: Path, before: Path, after: Path, workloads, seed: int,
               seconds: float) -> dict:
    """Before/after numbers for every workload, alternating which tree runs
    first, with one traced run per tree for the per-layer numbers."""
    sides = {"before": before, "after": after}
    doc = {
        "topic": path.stem.removeprefix("BENCH_"),
        "hardware": {"cpu": _cpu_model(), "cpus": os.cpu_count(),
                     "python": platform.python_version(), "system": platform.platform()},
        "settings": {"seconds": seconds, "runs": RUNS, "seeds": [seed + r for r in range(RUNS)]},
        "workloads": {},
    }
    for w in workloads:
        e2e = {side: {} for side in sides}
        failed = {side: 0 for side in sides}
        for r in range(RUNS):
            order = ("before", "after") if r % 2 == 0 else ("after", "before")
            for side in order:
                res = run_workload(w, seed + r, seconds, False, 1.0, sides[side])
                failed[side] += res["failed"]
                for name, m in res["metrics"].items():
                    e2e[side].setdefault(name, {"unit": m["unit"], "values": []})
                    e2e[side][name]["values"].append(m["value"])
        entry = {}
        for side in sides:
            for m in e2e[side].values():
                m.update(_quartiles(m["values"]))
            layers = run_workload(w, seed, seconds, True, 1.0, sides[side])
            failed[side] += layers["failed"]
            entry[side] = {"end_to_end": e2e[side], "per_layer": layers["metrics"],
                           "failed": failed[side]}
            print(f"{w} {side}: " + ", ".join(
                f"{k} {m['median']:.6g} {m['unit']}" for k, m in e2e[side].items()))
        doc["workloads"][w] = entry
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long each workload runs jobs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size as a share of the benchmarked size (tests use less)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree that holds the pulsehit package")
    parser.add_argument("--bench-out", type=Path, default=None,
                        help="write before/after numbers here (BENCH_<topic>.json)")
    parser.add_argument("--before-src", type=Path, default=None,
                        help="source tree of the parent commit, for --bench-out")
    args = parser.parse_args(argv)

    for tree in (args.src, args.before_src):
        if tree is not None and not (tree / "pulsehit" / "__init__.py").is_file():
            print(f"run.py: no pulsehit package under {tree}", file=sys.stderr)
            return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        if args.bench_out is not None:
            if args.before_src is None:
                parser.error("--bench-out needs --before-src")
            bench_file(args.bench_out, args.before_src.resolve(), args.src.resolve(),
                       workloads, args.seed, args.seconds)
            print(f"wrote {args.bench_out}")
            return 0
        results = {}
        for w in workloads:
            results[w] = run_workload(w, args.seed, args.seconds, bool(args.trace),
                                      args.scale, args.src.resolve())
            _check_names(results[w], bool(args.trace))
            _print(w, results[w])
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (res,) = results.values()
        metrics = res["metrics"]
    else:
        res = {"attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values())}
        metrics = {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
