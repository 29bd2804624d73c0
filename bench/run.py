"""The mpde benchmark: `mpde run` on the shipped problems, one fresh process
per repetition, every repetition's outputs checked.

    python3 bench/run.py --workload heat --seed 1 --seconds 25 --trace 0

Run it from anywhere; it locates the repository from its own path and puts
`src` on the children's `PYTHONPATH`.  With `--trace 0` it reports the
end-to-end metrics, with `--trace 1` the per-layer metrics of a traced run
(see README.md).  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"

WORKLOADS = {
    "product2d": "problems/product2d.json",
    "heat": "problems/heat.json",
    "fractional": "problems/fractional.json",
    "pure_ode": "problems/pure_ode.json",
}
ARTIFACTS = ("coeffs.csv", "bounds.csv", "polygon.svg")
# report.json fields compared with the reference; other fields may gain
# deterministic diagnostics without failing the benchmark.
REPORT_FIELDS = ("verdict", "inverse_k1", "newton_polygon", "residual", "majorant_dominates")
MIN_SETUP_SAMPLES = 15
WALL_LIMIT_S = 170.0  # a run must exit within 180 s


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or reference)."""


def run_child(args: list, timeout: float) -> dict:
    """Run bench/child.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"child exited {proc.returncode}: {tail[0]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "child printed no result"}


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(out_dir: Path, expected: dict) -> list:
    """Problems with one run's artifacts; an empty list means correct."""
    try:
        report = json.loads((out_dir / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"]
    problems = []
    if report.get("verdict") != "consistent":
        problems.append(f"verdict is {report.get('verdict')!r}")
    if report.get("majorant_dominates") is not True:
        problems.append("majorant does not dominate")
    residual = report.get("residual") or {}
    if report.get("arithmetic_mode") == "exact":
        if residual.get("exact_zero") is not True:
            problems.append(f"exact residual is {residual.get('max_relative')!r}, not 0")
    else:
        try:
            within = float(residual["max_relative"]) <= 2.0 ** -(report["precision_bits"] - 32)
        except (KeyError, TypeError, ValueError):
            within = False
        if not within:
            problems.append(f"float residual {residual.get('max_relative')!r} "
                            f"exceeds 2^-(prec-32)")
    for field in REPORT_FIELDS:
        if report.get(field) != expected["report"][field]:
            problems.append(f"report.json {field} differs from the reference")
    for name in ARTIFACTS:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
        elif digest(path) != expected["sha256"][name]:
            problems.append(f"{name} differs from the reference")
    return problems


def repetition(problem: str, expected: dict, out_dir: Path, timeout: float,
               trace: bool = False) -> dict:
    """One fresh-process `mpde run`; the result carries `problems` (empty if ok)."""
    args = ["run", problem, str(out_dir)] + (["--trace"] if trace else [])
    result = run_child(args, timeout)
    if "error" in result:
        result["problems"] = [result["error"]]
    elif result["rc"] != 0:
        result["problems"] = [f"mpde run exited {result['rc']}"]
    else:
        result["problems"] = check_outputs(out_dir, expected)
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def failed_frac(reps: list) -> float:
    return sum(1 for r in reps if r["problems"]) / len(reps)


def host_environment(child_env: dict) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {**child_env, "nproc": len(os.sched_getaffinity(0)), "cpu_model": model}


def load_reference(workload: str) -> dict:
    problem = WORKLOADS[workload]
    if not (ROOT / "src" / "mpde" / "cli.py").is_file():
        raise BenchError(f"no mpde sources at {ROOT / 'src' / 'mpde'}")
    if not (ROOT / problem).is_file():
        raise BenchError(f"problem file {problem} is missing")
    try:
        return json.loads(REFERENCE.read_text())[workload]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"no reference for {workload} in {REFERENCE}: {exc}") from exc


def measure(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path):
    """Repeat the workload for about `seconds`; returns (reps, setups, env).

    Untraced, each round is one repetition and one import-only set-up probe;
    traced, it is one untraced and one traced repetition.  The seed orders
    each round (the inputs are the shipped files, so it changes no input).
    """
    t0 = time.perf_counter()
    problem = WORKLOADS[workload]
    expected = load_reference(workload)

    def remaining() -> float:
        return WALL_LIMIT_S - (time.perf_counter() - t0)

    warm = run_child(["import"], remaining())  # compiles bytecode; not timed
    if "error" in warm:
        raise BenchError(f"cannot import mpde: {warm['error']}")
    if not Path(warm["env"]["mpde_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"mpde imported from {warm['env']['mpde_file']}, not {ROOT / 'src'}")

    rng = random.Random(seed)
    reps, setups, rounds = [], [], 0
    start = time.perf_counter()
    while True:
        kinds = ["rep", "traced"] if trace else ["rep", "probe"]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "probe":
                probe = run_child(["import"], remaining())
                if "setup_s" in probe:
                    setups.append(probe["setup_s"])
                continue
            out_dir = work_dir / f"rep{len(reps)}"
            rep = repetition(problem, expected, out_dir, remaining(), kind == "traced")
            rep["traced"] = kind == "traced"
            reps.append(rep)
            if "setup_s" in rep and not trace:
                setups.append(rep["setup_s"])
        rounds += 1
        elapsed = time.perf_counter() - start
        per_round = elapsed / rounds
        if elapsed + per_round > seconds or remaining() < 1.5 * per_round + 10:
            break
    while not trace and len(setups) < MIN_SETUP_SAMPLES and remaining() > 10:
        probe = run_child(["import"], remaining())
        if "setup_s" in probe:
            setups.append(probe["setup_s"])
    return reps, setups, host_environment(warm["env"])


def describe(name: str, values: list, unit: str) -> str:
    """Median with its sample count, plus the highest percentile that has at
    least ten samples beyond it."""
    line = f"  {name:<14} {statistics.median(values):.6g} {unit}  (median of {len(values)}"
    if len(values) > 10:
        pct = int(100 * (1 - 10 / len(values)))
        value = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
        line += f"; p{pct} {value:.6g}"
    return line + f"; min {min(values):.6g}; max {max(values):.6g})"


def end_to_end(reps: list, setups: list) -> tuple:
    timed = [r for r in reps if "run_s" in r]
    run_s = [r["run_s"] for r in timed]
    rss = [r["peak_rss_mb"] for r in timed]
    metrics = {
        "run_s": (statistics.median(run_s), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_frac": (1 - failed_frac(reps), "frac"),
    }
    lines = [describe("run_s", run_s, "s"), describe("setup_s", setups, "s"),
             describe("peak_rss_mb", rss, "MB"),
             f"  failed_frac    {failed_frac(reps):.6g} frac  ({len(reps)} attempted)"]
    return metrics, lines


def per_layer(reps: list) -> tuple:
    traced = [r for r in reps if r["traced"] and "layers" in r]
    plain = [r["run_s"] for r in reps if not r["traced"] and "run_s" in r]
    metrics, lines = {}, []
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        unit = ("s" if name.endswith("_s") else "frac" if name.endswith("_frac")
                else "bits" if name.endswith("_bits_max") else "count")
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
            continue
        if len(set(values)) > 1:
            lines.append(f"  warning: {name} differs between traced runs: {values}")
        metrics[name] = (values[0], unit)
    if plain:
        overhead = statistics.median([r["run_s"] for r in traced]) / statistics.median(plain) - 1
        metrics["trace.overhead_frac"] = (overhead, "frac")
    for name, (value, unit) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        lines.append(f"  {name:<36} {shown} {unit}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        reps, setups, env = measure(args.workload, args.seed, args.seconds,
                                    bool(args.trace), work_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    failed = [r for r in reps if r["problems"]]
    if not any(("layers" if args.trace else "run_s") in r for r in reps):
        print(f"error: no repetition ran: {failed[0]['problems']}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, lines = per_layer(reps)
    else:
        metrics, lines = end_to_end(reps, setups)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} ({WORKLOADS[args.workload]}), seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}:")
    print("\n".join(lines))
    for rep in failed:
        print(f"  failed repetition: {'; '.join(rep['problems'])}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
