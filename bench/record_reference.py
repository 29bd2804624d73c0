"""Record the reference outputs that every benchmark repetition is checked
against: the SHA-256 of coeffs.csv, bounds.csv and polygon.svg, and the
compared report.json fields, per workload.

    python3 bench/record_reference.py

Run it only at a commit whose outputs are known to be right; it overwrites
bench/reference.json.
"""

import json
import shutil
import sys

from run import ARTIFACTS, REFERENCE, REPORT_FIELDS, ROOT, WORKLOADS, digest, run_child


def main() -> int:
    reference = {}
    for workload, problem in WORKLOADS.items():
        out_dir = ROOT / ".bench_work" / f"reference-{workload}"
        result = run_child(["run", problem, str(out_dir)], timeout=600)
        if "error" in result or result["rc"] != 0:
            print(f"error: {workload}: {result}", file=sys.stderr)
            return 1
        report = json.loads((out_dir / "report.json").read_text())
        reference[workload] = {
            "problem": problem,
            "sha256": {name: digest(out_dir / name) for name in ARTIFACTS},
            "report": {field: report[field] for field in REPORT_FIELDS},
        }
        shutil.rmtree(out_dir)
        print(f"{workload}: recorded ({result['run_s']:.2f} s)")
    shutil.rmtree(ROOT / ".bench_work", ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
