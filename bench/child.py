"""One benchmark repetition in a fresh interpreter.

    python3 bench/child.py import
    python3 bench/child.py run PROBLEM OUT_DIR [--trace]

`import` times the import of `mpde` and its dependencies and reports the
library versions.  `run` does the same, then calls the real command line
entry, `mpde.cli.main(["run", PROBLEM, "--out", OUT_DIR, "--quiet"])`, and
reports its wall time and the peak resident memory of this process.  With
`--trace` the pipeline runs under `layers.Tracer` and the per-layer metrics
are reported as well.  The result is one JSON object on the last line of
standard output.  `mpde` must be importable (`PYTHONPATH=src`).
"""

import json
import resource
import sys
import time

t0 = time.perf_counter()
import mpmath  # noqa: E402
import numpy  # noqa: E402
import mpde  # noqa: E402
import mpde.cli  # noqa: E402
setup_s = time.perf_counter() - t0


def environment() -> dict:
    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "numpy": numpy.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": has_gmpy2,
        "mpde_file": mpde.__file__,
    }


def main(argv) -> dict:
    result = {"setup_s": setup_s}
    if argv[0] == "import":
        result["env"] = environment()
        return result
    _, problem, out_dir, *flags = argv
    tracer = None
    if "--trace" in flags:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    result["rc"] = mpde.cli.main(["run", problem, "--out", out_dir, "--quiet"])
    result["run_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.metrics()
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
