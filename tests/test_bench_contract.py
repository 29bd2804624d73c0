"""The traced benchmark (bench/layers.py) wraps functions of ``mpde`` by
"module:qualname" and silently drops the metrics of a name that no longer
resolves; every name it lists must resolve to a callable."""

import importlib
from pathlib import Path

import pytest

import mpde.cli  # noqa: F401  (imports every module the benchmark wraps)

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _targets() -> list:
    # executed from its source text, so that loading it writes no bytecode cache
    namespace = {"__name__": "bench_layers"}
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), namespace)
    stages = {target for targets in namespace["STAGES"].values() for target in targets}
    return sorted(stages | set(namespace["KERNELS"]))


@pytest.mark.parametrize("target", _targets())
def test_wrapped_name_resolves(target):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(f"mpde.{module_name}")
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), target
