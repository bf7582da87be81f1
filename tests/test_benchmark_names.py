"""The names the benchmark harness under perfbench/ reaches into the package
by: removing or renaming one of them would break the benchmark, not a test."""

import importlib
import importlib.util
import re
from pathlib import Path

import orthoglide

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    traced = _tracer().TRACED
    assert traced
    for mod, fns in traced.items():
        module = importlib.import_module("orthoglide." + mod)
        for fn in fns:
            assert callable(getattr(module, fn, None)), "orthoglide.%s.%s" % (mod, fn)
    assert importlib.import_module("orthoglide._kernels")._JIT is False


def test_every_package_name_the_harness_reads_resolves():
    names = {name for path in PERFBENCH.glob("*.py") for name in re.findall(r"\bog\.(\w+)", path.read_text())}
    assert names
    assert sorted(name for name in names if not hasattr(orthoglide, name)) == []
