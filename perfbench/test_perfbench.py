"""Self-test of the benchmark: each workload at a tiny length passes its
correctness gate, and a deliberately corrupted output is counted as failed.

    python3 -m pytest perfbench/test_perfbench.py -q

It is not part of the library's test suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import orthoglide as og  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def model():
    return og.default_model()


def test_sim_free_gate(model, tmp_path):
    w = wl.SimFree(model, SEED, str(tmp_path))
    inp = w.inputs(1)
    op = w.op(inp)
    assert op.items == wl.SIM_STEPS and len(op.latencies) == wl.SIM_STEPS
    assert w.gate(1, inp, op.output) == (1, 0)

    res, reread = op.output
    s = reread[3]
    bumped = og.TrajectorySample(t=s.t, P=s.P + 1e-15, V=s.V, A=s.A, L=s.L, Ldot=None, Gamma=s.Gamma)
    assert w.gate(1, inp, (res, reread[:3] + [bumped] + reread[4:])) == (1, 1)

    # consistent with its CSV, but the energy is no longer conserved
    fast = [dataclasses.replace(s[-1], V=s[-1].V * 1.5) for s in (res.samples, reread)]
    broken = dataclasses.replace(res, samples=res.samples[:-1] + fast[:1])
    assert w.gate(1, inp, (broken, reread[:-1] + fast[1:])) == (1, 1)

    assert w.gate(1, inp, (dataclasses.replace(res, completed=False), reread)) == (1, 1)


def test_idm_track_gate(model):
    w = wl.IdmTrack(model, SEED)
    inp = w.inputs(1)[:40]
    op = w.op(inp)
    assert op.items == 40 and w.gate(1, inp, op.output) == (40, 0)

    checked = wl.rng_for(SEED, w.name + ".gate", 1).choice(40, wl.MOVES_PER_OP * w.CHECKED_PER_MOVE, replace=False)
    gammas = list(op.output)
    gammas[checked[0]] = gammas[checked[0]] + np.array([1e-3, 0.0, 0.0])
    assert w.gate(1, inp, gammas) == (40, 1)

    gammas = list(op.output)
    gammas[next(i for i in range(40) if i not in checked)] = np.array([np.nan, 0.0, 0.0])
    assert w.gate(1, inp, gammas) == (40, 1)
    assert w.gate(1, inp, op.output[:-1]) == (40, 1)


def test_workspace_map_gate(model):
    w = wl.WorkspaceMap(model, SEED)
    full = w.inputs(1)
    inp = np.vstack([full[4000:4200], full[-1:]])
    op = w.op(inp)
    assert op.items == 201 and len(op.latencies) == 11
    assert op.output[-1] == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < w.reachable_share(op.output) < 1.0
    assert w.gate(1, inp, op.output) == (201, 0)

    conds = op.output.copy()
    conds[-1] = 1.5
    assert w.gate(1, inp, conds) == (201, 1)
    conds = op.output.copy()
    conds[np.flatnonzero(conds > 0.0)[0]] = math.nan
    assert w.gate(1, inp, conds) == (201, 1)


def test_verify_sampled_gate(model):
    w = wl.VerifySampled(model, SEED)
    op = w.op(w.inputs(1))
    n = len(wl.VERIFY_CHECKS)
    assert op.items == n == 21 and not set(wl.SIM_CHECKS) & set(wl.VERIFY_CHECKS)
    assert w.gate(1, SEED, op.output) == (n, 0)

    reports = list(op.output)
    reports[5] = dataclasses.replace(reports[5], max_rel_err=2.0 * reports[5].tolerance + 1.0)
    assert w.gate(1, SEED, reports) == (n, 1)
    assert w.gate(1, SEED, op.output[1:]) == (n, 1)


def test_traced_pass_counts(model, tmp_path):
    tally = [0, 0]
    metrics, counts_repeat = run.run_traced(wl.SimFree(model, SEED, str(tmp_path)), 0.0, tally)
    assert counts_repeat and tally[1] == 0
    assert metrics["chain_dynamics.ne_sweeps_per_ddm"] == 12
    assert metrics["kinematics.igm_calls_per_step"] == 5
    assert metrics["kinematics.jinv_calls_per_step"] == 15
    assert metrics["robot_dynamics.inverse_dynamics.calls"] == 0
    # the spans are gone again once the pass is over
    assert not hasattr(og.igm, "__wrapped__")


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.end_to_end_specs()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_specs()


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "idm_track", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
