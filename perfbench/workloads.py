"""The four benchmark workloads: seeded inputs, one operation, correctness gates.

Every workload is a closed loop with one caller: the next call into the
library is issued only after the previous one has returned. Inputs are made
from the seed alone; the library sees only the generated points, states and
paths.

A workload exposes
  inputs(k)           the inputs of the k-th operation, made from the seed
  op(inp)        -> Op     one timed operation on those inputs
  gate(k, inp, out) -> (attempted, failed), run outside the timed region
  WARMUP              a snippet that calls the workload's entry point once,
                      for the set-up timer in a fresh interpreter
Operation 0 is the warm-up of a timed run and the fixed pass of a traced one.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import orthoglide as og

DT = 1e-4
SIM_STEPS = 25
DRIFT_GRAVITY = (0.0, 0.0, -0.2)
CONTROL_HZ = 1000
MOVE_S = 0.25
MOVES_PER_OP = 4
GRID_N = 20
VERIFY_N_SAMPLES = 10
# simulation-based checks; sim_free and idm_track cover their hot paths and
# together they take minutes, which no timed run can repeat
SIM_CHECKS = ("power_balance", "energy_drift_conservative", "tracking_error")
VERIFY_CHECKS = tuple(c for c in og.CHECK_NAMES if c not in SIM_CHECKS)
FOLD_MARGIN = 0.15


@dataclass
class Op:
    items: int
    latencies: list
    output: object


def rng_for(seed, name, k=0):
    return np.random.default_rng([seed, zlib.crc32(name.encode("ascii")), k])


def workspace_centre(model):
    """Reference point of chain 1 at q2 = -pi/2, q3 = 0 (verify samples around it)."""
    chain0, pack0 = model.chains[0], model._packs[0]
    return pack0.anchor + pack0.axis * (chain0.d4 + chain0.d6)


def isotropic_point(model):
    """Least-squares meeting point of the three actuator axes."""
    A = np.zeros((3, 3))
    b = np.zeros(3)
    for pack in model._packs:
        P = np.eye(3) - np.outer(pack.axis, pack.axis)
        A += P
        b += P @ pack.anchor
    return np.linalg.solve(A, b)


def fold_margin(chain_q):
    """min over chains of |cos q3| and |sin q2|: the Jacobian determinant factors."""
    cq = np.asarray(chain_q).reshape(-1, 3)
    return float(min(np.abs(np.cos(cq[:, 2])).min(), np.abs(np.sin(cq[:, 1])).min()))


def interior_points(model, rng, n, radius):
    """Points in a ball around the workspace centre, kept when every chain
    stays FOLD_MARGIN away from its folds."""
    centre = workspace_centre(model)
    pts = []
    while len(pts) < n:
        x = rng.normal(size=3)
        p = centre + radius * rng.random() ** (1.0 / 3.0) * x / np.linalg.norm(x)
        try:
            _, chain_q = og.igm(model, p)
        except og.OutOfWorkspace:
            continue
        if fold_margin(chain_q) >= FOLD_MARGIN:
            pts.append(p)
    return pts


def rel_err(delta, ref):
    """The error measure of verify's sampled checks."""
    return float(np.abs(delta).max() / (1.0 + np.abs(ref).max()))


class SimFree:
    """Zero-torque RK4 runs of SIM_STEPS steps under verify's drift field,
    every step recorded, each written to CSV and read back."""

    name = "sim_free"
    item = latency_item = "RK4 step"
    unit_of_attempt = "simulate runs"
    WARMUP = (
        "og.simulate(og.model_with_gravity(m, %r), (0.0, 0.0, 0.6), (0.01, 0.0, 0.0),"
        " None, og.SimConfig(dt=%r, t_end=%r))" % (DRIFT_GRAVITY, DT, DT)
    )

    def __init__(self, model, seed, scratch_dir):
        self.model = og.model_with_gravity(model, DRIFT_GRAVITY)
        self.seed = seed
        self.csv_path = os.path.join(scratch_dir, "sim_free.csv")
        self.config = og.SimConfig(dt=DT, t_end=SIM_STEPS * DT)
        self.drift_tol = og.TOLERANCES["energy_drift_conservative"]

    def inputs(self, k):
        rng = rng_for(self.seed, self.name, k)
        p0 = interior_points(self.model, rng, 1, 0.05 * self.model.chains[0].d4)[0]
        return p0, rng.normal(0.0, 0.03, 3)

    def op(self, inp):
        p0, v0 = inp
        starts = {}

        def zero_torque(t):
            # first call inside (k dt, (k+1) dt] opens step k
            step = math.ceil(t / DT - 1e-6) - 1
            if step >= 0 and step not in starts:
                starts[step] = perf_counter()
            return np.zeros(3)

        res = og.simulate(self.model, p0, v0, zero_torque, self.config)
        t_end = perf_counter()
        og.write_trajectory_csv(res.samples, self.csv_path)
        reread = og.read_trajectory_csv(self.csv_path)
        marks = [starts[s] for s in sorted(starts)] + [t_end]
        lat = [b - a for a, b in zip(marks, marks[1:])]
        return Op(len(res.samples) - 1, lat, (res, reread))

    def gate(self, k, inp, output):
        return 1, 0 if sim_ok(self.model, output[0], output[1], SIM_STEPS, self.drift_tol) else 1


def sim_ok(model, res, reread, steps, drift_tol):
    """Completed run, energy drift within the conservation check's tolerance,
    bit-exact CSV round trip."""
    samples = res.samples
    if not res.completed or len(samples) != steps + 1:
        return False
    if len(reread) != len(samples):
        return False
    for s, r in zip(samples, reread):
        if s.t != r.t or any(not np.array_equal(getattr(s, f), getattr(r, f)) for f in ("P", "V", "A", "L", "Gamma")):
            return False
    picked = samples[:: max(1, steps // 5)] + [samples[-1]]
    E = np.array([og.total_energy(model, s.P, s.V) for s in picked])
    T = np.array([og.kinetic_energy(model, s.P, s.V) for s in picked])
    scale = max(float(T.max()), float(np.ptp(E - T)), 1e-9)
    return bool(np.isfinite(E).all() and float(E.max() - E.min()) / scale <= drift_tol)


class IdmTrack:
    """Computed-torque use: quintic rest-to-rest moves between interior
    points, sampled at CONTROL_HZ, one inverse_dynamics call per state."""

    name = "idm_track"
    item = latency_item = "inverse_dynamics call"
    unit_of_attempt = "inverse_dynamics calls"
    WARMUP = "og.inverse_dynamics(m, (0.0, 0.0, 0.6), (0.01, 0.0, 0.0), (0.0, 0.0, 1.0))"
    CHECKED_PER_MOVE = 3

    def __init__(self, model, seed, scratch_dir=None):
        self.model = model
        self.seed = seed
        self.grid = np.arange(int(round(MOVE_S * CONTROL_HZ)) + 1) / CONTROL_HZ
        self.tol = og.TOLERANCES["idm_ddm_round_trip"]

    def inputs(self, k):
        """(P, V, A) on the controller grid of MOVES_PER_OP moves."""
        states = []
        for j in range(MOVES_PER_OP):
            rng = rng_for(self.seed, self.name, k * MOVES_PER_OP + j)
            a, b = interior_points(self.model, rng, 2, 0.3 * self.model.chains[0].d4)
            path = og.quintic_path(a, b, MOVE_S)
            states += [path(t) for t in self.grid]
        return states

    def op(self, inp):
        model = self.model
        gammas, lat = [], []
        for P, V, A in inp:
            t0 = perf_counter()
            gammas.append(og.inverse_dynamics(model, P, V, A))
            lat.append(perf_counter() - t0)
        return Op(len(gammas), lat, gammas)

    def gate(self, k, inp, output):
        rng = rng_for(self.seed, self.name + ".gate", k)
        checked = rng.choice(len(inp), MOVES_PER_OP * self.CHECKED_PER_MOVE, replace=False)
        return len(inp), idm_failures(self.model, inp, output, checked, self.tol)


def idm_failures(model, states, gammas, checked, tol):
    """Missing or non-finite efforts anywhere, and, on the checked states,
    direct dynamics that does not give back the commanded acceleration."""
    bad = {i for i, g in enumerate(gammas) if not np.isfinite(g).all()}
    bad |= set(range(len(gammas), len(states)))
    for i in checked:
        P, V, A = states[i]
        if i not in bad and not rel_err(og.direct_dynamics(model, P, V, gammas[i]) - A, A) <= tol:
            bad.add(i)
    return len(bad)


class WorkspaceMap:
    """Conditioning map: a GRID_N^3 grid over a cube of half-width d4/2 about
    the workspace centre, shifted by a seeded sub-cell offset per sweep;
    igm, then the actuator-rate Jacobian and its condition number."""

    name = "workspace_map"
    item = "grid point"
    latency_item = "grid row (%d points)" % GRID_N
    unit_of_attempt = "grid points"
    WARMUP = "og.robot_jacobian_inverse(m, og.igm(m, (0.0, 0.0, 0.6))[1])"
    CHECKED_PER_SWEEP = 20

    def __init__(self, model, seed, scratch_dir=None):
        self.model = model
        self.seed = seed
        half = 0.5 * model.chains[0].d4
        self.cell = 2.0 * half / (GRID_N - 1)
        axis = np.linspace(-half, half, GRID_N)
        self.base = workspace_centre(model) + np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
        self.isotropic = isotropic_point(model)

    def inputs(self, k):
        """The shifted grid, then the isotropic point, whose cond must be 1."""
        rng = rng_for(self.seed, self.name, k)
        return np.vstack([self.base + rng.uniform(-0.5, 0.5, 3) * self.cell, self.isotropic])

    def op(self, points):
        conds, lat = [], []
        model = self.model
        # one latency per grid row; the isotropic point comes last, alone
        for row in (points[i:i + GRID_N] for i in range(0, len(points), GRID_N)):
            t0 = perf_counter()
            for p in row:
                try:
                    _, chain_q = og.igm(model, p)
                    conds.append(float(np.linalg.cond(og.robot_jacobian_inverse(model, chain_q))))
                except og.OutOfWorkspace:
                    conds.append(0.0)
                except og.ChainSingular:
                    conds.append(math.inf)
            lat.append(perf_counter() - t0)
        return Op(len(points), lat, np.array(conds))

    @staticmethod
    def reachable_share(conds):
        return float(np.mean(conds[:-1] > 0.0))

    def gate(self, k, inp, output):
        rng = rng_for(self.seed, self.name + ".gate", k)
        reach = np.flatnonzero(np.isfinite(output) & (output > 0.0))
        checked = rng.choice(reach, min(len(reach), self.CHECKED_PER_SWEEP), replace=False)
        return len(inp), map_failures(self.model, inp, output, checked)


def map_failures(model, points, conds, checked):
    """Missing or NaN results, condition numbers below 1, a last (isotropic)
    point whose condition number is not 1 within 1e-9, and checked points
    whose igm -> chain_forward_point round trip misses by over 1e-9."""
    if len(conds) != len(points):
        return len(points)
    bad = set(np.flatnonzero(np.isnan(conds) | ((conds > 0.0) & (conds < 1.0 - 1e-12))).tolist())
    if not abs(conds[-1] - 1.0) <= 1e-9:
        bad.add(len(points) - 1)
    for i in checked:
        _, chain_q = og.igm(model, points[i])
        for c in range(3):
            if not np.abs(og.chain_forward_point(model, c, chain_q[c]) - points[i]).max() <= 1e-9:
                bad.add(int(i))
    return len(bad)


class VerifySampled:
    """run_verification over the sampled checks at VERIFY_N_SAMPLES, each
    check run alone (each draws from its own seeded stream, so this is the
    full battery's stream)."""

    name = "verify_sampled"
    item = latency_item = "verify check"
    unit_of_attempt = "check runs"
    WARMUP = "og.run_verification(m, n_samples=1, checks=%r)" % (VERIFY_CHECKS,)

    def __init__(self, model, seed, scratch_dir=None):
        self.model = model
        self.seed = seed

    def inputs(self, k):
        return self.seed

    def op(self, seed):
        reports, lat = [], []
        for name in VERIFY_CHECKS:
            t0 = perf_counter()
            reports += og.run_verification(self.model, seed=seed, n_samples=VERIFY_N_SAMPLES, checks=[name])
            lat.append(perf_counter() - t0)
        return Op(len(reports), lat, reports)

    def gate(self, k, inp, output):
        return len(VERIFY_CHECKS), verify_failures(output)


def verify_failures(reports):
    """Checks missing from the reports or not within their tolerance."""
    ok = {r.check_name for r in reports if r.passed and r.samples > 0 and r.max_rel_err <= r.tolerance}
    return sum(1 for name in VERIFY_CHECKS if name not in ok)


WORKLOADS = {w.name: w for w in (SimFree, IdmTrack, WorkspaceMap, VerifySampled)}
