"""Self-verification: independent oracles and a named battery of checks.

Every load-bearing quantity in the package is cross-checked here against an
implementation that takes a different route to the same number: finite
differences for Jacobians and gradients, energy bookkeeping for the
dynamics, a composite-rigid-body construction for the tree inertia, and a
Lagrangian reconstruction of the actuator efforts. run_verification drives
the whole battery with seeded sampling and returns one report per check.

Sample counts scale with the n_samples argument (their documented values
hold at n_samples=100). Tolerances can be overridden per check, either by
the [verify] section of a model config or by the tolerances argument.

Most checks are per-sample: a function error(model, rng, *sample) that
returns one sample's error, registered in _CHECKS as _per_sample(draw,
error). The draw (_points, _chains, _trees or _states) gives the samples;
the driver folds their errors with _worse, so a NaN fails the check, and
reports n. A draw the error function makes itself (rates, accelerations)
follows its sample's in the check's stream. A check that reports another
count, runs in phases or runs a batch or a simulation is written whole, as
check(model, rng, n) -> (err, used). The batched ones draw all their
samples first, in the per-sample stream order, and run every leg of every
sample in one kernel call (robot_dynamics._legs, model._lane_tables).
"""

from __future__ import annotations

import math
import numbers
import time
import zlib
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from . import _kernels
from .chain_dynamics import (
    _rows,
    _torques_many,
    chain_bias_h,
    chain_inertia_A,
    chain_kinetic_energy,
    chain_torques_H,
    tree_newton_euler,
)
from .errors import NumericalError, OrthoglideError, OutOfWorkspace, ValidationError
from .kinematics import (
    chain_forward_point,
    chain_frames,
    chain_jacobian,
    chain_jacobian_dot,
    chain_jacobian_inverse,
    igm,
    ik_acceleration,
    ik_velocity,
    parallelogram_gap,
    robot_jacobian_inverse,
)
from .model import (TREE_ROWS, _axes_meeting_point, _closure_positions, _closure_rates, _lane_tables, _pack,
                    closure_positions, model_with_gravity, tree_slots)
from .robot_dynamics import (
    _direct_batch,
    _finite_vectors,
    _geometry_many,
    _inverse_batch,
    _inverse_dynamics_many,
    _leg_lanes,
    _leg_torques,
    _legs,
    _mv,
    assemble_robot_dyn,
)
from .simulate import SimConfig, feedforward_torque, quintic_path, simulate

DEFAULT_SEED = 42


# ---------------------------------------------------------------------------
# energies


def _tree_frames(model, i, q6):
    """World rotations (7, 3, 3) and origins (7, 3) of chain i's tree bodies."""
    R, O = _kernels.chain_frames(_pack(model, i).frames, tree_slots(q6))
    return np.reshape(R, (7, 3, 3)), np.array(O)


def _slots_potential(model, frames, inertia, slots) -> float:
    """Gravity potential of the 7-body tree with kernel tables frames and inertia (a chain pack's or
    _lane_tables') at per-frame joint values slots."""
    R, O = _kernels.chain_frames(frames, slots)
    gx, gy, gz = model.gravity.tolist()
    U = 0.0
    for (M, mx, my, mz), (r00, r01, r02, r10, r11, r12, r20, r21, r22), (ox, oy, oz) in zip(
        inertia[:, :4].tolist(), R, O
    ):
        U -= (
            gx * (M * ox + (r00 * mx + r01 * my + r02 * mz))
            + gy * (M * oy + (r10 * mx + r11 * my + r12 * mz))
            + gz * (M * oz + (r20 * mx + r21 * my + r22 * mz))
        )
    return U


def chain_potential_energy(model, i, q) -> float:
    """Gravity potential of chain i at free coordinates q = (q1, q2, q3)."""
    pack = _pack(model, i)
    (q,) = _finite_vectors(q=q)
    return _slots_potential(model, pack.frames, pack.inertia, closure_positions(q)[:7])


def potential_energy(model, p) -> float:
    """Gravity potential of the whole robot at platform point p."""
    (p,) = _finite_vectors(p=p)
    _, chain_q = igm(model, p)
    U = -model.platform_mass * float(model.gravity @ p)
    for pack, q in zip(model._packs, chain_q):
        U += _slots_potential(model, pack.frames, pack.inertia, closure_positions(q)[:7])
    return U


def kinetic_energy(model, p, v) -> float:
    """Kinetic energy of the whole robot at platform state (p, v)."""
    p, v = _finite_vectors(p=p, v=v)
    _, chain_q = igm(model, p)
    T = 0.5 * model.platform_mass * float(v @ v)
    for i, q in enumerate(chain_q):
        T += chain_kinetic_energy(model, i, q, chain_jacobian_inverse(model, i, q) @ v)
    return T


def total_energy(model, p, v) -> float:
    """kinetic_energy plus potential_energy."""
    return kinetic_energy(model, p, v) + potential_energy(model, p)


# The batched energies, N states a call, each row the scalar function's bit for bit; Q and jinvs
# are _geometry_many of the points. The chain terms run as one kernel call on the legs' 3N lanes,
# the platform terms as per-row products, which a stacked product could round differently.


def _potential_at(model, P, Q):
    """potential_energy at the points P (N, 3): an (N,) array."""
    U = -model.platform_mass * np.array([float(model.gravity @ p) for p in P])
    tables, q = _leg_lanes(model, Q)
    for U_leg in _slots_potential(model, *tables, _closure_positions(*q)[:7]).reshape(3, -1):
        U += U_leg
    return U


def _kinetic_at(model, Q, jinvs, V):
    """kinetic_energy at the platform velocities V (N, 3): an (N,) array."""
    T = 0.5 * model.platform_mass * np.array([float(v @ v) for v in V])
    tables, q = _leg_lanes(model, Q)
    qd = _mv(jinvs.reshape(-1, 3, 3), np.tile(V, (3, 1)))
    for T_leg in _kernels.chain_kinetic(*tables, _closure_positions(*q), _closure_rates(*qd.T)).reshape(3, -1):
        T += T_leg
    return T


def _energies(model, P, V):
    """(kinetic_energy, total_energy) at the states (P, V): two (N,) arrays."""
    Q, jinvs = _geometry_many(model, P)
    T = _kinetic_at(model, Q, jinvs, V)
    return T, T + _potential_at(model, P, Q)


def _plus_minus(P, h):
    """The central-difference points of P (N, 3): (N, 6, 3), P + h e_k then P - h e_k for k = 0, 1, 2."""
    E = h * np.eye(3)
    return np.stack([P + E[0], P - E[0], P + E[1], P - E[1], P + E[2], P - E[2]], axis=1)


def _central(F, h):
    """The central differences of F's (N, 6) values at _plus_minus points: (N, 3)."""
    return (F[:, 0::2] - F[:, 1::2]) / (2.0 * h)


def _actuator_efforts(jinvs, F):
    """Actuator efforts balancing the platform forces F (N, 3): robot_jacobian_inverse(...).T solved."""
    return np.linalg.solve(jinvs[:, :, 0].transpose(1, 2, 0), F[:, :, None])[:, :, 0]


# ---------------------------------------------------------------------------
# oracles

# the geometry point of each of an oracle state's 18 kinetic lanes: dT/dV at p(t + h_t), at
# p(t - h_t), then dT/dP at the six shifted points
_LANE_POINTS = (0,) * 6 + (1,) * 6 + (2, 3, 4, 5, 6, 7)


def lagrangian_idm_oracle(model, p, v, vdot) -> np.ndarray:
    """Actuator efforts reconstructed from energies alone.

    Builds d/dt(dT/dV) - dT/dP + dU/dP by nested central differences and
    maps the resulting platform force to the actuators. Shares no dynamics
    code with the recursive implementation; good to about 1e-7 relative.
    The velocity gradient uses a large step because T is exactly quadratic
    in V, which keeps roundoff out of the outer time derivative. Runs as a
    one-state _lagrangian_many."""
    p, v, vdot = _finite_vectors(p=p, v=v, vdot=vdot)
    return _lagrangian_many(model, p[None], v[None], vdot[None])[0]


def _lagrangian_many(model, P, V, A):
    """lagrangian_idm_oracle over the rows of (N, 3) arrays: an (N, 3) array. Each state's geometry
    is solved at 9 points (2 time-shifted, 6 position-shifted, its own) in the per-state stencil's
    order, so the first that fails raises its error; its 18 kinetic and 6 potential lanes join one
    batch per leg."""
    h_v, h_t, h_p = 0.1, 1e-6, 1e-6
    n = len(P)
    shifted = _plus_minus(P, h_p)
    P_t = np.stack([P + h_t * V + 0.5 * h_t * h_t * A, P - h_t * V + 0.5 * h_t * h_t * A], axis=1)
    Q, jinvs = _geometry_many(model, np.concatenate([P_t, shifted, P[:, None]], axis=1).reshape(-1, 3))

    lanes = 9 * np.arange(n)[:, None] + _LANE_POINTS
    V_t = _plus_minus(V + h_t * A, h_v), _plus_minus(V - h_t * A, h_v)
    V_lanes = np.concatenate([*V_t, np.repeat(V[:, None], 6, axis=1)], axis=1).reshape(-1, 3)
    T = _kinetic_at(model, Q[:, :, lanes.ravel()], jinvs[:, lanes.ravel()], V_lanes).reshape(n, 18)
    U = _potential_at(model, shifted.reshape(-1, 3), Q[:, :, lanes[:, 12:].ravel()]).reshape(n, 6)
    ddt_dT_dV = (_central(T[:, :6], h_v) - _central(T[:, 6:12], h_v)) / (2.0 * h_t)
    f_cart = ddt_dT_dV - _central(T[:, 12:], h_p) + _central(U, h_p)
    return _actuator_efforts(jinvs[:, 8::9], f_cart)


def _skew(u):
    return np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])


def composite_tree_inertia(model, i, q_tree) -> np.ndarray:
    """6x6 inertia of chain i's free tree by composite-rigid-body assembly.

    Works entirely in world coordinates about the world origin, so it shares
    nothing with the recursive sweep it is checked against.
    """
    frames = _pack(model, i).frames
    R, O = _tree_frames(model, i, q_tree)
    Ms = np.zeros(7)
    hs = np.zeros((7, 3))
    Js = np.zeros((7, 3, 3))
    for b, link in enumerate(model.chains[i].links):
        M = link.mass
        J = link.inertia
        h_w = R[b] @ link.first_moment
        Sp = _skew(O[b])
        Sh = _skew(h_w)
        Ms[b] = M
        hs[b] = h_w + M * O[b]
        Js[b] = R[b] @ J @ R[b].T - Sp @ Sh - Sh @ Sp - M * (Sp @ Sp)
    for b in range(6, 0, -1):
        par = frames[b][0]
        Ms[par] += Ms[b]
        hs[par] += hs[b]
        Js[par] += Js[b]

    row_to_idx = {r: k for k, r in enumerate(TREE_ROWS)}
    screws = {}
    for row in TREE_ROWS:
        axis = R[row][:, 2]
        if frames[row][1] == _kernels.PRISMATIC:
            screws[row] = (np.zeros(3), axis.copy())
        else:
            screws[row] = (axis.copy(), np.cross(O[row], axis))

    Mt = np.zeros((6, 6))
    for jj, rj in enumerate(TREE_ROWS):
        w, v0 = screws[rj]
        pdot = Ms[rj] * v0 + np.cross(w, hs[rj])
        ldot = np.cross(hs[rj], v0) + Js[rj] @ w
        r = rj
        while r >= 0:
            if r in row_to_idx:
                wk, vk = screws[r]
                Mt[row_to_idx[r], jj] = wk @ ldot + vk @ pdot
            r = frames[r][0]
    iu = np.triu_indices(6, 1)
    Mt[(iu[1], iu[0])] = Mt[iu]
    return Mt


# ---------------------------------------------------------------------------
# seeded sampling helpers


def sample_platform_points(model, rng, n, margin=0.15):
    """Interior platform points, rejection sampled inside a centered ball.

    Points are kept only if every chain reaches them with |cos q3| and
    |sin q2| at least margin, which keeps finite-difference checks away
    from the fold singularities.
    """
    chain0 = model.chains[0]
    pack0 = model._packs[0]
    center = pack0.anchor + pack0.axis * (chain0.d4 + chain0.d6)
    radius = 0.3 * chain0.d4
    pts = []
    attempts = 0
    while len(pts) < n:
        attempts += 1
        if attempts > 400 * n + 400:
            raise NumericalError("workspace interior sampling failed; model too constrained")
        x = rng.normal(size=3)
        nx = float(np.linalg.norm(x))
        if nx < 1e-12:
            continue
        p = center + radius * (rng.random() ** (1.0 / 3.0)) * x / nx
        try:
            _, chain_q = igm(model, p)
        except OutOfWorkspace:
            continue
        ok = True
        for i in range(3):
            if abs(math.cos(chain_q[i, 2])) < margin or abs(math.sin(chain_q[i, 1])) < margin:
                ok = False
                break
        if ok:
            pts.append(p)
    return pts


def _sample_state(model, rng):
    p = sample_platform_points(model, rng, 1)[0]
    v = rng.normal(0.0, 0.3, 3)
    a = rng.normal(0.0, 1.0, 3)
    return p, v, a


# draw(model, rng, n) gives the n samples of a per-sample check, each a tuple
# of its arguments after (model, rng). The generators draw a sample only when
# the driver asks for it, so whatever the check then draws follows that sample.


def _points(model, rng, n):
    """n interior platform points, all drawn up front."""
    return [(p,) for p in sample_platform_points(model, rng, n)]


def _chains(model, rng, n):
    """n (chain index, free coordinates q) samples."""
    for _ in range(n):
        i = int(rng.integers(0, 3))
        q1 = rng.uniform(-0.2, 0.2)
        q2 = -0.5 * math.pi + rng.uniform(-1.2, 1.2)
        q3 = rng.uniform(-1.2, 1.2)
        yield i, np.array([q1, q2, q3])


def _trees(model, rng, n):
    """n (chain index, six tree coordinates) samples."""
    for _ in range(n):
        i = int(rng.integers(0, 3))
        q6 = rng.uniform(-1.2, 1.2, 6)
        q6[0] = rng.uniform(-0.2, 0.2)
        q6[4] -= 0.5 * math.pi
        yield i, q6


def _states(model, rng, n):
    """n platform states (p, v, a)."""
    return (_sample_state(model, rng) for _ in range(n))


# ---------------------------------------------------------------------------
# the check battery


@dataclass(frozen=True)
class OracleReport:
    """One check's outcome; wall_s is the seconds the check ran (not compared)."""

    check_name: str
    max_rel_err: float
    samples: int
    tolerance: float
    passed: bool
    wall_s: float = field(default=0.0, compare=False)

    def as_dict(self):
        return {
            "check_name": self.check_name,
            "max_rel_err": self.max_rel_err,
            "samples": self.samples,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "wall_s": self.wall_s,
        }


def _rel(delta, ref, axis=None):
    """The largest |delta| over 1 + the largest |ref|, or of each row of (N, 3) arrays with axis=1."""
    return np.abs(delta).max(axis) / (1.0 + np.abs(ref).max(axis))


def _worse(worst, err):
    """max(worst, err), except that a NaN is kept, so a NaN error fails its check."""
    return err if err > worst or err != err else worst


def _per_sample(draw, error):
    """The check (model, rng, n) -> (err, n) whose err is the worst of
    error(model, rng, *sample) over the n samples of draw(model, rng, n)."""

    def check(model, rng, n):
        return reduce(_worse, (error(model, rng, *sample) for sample in draw(model, rng, n)), 0.0), n

    return check


def _check_igm_round_trip(model, rng, n):
    # every leg's forward point, from one stacked frame placement of the first six frames
    P = np.array(sample_platform_points(model, rng, n))
    (frames, _), q = _leg_lanes(model, np.array([igm(model, p)[1] for p in P]).transpose(1, 2, 0))
    _, O = _kernels.chain_frames(frames, _closure_positions(*q)[:6])
    return reduce(_worse, np.abs(np.array(O[5]).T - np.tile(P, (3, 1))).reshape(3, n, 3).max(axis=(0, 2)), 0.0), n


def _jacobian_fd(model, rng, i, q):
    h = 1e-6
    J = chain_jacobian(model, i, q)
    Jfd = np.empty((3, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        Jfd[:, k] = (chain_forward_point(model, i, q + e) - chain_forward_point(model, i, q - e)) / (2.0 * h)
    return _rel(J - Jfd, J)


def _jacobian_inverse_identity(model, rng, i, q):
    return float(np.abs(chain_jacobian(model, i, q) @ chain_jacobian_inverse(model, i, q) - np.eye(3)).max())


def _robot_rows(model, rng, p):
    _, chain_q = igm(model, p)
    Jp_inv = robot_jacobian_inverse(model, chain_q)
    return float(np.abs(Jp_inv - [chain_jacobian_inverse(model, i, chain_q[i])[0] for i in range(3)]).max())


def _jacobian_dot_fd(model, rng, i, q):
    h = 1e-6
    qd = rng.normal(0.0, 1.0, 3)
    Jd = chain_jacobian_dot(model, i, q, qd)
    Jfd = (chain_jacobian(model, i, q + h * qd) - chain_jacobian(model, i, q - h * qd)) / (2.0 * h)
    return _rel(Jd - Jfd, Jd)


def _check_acceleration_consistency(model, rng, n):
    h = 1e-4
    worst = 0.0
    used = 0
    for _ in range(n):
        a, b = sample_platform_points(model, rng, 2)
        path = quintic_path(a, b, 1.0, model=model)
        for t in (0.2, 0.35, 0.5, 0.65, 0.8):
            P, V, A = path(t)
            _, cq = igm(model, P)
            _, cqm = igm(model, path(t - h)[0])
            _, cqp = igm(model, path(t + h)[0])
            _, cqd = ik_velocity(model, cq, V)
            for i in range(3):
                qdd = ik_acceleration(model, i, cq[i], cqd[i], A)
                qdd_fd = (cqp[i] - 2.0 * cq[i] + cqm[i]) / (h * h)
                qd_fd = (cqp[i] - cqm[i]) / (2.0 * h)
                worst = _worse(worst, _rel(qdd - qdd_fd, qdd))
                worst = _worse(worst, _rel(cqd[i] - qd_fd, cqd[i]))
            used += 1
    return worst, used


def _closure_gap(model, rng, i, q):
    return parallelogram_gap(model, i, q)


def _wrist_axis(model, rng, i, q):
    R, _ = chain_frames(model, i, q)
    return float(np.abs(R[4][:, 0] - model._packs[i].axis).max())


def _check_tree_inertia_crb(model, rng, n):
    # the Newton-Euler columns, a unit acceleration of each tree joint at rest without gravity,
    # run as one batch of lanes s * 6 + k: sample s, column k
    samples = list(_trees(model, rng, n))
    chains = np.repeat([i for i, _ in samples], 6)
    q = np.repeat(np.array([tree_slots(q6) for _, q6 in samples]).T, 6, axis=1)
    qdd = np.zeros((7, 6 * n))
    qdd[list(TREE_ROWS)] = np.tile(np.eye(6), n)
    gam = _kernels.tree_newton_euler(*_lane_tables(model, chains), q, [0.0] * 7, qdd, np.zeros(3))
    M_ne = np.reshape(gam, (6, n, 6)).transpose(1, 0, 2)
    M_crb = (composite_tree_inertia(model, i, q6) for i, q6 in samples)
    return reduce(_worse, (_rel(M - M_c, M_c) for M, M_c in zip(M_ne, M_crb)), 0.0), n


def _gravity_gradient(model, rng, i, q6):
    h = 1e-6
    zero6 = np.zeros(6)
    gam = tree_newton_euler(model, i, q6, zero6, zero6)
    pack = model._packs[i]
    grad = np.empty(6)
    for k in range(6):
        e = np.zeros(6)
        e[k] = h
        U_plus = _slots_potential(model, pack.frames, pack.inertia, tree_slots(q6 + e))
        U_minus = _slots_potential(model, pack.frames, pack.inertia, tree_slots(q6 - e))
        grad[k] = (U_plus - U_minus) / (2.0 * h)
    return _rel(gam - grad, gam)


def _torque_decomposition(model, rng, i, q):
    qd = rng.normal(0.0, 1.0, 3)
    qdd = rng.normal(0.0, 2.0, 3)
    H = chain_torques_H(model, i, q, qd, qdd)
    recomposed = chain_inertia_A(model, i, q) @ qdd + chain_bias_h(model, i, q, qd)
    return _rel(H - recomposed, H)


def _inertia_symmetry(model, rng, i, q):
    m0 = model_with_gravity(model, (0.0, 0.0, 0.0))
    A = np.array([chain_torques_H(m0, i, q, np.zeros(3), e) for e in np.eye(3)]).T
    return float(np.abs(A - A.T).max() / max(1.0, np.abs(A).max()))


def _check_inertia_spd(model, rng, n):
    worst = 0.0
    for i, q in _chains(model, rng, n):
        A = chain_inertia_A(model, i, q)
        lam = float(np.linalg.eigvalsh(A).min())
        worst = _worse(worst, _worse(0.0, -lam) / max(1.0, float(np.abs(A).max())))
    for p in sample_platform_points(model, rng, max(1, n // 4)):
        _, cq = igm(model, p)
        A_robot, _ = assemble_robot_dyn(model, cq, np.zeros((3, 3)))
        lam = float(np.linalg.eigvalsh(A_robot).min())
        worst = _worse(worst, _worse(0.0, -lam) / max(1.0, float(np.abs(A_robot).max())))
    return worst, n


def _chain_kinetic_quadratic(model, rng, i, q):
    qd = rng.normal(0.0, 1.0, 3)
    T = chain_kinetic_energy(model, i, q, qd)
    Tq = 0.5 * float(qd @ chain_inertia_A(model, i, q) @ qd)
    return abs(T - Tq) / (1.0 + abs(T))


def _robot_kinetic_quadratic(model, rng, p, v, a):
    _, cq = igm(model, p)
    _, cqd = ik_velocity(model, cq, v)
    A_robot, _ = assemble_robot_dyn(model, cq, cqd)
    T = kinetic_energy(model, p, v)
    Tq = 0.5 * float(v @ A_robot @ v)
    return abs(T - Tq) / (1.0 + abs(T))


def _check_lagrangian(model, rng, n):
    P, V, A = map(np.array, zip(*_states(model, rng, n)))
    gam = _inverse_dynamics_many(model, P, V, A)
    return reduce(_worse, _rel(gam - _lagrangian_many(model, P, V, A), gam, 1), 0.0), n


def _check_reaction_balance(model, rng, n):
    # the chains' reaction forces under the inverse-dynamics efforts sum to the platform's net force
    P, V, A = map(np.array, zip(*_states(model, rng, n)))
    legs = _legs(model, P, V)
    resid = _rows(3 * n, _inverse_batch(model, legs, A).T.ravel(), 0.0, 0.0) - _leg_torques(model, legs, A)
    total = np.zeros((n, 3))
    for F in _mv(legs[3].transpose(0, 2, 1), resid).reshape(3, n, 3):  # chain_reaction_force of each lane
        total += F
    return reduce(_worse, np.abs(total - model.platform_mass * (A - model.gravity)).max(axis=1), 0.0), n


def _check_reaction_unit_column(model, rng, n):
    # at rest without gravity a unit actuator effort loads the platform with the chain's row of
    # the robot Jacobian inverse
    m0 = model_with_gravity(model, (0.0, 0.0, 0.0))
    Q, jinvs = _geometry_many(m0, np.array(sample_platform_points(model, rng, n)))
    tables, q = _leg_lanes(m0, Q)
    Jinv = jinvs.reshape(-1, 3, 3)
    F = _mv(Jinv.transpose(0, 2, 1), _rows(3 * n, 1.0, 0.0, 0.0) - _torques_many(m0, tables, q, (0.0,) * 3, (0.0,) * 3))
    return reduce(_worse, np.abs(F - Jinv[:, 0]).reshape(3, n, 3).max(axis=(0, 2)), 0.0), n


def _check_idm_ddm_round_trip(model, rng, n):
    # both batches on one geometry of the states
    P, V, A = map(np.array, zip(*_states(model, rng, n)))
    legs = _legs(model, P, V)
    return reduce(_worse, _rel(_direct_batch(model, legs, _inverse_batch(model, legs, A)) - A, A, 1), 0.0), n


def _check_static_gradient(model, rng, n):
    h = 1e-6
    P = np.array(sample_platform_points(model, rng, n))
    # the static efforts and the gradient's actuator map on one geometry of the points
    legs = _legs(model, P, np.zeros((n, 3)))
    gam = _inverse_batch(model, legs, np.zeros((n, 3)))
    shifted = _plus_minus(P, h).reshape(-1, 3)
    grad = _central(_potential_at(model, shifted, _geometry_many(model, shifted)[0]).reshape(n, 6), h)
    return reduce(_worse, _rel(gam - _actuator_efforts(legs[3].reshape(3, n, 3, 3), grad), gam, 1), 0.0), n


def _completed_run(name, *args):
    """simulate(*args) if the run completed; NumericalError naming the run if not."""
    res = simulate(*args)
    if not res.completed:
        raise NumericalError("%s run stopped early: %s" % (name, res.stop_reason))
    return res


_DRIFT_GRAVITY = (0.0, 0.0, -0.2)
_DRIFT_V0 = (0.05, -0.04, 0.03)


def _drift_model(model):
    # full gravity would pull the free assembly out of the workspace in well
    # under a second, so the conservation run uses a weak field; RK4 drift
    # is field-independent in character
    return model_with_gravity(model, _DRIFT_GRAVITY)


def _check_energy_drift(model, rng, n):
    m = _drift_model(model)
    chain0 = model.chains[0]
    pack0 = model._packs[0]
    p0 = pack0.anchor + pack0.axis * (chain0.d4 + chain0.d6)
    res = _completed_run("conservation", m, p0, _DRIFT_V0, None, SimConfig(dt=1e-4, t_end=1.0, record_every=10))
    T, E = _energies(m, np.array([s.P for s in res.samples]), np.array([s.V for s in res.samples]))
    # the potential offset is arbitrary, so normalize drift by the actual
    # energy exchange seen during the run
    scale = max(float(T.max()), float(np.ptp(E - T)), 1e-9)
    drift = float(E.max() - E.min()) / scale
    return drift, len(res.samples)


def _tracking_setup(model, rng):
    a, b = sample_platform_points(model, rng, 2)
    path = quintic_path(a, b, 0.5, model=model)
    return path, a


def _check_tracking(model, rng, n):
    path, p0 = _tracking_setup(model, rng)
    torque = feedforward_torque(model, path)
    res = _completed_run("tracking", model, p0, np.zeros(3), torque, SimConfig(dt=1e-4, t_end=0.5, record_every=10))
    worst = 0.0
    for s in res.samples:
        worst = _worse(worst, float(np.linalg.norm(s.P - path(s.t)[0])))
    return worst, len(res.samples)


def _check_power_balance(model, rng, n):
    path, p0 = _tracking_setup(model, rng)
    torque = feedforward_torque(model, path)
    dt = 5e-4
    samples = _completed_run("power balance", model, p0, np.zeros(3), torque, SimConfig(dt=dt, t_end=0.5)).samples
    E = _energies(model, np.array([s.P for s in samples]), np.array([s.V for s in samples]))[1]
    P_in = np.array([float(s.Gamma @ s.Ldot) for s in samples])
    scale = 1.0 + float(np.abs(P_in).max())
    worst = 0.0
    for k in range(1, len(samples) - 1):
        dEdt = (E[k + 1] - E[k - 1]) / (2.0 * dt)
        worst = _worse(worst, abs(dEdt - P_in[k]) / scale)
    return worst, len(samples) - 2


def _check_isotropic_inverse(model, rng, n):
    # the actuator axes meet at one point; there every chain folds to its
    # reference angles and the velocity map rows become the axis directions
    axes = np.array([pack.axis for pack in model._packs])
    _, cq = igm(model, _axes_meeting_point(model))
    Jp_inv = robot_jacobian_inverse(model, cq)
    return float(np.abs(Jp_inv - axes).max()), 1


_CHECKS = (
    ("igm_forward_round_trip", 1000, 1e-9, _check_igm_round_trip),
    ("jacobian_fd", 200, 1e-6, _per_sample(_chains, _jacobian_fd)),
    ("jacobian_inverse_identity", 1000, 1e-10, _per_sample(_chains, _jacobian_inverse_identity)),
    ("robot_rows_match_chains", 100, 0.0, _per_sample(_points, _robot_rows)),
    ("jacobian_dot_fd", 200, 1e-5, _per_sample(_chains, _jacobian_dot_fd)),
    ("acceleration_consistency", 10, 1e-4, _check_acceleration_consistency),
    ("closure_gap", 100, 1e-12, _per_sample(_chains, _closure_gap)),
    ("wrist_axis_fixed", 100, 1e-12, _per_sample(_chains, _wrist_axis)),
    ("tree_inertia_crb", 50, 1e-9, _check_tree_inertia_crb),
    ("gravity_vs_potential_gradient", 100, 1e-5, _per_sample(_trees, _gravity_gradient)),
    ("torque_decomposition", 100, 1e-9, _per_sample(_chains, _torque_decomposition)),
    ("inertia_symmetry", 100, 1e-10, _per_sample(_chains, _inertia_symmetry)),
    ("inertia_positive_definite", 100, 0.0, _check_inertia_spd),
    ("chain_kinetic_quadratic", 100, 1e-9, _per_sample(_chains, _chain_kinetic_quadratic)),
    ("robot_kinetic_quadratic", 100, 1e-9, _per_sample(_states, _robot_kinetic_quadratic)),
    ("lagrangian_match", 200, 1e-4, _check_lagrangian),
    ("reaction_balance", 100, 1e-9, _check_reaction_balance),
    ("reaction_unit_column", 100, 1e-12, _check_reaction_unit_column),
    ("idm_ddm_round_trip", 1000, 1e-8, _check_idm_ddm_round_trip),
    ("static_vs_potential_gradient", 100, 1e-5, _check_static_gradient),
    ("power_balance", 1, 1e-4, _check_power_balance),
    ("energy_drift_conservative", 1, 1e-6, _check_energy_drift),
    ("tracking_error", 1, 1e-5, _check_tracking),
    ("isotropic_inverse", 1, 1e-10, _check_isotropic_inverse),
)

TOLERANCES = {name: tol for name, _, tol, _ in _CHECKS}
SAMPLE_COUNTS = {name: cnt for name, cnt, _, _ in _CHECKS}
CHECK_NAMES = tuple(name for name, _, _, _ in _CHECKS)


def _tolerance(name, value):
    """value as the tolerance of check name: a real number >= 0, inf included; ValidationError if not."""
    if not (isinstance(value, numbers.Real) and value >= 0.0):
        raise ValidationError("tolerance of '%s' must be a number >= 0, got %r" % (name, value))
    return float(value)


def run_verification(model, seed=DEFAULT_SEED, n_samples=100, tolerances=None, checks=None):
    """Run the check battery and return a list of OracleReport.

    checks, when given, restricts the battery to those names; an unknown
    name there, in tolerances or in the model's overrides raises
    ValidationError. Each check draws from its own seeded stream, so a
    subset run reproduces exactly what the full run sees. A check that
    raises a package error, a numpy linear-algebra error or an
    ArithmeticError records an infinite error; a NaN error is reported as
    NaN. Either fails the check. Each report carries its wall time. A seed not an
    integer >= 0, an n_samples not an integer >= 1, a tolerance not a number >= 0
    (inf is one), tolerances that are not a mapping or a checks naming no check (or a
    string) raise ValidationError.
    """
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValidationError("seed must be a non-negative integer, got %r" % (seed,))
    if not (isinstance(n_samples, numbers.Integral) and n_samples >= 1):
        raise ValidationError("n_samples must be an integer >= 1, got %r" % (n_samples,))
    tols = dict(TOLERANCES)
    for src in (model.verify_overrides, tolerances or {}):
        if not hasattr(src, "items"):
            raise ValidationError("tolerances must map check names to numbers, got %r" % (tolerances,))
        for key, val in src.items():
            if key not in tols:
                raise ValidationError("unknown verification check '%s'" % key)
            tols[key] = _tolerance(key, val)
    if checks is not None:
        if isinstance(checks, str) or not (checks := list(checks)):
            raise ValidationError("checks must name at least one check in a list, got %r" % (checks,))
        unknown = [c for c in checks if c not in TOLERANCES]
        if unknown:
            raise ValidationError("unknown verification check '%s'" % unknown[0])
        selected = [row for row in _CHECKS if row[0] in set(checks)]
    else:
        selected = list(_CHECKS)

    reports = []
    for name, count, _, fn in selected:
        n = max(1, int(round(count * n_samples / 100.0)))
        rng = np.random.default_rng([seed, zlib.crc32(name.encode("ascii"))])
        t0 = time.perf_counter()
        try:
            err, used = fn(model, rng, n)
        except (OrthoglideError, np.linalg.LinAlgError, ArithmeticError):
            err, used = float("inf"), 0
        wall_s = time.perf_counter() - t0
        tol = tols[name]
        reports.append(OracleReport(name, float(err), int(used), float(tol), bool(err <= tol), wall_s))
    return reports


def reports_by_name(reports):
    return {r.check_name: r for r in reports}


def format_report_table(reports) -> str:
    width = max((len(r.check_name) for r in reports), default=0)
    lines = []
    for r in reports:
        lines.append(
            "%-*s  %s  max_err=%-12.5g tol=%-8.3g n=%d"
            % (width, r.check_name, "pass" if r.passed else "FAIL", r.max_rel_err, r.tolerance, r.samples)
        )
    return "\n".join(lines)
