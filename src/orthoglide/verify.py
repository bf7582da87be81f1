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
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .chain_dynamics import (
    chain_bias_h,
    chain_inertia_A,
    chain_kinetic_energy,
    chain_reaction_force,
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
from .model import TREE_ROWS, _axes_meeting_point, closure_positions, model_with_gravity, tree_slots
from .robot_dynamics import (
    _direct_dynamics_many,
    _finite_vectors,
    _inverse_dynamics_many,
    assemble_robot_dyn,
    inverse_dynamics,
    platform_force,
)
from .simulate import SimConfig, feedforward_torque, quintic_path, simulate

DEFAULT_SEED = 42


# ---------------------------------------------------------------------------
# energies


def _tree_frames(model, i, q6):
    """World rotations (7, 3, 3) and origins (7, 3) of chain i's tree bodies."""
    R, O = _kernels.chain_frames(model._packs[i].frames, tree_slots(q6))
    return np.reshape(R, (7, 3, 3)), np.array(O)


def _slots_potential(model, i, slots) -> float:
    """Gravity potential of chain i's 7-body tree at per-frame joint values slots."""
    pack = model._packs[i]
    R, O = _kernels.chain_frames(pack.frames, slots)
    gx, gy, gz = model.gravity.tolist()
    U = 0.0
    for (M, mx, my, mz), (r00, r01, r02, r10, r11, r12, r20, r21, r22), (ox, oy, oz) in zip(
        pack.inertia[:, :4].tolist(), R, O
    ):
        U -= (
            gx * (M * ox + (r00 * mx + r01 * my + r02 * mz))
            + gy * (M * oy + (r10 * mx + r11 * my + r12 * mz))
            + gz * (M * oz + (r20 * mx + r21 * my + r22 * mz))
        )
    return U


def _tree_potential(model, i, q6) -> float:
    """Gravity potential of the free 7-body tree of chain i."""
    return _slots_potential(model, i, tree_slots(q6))


def chain_potential_energy(model, i, q) -> float:
    """Gravity potential of chain i at free coordinates q = (q1, q2, q3)."""
    (q,) = _finite_vectors(q=q)
    return _slots_potential(model, i, closure_positions(q)[:7])


def _potential_at(model, p, chain_q) -> float:
    """Gravity potential of the whole robot at point p, its chain angles given."""
    U = -model.platform_mass * float(model.gravity @ p)
    for i in range(3):
        U += _slots_potential(model, i, closure_positions(chain_q[i])[:7])
    return U


def _kinetic_at(model, at, v) -> float:
    """Kinetic energy at platform velocity v; at is the point's _geometry."""
    chain_q, jinvs = at
    T = 0.5 * model.platform_mass * float(v @ v)
    for i in range(3):
        T += chain_kinetic_energy(model, i, chain_q[i], jinvs[i] @ v)
    return T


def _geometry(model, p):
    """Chain angles and chain Jacobian inverses at platform point p."""
    _, chain_q = igm(model, p)
    return chain_q, [chain_jacobian_inverse(model, i, chain_q[i]) for i in range(3)]


def potential_energy(model, p) -> float:
    """Gravity potential of the whole robot at platform point p."""
    (p,) = _finite_vectors(p=p)
    return _potential_at(model, p, igm(model, p)[1])


def kinetic_energy(model, p, v) -> float:
    """Kinetic energy of the whole robot at platform state (p, v)."""
    p, v = _finite_vectors(p=p, v=v)
    return _kinetic_at(model, _geometry(model, p), v)


def total_energy(model, p, v) -> float:
    """kinetic_energy plus potential_energy, the geometry solved once."""
    return _energies(model, p, v)[1]


def _energies(model, p, v):
    """(kinetic_energy, total_energy) at (p, v), the geometry and T solved once."""
    p, v = _finite_vectors(p=p, v=v)
    at = _geometry(model, p)
    T = _kinetic_at(model, at, v)
    return T, T + _potential_at(model, p, at[0])


# ---------------------------------------------------------------------------
# oracles


def lagrangian_idm_oracle(model, p, v, vdot) -> np.ndarray:
    """Actuator efforts reconstructed from energies alone.

    Builds d/dt(dT/dV) - dT/dP + dU/dP by nested central differences and
    maps the resulting platform force to the actuators. Shares no dynamics
    code with the recursive implementation; good to about 1e-7 relative.
    The velocity gradient uses a large step because T is exactly quadratic
    in V, which keeps roundoff out of the outer time derivative. The
    geometry of each point is solved once for all the energies taken there.
    """
    p, v, vdot = _finite_vectors(p=p, v=v, vdot=vdot)
    h_v = 0.1
    h_t = 1e-6
    h_p = 1e-6

    def dT_dV(pp, vv):
        at = _geometry(model, pp)
        out = np.empty(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h_v
            out[k] = (_kinetic_at(model, at, vv + e) - _kinetic_at(model, at, vv - e)) / (2.0 * h_v)
        return out

    p_plus = p + h_t * v + 0.5 * h_t * h_t * vdot
    p_minus = p - h_t * v + 0.5 * h_t * h_t * vdot
    v_plus = v + h_t * vdot
    v_minus = v - h_t * vdot
    ddt_dT_dV = (dT_dV(p_plus, v_plus) - dT_dV(p_minus, v_minus)) / (2.0 * h_t)

    dT_dP = np.empty(3)
    dU_dP = np.empty(3)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h_p
        at_plus = _geometry(model, p + e)
        at_minus = _geometry(model, p - e)
        dT_dP[k] = (_kinetic_at(model, at_plus, v) - _kinetic_at(model, at_minus, v)) / (2.0 * h_p)
        dU_dP[k] = (_potential_at(model, p + e, at_plus[0]) - _potential_at(model, p - e, at_minus[0])) / (2.0 * h_p)

    f_cart = ddt_dT_dV - dT_dP + dU_dP
    _, chain_q = igm(model, p)
    Jp_inv = robot_jacobian_inverse(model, chain_q)
    return np.linalg.solve(Jp_inv.T, f_cart)


def _skew(u):
    return np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])


def composite_tree_inertia(model, i, q_tree) -> np.ndarray:
    """6x6 inertia of chain i's free tree by composite-rigid-body assembly.

    Works entirely in world coordinates about the world origin, so it shares
    nothing with the recursive sweep it is checked against.
    """
    frames = model._packs[i].frames
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


def _sample_chain_q(rng):
    q1 = rng.uniform(-0.2, 0.2)
    q2 = -0.5 * math.pi + rng.uniform(-1.2, 1.2)
    q3 = rng.uniform(-1.2, 1.2)
    return np.array([q1, q2, q3])


def _sample_tree_q(rng):
    q6 = rng.uniform(-1.2, 1.2, 6)
    q6[0] = rng.uniform(-0.2, 0.2)
    q6[4] -= 0.5 * math.pi
    return q6


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


def _rel(delta, ref) -> float:
    return float(np.abs(delta).max() / (1.0 + np.abs(ref).max()))


def _worse(worst, err):
    """max(worst, err), except that a NaN is kept, so a NaN error fails its check."""
    return err if err > worst or err != err else worst


def _check_igm_round_trip(model, rng, n):
    worst = 0.0
    for p in sample_platform_points(model, rng, n):
        _, chain_q = igm(model, p)
        for i in range(3):
            worst = _worse(worst, float(np.abs(chain_forward_point(model, i, chain_q[i]) - p).max()))
    return worst, n


def _check_jacobian_fd(model, rng, n):
    h = 1e-6
    worst = 0.0
    for _ in range(n):
        i = int(rng.integers(0, 3))
        q = _sample_chain_q(rng)
        J = chain_jacobian(model, i, q)
        Jfd = np.empty((3, 3))
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            Jfd[:, k] = (chain_forward_point(model, i, q + e) - chain_forward_point(model, i, q - e)) / (2.0 * h)
        worst = _worse(worst, _rel(J - Jfd, J))
    return worst, n


def _check_jacobian_inverse_identity(model, rng, n):
    worst = 0.0
    eye = np.eye(3)
    for _ in range(n):
        i = int(rng.integers(0, 3))
        q = _sample_chain_q(rng)
        prod = chain_jacobian(model, i, q) @ chain_jacobian_inverse(model, i, q)
        worst = _worse(worst, float(np.abs(prod - eye).max()))
    return worst, n


def _check_robot_rows(model, rng, n):
    worst = 0.0
    for p in sample_platform_points(model, rng, n):
        _, chain_q = igm(model, p)
        Jp_inv = robot_jacobian_inverse(model, chain_q)
        for i in range(3):
            row = chain_jacobian_inverse(model, i, chain_q[i])[0]
            worst = _worse(worst, float(np.abs(Jp_inv[i] - row).max()))
    return worst, n


def _check_jacobian_dot_fd(model, rng, n):
    h = 1e-6
    worst = 0.0
    for _ in range(n):
        i = int(rng.integers(0, 3))
        q = _sample_chain_q(rng)
        qd = rng.normal(0.0, 1.0, 3)
        Jd = chain_jacobian_dot(model, i, q, qd)
        Jfd = (chain_jacobian(model, i, q + h * qd) - chain_jacobian(model, i, q - h * qd)) / (2.0 * h)
        worst = _worse(worst, _rel(Jd - Jfd, Jd))
    return worst, n


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


def _check_closure_gap(model, rng, n):
    worst = 0.0
    for _ in range(n):
        i = int(rng.integers(0, 3))
        worst = _worse(worst, parallelogram_gap(model, i, _sample_chain_q(rng)))
    return worst, n


def _check_wrist_axis(model, rng, n):
    worst = 0.0
    for _ in range(n):
        i = int(rng.integers(0, 3))
        R, _ = chain_frames(model, i, _sample_chain_q(rng))
        worst = _worse(worst, float(np.abs(R[4][:, 0] - model._packs[i].axis).max()))
    return worst, n


def _check_tree_inertia_crb(model, rng, n):
    worst = 0.0
    m0 = model_with_gravity(model, (0.0, 0.0, 0.0))
    zero6 = np.zeros(6)
    for _ in range(n):
        i = int(rng.integers(0, 3))
        q6 = _sample_tree_q(rng)
        M_crb = composite_tree_inertia(model, i, q6)
        M_ne = np.array([tree_newton_euler(m0, i, q6, zero6, e) for e in np.eye(6)]).T
        worst = _worse(worst, _rel(M_ne - M_crb, M_crb))
    return worst, n


def _check_gravity_gradient(model, rng, n):
    h = 1e-6
    worst = 0.0
    zero6 = np.zeros(6)
    for _ in range(n):
        i = int(rng.integers(0, 3))
        q6 = _sample_tree_q(rng)
        gam = tree_newton_euler(model, i, q6, zero6, zero6)
        grad = np.empty(6)
        for k in range(6):
            e = np.zeros(6)
            e[k] = h
            grad[k] = (_tree_potential(model, i, q6 + e) - _tree_potential(model, i, q6 - e)) / (2.0 * h)
        worst = _worse(worst, _rel(gam - grad, gam))
    return worst, n


def _check_torque_decomposition(model, rng, n):
    worst = 0.0
    for _ in range(n):
        i = int(rng.integers(0, 3))
        q = _sample_chain_q(rng)
        qd = rng.normal(0.0, 1.0, 3)
        qdd = rng.normal(0.0, 2.0, 3)
        H = chain_torques_H(model, i, q, qd, qdd)
        recomposed = chain_inertia_A(model, i, q) @ qdd + chain_bias_h(model, i, q, qd)
        worst = _worse(worst, _rel(H - recomposed, H))
    return worst, n


def _check_inertia_symmetry(model, rng, n):
    worst = 0.0
    m0 = model_with_gravity(model, (0.0, 0.0, 0.0))
    zero = np.zeros(3)
    for _ in range(n):
        i = int(rng.integers(0, 3))
        q = _sample_chain_q(rng)
        A = np.array([chain_torques_H(m0, i, q, zero, e) for e in np.eye(3)]).T
        worst = _worse(worst, float(np.abs(A - A.T).max() / max(1.0, np.abs(A).max())))
    return worst, n


def _check_inertia_spd(model, rng, n):
    worst = 0.0
    for _ in range(n):
        i = int(rng.integers(0, 3))
        A = chain_inertia_A(model, i, _sample_chain_q(rng))
        lam = float(np.linalg.eigvalsh(A).min())
        worst = _worse(worst, _worse(0.0, -lam) / max(1.0, float(np.abs(A).max())))
    for p in sample_platform_points(model, rng, max(1, n // 4)):
        _, cq = igm(model, p)
        A_robot, _ = assemble_robot_dyn(model, cq, np.zeros((3, 3)))
        lam = float(np.linalg.eigvalsh(A_robot).min())
        worst = _worse(worst, _worse(0.0, -lam) / max(1.0, float(np.abs(A_robot).max())))
    return worst, n


def _check_chain_kinetic_quadratic(model, rng, n):
    worst = 0.0
    for _ in range(n):
        i = int(rng.integers(0, 3))
        q = _sample_chain_q(rng)
        qd = rng.normal(0.0, 1.0, 3)
        T = chain_kinetic_energy(model, i, q, qd)
        Tq = 0.5 * float(qd @ chain_inertia_A(model, i, q) @ qd)
        worst = _worse(worst, abs(T - Tq) / (1.0 + abs(T)))
    return worst, n


def _check_robot_kinetic_quadratic(model, rng, n):
    worst = 0.0
    for _ in range(n):
        p, v, _ = _sample_state(model, rng)
        _, cq = igm(model, p)
        _, cqd = ik_velocity(model, cq, v)
        A_robot, _ = assemble_robot_dyn(model, cq, cqd)
        T = kinetic_energy(model, p, v)
        Tq = 0.5 * float(v @ A_robot @ v)
        worst = _worse(worst, abs(T - Tq) / (1.0 + abs(T)))
    return worst, n


def _check_lagrangian(model, rng, n):
    P, V, A = map(np.array, zip(*(_sample_state(model, rng) for _ in range(n))))
    worst = 0.0
    for p, v, a, gam in zip(P, V, A, _inverse_dynamics_many(model, P, V, A)):
        gam_oracle = lagrangian_idm_oracle(model, p, v, a)
        worst = _worse(worst, _rel(gam - gam_oracle, gam))
    return worst, n


def _check_reaction_balance(model, rng, n):
    worst = 0.0
    for _ in range(n):
        p, v, a = _sample_state(model, rng)
        gam = inverse_dynamics(model, p, v, a)
        _, cq = igm(model, p)
        _, cqd = ik_velocity(model, cq, v)
        total = np.zeros(3)
        for i in range(3):
            qdd = ik_acceleration(model, i, cq[i], cqd[i], a)
            total += chain_reaction_force(model, i, cq[i], cqd[i], qdd, gam[i])
        worst = _worse(worst, float(np.abs(total - platform_force(model, a)).max()))
    return worst, n


def _check_reaction_unit_column(model, rng, n):
    worst = 0.0
    m0 = model_with_gravity(model, (0.0, 0.0, 0.0))
    zero = np.zeros(3)
    for p in sample_platform_points(model, rng, n):
        _, cq = igm(m0, p)
        Jp_inv = robot_jacobian_inverse(m0, cq)
        for i in range(3):
            f = chain_reaction_force(m0, i, cq[i], zero, zero, 1.0)
            worst = _worse(worst, float(np.abs(f - Jp_inv[i]).max()))
    return worst, n


def _check_idm_ddm_round_trip(model, rng, n):
    P, V, A = map(np.array, zip(*(_sample_state(model, rng) for _ in range(n))))
    worst = 0.0
    for a, a2 in zip(A, _direct_dynamics_many(model, P, V, _inverse_dynamics_many(model, P, V, A))):
        worst = _worse(worst, _rel(a2 - a, a))
    return worst, n


def _check_static_gradient(model, rng, n):
    h = 1e-6
    worst = 0.0
    zero = np.zeros(3)
    for p in sample_platform_points(model, rng, n):
        gam = inverse_dynamics(model, p, zero, zero)
        grad = np.empty(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            grad[k] = (potential_energy(model, p + e) - potential_energy(model, p - e)) / (2.0 * h)
        _, cq = igm(model, p)
        expected = np.linalg.solve(robot_jacobian_inverse(model, cq).T, grad)
        worst = _worse(worst, _rel(gam - expected, gam))
    return worst, n


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
    res = simulate(m, p0, _DRIFT_V0, None, SimConfig(dt=1e-4, t_end=1.0, record_every=10))
    if not res.completed:
        raise NumericalError("conservation run stopped early: %s" % res.stop_reason)
    T, E = np.array([_energies(m, s.P, s.V) for s in res.samples]).T
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
    res = simulate(model, p0, np.zeros(3), torque, SimConfig(dt=1e-4, t_end=0.5, record_every=10))
    if not res.completed:
        raise NumericalError("tracking run stopped early: %s" % res.stop_reason)
    worst = 0.0
    for s in res.samples:
        worst = _worse(worst, float(np.linalg.norm(s.P - path(s.t)[0])))
    return worst, len(res.samples)


def _check_power_balance(model, rng, n):
    path, p0 = _tracking_setup(model, rng)
    torque = feedforward_torque(model, path)
    dt = 5e-4
    res = simulate(model, p0, np.zeros(3), torque, SimConfig(dt=dt, t_end=0.5))
    if not res.completed:
        raise NumericalError("power balance run stopped early: %s" % res.stop_reason)
    samples = res.samples
    E = np.array([total_energy(model, s.P, s.V) for s in samples])
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
    ("jacobian_fd", 200, 1e-6, _check_jacobian_fd),
    ("jacobian_inverse_identity", 1000, 1e-10, _check_jacobian_inverse_identity),
    ("robot_rows_match_chains", 100, 0.0, _check_robot_rows),
    ("jacobian_dot_fd", 200, 1e-5, _check_jacobian_dot_fd),
    ("acceleration_consistency", 10, 1e-4, _check_acceleration_consistency),
    ("closure_gap", 100, 1e-12, _check_closure_gap),
    ("wrist_axis_fixed", 100, 1e-12, _check_wrist_axis),
    ("tree_inertia_crb", 50, 1e-9, _check_tree_inertia_crb),
    ("gravity_vs_potential_gradient", 100, 1e-5, _check_gravity_gradient),
    ("torque_decomposition", 100, 1e-9, _check_torque_decomposition),
    ("inertia_symmetry", 100, 1e-10, _check_inertia_symmetry),
    ("inertia_positive_definite", 100, 0.0, _check_inertia_spd),
    ("chain_kinetic_quadratic", 100, 1e-9, _check_chain_kinetic_quadratic),
    ("robot_kinetic_quadratic", 100, 1e-9, _check_robot_kinetic_quadratic),
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


def run_verification(model, seed=DEFAULT_SEED, n_samples=100, tolerances=None, checks=None):
    """Run the check battery and return a list of OracleReport.

    checks, when given, restricts the battery to those names; an unknown
    name there, in tolerances or in the model's overrides raises
    ValidationError. Each check draws from its own seeded stream, so a
    subset run reproduces exactly what the full run sees. A check that
    raises a package error, a numpy linear-algebra error or an
    ArithmeticError records an infinite error; a NaN error is reported as
    NaN. Either fails the check. Each report carries its wall time.
    """
    tols = dict(TOLERANCES)
    for src in (model.verify_overrides, tolerances or {}):
        for key, val in src.items():
            if key not in tols:
                raise ValidationError("unknown verification check '%s'" % key)
            tols[key] = float(val)
    if checks is not None:
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
    width = max(len(r.check_name) for r in reports)
    lines = []
    for r in reports:
        lines.append(
            "%-*s  %s  max_err=%-12.5g tol=%-8.3g n=%d"
            % (width, r.check_name, "pass" if r.passed else "FAIL", r.max_rel_err, r.tolerance, r.samples)
        )
    return "\n".join(lines)
