"""Whole-robot dynamics in platform coordinates.

Chain joint-space models are pulled back to the platform point through the
chain Jacobian inverses, summed with the platform's own inertia, and the
actuator efforts enter through the transpose of the actuation map. Inverse
dynamics ends with one 3x3 linear solve; direct dynamics with another.

_inverse_dynamics_many and _direct_dynamics_many run either over N states at
once, each row bit for bit the scalar function's.
"""

from __future__ import annotations

import numpy as np

from .chain_dynamics import _leg_dynamics, _leg_dynamics_many, _rows, _torques_many, chain_torques_H
from .errors import ChainSingular, NumericalError, OrthoglideError, require_finite
from .kinematics import _jacobian_dot_terms, _jacobian_terms, chain_jacobian_dot, chain_jacobian_inverse, igm

_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def _finite_vectors(**vectors):
    """The named 3-vectors as float arrays; NumericalError names a non-finite one."""
    out = []
    for name, value in vectors.items():
        v = np.asarray(value, dtype=float).reshape(3)
        require_finite(name, v.tolist())
        out.append(v)
    return out


def platform_force(model, vdot_p) -> np.ndarray:
    """Net force the chains must exert on the platform body."""
    vdot_p = np.asarray(vdot_p, dtype=float).reshape(3)
    return model.platform_mass * (vdot_p - model.gravity)


def inverse_dynamics(model, p, v_p, vdot_p) -> np.ndarray:
    """Actuator forces that realize platform acceleration vdot_p at (p, v_p)."""
    p, v_p, vdot_p = _finite_vectors(p=p, v_p=v_p, vdot_p=vdot_p)
    _, chain_q = igm(model, p)
    Jp_inv = np.empty((3, 3))
    # a product that overflows is refused below (or by a chain's own guards), not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        H_robot = platform_force(model, vdot_p)
        for i in range(3):
            q = chain_q[i]
            Jinv = chain_jacobian_inverse(model, i, q)
            qd = Jinv @ v_p
            qdd = Jinv @ (vdot_p - chain_jacobian_dot(model, i, q, qd) @ qd)
            H_robot = H_robot + Jinv.T @ chain_torques_H(model, i, q, qd, qdd)
            Jp_inv[i] = Jinv[0]
        gamma = np.linalg.solve(Jp_inv.T, H_robot)
    require_finite("actuator efforts", gamma.tolist())
    return gamma


def cartesian_chain_model(model, i, q, qd):
    """Chain i's inertia and bias pulled back to the platform point.

    Returns (A_x, h_x): A_x maps platform acceleration to the force the
    chain loads the platform with, h_x is the rate and gravity part taken
    at frozen joint rates qd.
    """
    return _pull_back(model, i, q, qd, chain_jacobian_inverse(model, i, q))


def _pull_back(model, i, q, qd, Jinv):
    """(Jinv^T A Jinv, Jinv^T h) of chain i, given its Jacobian inverse; A
    and h come from one fused leg sweep."""
    A, h = _leg_dynamics(model, i, q, qd)
    JinvT = Jinv.T
    return JinvT @ A @ Jinv, JinvT @ h


def _assemble(model, chain_q, chain_qd, jinvs):
    A_robot = model.platform_mass * _EYE3
    h_robot = -model.platform_mass * model.gravity
    # the leg sweep reads floats; the 3x3 products keep the numpy rate rows
    for i, (q, qd) in enumerate(zip(chain_q.tolist(), chain_qd.tolist())):
        A_x, h_x = _pull_back(model, i, q, qd, jinvs[i])
        # the pulled-back inertia acts on Vdot = J qdd + Jdot qd, so the
        # Jacobian rate shows up as a correction to the bias
        jdq = chain_jacobian_dot(model, i, q, qd) @ chain_qd[i]
        A_robot = A_robot + A_x
        h_robot = h_robot + h_x - A_x @ jdq
    return A_robot, h_robot


def assemble_robot_dyn(model, chain_q, chain_qd):
    """Platform-space inertia matrix and bias force of the full robot.

    The platform acceleration then satisfies
    A_robot @ Vdot + h_robot = applied platform force.
    """
    chain_q = np.asarray(chain_q, dtype=float).reshape(3, 3)
    chain_qd = np.asarray(chain_qd, dtype=float).reshape(3, 3)
    jinvs = [chain_jacobian_inverse(model, i, chain_q[i]) for i in range(3)]
    return _assemble(model, chain_q, chain_qd, jinvs)


def direct_dynamics(model, p, v_p, gamma) -> np.ndarray:
    """Platform acceleration produced by actuator forces gamma at (p, v_p)."""
    return _direct_dynamics(model, p, v_p, gamma)[0]


def _direct_dynamics(model, p, v_p, gamma):
    """direct_dynamics plus the actuator travels and rates it solved on the way.

    Returns (acceleration, L, Ldot), L and Ldot as igm and ik_velocity give
    them at (p, v_p).
    """
    p, v_p, gamma = _finite_vectors(p=p, v_p=v_p, gamma=gamma)
    L, chain_q = igm(model, p)
    jinvs = []
    chain_qd = np.empty((3, 3))
    Jp_inv = np.empty((3, 3))
    # a product that overflows is refused below (or by a chain's own guards), not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(3):
            Jinv = chain_jacobian_inverse(model, i, chain_q[i])
            jinvs.append(Jinv)
            chain_qd[i] = Jinv @ v_p
            Jp_inv[i] = Jinv[0]
        A_robot, h_robot = _assemble(model, chain_q, chain_qd, jinvs)
        # Sylvester test on the leading minors; cheaper than a factorization
        (m11, a01, _), (a10, a11, _), _ = A_robot.tolist()
        if not (m11 > 0.0 and m11 * a11 - a01 * a10 > 0.0 and np.linalg.det(A_robot) > 0.0):
            raise NumericalError("robot inertia matrix is not positive definite")
        acc = np.linalg.solve(A_robot, Jp_inv.T @ gamma - h_robot)
    require_finite("platform acceleration", acc.tolist())
    return acc, L, chain_qd[:, 0]


def _inverse_dynamics_many(model, P, V, A):
    """inverse_dynamics over the rows of (N, 3) arrays; an (N, 3) array."""
    return _batched(_inverse_batch, inverse_dynamics, model, P, V, A)


def _direct_dynamics_many(model, P, V, Gamma):
    """direct_dynamics over the rows of (N, 3) arrays; an (N, 3) array."""
    return _batched(_direct_batch, direct_dynamics, model, P, V, Gamma)


def _batched(batch, scalar, model, *states):
    """batch over the states or, if one of its guards trips, scalar over them
    in order: the scalar loop's rows or its first error either way."""
    states = [np.ascontiguousarray(x, dtype=float).reshape(-1, 3) for x in states]
    if len(states[0]) and np.isfinite(states).all():
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the scalar rerun's to refuse
                out = batch(model, *states)
            if np.isfinite(out).all():
                return out
        except (OrthoglideError, np.linalg.LinAlgError):
            pass
    return np.array([scalar(model, *state) for state in zip(*states)]).reshape(-1, 3)


def _mv(M, x):
    """M @ x for stacks of 3x3 matrices and 3-vectors."""
    return (M @ x[:, :, None])[:, :, 0]


def _base_stack(terms, j20):
    """(N, 3, 3) stack of the matrices with kinematics._jacobian_terms' layout and entry (2, 0) j20."""
    t01, t02, t12, t21, t22 = terms
    return _rows(len(t01), 0.0, t01, t02, 0.0, 0.0, t12, j20, t21, t22).reshape(-1, 3, 3)


def _legs(model, P, V):
    """Per chain at the states (P, V): the angles (3, N), rates (N, 3), Jacobian
    inverses and Jacobian rates; raises where a scalar guard would trip."""
    chain_q = np.array([igm(model, p)[1] for p in P])
    legs = []
    for i, pack in enumerate(model._packs):
        q = chain_q[:, i].T
        c2, s2, c3, s3 = np.cos(q[1]), np.sin(q[1]), np.cos(q[2]), np.sin(q[2])
        if (np.abs(c3) <= 1e-9).any() or (np.abs(s2) <= 1e-9).any():
            raise ChainSingular(i + 1, "a state of the batch is at a fold")
        Jinv = np.linalg.inv(pack.R_base @ _base_stack(_jacobian_terms(pack.d4, c2, s2, c3, s3), 1.0))
        qd = _mv(Jinv, V)
        Jd = pack.R_base @ _base_stack(_jacobian_dot_terms(pack.d4, c2, s2, c3, s3, qd[:, 1], qd[:, 2]), 0.0)
        legs.append((q, qd, Jinv, Jd))
    return legs


def _inverse_batch(model, P, V, A):
    H_robot = model.platform_mass * (A - model.gravity)
    Jp_inv = np.empty((len(P), 3, 3))
    for i, (q, qd, Jinv, Jd) in enumerate(_legs(model, P, V)):
        qdd = _mv(Jinv, A - _mv(Jd, qd))
        H_robot = H_robot + _mv(Jinv.transpose(0, 2, 1), _torques_many(model, i, q, qd.T, qdd.T))
        Jp_inv[:, i] = Jinv[:, 0]
    return np.linalg.solve(Jp_inv.transpose(0, 2, 1), H_robot[:, :, None])[:, :, 0]


def _direct_batch(model, P, V, Gamma):
    A_robot = model.platform_mass * _EYE3
    h_robot = -model.platform_mass * model.gravity
    Jp_inv = np.empty((len(P), 3, 3))
    for i, (q, qd, Jinv, Jd) in enumerate(_legs(model, P, V)):
        A, h = _leg_dynamics_many(model, i, q, qd.T)
        JinvT = Jinv.transpose(0, 2, 1)
        A_x = JinvT @ A @ Jinv
        A_robot = A_robot + A_x
        h_robot = h_robot + _mv(JinvT, h) - _mv(A_x, _mv(Jd, qd))
        Jp_inv[:, i] = Jinv[:, 0]
    m11, a01, a10, a11 = A_robot[:, 0, 0], A_robot[:, 0, 1], A_robot[:, 1, 0], A_robot[:, 1, 1]
    if not ((m11 > 0.0) & (m11 * a11 - a01 * a10 > 0.0) & (np.linalg.det(A_robot) > 0.0)).all():
        raise NumericalError("robot inertia matrix is not positive definite")
    f_act = _mv(Jp_inv.transpose(0, 2, 1), Gamma)
    return np.linalg.solve(A_robot, (f_act - h_robot)[:, :, None])[:, :, 0]
