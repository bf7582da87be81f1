"""Whole-robot dynamics in platform coordinates.

Chain joint-space models are pulled back to the platform point through the
chain Jacobian inverses, summed with the platform's own inertia, and the
actuator efforts enter through the transpose of the actuation map. Inverse
dynamics ends with one 3x3 linear solve; direct dynamics with another.
"""

from __future__ import annotations

import numpy as np

from .chain_dynamics import _leg_dynamics, chain_torques_H
from .errors import NumericalError, require_finite
from .kinematics import chain_jacobian_dot, chain_jacobian_inverse, igm

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
    H_robot = platform_force(model, vdot_p)
    Jp_inv = np.empty((3, 3))
    for i in range(3):
        q = chain_q[i]
        Jinv = chain_jacobian_inverse(model, i, q)
        qd = Jinv @ v_p
        qdd = Jinv @ (vdot_p - chain_jacobian_dot(model, i, q, qd) @ qd)
        H_robot = H_robot + Jinv.T @ chain_torques_H(model, i, q, qd, qdd)
        Jp_inv[i] = Jinv[0]
    return np.linalg.solve(Jp_inv.T, H_robot)


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
    f_act = Jp_inv.T @ gamma
    return np.linalg.solve(A_robot, f_act - h_robot), L, chain_qd[:, 0]
