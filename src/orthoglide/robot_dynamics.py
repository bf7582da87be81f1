"""Whole-robot dynamics in platform coordinates.

Chain joint-space models are pulled back to the platform point through the
chain Jacobian inverses, summed with the platform's own inertia, and the
actuator efforts enter through the transpose of the actuation map. Inverse
dynamics ends with one 3x3 linear solve; direct dynamics with another.

_batched runs _inverse_batch or _direct_batch over N states at once
(_inverse_dynamics_many is the first), each row bit for bit the scalar
function's. The batch bodies stack the three legs into 3N lanes (_legs), so
each makes one kernel call for all legs and states, and refuse a non-finite
result as the scalar functions do.
"""

from __future__ import annotations

import numpy as np

from .chain_dynamics import _leg_dynamics, _leg_dynamics_many, _rows, _torques_many, chain_torques_H
from .errors import NumericalError, OrthoglideError, ValidationError, require_finite
from .kinematics import (
    _FOLD_LIMIT, _jacobian_dot_terms, _jacobian_terms, chain_jacobian_dot, chain_jacobian_inverse, igm,
    robot_jacobian_inverse,
)
from .model import _lane_tables

_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def _finite_vectors(**vectors):
    """The named 3-vectors as float arrays; ValidationError names one not 3 numbers, NumericalError a non-finite one."""
    out = []
    for name, value in vectors.items():
        try:
            v = np.asarray(value, dtype=float).reshape(3)
        except (TypeError, ValueError):
            raise ValidationError("%s must be 3 numbers, got %r" % (name, value)) from None
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


def _batched(batch, scalar, model, P, V, X):
    """batch at the legs of the states (P, V) or, if one of its guards trips, scalar over
    the states in order: the scalar loop's rows or its first error either way."""
    states = [np.ascontiguousarray(x, dtype=float).reshape(-1, 3) for x in (P, V, X)]
    if len(states[0]) and np.isfinite(states).all():
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the scalar rerun's to refuse
                return batch(model, _legs(model, *states[:2]), states[2])
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


def _geometry_many(model, P):
    """Chain angles (3 chains, 3 coordinates, N) and Jacobian inverses (3, N, 3, 3) at the
    points P (N, 3), each bit for bit the scalar one. igm runs point by point and the fold
    guard over all of them, so the first point that fails raises the scalar error."""
    Q = np.array([igm(model, p)[1] for p in P]).reshape(-1, 3, 3).transpose(1, 2, 0)
    c2, s2, c3, s3 = np.cos(Q[:, 1]), np.sin(Q[:, 1]), np.cos(Q[:, 2]), np.sin(Q[:, 2])
    fold = ((np.abs(c3) <= _FOLD_LIMIT) | (np.abs(s2) <= _FOLD_LIMIT)).any(axis=0)
    if fold.any():
        robot_jacobian_inverse(model, Q[:, :, fold.argmax()])  # raises the scalar guard's ChainSingular
    stacks = [pack.R_base @ _base_stack(_jacobian_terms(pack.d4, *trig), 1.0)
              for pack, *trig in zip(model._packs, c2, s2, c3, s3)]
    return Q, np.linalg.inv(stacks)


def _leg_lanes(model, Q):
    """Chain angles Q (3 chains, 3 coordinates, N) as 3N lanes, leg by leg (lane k N + s is chain k
    at point s): the lanes' kernel tables (model._lane_tables) and coordinates (3, 3N)."""
    return _lane_tables(model, np.repeat(np.arange(3), Q.shape[2])), Q.transpose(1, 0, 2).reshape(3, -1)


def _legs(model, P, V):
    """The legs at the states (P, V) as _leg_lanes' 3N lanes: their kernel tables, angles (3, 3N),
    rates (3N, 3), Jacobian inverses and Jacobian rates (3N, 3, 3); raises where a scalar guard would."""
    Q, jinvs = _geometry_many(model, P)
    Jinv = jinvs.reshape(-1, 3, 3)
    qd = _mv(Jinv, np.tile(V, (3, 1)))
    Jd = [pack.R_base @ _base_stack(_jacobian_dot_terms(
              pack.d4, np.cos(q[1]), np.sin(q[1]), np.cos(q[2]), np.sin(q[2]), qd_i[:, 1], qd_i[:, 2]), 0.0)
          for pack, q, qd_i in zip(model._packs, Q, qd.reshape(3, -1, 3))]
    return (*_leg_lanes(model, Q), qd, Jinv, np.concatenate(Jd))


def _leg_torques(model, legs, A):
    """chain_torques_H of every lane of legs at the platform accelerations A (N, 3): (3N, 3)."""
    tables, q, qd, Jinv, Jd = legs
    qdd = _mv(Jinv, np.tile(A, (3, 1)) - _mv(Jd, qd))
    return _torques_many(model, tables, q, qd.T, qdd.T)


def _inverse_batch(model, legs, A):
    Jinv = legs[3]
    H_robot = model.platform_mass * (A - model.gravity)
    for F in _mv(Jinv.transpose(0, 2, 1), _leg_torques(model, legs, A)).reshape(3, -1, 3):
        H_robot = H_robot + F
    Jp_inv = np.ascontiguousarray(Jinv[:, 0].reshape(3, -1, 3).transpose(1, 0, 2))
    gam = np.linalg.solve(Jp_inv.transpose(0, 2, 1), H_robot[:, :, None])[:, :, 0]
    if not np.isfinite(gam).all():
        raise NumericalError("non-finite actuator efforts")
    return gam


def _direct_batch(model, legs, Gamma):
    tables, q, qd, Jinv, Jd = legs
    A, h = _leg_dynamics_many(model, tables, q, qd.T)
    JinvT = Jinv.transpose(0, 2, 1)
    A_x = JinvT @ A @ Jinv
    n = len(Gamma)
    A_robot = model.platform_mass * _EYE3
    h_robot = -model.platform_mass * model.gravity
    for A_i, h_i, jdq_i in zip(A_x.reshape(3, n, 3, 3), _mv(JinvT, h).reshape(3, n, 3),
                               _mv(A_x, _mv(Jd, qd)).reshape(3, n, 3)):
        A_robot = A_robot + A_i
        h_robot = h_robot + h_i - jdq_i
    m11, a01, a10, a11 = A_robot[:, 0, 0], A_robot[:, 0, 1], A_robot[:, 1, 0], A_robot[:, 1, 1]
    if not ((m11 > 0.0) & (m11 * a11 - a01 * a10 > 0.0) & (np.linalg.det(A_robot) > 0.0)).all():
        raise NumericalError("robot inertia matrix is not positive definite")
    Jp_inv = np.ascontiguousarray(Jinv[:, 0].reshape(3, n, 3).transpose(1, 0, 2))
    acc = np.linalg.solve(A_robot, (_mv(Jp_inv.transpose(0, 2, 1), Gamma) - h_robot)[:, :, None])[:, :, 0]
    if not np.isfinite(acc).all():
        raise NumericalError("non-finite platform acceleration")
    return acc
