"""Closed-form kinematics: inverse geometry, chain Jacobians, their rates.

Chain indices are 0-based throughout the package (0, 1, 2), and any other
index is a ValidationError; error messages report them 1-based to match
the config section names. Per-chain joint coordinates are (q1, q2, q3):
actuator travel, shoulder angle, elbow angle. q2 lives in [-pi, 0] on the
working branch and q3 in [-pi/2, pi/2].
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .errors import ChainSingular, OutOfWorkspace, ValidationError, require_finite
from .model import _finite_closure, _pack, closure_positions

_HALF_PI = math.pi / 2.0
_ASIN_EDGE = 1.0 - 1e-12
# |cos q3| or |sin q2| at or below this is a fold, in the scalar and the batched paths
_FOLD_LIMIT = 1e-9


def igm(model, p):
    """Inverse geometry: platform point -> actuator travels and chain angles.

    Returns (L, chain_q) where L is the (3,) vector of prismatic travels and
    chain_q is (3, 3) with row i holding (q1, q2, q3) of chain i. Raises
    OutOfWorkspace when any chain cannot reach p, ValidationError when p is
    not 3 numbers.
    """
    try:
        px, py, pz = np.asarray(p, dtype=float).reshape(3).tolist()
    except (TypeError, ValueError):
        raise ValidationError("p must be 3 numbers, got %r" % (p,)) from None
    L = np.empty(3)
    chain_q = np.empty((3, 3))
    for i in range(3):
        pack = model._packs[i]
        ax, ay, az = pack.anchor.tolist()
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = pack.R_base.tolist()
        rx = px - ax
        ry = py - ay
        rz = pz - az
        ux = r00 * rx + r10 * ry + r20 * rz
        uy = r01 * rx + r11 * ry + r21 * rz
        uz = r02 * rx + r12 * ry + r22 * rz
        d4 = pack.d4
        arg1 = -uy / d4
        if not (-_ASIN_EDGE <= arg1 <= _ASIN_EDGE):
            raise OutOfWorkspace(i + 1, 1, arg1)
        q3 = math.asin(arg1)
        c3 = math.cos(q3)
        arg2 = -ux / (c3 * d4)
        if not (-_ASIN_EDGE <= arg2 <= _ASIN_EDGE):
            raise OutOfWorkspace(i + 1, 2, arg2)
        u2 = math.asin(arg2)
        q2 = -(u2 + _HALF_PI)
        q1 = uz - pack.d6 - d4 * c3 * math.cos(u2)
        L[i] = q1
        chain_q[i] = q1, q2, q3
    return L, chain_q


def chain_frames(model, i, q):
    """World rotation and origin of all nine frames of chain i.

    q is (q1, q2, q3); the slaved angles follow the closure. Returns
    (R, O) with shapes (9, 3, 3) and (9, 3); row k belongs to frame k+1.
    A non-finite q is a NumericalError.
    """
    R, O = _kernels.chain_frames(_pack(model, i).frames, _finite_closure(closure_positions, "q", q))
    return np.reshape(R, (9, 3, 3)), np.array(O)


def chain_forward_point(model, i, q):
    """Platform point reached by chain i at joint values q = (q1, q2, q3)."""
    _, O = chain_frames(model, i, q)
    return O[5].copy()


def parallelogram_gap(model, i, q) -> float:
    """Distance between the two bar tips that the closure should weld.

    Zero (to roundoff) for any q; a nonzero value means broken geometry.
    """
    _, O = chain_frames(model, i, q)
    return float(np.linalg.norm(O[7] - O[8]))


def _finite_angles(name, v):
    """v[1] and v[2], the entries a chain Jacobian reads, as floats; NumericalError if one is not finite."""
    a, b = float(v[1]), float(v[2])
    if not (math.isfinite(a) and math.isfinite(b)):
        require_finite(name, [float(x) for x in v])
    return a, b


def _jacobian_terms(d4, c2, s2, c3, s3):
    """Entries (0, 1), (0, 2), (1, 2), (2, 1), (2, 2) of the chain Jacobian in the base frame, from
    the cosines and sines of q2 and q3 (floats or (N,) arrays); (2, 0) is 1 and the rest 0."""
    return -d4 * c3 * s2, -d4 * s3 * c2, -d4 * c3, -d4 * c3 * c2, d4 * s3 * s2


def _jacobian_dot_terms(d4, c2, s2, c3, s3, qd2, qd3):
    """The same five entries of the Jacobian's rate; the others are 0."""
    return (d4 * (s3 * s2 * qd3 - c3 * c2 * qd2), d4 * (s3 * s2 * qd2 - c3 * c2 * qd3), d4 * s3 * qd3,
            d4 * (s3 * c2 * qd3 + c3 * s2 * qd2), d4 * (c3 * s2 * qd3 + s3 * c2 * qd2))


def _local_jacobian(d4, c2, s2, c3, s3):
    J = np.zeros((3, 3))
    J[0, 1], J[0, 2], J[1, 2], J[2, 1], J[2, 2] = _jacobian_terms(d4, c2, s2, c3, s3)
    J[2, 0] = 1.0
    return J


def chain_jacobian(model, i, q):
    """3x3 map (q1dot, q2dot, q3dot) -> platform velocity, world frame; NumericalError on a non-finite q2 or q3."""
    pack = _pack(model, i)
    q2, q3 = _finite_angles("q", q)
    return pack.R_base @ _local_jacobian(pack.d4, math.cos(q2), math.sin(q2), math.cos(q3), math.sin(q3))


def chain_jacobian_dot(model, i, q, qd):
    """Time derivative of chain_jacobian at (q, qd); NumericalError on a non-finite q2, q3, qd2 or qd3."""
    pack = _pack(model, i)
    q2, q3, qd2, qd3 = float(q[1]), float(q[2]), float(qd[1]), float(qd[2])
    if not math.isfinite(q2 + q3 + qd2 + qd3):  # one test for all four, then which one
        _finite_angles("q", q)
        _finite_angles("qd", qd)
    Jd = np.zeros((3, 3))
    Jd[0, 1], Jd[0, 2], Jd[1, 2], Jd[2, 1], Jd[2, 2] = _jacobian_dot_terms(
        pack.d4, math.cos(q2), math.sin(q2), math.cos(q3), math.sin(q3), qd2, qd3
    )
    return pack.R_base @ Jd


def chain_jacobian_inverse(model, i, q):
    """Numerical inverse of the chain Jacobian.

    The Jacobian determinant is d4^2 cos^2(q3) sin(q2); either factor near
    zero means the chain is at a fold and the inverse is refused. A
    non-finite q2 or q3 is a NumericalError; q1 does not enter.
    """
    pack = _pack(model, i)
    q2, q3 = _finite_angles("q", q)
    c2, s2, c3, s3 = math.cos(q2), math.sin(q2), math.cos(q3), math.sin(q3)
    if abs(c3) <= _FOLD_LIMIT:
        raise ChainSingular(i + 1, "cos(q3) = %.3g" % c3)
    if abs(s2) <= _FOLD_LIMIT:
        raise ChainSingular(i + 1, "sin(q2) = %.3g" % s2)
    J = pack.R_base @ _local_jacobian(pack.d4, c2, s2, c3, s3)
    try:
        return np.linalg.inv(J)
    except np.linalg.LinAlgError:  # pragma: no cover
        raise ChainSingular(i + 1, "matrix inversion failed") from None


def robot_jacobian_inverse(model, chain_q):
    """3x3 map platform velocity -> actuator rates.

    Row i is the first row of chain i's inverse Jacobian, so the result is
    exactly consistent with ik_velocity.
    """
    chain_q = np.asarray(chain_q, dtype=float).reshape(3, 3)
    Jp_inv = np.empty((3, 3))
    for i in range(3):
        Jp_inv[i] = chain_jacobian_inverse(model, i, chain_q[i])[0]
    return Jp_inv


def ik_velocity(model, chain_q, v_p):
    """Actuator and chain joint rates for a platform velocity.

    Returns (Ldot, chain_qd): the (3,) actuator rate vector and the (3, 3)
    array of per-chain joint rates; ValidationError if chain_q is not 3 x 3 numbers or v_p not 3.
    """
    try:
        chain_q = np.asarray(chain_q, dtype=float).reshape(3, 3)
        v_p = np.asarray(v_p, dtype=float).reshape(3)
    except (TypeError, ValueError):
        raise ValidationError("chain_q must be 3 x 3 numbers and v_p 3, got %r and %r" % (chain_q, v_p)) from None
    require_finite("chain_q", chain_q.ravel().tolist())
    require_finite("v_p", v_p.tolist())
    Ldot = np.empty(3)
    chain_qd = np.empty((3, 3))
    for i in range(3):
        qd = chain_jacobian_inverse(model, i, chain_q[i]) @ v_p
        chain_qd[i] = qd
        Ldot[i] = qd[0]
    return Ldot, chain_qd


def ik_acceleration(model, i, q, qd, vdot_p):
    """Chain joint accelerations given joint state and platform acceleration.

    A non-finite q2, q3, qd or vdot_p is a NumericalError.
    """
    vdot_p = np.asarray(vdot_p, dtype=float).reshape(3)
    qd = np.asarray(qd, dtype=float).reshape(3)
    Jinv = chain_jacobian_inverse(model, i, q)
    # before the products, where an infinity times a zero entry would warn
    require_finite("qd", qd.tolist())
    require_finite("vdot_p", vdot_p.tolist())
    return Jinv @ (vdot_p - chain_jacobian_dot(model, i, q, qd) @ qd)
