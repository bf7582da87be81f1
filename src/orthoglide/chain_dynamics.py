"""Per-chain dynamics: closure expansion, tree Newton-Euler, reduced models.

Each chain is computed as a 7-body tree (slider, shoulder cross, first bar,
distal cross, wrist body, platform attachment, second bar) whose six tree
coordinates are slaved to the three free joint values by the parallelogram
closure. The closure is linear with a constant offset, so reducing the tree
model to the free coordinates is a plain congruence by the constant matrix
G below; no extra velocity terms appear.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NumericalError, require_finite
from .model import TREE_ROWS, closure_positions, closure_rates, tree_slots

# Tree coordinate order: frames 1, 2, 3, 4, 5, 7.
# qdot_tree = G @ (q1dot, q2dot, q3dot); G is constant.
G = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0],
        [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0],
    ]
)
G.flags.writeable = False

# Reduction matrix: chain efforts = G_T @ tree efforts.
G_T = np.ascontiguousarray(G.T)
G_T.flags.writeable = False

_ZERO3 = (0.0, 0.0, 0.0)
_REST = (0.0,) * 9
# unit free-coordinate accelerations spread over the frames (columns of G)
_UNIT_ACCELERATIONS = tuple(closure_rates(e) for e in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))


@dataclass(frozen=True)
class TreeState:
    """Position, rate and acceleration of the six tree coordinates."""

    q: np.ndarray
    qd: np.ndarray
    qdd: np.ndarray

    def __post_init__(self):
        for name in ("q", "qd", "qdd"):
            v = np.array(getattr(self, name), dtype=float).reshape(6).copy()
            v.flags.writeable = False
            object.__setattr__(self, name, v)


def closure_expand(q, qd=None, qdd=None) -> TreeState:
    """Map free chain coordinates (q1, q2, q3) to the six tree coordinates.

    Positions pick up the constant -pi/2 offset on the wrist angle; rates
    and accelerations are the plain linear image under G.
    """
    slots = closure_positions(q)
    qd = np.zeros(3) if qd is None else np.asarray(qd, dtype=float).reshape(3)
    qdd = np.zeros(3) if qdd is None else np.asarray(qdd, dtype=float).reshape(3)
    return TreeState(q=[slots[r] for r in TREE_ROWS], qd=G @ qd, qdd=G @ qdd)


def _free_efforts(gam):
    # G_T @ gam written out
    return gam[0], gam[1] - gam[4], gam[2] - gam[3] + gam[5]


def _reduce3(gam):
    return np.array(_free_efforts(gam))


def _gravity(model, gravity):
    return model.gravity if gravity is None else np.asarray(gravity, dtype=float).reshape(3)


def _sweep(model, i, q, qd, qdd, gravity=None, f_ext=None):
    """Tree efforts of chain i (frames 1..5, 7) for per-frame q, qd, qdd."""
    pack = model._packs[i]
    fe = _ZERO3 if f_ext is None else np.asarray(f_ext, dtype=float).reshape(3)
    return _kernels.tree_newton_euler(pack.frames, pack.inertia, q, qd, qdd, _gravity(model, gravity), fe)


def tree_newton_euler(model, i, ts: TreeState, gravity=None, f_ext=None):
    """Efforts at the six tree joints of chain i for the given tree state.

    gravity defaults to the model field; f_ext is a world-frame force the
    chain applies to the platform (its reaction loads the attachment body).
    """
    return np.array(_sweep(model, i, tree_slots(ts.q), tree_slots(ts.qd), tree_slots(ts.qdd), gravity, f_ext))


def _finite_closure(expand, name, v):
    """expand(v) for closure_positions or closure_rates; NumericalError names a non-finite v."""
    slots = expand(v)
    require_finite(name, list(slots[:3]))
    return slots


def chain_torques_H(model, i, q, qd, qdd, gravity=None, f_ext=None):
    """Efforts at the three free joints of chain i (inverse dynamics)."""
    gam = _sweep(
        model,
        i,
        _finite_closure(closure_positions, "q", q),
        _finite_closure(closure_rates, "qd", qd),
        _finite_closure(closure_rates, "qdd", qdd),
        gravity,
        f_ext,
    )
    return _reduce3(gam)


def _leg_sweep(model, i, q, qd, gravity, units):
    """_kernels.tree_direct_efforts of chain i at free-coordinate state (q, qd)."""
    pack = model._packs[i]
    q9, qd9 = _finite_closure(closure_positions, "q", q), _finite_closure(closure_rates, "qd", qd)
    return _kernels.tree_direct_efforts(pack.frames, pack.inertia, q9, qd9, _gravity(model, gravity), units)


def _inertia(i, columns):
    """The symmetrized inertia of chain i from its raw tree-effort columns, on floats."""
    (a00, a10, a20), (a01, a11, a21), (a02, a12, a22) = map(_free_efforts, columns)
    defect = max(abs(a01 - a10), abs(a02 - a20), abs(a12 - a21))
    scale = max(1.0, abs(a00), abs(a01), abs(a02), abs(a10), abs(a11), abs(a12), abs(a20), abs(a21), abs(a22))
    if defect > 1e-8 * scale:
        raise NumericalError("chain %d inertia symmetry defect %.3g exceeds 1e-8" % (i + 1, defect / scale))
    # 0.5 (A + A^T); on the diagonal that is A itself
    s01 = 0.5 * (a01 + a10)
    s02 = 0.5 * (a02 + a20)
    s12 = 0.5 * (a12 + a21)
    return np.array([[a00, s01, s02], [s01, a11, s12], [s02, s12, a22]])


def chain_inertia_A(model, i, q):
    """3x3 joint-space inertia of chain i, column by column.

    Column k is the torque vector for a unit acceleration of joint k with
    zero rates, zero gravity and no load: a rest lane of the fused sweep
    (_kernels.tree_direct_efforts, run at rest), bit for bit the full
    Newton-Euler sweep's. The raw columns must agree with their transpose
    to 1e-8 relative or a NumericalError is raised; the returned matrix is
    the symmetrized version.
    """
    return _inertia(i, _leg_sweep(model, i, q, _ZERO3, _ZERO3, _UNIT_ACCELERATIONS)[1])


def chain_bias_h(model, i, q, qd, gravity=None):
    """Velocity and gravity torques of chain i (zero-acceleration efforts).

    The bias lane of the fused sweep (_kernels.tree_direct_efforts) run
    alone, bit for bit the full Newton-Euler sweep's at zero joint
    accelerations and no load.
    """
    return _reduce3(_leg_sweep(model, i, q, qd, gravity, ())[0])


def _leg_dynamics(model, i, q, qd):
    """(chain_inertia_A, chain_bias_h) of chain i from one fused sweep, bit for bit."""
    bias, columns = _leg_sweep(model, i, q, qd, None, _UNIT_ACCELERATIONS)
    return _inertia(i, columns), _reduce3(bias)


def chain_kinetic_energy(model, i, q, qd) -> float:
    """Kinetic energy of chain i at free-coordinate state (q, qd)."""
    pack = model._packs[i]
    return _kernels.chain_kinetic(
        pack.frames, pack.inertia, _finite_closure(closure_positions, "q", q), _finite_closure(closure_rates, "qd", qd)
    )


def chain_reaction_force(model, i, q, qd, qdd, gamma_1) -> np.ndarray:
    """World-frame force chain i applies to the platform.

    gamma_1 is the actuator effort actually supplied; the two passive free
    joints carry none. Solving the chain force balance for the platform
    load gives f = J^{-T} ((gamma_1, 0, 0) - H).
    """
    from .kinematics import chain_jacobian_inverse

    H = chain_torques_H(model, i, q, qd, qdd)
    resid = np.array([float(gamma_1), 0.0, 0.0]) - H
    Jinv = chain_jacobian_inverse(model, i, q)
    return Jinv.T @ resid
