"""Per-chain dynamics: tree Newton-Euler and the reduced models.

Each chain is computed as a 7-body tree (slider, shoulder cross, first bar,
distal cross, wrist body, platform attachment, second bar) whose six tree
coordinates are slaved to the three free joint values by the parallelogram
closure (model.py's closure maps). The closure is linear with a constant
offset, so the free-coordinate efforts are the tree efforts summed by the
transpose of the closure's rate map (_free_efforts); no extra velocity
terms appear.

Gravity is the model's field (model_with_gravity gives a copy under another).
No platform load enters a leg here: the robot layer applies it through the
Jacobian transposes, and chain_reaction_force gives one leg's share.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .errors import NumericalError, require_finite
from .model import _closure_positions, _closure_rates, closure_positions, closure_rates, tree_slots

_ZERO3 = (0.0, 0.0, 0.0)
_REST = (0.0,) * 9
# unit free-coordinate accelerations spread over the frames
_UNIT_ACCELERATIONS = tuple(closure_rates(e) for e in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))


def _free_efforts(gam):
    # the tree efforts (frames 1..5, 7) summed by the transpose of _closure_rates
    return gam[0], gam[1] - gam[4], gam[2] - gam[3] + gam[5]


def _reduce3(gam):
    return np.array(_free_efforts(gam))


def _sweep(model, i, q, qd, qdd):
    """Tree efforts of chain i (frames 1..5, 7) for per-frame q, qd, qdd."""
    pack = model._packs[i]
    return _kernels.tree_newton_euler(pack.frames, pack.inertia, q, qd, qdd, model.gravity)


def tree_newton_euler(model, i, q, qd, qdd):
    """Efforts at the six tree joints of chain i (frames 1..5, 7) for six-vectors of
    tree positions, rates and accelerations, under the model's gravity."""
    return np.array(_sweep(model, i, tree_slots(q), tree_slots(qd), tree_slots(qdd)))


def _finite_closure(expand, name, v):
    """expand(v) for closure_positions or closure_rates; NumericalError names a non-finite v."""
    slots = expand(v)
    require_finite(name, list(slots[:3]))
    return slots


def chain_torques_H(model, i, q, qd, qdd):
    """Efforts at the three free joints of chain i (inverse dynamics) with no platform load;
    a world-frame force F that the chain applies to the platform adds chain_jacobian(model, i, q).T @ F."""
    gam = _sweep(
        model,
        i,
        _finite_closure(closure_positions, "q", q),
        _finite_closure(closure_rates, "qd", qd),
        _finite_closure(closure_rates, "qdd", qdd),
    )
    return _reduce3(gam)


def _leg_sweep(model, i, q, qd, units):
    """_kernels.tree_direct_efforts of chain i at free-coordinate state (q, qd)."""
    pack = model._packs[i]
    q9, qd9 = _finite_closure(closure_positions, "q", q), _finite_closure(closure_rates, "qd", qd)
    return _kernels.tree_direct_efforts(pack.frames, pack.inertia, q9, qd9, model.gravity, units)


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
    return np.array((a00, s01, s02, s01, a11, s12, s02, s12, a22)).reshape(3, 3)


def chain_inertia_A(model, i, q):
    """3x3 joint-space inertia of chain i, column by column.

    Column k is the torque vector for a unit acceleration of joint k with
    zero rates and zero gravity: a rest lane of the fused sweep
    (_kernels.tree_direct_efforts, run at rest), bit for bit the full
    Newton-Euler sweep's; the model's gravity enters only the bias lane,
    which is discarded. The raw columns must agree with their transpose
    to 1e-8 relative or a NumericalError is raised; the returned matrix is
    the symmetrized version.
    """
    return _inertia(i, _leg_sweep(model, i, q, _ZERO3, _UNIT_ACCELERATIONS)[1])


def chain_bias_h(model, i, q, qd):
    """Velocity and gravity torques of chain i (zero-acceleration efforts).

    The bias lane of the fused sweep (_kernels.tree_direct_efforts) run
    alone, bit for bit the full Newton-Euler sweep's at zero joint
    accelerations, under the model's gravity.
    """
    return _reduce3(_leg_sweep(model, i, q, qd, ())[0])


def _leg_dynamics(model, i, q, qd):
    """(chain_inertia_A, chain_bias_h) of chain i from one fused sweep, bit for bit."""
    bias, columns = _leg_sweep(model, i, q, qd, _UNIT_ACCELERATIONS)
    if not math.isfinite(sum(bias)):
        # finite rates whose velocity terms overflow; refuse before numpy warns on them
        require_finite("chain %d bias efforts" % (i + 1), bias)
    return _inertia(i, columns), _reduce3(bias)


def _rows(n, *entries):
    """(n, len(entries)) array whose column k holds entries[k], a float or an (n,) array."""
    out = np.empty((n, len(entries)))
    for k, e in enumerate(entries):
        out[:, k] = e
    return out


def _torques_many(model, i, q, qd, qdd):
    """chain_torques_H of chain i over a batch, q, qd and qdd three (N,) arrays each: an (N, 3) stack."""
    gam = _sweep(model, i, _closure_positions(*q), _closure_rates(*qd), _closure_rates(*qdd))
    return _rows(len(q[0]), *_free_efforts(gam))


def _leg_dynamics_many(model, i, q, qd):
    """_leg_dynamics of chain i over a batch, q and qd three (N,) arrays each: the (N, 3, 3)
    inertia and (N, 3) bias stacks, under the scalar symmetry guard state by state."""
    pack = model._packs[i]
    bias, columns = _kernels.tree_direct_efforts(
        pack.frames, pack.inertia, _closure_positions(*q), _closure_rates(*qd), model.gravity, _UNIT_ACCELERATIONS
    )
    (a00, a10, a20), (a01, a11, a21), (a02, a12, a22) = map(_free_efforts, columns)
    defect = np.abs([a01 - a10, a02 - a20, a12 - a21]).max(axis=0)
    scale = np.maximum(1.0, np.abs([a00, a01, a02, a10, a11, a12, a20, a21, a22]).max(axis=0))
    if (defect > 1e-8 * scale).any():
        raise NumericalError("chain %d inertia symmetry defect exceeds 1e-8" % (i + 1))
    s01 = 0.5 * (a01 + a10)
    s02 = 0.5 * (a02 + a20)
    s12 = 0.5 * (a12 + a21)
    n = len(q[0])
    A = _rows(n, a00, s01, s02, s01, a11, s12, s02, s12, a22).reshape(n, 3, 3)
    return A, _rows(n, *_free_efforts(bias))


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
