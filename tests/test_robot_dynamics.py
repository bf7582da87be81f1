import dataclasses

import numpy as np
import pytest

from orthoglide import (
    NumericalError,
    assemble_robot_dyn,
    cartesian_chain_model,
    chain_bias_h,
    chain_inertia_A,
    chain_jacobian_inverse,
    chain_reaction_force,
    direct_dynamics,
    igm,
    ik_acceleration,
    ik_velocity,
    inverse_dynamics,
    lagrangian_idm_oracle,
    platform_force,
    robot_jacobian_inverse,
)
from orthoglide.verify import sample_platform_points


def _states(model, rng, n):
    pts = sample_platform_points(model, rng, n)
    for p in pts:
        yield p, rng.normal(0.0, 0.3, 3), rng.normal(0.0, 1.0, 3)


def test_platform_force_pinned(model):
    f = platform_force(model, (1.0, 2.0, 3.0))
    assert np.allclose(f, [1.0, 2.0, 12.81], atol=1e-12)
    assert np.allclose(platform_force(model, model.gravity), 0.0, atol=1e-15)


def test_idm_ddm_round_trip(model, rng):
    for p, v, a in _states(model, rng, 50):
        gamma = inverse_dynamics(model, p, v, a)
        a_back = direct_dynamics(model, p, v, gamma)
        assert np.abs(a_back - a).max() < 1e-12 * (1.0 + np.abs(a).max())


def test_assembled_inertia_symmetric_spd(model, rng):
    for p, v, _ in _states(model, rng, 10):
        L, cq = igm(model, p)
        _, cqd = ik_velocity(model, cq, v)
        A_rob, h_rob = assemble_robot_dyn(model, cq, cqd)
        assert np.abs(A_rob - A_rob.T).max() < 1e-12 * np.abs(A_rob).max()
        assert np.linalg.eigvalsh(A_rob).min() > 0.0


def test_static_torque_is_bias_solve(model, rng):
    zero = np.zeros(3)
    for p, _, _ in _states(model, rng, 10):
        gamma = inverse_dynamics(model, p, zero, zero)
        L, cq = igm(model, p)
        _, h_rob = assemble_robot_dyn(model, cq, [zero] * 3)
        jp_inv = robot_jacobian_inverse(model, cq)
        assert np.abs(gamma - np.linalg.solve(jp_inv.T, h_rob)).max() < 1e-10


def test_cartesian_chain_model_is_pulled_back_chain_model(model, rng):
    for p, v, _ in _states(model, rng, 10):
        i = int(rng.integers(0, 3))
        L, cq = igm(model, p)
        _, cqd = ik_velocity(model, cq, v)
        A_x, h_x = cartesian_chain_model(model, i, cq[i], cqd[i])
        jinv = chain_jacobian_inverse(model, i, cq[i])
        A = chain_inertia_A(model, i, cq[i])
        h = chain_bias_h(model, i, cq[i], cqd[i])
        assert np.abs(A_x - jinv.T @ A @ jinv).max() < 1e-10
        assert np.abs(h_x - jinv.T @ h).max() < 1e-10


def test_reactions_balance_platform_equation(model, rng):
    for p, v, a in _states(model, rng, 10):
        gamma = inverse_dynamics(model, p, v, a)
        L, cq = igm(model, p)
        _, cqd = ik_velocity(model, cq, v)
        total = np.zeros(3)
        for i in range(3):
            cqdd = ik_acceleration(model, i, cq[i], cqd[i], a)
            total += chain_reaction_force(model, i, cq[i], cqd[i], cqdd, gamma[i])
        assert np.abs(total - platform_force(model, a)).max() < 1e-9


def test_idm_matches_lagrangian_oracle(model, rng):
    for p, v, a in _states(model, rng, 5):
        gamma = inverse_dynamics(model, p, v, a)
        oracle = lagrangian_idm_oracle(model, p, v, a)
        assert np.abs(gamma - oracle).max() < 1e-6 * (1.0 + np.abs(gamma).max())


def test_indefinite_mass_matrix_is_rejected(model):
    # corrupt one forearm with a strongly negative rotary inertia; the
    # assembled matrix loses positive definiteness and the solve must refuse
    bad_link = dataclasses.replace(
        model.chains[0].links[2],
        mass=0.0,
        first_moment=np.zeros(3),
        inertia=-40.0 * np.eye(3),
    )
    links = list(model.chains[0].links)
    links[2] = bad_link
    bad_chain = dataclasses.replace(model.chains[0], links=tuple(links))
    bad_model = dataclasses.replace(model, chains=(bad_chain,) + model.chains[1:])
    with pytest.raises(NumericalError):
        direct_dynamics(bad_model, (0.0, 0.0, 0.6), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


@pytest.mark.parametrize("bad", (float("nan"), float("inf")))
@pytest.mark.parametrize(
    "fn, arg, name",
    (
        (direct_dynamics, 0, "p"),
        (direct_dynamics, 1, "v_p"),
        (direct_dynamics, 2, "gamma"),
        (inverse_dynamics, 0, "p"),
        (inverse_dynamics, 1, "v_p"),
        (inverse_dynamics, 2, "vdot_p"),
    ),
)
def test_non_finite_state_is_numerical_error(model, fn, arg, name, bad):
    args = [[0.0, 0.0, 0.6], [0.1, 0.0, 0.0], [0.5, 0.0, 0.0]]
    args[arg][1] = bad
    with pytest.raises(NumericalError, match="non-finite %s" % name):
        fn(model, *args)
