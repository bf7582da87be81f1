import dataclasses

import numpy as np
import pytest

from orthoglide import (
    ChainSingular,
    NumericalError,
    SimConfig,
    ValidationError,
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
    robot_dynamics,
    robot_jacobian_inverse,
    simulate,
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


@pytest.mark.parametrize("fn", (direct_dynamics, inverse_dynamics))
@pytest.mark.parametrize("arg, bad", ((0, (0.0, 0.6)), (1, (0.1, 0.0, 0.0, 0.0)), (2, ("a", 0.0, 0.0)), (2, None)))
def test_wrong_shape_or_non_numeric_vector_is_validation_error(model, fn, arg, bad):
    args = [[0.0, 0.0, 0.6], [0.1, 0.0, 0.0], [0.5, 0.0, 0.0]]
    args[arg] = bad
    name = fn.__code__.co_varnames[1 + arg]
    with pytest.raises(ValidationError, match="^%s must be 3 numbers, got " % name):
        fn(model, *args)


def test_batched_geometry_raises_the_scalar_fold_error_of_the_first_failing_point(model, monkeypatch):
    P = np.array([[0.0, 0.0, 0.6], [0.01, 0.0, 0.6], [0.02, 0.0, 0.6]])
    folded = {1: (2, 2, 0.5 * np.pi), 2: (0, 1, 0.0)}  # point -> (chain, coordinate, value at a fold)

    def igm_with_folds(model, p):
        L, chain_q = igm(model, p)
        k = int(round(p[0] / 0.01))
        if k in folded:
            chain, coordinate, value = folded[k]
            chain_q[chain, coordinate] = value
        return L, chain_q

    monkeypatch.setattr(robot_dynamics, "igm", igm_with_folds)
    with pytest.raises(ChainSingular) as got:
        robot_dynamics._geometry_many(model, P)
    with pytest.raises(ChainSingular) as expected:
        robot_jacobian_inverse(model, igm_with_folds(model, P[1])[1])
    assert str(got.value) == str(expected.value) and got.value.chain == 3


@pytest.mark.filterwarnings("error")
def test_overflowing_velocity_terms_are_numerical_error(model):
    # the joint rates stay finite, but the velocity terms of the legs' bias overflow
    p, v, gamma = (0.0, 0.0, 0.6), (1e300, -1e300, 0.0), (0.0, 0.0, 0.0)
    with pytest.raises(NumericalError, match="non-finite chain 1 bias efforts") as scalar:
        direct_dynamics(model, p, v, gamma)
    P, V, Gamma = (np.array([x, x]) for x in (p, v, gamma))
    P[0, 2], V[0] = 0.59, 0.0  # a good state first
    with pytest.raises(NumericalError) as batch:
        robot_dynamics._batched(robot_dynamics._direct_batch, direct_dynamics, model, P, V, Gamma)
    assert str(batch.value) == str(scalar.value)
    with pytest.raises(NumericalError, match="bias efforts"):
        simulate(model, p, v, config=SimConfig(dt=1e-3, t_end=0.002))


@pytest.mark.filterwarnings("error")
def test_overflowing_efforts_and_accelerations_are_numerical_error(model):
    # finite inputs whose products overflow: an actuator force and a platform acceleration
    p, v, big = (0.0, 0.0, 0.6), (0.0, 0.0, 0.0), (1e308, 1e308, 0.0)
    with pytest.raises(NumericalError, match="non-finite platform acceleration"):
        direct_dynamics(model, p, v, big)
    with pytest.raises(NumericalError, match="non-finite platform acceleration"):
        robot_dynamics._batched(robot_dynamics._direct_batch, direct_dynamics, model, [p], [v], [big])
    with pytest.raises(NumericalError):
        inverse_dynamics(model, p, v, big)
    with pytest.raises(NumericalError):
        robot_dynamics._inverse_dynamics_many(model, [p], [v], [big])
    # the solve itself overflows, with every joint acceleration finite
    with pytest.raises(NumericalError, match="non-finite actuator efforts"):
        inverse_dynamics(model, p, v, (1e307, -1e307, 1e307))
    # the first sample is refused instead of recorded
    with pytest.raises(NumericalError, match="non-finite platform acceleration"):
        simulate(model, p, v, lambda t: np.array(big), SimConfig(dt=1e-3, t_end=0.002))
