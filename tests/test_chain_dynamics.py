import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoglide import (
    NumericalError,
    OrthoglideError,
    chain_bias_h,
    chain_forward_point,
    chain_inertia_A,
    chain_jacobian_inverse,
    chain_kinetic_energy,
    chain_reaction_force,
    chain_torques_H,
    composite_tree_inertia,
    default_model,
    direct_dynamics,
    igm,
    inverse_dynamics,
    model_with_gravity,
    tree_newton_euler,
)
from orthoglide import _kernels, robot_dynamics
from orthoglide.chain_dynamics import _UNIT_ACCELERATIONS, _free_efforts, _leg_dynamics, _reduce3, _sweep
from orthoglide.model import TREE_ROWS, _closure_rates, closure_positions, closure_rates, tree_slots
from orthoglide.verify import _sample_state, _slots_potential

from conftest import DENSE, MIXED, dense_inertia_model

HALF_PI = math.pi / 2
# zero rates or accelerations in all nine frame slots
_REST = (0.0,) * 9


def _rand_q(rng):
    return np.array([rng.uniform(-0.2, 0.2), -HALF_PI + rng.uniform(-1.1, 1.1), rng.uniform(-1.1, 1.1)])


# the closure's rate map onto the six tree coordinates, as a 6x3 matrix
_G = np.array([[_closure_rates(*e)[r] for r in TREE_ROWS] for e in np.eye(3)]).T


def test_reduction_matrix_values():
    # the reduction to free efforts (_free_efforts) is the transpose of the closure's rate map
    assert np.array_equal(_G.T, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, -1, 0], [0, 0, 1, -1, 0, 1]])
    assert np.array_equal(np.array([_free_efforts(e) for e in np.eye(6)]).T, _G.T)


def test_closure_maps_pinned():
    q9 = closure_positions((0.1, -1.2, 0.4))
    assert np.allclose(q9, [0.1, -1.2, 0.4, -0.4, 1.2 - HALF_PI, 0.0, 0.4, -0.4, 0.0], atol=1e-15)
    assert closure_rates((1.0, 2.0, 3.0)) == (1.0, 2.0, 3.0, -3.0, -2.0, 0.0, 3.0, -3.0, 0.0)


def test_static_tree_efforts_match_potential_gradient(model, rng):
    h = 1e-6
    for _ in range(5):
        i = int(rng.integers(0, 3))
        q6 = rng.uniform(-1.0, 1.0, 6)
        q6[4] -= HALF_PI
        gam = tree_newton_euler(model, i, q6, np.zeros(6), np.zeros(6))
        for k in range(6):
            e = np.zeros(6)
            e[k] = h
            pack = model._packs[i]
            U_plus = _slots_potential(model, pack.frames, pack.inertia, tree_slots(q6 + e))
            U_minus = _slots_potential(model, pack.frames, pack.inertia, tree_slots(q6 - e))
            g_fd = (U_plus - U_minus) / (2 * h)
            assert abs(gam[k] - g_fd) < 1e-7 * (1 + abs(gam[k]))


def test_torque_decomposition(model, rng):
    for _ in range(10):
        i = int(rng.integers(0, 3))
        q = _rand_q(rng)
        qd = rng.normal(0, 1, 3)
        qdd = rng.normal(0, 2, 3)
        H = chain_torques_H(model, i, q, qd, qdd)
        A = chain_inertia_A(model, i, q)
        h = chain_bias_h(model, i, q, qd)
        assert np.abs(H - (A @ qdd + h)).max() < 1e-11


def test_inertia_matches_reduced_composite(model, rng):
    # independent route: congruence of the 6x6 composite-rigid-body matrix
    for _ in range(5):
        i = int(rng.integers(0, 3))
        q = _rand_q(rng)
        A = chain_inertia_A(model, i, q)
        M_tree = composite_tree_inertia(model, i, [closure_positions(q)[r] for r in TREE_ROWS])
        assert np.abs(A - _G.T @ M_tree @ _G).max() < 1e-12


def test_inertia_symmetric_positive_definite(model, rng):
    for _ in range(10):
        i = int(rng.integers(0, 3))
        A = chain_inertia_A(model, i, _rand_q(rng))
        assert np.abs(A - A.T).max() < 1e-12
        assert np.linalg.eigvalsh(A).min() > 0.0


def test_kinetic_energy_is_the_inertia_quadratic(model, rng):
    for _ in range(10):
        i = int(rng.integers(0, 3))
        q = _rand_q(rng)
        qd = rng.normal(0, 1, 3)
        T = chain_kinetic_energy(model, i, q, qd)
        assert abs(T - 0.5 * qd @ chain_inertia_A(model, i, q) @ qd) < 1e-12 * (1 + T)
        assert T >= 0.0


def test_gravity_override_and_zero_gravity_bias(model, rng):
    q = _rand_q(rng)
    qd = rng.normal(0, 1, 3)
    m0 = model_with_gravity(model, (0.0, 0.0, 0.0))
    h_full = chain_bias_h(model, 0, q, qd)
    h_nog = chain_bias_h(m0, 0, q, qd)
    h_grav = chain_bias_h(model, 0, q, np.zeros(3))
    # bias splits into a pure velocity part and a pure gravity part
    assert np.abs(h_full - (h_nog + h_grav)).max() < 1e-11
    assert np.abs(chain_bias_h(m0, 0, q, np.zeros(3))).max() == 0.0


def test_reaction_force_unit_effort_is_inverse_row(model, rng):
    m0 = model_with_gravity(model, (0, 0, 0))
    zero = np.zeros(3)
    for _ in range(5):
        i = int(rng.integers(0, 3))
        q = _rand_q(rng)
        f = chain_reaction_force(m0, i, q, zero, zero, 1.0)
        assert np.abs(f - chain_jacobian_inverse(m0, i, q)[0]).max() < 1e-12


def test_corrupted_inertia_trips_symmetry_guard(model):
    bad_J = model.chains[0].links[2].inertia.copy()
    # axial direction of the asymmetric part must not line up with the joint
    # axis, or the defect cancels out of every torque projection
    bad_J[1, 2] += 1e-3
    bad_link = dataclasses.replace(model.chains[0].links[2], inertia=bad_J)
    links = list(model.chains[0].links)
    links[2] = bad_link
    bad_chain = dataclasses.replace(model.chains[0], links=tuple(links))
    bad_model = dataclasses.replace(model, chains=(bad_chain,) + model.chains[1:])
    with pytest.raises(NumericalError):
        chain_inertia_A(bad_model, 0, (0.0, -1.3, 0.3))
    # untouched chains keep working
    chain_inertia_A(bad_model, 1, (0.0, -1.3, 0.3))


def _inertia_by_full_sweeps(model, i, q):
    """chain_inertia_A as three general Newton-Euler sweeps, one per column."""
    q9 = closure_positions(q)
    m0 = model_with_gravity(model, (0.0, 0.0, 0.0))
    A = np.empty((3, 3))
    for k in range(3):
        A[:, k] = _reduce3(_sweep(m0, i, q9, _REST, _UNIT_ACCELERATIONS[k]))
    return 0.5 * (A + A.T)


def _inertia_states(rng):
    """Seeded chain states: generic ones, ones within 1e-3 of a fold, and
    ones with exact-zero (and exact signed-zero) coordinates."""
    states = [_rand_q(rng) for _ in range(200)]
    for _ in range(150):
        d = rng.uniform(-1e-3, 1e-3)
        q1, q2, q3 = rng.uniform(-0.2, 0.2), -HALF_PI + rng.uniform(-1.1, 1.1), rng.uniform(-1.1, 1.1)
        folds = ((q1, d, q3), (q1, -math.pi + d, q3), (q1, q2, HALF_PI + d), (q1, q2, -HALF_PI + d))
        states.append(np.array(folds[rng.integers(0, 4)]))
    special = (0.0, -0.0, HALF_PI, -HALF_PI, math.pi)
    for _ in range(150):
        q = _rand_q(rng)
        for k in np.flatnonzero(rng.random(3) < 0.6):
            q[k] = special[rng.integers(0, len(special))]
        states.append(q)
    states += [np.zeros(3), np.array([0.0, -0.0, -0.0])]
    return states


def test_inertia_rest_sweep_is_bitwise_the_full_sweeps(model, rng):
    states = _inertia_states(rng)
    assert len(states) >= 500
    zeros = 0
    for q in states:
        for i in range(3):
            A = chain_inertia_A(model, i, q)
            assert A.tobytes() == _inertia_by_full_sweeps(model, i, q).tobytes(), (i, q)
            zeros += int(np.count_nonzero(A == 0.0))
    # exact-zero entries occur, so their signs are compared too
    assert zeros > 0


def _rate_states(rng, n):
    """Seeded chain rates: generic ones, ones with exact 0.0/-0.0 entries,
    and all-zero ones of either sign."""
    rates = []
    for k in range(n):
        qd = rng.normal(0.0, 1.0, 3)
        if k % 3 == 1:
            for m in np.flatnonzero(rng.random(3) < 0.5):
                qd[m] = (0.0, -0.0)[rng.integers(0, 2)]
        elif k % 3 == 2:
            qd = np.array([(0.0, -0.0)[b] for b in rng.integers(0, 2, 3)])
        rates.append(qd)
    return rates


@pytest.mark.parametrize("gravity", (None, (0.0, 0.0, 0.0), (0.0, 0.0, -0.2)))
def test_bias_sweep_is_bitwise_the_full_sweep(model, rng, gravity):
    model = model if gravity is None else model_with_gravity(model, gravity)
    states = _inertia_states(rng)
    rates = _rate_states(rng, len(states))
    assert len(states) >= 500
    zeros = 0
    for q, qd in zip(states, rates):
        q9, qd9 = closure_positions(q), closure_rates(qd)
        for i in range(3):
            h = chain_bias_h(model, i, q, qd)
            full = _reduce3(_sweep(model, i, q9, qd9, _REST))
            assert h.tobytes() == full.tobytes(), (i, q, qd)
            zeros += int(np.count_nonzero(h == 0.0))
    # exact-zero entries occur, so their signs are compared too
    assert zeros > 0


def _kinetic_on_scratch_rows(frames, inertia, q, qd):
    """The kinetic-energy recursion on numpy scratch rows and numpy scalars:
    the reference for the plain-float kernel."""
    n = len(inertia)
    w = np.zeros((n, 3))
    v = np.zeros((n, 3))
    T = 0.0
    for j in range(n):
        row = frames[j]
        p = row[0]
        kind = row[1]
        r00, r01, r02, r10, r11, r12, r20, r21, r22, px, py, pz = _kernels.place(row, q[j])
        if p < 0:
            wix = wiy = wiz = 0.0
            svx = svy = svz = 0.0
        else:
            wix, wiy, wiz = w[p]
            vpx, vpy, vpz = v[p]
            svx = vpx + wiy * pz - wiz * py
            svy = vpy + wiz * px - wix * pz
            svz = vpz + wix * py - wiy * px
        wjx = r00 * wix + r10 * wiy + r20 * wiz
        wjy = r01 * wix + r11 * wiy + r21 * wiz
        wjz = r02 * wix + r12 * wiy + r22 * wiz
        vjx = r00 * svx + r10 * svy + r20 * svz
        vjy = r01 * svx + r11 * svy + r21 * svz
        vjz = r02 * svx + r12 * svy + r22 * svz
        if kind == _kernels.REVOLUTE:
            wjz += qd[j]
        elif kind == _kernels.PRISMATIC:
            vjz += qd[j]
        w[j] = (wjx, wjy, wjz)
        v[j] = (vjx, vjy, vjz)
        M, msx, msy, msz, J00, J01, J02, J10, J11, J12, J20, J21, J22 = inertia[j]
        Jwx = J00 * wjx + J01 * wjy + J02 * wjz
        Jwy = J10 * wjx + J11 * wjy + J12 * wjz
        Jwz = J20 * wjx + J21 * wjy + J22 * wjz
        vwx = vjy * wjz - vjz * wjy
        vwy = vjz * wjx - vjx * wjz
        vwz = vjx * wjy - vjy * wjx
        T += 0.5 * M * (vjx * vjx + vjy * vjy + vjz * vjz)
        T += 0.5 * (wjx * Jwx + wjy * Jwy + wjz * Jwz)
        T += msx * vwx + msy * vwy + msz * vwz
    return T


def test_kinetic_kernel_is_bitwise_the_scratch_row_version(model, rng):
    states = _inertia_states(rng)
    rates = _rate_states(rng, len(states))
    for k in range(0, len(rates), 7):
        # exact +-pi/2 rates as well
        rates[k][rng.integers(0, 3)] = (HALF_PI, -HALF_PI)[rng.integers(0, 2)]
    rates[-1] = np.zeros(3)
    assert len(states) >= 500
    zeros = 0
    for m in (model, dense_inertia_model(model, rng)):
        for q, qd in zip(states, rates):
            q9, qd9 = closure_positions(q), closure_rates(qd)
            for i in range(3):
                pack = m._packs[i]
                T = chain_kinetic_energy(m, i, q, qd)
                ref = _kinetic_on_scratch_rows(pack.frames, pack.inertia, q9, qd9)
                assert type(T) is float
                assert np.float64(T).tobytes() == np.float64(ref).tobytes(), (i, q, qd)
                zeros += T == 0.0
    # zero energies occur, so their signs are compared too
    assert zeros > 0


@pytest.mark.parametrize("bad", (float("nan"), float("inf"), -float("inf")))
@pytest.mark.parametrize(
    "fn, args, arg, name",
    (
        (chain_bias_h, 2, 0, "q"),
        (chain_bias_h, 2, 1, "qd"),
        (chain_torques_H, 3, 0, "q"),
        (chain_torques_H, 3, 1, "qd"),
        (chain_torques_H, 3, 2, "qdd"),
        (chain_kinetic_energy, 2, 0, "q"),
        (chain_kinetic_energy, 2, 1, "qd"),
        (chain_inertia_A, 1, 0, "q"),
    ),
)
def test_non_finite_chain_state_is_numerical_error(model, fn, args, arg, name, bad):
    state = [[0.0, -1.3, 0.3], [0.2, 0.1, -0.4], [1.0, -2.0, 0.5]][:args]
    state[arg][2] = bad
    with pytest.raises(NumericalError, match=r"non-finite %s \[" % name) as info:
        fn(model, 1, *state)
    assert repr(state[arg]) in str(info.value)


# Property tests: hypothesis draws the states, derandomized with a fixed
# example count so every run checks the same ones.
_PROPERTY = settings(derandomize=True, database=None, deadline=None)


def _around(*centres):
    """Exact special values and values within 1e-12..1e-3 of them."""
    offsets = (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3)
    return st.sampled_from([c + d for c in centres for d in offsets] + [-0.0])


# the slider travel, and the shoulder and elbow angles up to and past
# their folds (sin q2 = 0 at 0 and -pi, cos q3 = 0 at +-pi/2)
_Q1 = st.floats(-0.2, 0.2) | st.sampled_from((0.0, -0.0))
_Q2 = st.floats(-math.pi, 0.0) | _around(0.0, -HALF_PI, -math.pi)
_Q3 = st.floats(-1.2, 1.2) | _around(0.0, HALF_PI, -HALF_PI)
_RATE = st.floats(-3.0, 3.0) | st.sampled_from((0.0, -0.0, HALF_PI, -HALF_PI))
_PROPERTY_MODELS = tuple(
    model_with_gravity(m, g) if g else m for m in (default_model(), DENSE) for g in (None, (0.0, 0.0, 0.0), (0.0, 0.0, -0.2))
)


@settings(_PROPERTY, max_examples=400)
@given(st.sampled_from(_PROPERTY_MODELS), st.integers(0, 2), st.tuples(_Q1, _Q2, _Q3), st.tuples(_RATE, _RATE, _RATE))
def test_fused_leg_sweep_is_bitwise_the_general_sweep(m, i, q, qd):
    q9, qd9 = closure_positions(q), closure_rates(qd)
    pack = m._packs[i]
    bias, columns = _kernels.tree_direct_efforts(pack.frames, pack.inertia, q9, qd9, m.gravity, _UNIT_ACCELERATIONS)
    # every tree effort, before the reduction could hide the sign of a zero
    assert np.array(bias).tobytes() == np.array(_sweep(m, i, q9, qd9, _REST)).tobytes()
    m0 = model_with_gravity(m, (0.0, 0.0, 0.0))
    for column, unit in zip(columns, _UNIT_ACCELERATIONS):
        assert np.array(column).tobytes() == np.array(_sweep(m0, i, q9, _REST, unit)).tobytes()
    A, h = _leg_dynamics(m, i, q, qd)
    full_h = _reduce3(_sweep(m, i, q9, qd9, _REST))
    full_A = _inertia_by_full_sweeps(m, i, q)
    assert h.tobytes() == full_h.tobytes() == chain_bias_h(m, i, q, qd).tobytes()
    assert A.tobytes() == full_A.tobytes() == chain_inertia_A(m, i, q).tobytes()


@settings(_PROPERTY, max_examples=150)
@given(
    st.sampled_from(_PROPERTY_MODELS),
    st.tuples(*[st.floats(-0.08, 0.08)] * 3),
    st.tuples(*[st.floats(-0.5, 0.5) | st.sampled_from((0.0, -0.0))] * 3),
    st.tuples(*[st.floats(-3.0, 3.0) | st.sampled_from((0.0, -0.0))] * 3),
)
def test_idm_ddm_round_trip_property(m, offset, v, vdot):
    p = np.array([0.0, 0.0, 0.6]) + offset
    gamma = inverse_dynamics(m, p, v, vdot)
    back = direct_dynamics(m, p, v, gamma)
    # the idm_ddm_round_trip oracle's measure and tolerance
    assert np.abs(back - vdot).max() / (1.0 + np.abs(vdot).max()) <= 1e-8


# Batched dynamics against the scalar loop. The near-fold points are the
# reachable ones a chain's shoulder angle puts within 1e-3 of its fold.
def _near_fold_points(m):
    points = []
    for i in range(3):
        for q2 in (1e-3, -1e-3, -math.pi + 1e-3, -math.pi - 1e-3):
            for q3 in np.linspace(-1.5, 1.5, 61):
                p = chain_forward_point(m, i, (0.0, q2, q3))
                try:
                    igm(m, p)
                except OrthoglideError:
                    continue
                points.append(tuple(p))
    return points


_NEAR_FOLD = _near_fold_points(default_model())
_CENTRE_OFFSET = st.floats(-0.08, 0.08)


def _signed(bound):
    return st.floats(-bound, bound) | st.sampled_from((0.0, -0.0))


_BATCH_STATE = st.tuples(
    st.tuples(_CENTRE_OFFSET, _CENTRE_OFFSET, _CENTRE_OFFSET).map(lambda o: (o[0], o[1], 0.6 + o[2]))
    | st.sampled_from(_NEAR_FOLD),
    st.tuples(*[_signed(0.5)] * 3),
    st.tuples(*[_signed(3.0)] * 3),
    st.tuples(*[_signed(200.0)] * 3),
)
# and one whose platform mass is not 1.0, which a product with it would hide, and one whose
# legs' frame tables differ past the slider row
_BATCH_MODELS = _PROPERTY_MODELS + (dataclasses.replace(DENSE, platform_mass=1.7), MIXED)
_direct_dynamics_many = functools.partial(robot_dynamics._batched, robot_dynamics._direct_batch, direct_dynamics)
_BATCHES = (
    (robot_dynamics._inverse_dynamics_many, robot_dynamics._inverse_batch, inverse_dynamics),
    (_direct_dynamics_many, robot_dynamics._direct_batch, direct_dynamics),
)


def _assert_batch_is_scalar_loop(m, P, V, X, many, batch, scalar):
    """many gives the scalar loop's rows byte for byte, through batch itself
    when the loop succeeds, or raises the loop's first error."""
    try:
        rows = np.array([scalar(m, p, v, x) for p, v, x in zip(P, V, X)])
    except OrthoglideError as err:
        with pytest.raises(type(err)) as info:
            many(m, P, V, X)
        assert str(info.value) == str(err)
        return None
    assert batch(m, robot_dynamics._legs(m, P, V), X).tobytes() == rows.tobytes()
    assert many(m, P, V, X).tobytes() == rows.tobytes()
    return rows


@settings(_PROPERTY, max_examples=25)
@given(st.sampled_from(_BATCH_MODELS), st.integers(1, 64).flatmap(lambda n: st.lists(_BATCH_STATE, min_size=n, max_size=n)))
def test_batched_dynamics_are_bitwise_the_scalar_loop(m, states):
    P, V, A, Gamma = (np.array(x, dtype=float) for x in zip(*states))
    for (many, batch, scalar), X in zip(_BATCHES, (A, Gamma)):
        _assert_batch_is_scalar_loop(m, P, V, X, many, batch, scalar)


# (p, v, vdot or gamma) that the scalar functions refuse
_BAD_STATES = (
    ((0.0, 0.0, 2.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),  # out of the workspace
    # chain 2 at its shoulder fold, where igm's arcsine sits on its edge
    (tuple(chain_forward_point(default_model(), 1, (0.0, 0.0, -1.3))), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    ((0.0, math.nan, 0.6), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    ((0.0, 0.0, 0.6), (math.inf, 0.0, 0.0), (0.0, 0.0, 0.0)),
    ((0.0, 0.0, 0.6), (1.5e308, -1.5e308, 1.5e308), (0.0, 0.0, 0.0)),  # finite, but the joint rates overflow
    ((0.0, 0.0, 0.6), (0.0, 0.0, 0.0), (0.0, -math.inf, 0.0)),
)


@settings(_PROPERTY, max_examples=25)
@given(st.sampled_from(_BATCH_MODELS), st.lists(_BATCH_STATE, min_size=1, max_size=16), st.sampled_from(_BAD_STATES), st.integers(0, 16))
def test_batch_with_a_bad_state_raises_the_scalar_loops_error(m, states, bad, at):
    P, V, A, Gamma = (np.array(x, dtype=float) for x in zip(*states))
    at = min(at, len(P))
    P, V, A, Gamma = (np.insert(X, at, b, axis=0) for X, b in zip((P, V, A, Gamma), bad + bad[2:]))
    for (many, batch, scalar), X in zip(_BATCHES, (A, Gamma)):
        assert _assert_batch_is_scalar_loop(m, P, V, X, many, batch, scalar) is None


def test_batch_guards_on_a_corrupted_model_raise_the_scalar_error(model, rng):
    P, V, A = (np.array(x) for x in zip(*(_sample_state(model, rng) for _ in range(5))))
    links = list(model.chains[0].links)
    asymmetric = links[2].inertia.copy()
    asymmetric[1, 2] += 1e-3
    for link in (
        dataclasses.replace(links[2], inertia=asymmetric),  # the leg symmetry guard
        dataclasses.replace(links[2], mass=0.0, first_moment=np.zeros(3), inertia=-40.0 * np.eye(3)),  # Sylvester
    ):
        links[2] = link
        chain = dataclasses.replace(model.chains[0], links=tuple(links))
        bad = dataclasses.replace(model, chains=(chain,) + model.chains[1:])
        assert _assert_batch_is_scalar_loop(bad, P, V, A, *_BATCHES[1]) is None
