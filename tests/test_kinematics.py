import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthoglide
from orthoglide import (
    ChainSingular,
    NumericalError,
    OutOfWorkspace,
    ValidationError,
    chain_forward_point,
    chain_frames,
    chain_jacobian,
    chain_jacobian_dot,
    chain_jacobian_inverse,
    igm,
    ik_acceleration,
    ik_velocity,
    parallelogram_gap,
    quintic_path,
    robot_jacobian_inverse,
)
from orthoglide.verify import sample_platform_points

HALF_PI = math.pi / 2


def test_igm_pinned_home_point(model):
    L, cq = igm(model, (0.0, 0.0, 0.6))
    assert np.allclose(L, [0.0, -0.2, -0.2], atol=1e-15)
    # chain 1 sees the point straight ahead: elbow flat, shoulder square
    assert abs(cq[0, 0]) < 1e-15
    assert abs(cq[0, 1] + HALF_PI) < 1e-15
    assert abs(cq[0, 2]) < 1e-15


def test_forward_pinned_square_pose(model):
    p = chain_forward_point(model, 0, (0.1, -HALF_PI, 0.0))
    assert np.allclose(p, [0.0, 0.0, 0.7], atol=1e-15)


def test_igm_forward_round_trip(model, rng):
    for p in sample_platform_points(model, rng, 100):
        _, cq = igm(model, p)
        for i in range(3):
            assert np.abs(chain_forward_point(model, i, cq[i]) - p).max() < 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.tuples(*[st.floats(-0.3, 0.3) | st.sampled_from((0.0, -0.0))] * 3))
def test_igm_forward_round_trip_property(model, offset):
    # a cube about the workspace centre, about 40% of it out of reach
    p = np.array([0.0, 0.0, 0.6]) + offset
    try:
        _, cq = igm(model, p)
    except OutOfWorkspace:
        return
    for i in range(3):
        assert np.abs(chain_forward_point(model, i, cq[i]) - p).max() < 1e-12


def test_igm_branch_ranges(model, rng):
    for p in sample_platform_points(model, rng, 50):
        _, cq = igm(model, p)
        assert np.all(cq[:, 1] > -math.pi) and np.all(cq[:, 1] < 0.0)
        assert np.all(np.abs(cq[:, 2]) < HALF_PI)


def test_out_of_workspace_attributes(model):
    with pytest.raises(OutOfWorkspace) as exc:
        igm(model, (0.0, 0.0, 1.5))
    assert exc.value.chain == 2 and exc.value.arcsine == 1
    with pytest.raises(OutOfWorkspace) as exc:
        igm(model, (0.52, 0.0, 0.55))
    assert exc.value.chain == 1 and exc.value.arcsine == 2
    assert abs(exc.value.argument) > 1.0


def test_jacobian_matches_finite_differences(model, rng):
    h = 1e-6
    for _ in range(30):
        i = int(rng.integers(0, 3))
        q = np.array([rng.uniform(-0.2, 0.2), -HALF_PI + rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)])
        J = chain_jacobian(model, i, q)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            col = (chain_forward_point(model, i, q + e) - chain_forward_point(model, i, q - e)) / (2 * h)
            assert np.abs(J[:, k] - col).max() < 1e-8


def test_jacobian_inverse_identity(model, rng):
    for _ in range(30):
        i = int(rng.integers(0, 3))
        q = np.array([0.0, -HALF_PI + rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)])
        J = chain_jacobian(model, i, q)
        Jinv = chain_jacobian_inverse(model, i, q)
        assert np.abs(J @ Jinv - np.eye(3)).max() < 1e-12


def test_singular_poses_refused(model):
    with pytest.raises(ChainSingular):
        chain_jacobian_inverse(model, 0, (0.0, -HALF_PI, HALF_PI))  # elbow fold
    with pytest.raises(ChainSingular):
        chain_jacobian_inverse(model, 1, (0.0, 0.0, 0.0))  # shoulder fold
    err = None
    try:
        chain_jacobian_inverse(model, 2, (0.0, 0.0, 0.0))
    except ChainSingular as e:
        err = e
    assert err is not None and err.chain == 3


def test_robot_rows_are_chain_rows(model, rng):
    for p in sample_platform_points(model, rng, 20):
        _, cq = igm(model, p)
        Jp_inv = robot_jacobian_inverse(model, cq)
        for i in range(3):
            assert np.array_equal(Jp_inv[i], chain_jacobian_inverse(model, i, cq[i])[0])


def test_ik_velocity_consistency(model, rng):
    for p in sample_platform_points(model, rng, 20):
        _, cq = igm(model, p)
        v = rng.normal(0, 0.5, 3)
        Ldot, cqd = ik_velocity(model, cq, v)
        assert np.array_equal(Ldot, cqd[:, 0])
        for i in range(3):
            # J qd reproduces the platform velocity
            assert np.abs(chain_jacobian(model, i, cq[i]) @ cqd[i] - v).max() < 1e-12


def test_jacobian_dot_matches_finite_differences(model, rng):
    h = 1e-6
    for _ in range(20):
        i = int(rng.integers(0, 3))
        q = np.array([0.0, -HALF_PI + rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)])
        qd = rng.normal(0, 1.0, 3)
        Jd = chain_jacobian_dot(model, i, q, qd)
        Jfd = (chain_jacobian(model, i, q + h * qd) - chain_jacobian(model, i, q - h * qd)) / (2 * h)
        assert np.abs(Jd - Jfd).max() < 1e-8


def test_ik_acceleration_along_path(model, rng):
    # second differences of the inverse geometry along a smooth path are the
    # strongest independent witness for the acceleration map
    a, b = sample_platform_points(model, rng, 2)
    path = quintic_path(a, b, 1.0, model=model)
    h = 1e-4
    for t in (0.25, 0.5, 0.75):
        P, V, A = path(t)
        _, cq = igm(model, P)
        _, cqm = igm(model, path(t - h)[0])
        _, cqp = igm(model, path(t + h)[0])
        _, cqd = ik_velocity(model, cq, V)
        for i in range(3):
            qdd = ik_acceleration(model, i, cq[i], cqd[i], A)
            qdd_fd = (cqp[i] - 2 * cq[i] + cqm[i]) / (h * h)
            assert np.abs(qdd - qdd_fd).max() / (1 + np.abs(qdd).max()) < 1e-5


def test_parallelogram_closes_everywhere(model, rng):
    for _ in range(40):
        i = int(rng.integers(0, 3))
        q = (rng.uniform(-0.3, 0.3), -HALF_PI + rng.uniform(-1.3, 1.3), rng.uniform(-1.3, 1.3))
        assert parallelogram_gap(model, i, q) < 1e-13


def test_chain_frames_shapes_and_wrist_axis(model, rng):
    for i in range(3):
        q = (0.05, -1.1, 0.3)
        R, O = chain_frames(model, i, q)
        assert R.shape == (9, 3, 3) and O.shape == (9, 3)
        # wrist x axis stays glued to the actuator direction
        assert np.abs(R[4][:, 0] - model._packs[i].axis).max() < 1e-14
        # platform attachment sits one wrist offset along that axis
        assert np.abs(O[5] - (O[4] + model.chains[i].d6 * R[4][:, 0])).max() < 1e-15


def test_isotropic_point_gives_axis_rows(model):
    # all three actuator axes meet at (0, 0, 0.2); the velocity map there is
    # the pure coordinate permutation
    _, cq = igm(model, (0.0, 0.0, 0.2))
    Jp_inv = robot_jacobian_inverse(model, cq)
    assert np.abs(Jp_inv - [[0, 0, 1], [1, 0, 0], [0, 1, 0]]).max() < 1e-12


_ASIN_EDGE = 1.0 - 1e-12


def _igm_numpy_elements(model, p):
    """igm reading the base placement element by element from numpy: the
    reference for the plain-float version."""
    p = np.asarray(p, dtype=float).reshape(3)
    L = np.empty(3)
    chain_q = np.empty((3, 3))
    for i in range(3):
        pack = model._packs[i]
        rel = p - pack.anchor
        R = pack.R_base
        ux = R[0, 0] * rel[0] + R[1, 0] * rel[1] + R[2, 0] * rel[2]
        uy = R[0, 1] * rel[0] + R[1, 1] * rel[1] + R[2, 1] * rel[2]
        uz = R[0, 2] * rel[0] + R[1, 2] * rel[1] + R[2, 2] * rel[2]
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
        q2 = -(u2 + HALF_PI)
        q1 = uz - pack.d6 - d4 * c3 * math.cos(u2)
        L[i] = q1
        chain_q[i, 0] = q1
        chain_q[i, 1] = q2
        chain_q[i, 2] = q3
    return L, chain_q


def _solve(fn, model, p):
    try:
        # a non-finite point makes inf * 0.0 in the numpy reference
        with np.errstate(invalid="ignore"):
            L, chain_q = fn(model, p)
    except OutOfWorkspace as exc:
        return "out", str(exc), exc.chain, exc.arcsine, np.float64(exc.argument).tobytes()
    return "in", L.tobytes(), chain_q.tobytes(), L.shape, chain_q.shape


def test_igm_is_bitwise_the_numpy_element_version(model, rng):
    # a box around the home point reaching past the shell, points on the
    # axes with exact (signed) zero coordinates, and non-finite points
    home = np.array([0.0, 0.0, 0.6])
    points = [home + rng.uniform(-0.4, 0.4, 3) * (0.3 if k % 2 else 1.0) for k in range(1000)]
    for x in (0.0, -0.0, 0.1, -0.25):
        points += [(x, 0.0, 0.6), (0.0, x, 0.6), (-0.0, -0.0, 0.6 + x)]
    points += [(math.nan, 0.0, 0.6), (0.0, math.inf, 0.6), (0.0, 0.0, -math.inf)]
    outcomes = {"in": 0, 1: 0, 2: 0}
    for p in points:
        got = _solve(igm, model, p)
        assert got == _solve(_igm_numpy_elements, model, p), p
        outcomes[got[3] if got[0] == "out" else "in"] += 1
    # both arcsine exits and the reachable branch are exercised
    assert min(outcomes.values()) >= 50, outcomes


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_non_finite_ik_velocity_input_is_numerical_error(model, bad):
    _, chain_q = igm(model, (0.0, 0.0, 0.6))
    with pytest.raises(NumericalError, match=r"non-finite v_p \[0.1, %s, 0.0\]" % bad):
        ik_velocity(model, chain_q, (0.1, bad, 0.0))
    chain_q[2, 1] = bad
    with pytest.raises(NumericalError, match="non-finite chain_q"):
        ik_velocity(model, chain_q, (0.1, 0.0, 0.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_non_finite_jacobian_and_rate_input_is_numerical_error(model, bad):
    q = [0.0, -1.3, 0.3]
    qd = [0.2, 0.1, -0.4]
    for k in (1, 2):
        bad_q = list(q)
        bad_q[k] = bad
        bad_qd = list(qd)
        bad_qd[k] = bad
        for call in (lambda: chain_jacobian(model, 0, bad_q), lambda: chain_jacobian_dot(model, 0, bad_q, qd)):
            with pytest.raises(NumericalError, match=r"non-finite q \[") as info:
                call()
            assert repr(bad_q) in str(info.value)
        with pytest.raises(NumericalError, match=r"non-finite qd \[") as info:
            chain_jacobian_dot(model, 0, q, bad_qd)
        assert repr(bad_qd) in str(info.value)
    # q1 and qd1 enter neither matrix
    assert np.array_equal(chain_jacobian(model, 0, [bad, -1.3, 0.3]), chain_jacobian(model, 0, q))
    assert np.array_equal(chain_jacobian_dot(model, 0, [bad, -1.3, 0.3], [bad, 0.1, -0.4]), chain_jacobian_dot(model, 0, q, qd))


# warnings are errors: a non-finite input must not reach a product first
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_non_finite_jacobian_inverse_and_acceleration_input_is_numerical_error(model, bad):
    q = [0.0, -1.3, 0.3]
    qd = [0.2, 0.1, -0.4]
    vdot = [1.0, -2.0, 0.5]
    for k in (1, 2):
        bad_q = list(q)
        bad_q[k] = bad
        with pytest.raises(NumericalError, match=r"non-finite q \[") as info:
            chain_jacobian_inverse(model, 0, bad_q)
        assert repr(bad_q) in str(info.value)
        with pytest.raises(NumericalError, match=r"non-finite q \["):
            ik_acceleration(model, 0, bad_q, qd, vdot)
    for k in range(3):
        for arg, name in ((1, "qd"), (2, "vdot_p")):
            args = [list(q), list(qd), list(vdot)]
            args[arg][k] = bad
            with pytest.raises(NumericalError, match=r"non-finite %s \[" % name) as info:
                ik_acceleration(model, 0, *args)
            assert repr(args[arg]) in str(info.value)


_Q, _RATES = (0.0, -1.3, 0.3), (0.2, 0.1, -0.4)
# every public function that takes a chain index, with arguments after (model, i)
_CHAIN_CALLS = {
    "chain_frames": (_Q,),
    "chain_forward_point": (_Q,),
    "parallelogram_gap": (_Q,),
    "chain_jacobian": (_Q,),
    "chain_jacobian_dot": (_Q, _RATES),
    "chain_jacobian_inverse": (_Q,),
    "ik_acceleration": (_Q, _RATES, _RATES),
    "tree_newton_euler": ((0.0,) * 6,) * 3,
    "chain_torques_H": (_Q, _RATES, _RATES),
    "chain_inertia_A": (_Q,),
    "chain_bias_h": (_Q, _RATES),
    "chain_kinetic_energy": (_Q, _RATES),
    "chain_reaction_force": (_Q, _RATES, _RATES, 1.0),
    "cartesian_chain_model": (_Q, _RATES),
    "chain_potential_energy": (_Q,),
    "composite_tree_inertia": ((0.0,) * 6,),
}


@pytest.mark.parametrize("bad", (-1, 3, 1.5, "0", None), ids=repr)
@pytest.mark.parametrize("name", _CHAIN_CALLS)
def test_chain_index_other_than_0_1_or_2_is_validation_error(model, name, bad):
    fn = getattr(orthoglide, name)
    fn(model, 2, *_CHAIN_CALLS[name])
    # -1 would index chain 3 and 3 past the end; 1.5 is no index
    with pytest.raises(ValidationError, match=r"^chain index must be 0, 1 or 2, got %s$" % re.escape(repr(bad))):
        fn(model, bad, *_CHAIN_CALLS[name])


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("fn", (chain_frames, chain_forward_point, parallelogram_gap))
def test_non_finite_joint_value_in_the_frames_is_numerical_error(model, fn, bad):
    for k in range(3):
        q = list(_Q)
        q[k] = bad
        with pytest.raises(NumericalError, match=r"^non-finite q \[") as info:
            fn(model, 0, q)
        assert repr(q) in str(info.value)


@pytest.mark.parametrize("p", ((0.0, 0.6), "abc", (0.0, 0.0, 0.6, 1.0), None), ids=repr)
def test_igm_point_not_three_numbers_is_validation_error(model, p):
    with pytest.raises(ValidationError, match="^p must be 3 numbers, got "):
        igm(model, p)


def test_ik_velocity_shapes_are_validated(model):
    _, chain_q = igm(model, (0.0, 0.0, 0.6))
    for args in ((np.zeros((2, 3)), (0.1, 0.0, 0.0)), (chain_q, (0.1, 0.0)), (chain_q, "abc")):
        with pytest.raises(ValidationError, match="^chain_q must be 3 x 3 numbers and v_p 3, got "):
            ik_velocity(model, *args)
