import dataclasses
import math

import numpy as np
import pytest

from orthoglide import (
    CHECK_NAMES,
    DEFAULT_CONFIG,
    NumericalError,
    ValidationError,
    chain_kinetic_energy,
    chain_potential_energy,
    default_model,
    format_report_table,
    igm,
    ik_velocity,
    kinetic_energy,
    lagrangian_idm_oracle,
    load_model,
    model_with_gravity,
    potential_energy,
    reports_by_name,
    robot_jacobian_inverse,
    run_verification,
)
from orthoglide import verify
from orthoglide.model import TREE_ROWS, closure_positions
from orthoglide.verify import sample_platform_points

SLOW = ("power_balance", "energy_drift_conservative", "tracking_error")
FAST = tuple(n for n in CHECK_NAMES if n not in SLOW)


@pytest.fixture(scope="module")
def fast_reports():
    return run_verification(default_model(), seed=7, n_samples=10, checks=FAST)


def test_fast_battery_passes(fast_reports):
    assert len(fast_reports) == len(FAST)
    for rep in fast_reports:
        assert rep.passed, f"{rep.check_name}: {rep.max_rel_err} > {rep.tolerance}"
        assert rep.max_rel_err <= rep.tolerance
        assert rep.samples >= 1


def test_reports_by_name_and_dict_shape(fast_reports):
    by_name = reports_by_name(fast_reports)
    assert set(by_name) == set(FAST)
    d = by_name["igm_forward_round_trip"].as_dict()
    assert d["pass"] is True
    assert set(d) >= {"check_name", "max_rel_err", "samples", "tolerance", "pass"}


def test_report_table_mentions_every_check(fast_reports):
    table = format_report_table(fast_reports)
    for name in FAST:
        assert name in table
    assert "pass" in table


def test_unknown_check_name_rejected():
    model = default_model()
    with pytest.raises(ValidationError):
        run_verification(model, n_samples=1, checks=("igm_forward_round_trip", "nope"))
    with pytest.raises(ValidationError):
        run_verification(model, n_samples=1, tolerances={"nope": 1.0})
    with pytest.raises(ValidationError, match="nope"):
        run_verification(dataclasses.replace(model, verify_overrides={"nope": 1.0}), n_samples=1)


def test_config_refuses_an_unknown_verify_key():
    with pytest.raises(ValidationError, match="isotropic_invers"):
        load_model(DEFAULT_CONFIG + "\n[verify]\nisotropic_invers = 1e-30\n")


def test_nan_sample_error_fails_its_check(monkeypatch):
    # the largest-error fold must keep a NaN sample error, which max(worst, nan) would drop
    chain_jacobian_dot = verify.chain_jacobian_dot
    monkeypatch.setattr(verify, "parallelogram_gap", lambda model, i, q: math.nan)
    monkeypatch.setattr(verify, "chain_jacobian_dot", lambda *args: chain_jacobian_dot(*args) * math.nan)
    by_name = reports_by_name(
        run_verification(default_model(), seed=7, n_samples=5, checks=("closure_gap", "jacobian_dot_fd", "jacobian_fd"))
    )
    for name in ("closure_gap", "jacobian_dot_fd"):
        rep = by_name[name]
        assert math.isnan(rep.max_rel_err) and not rep.passed and rep.samples > 0
    assert by_name["jacobian_fd"].passed


def test_nan_fold_keeps_the_first_nan_and_the_max_bits():
    assert verify._worse(0.0, 1.5) == 1.5
    assert math.isnan(verify._worse(0.0, math.nan))
    assert math.isnan(verify._worse(math.nan, 2.0))
    # as max(): the earlier of two equal values, so a -0.0 never replaces +0.0
    assert math.copysign(1.0, verify._worse(0.0, -0.0)) == 1.0


def test_tolerance_override_flips_verdict():
    reports = run_verification(
        default_model(),
        seed=7,
        n_samples=5,
        checks=("jacobian_fd",),
        tolerances={"jacobian_fd": 1e-18},
    )
    assert len(reports) == 1
    assert not reports[0].passed
    assert reports[0].tolerance == 1e-18
    assert math.isfinite(reports[0].max_rel_err)


def test_config_verify_section_sets_tolerance():
    model = load_model(DEFAULT_CONFIG + "\n[verify]\njacobian_fd = 0.25\n")
    reports = run_verification(model, seed=7, n_samples=5, checks=("jacobian_fd",))
    assert reports[0].tolerance == 0.25
    # an explicit argument still wins over the config file
    reports = run_verification(
        model, seed=7, n_samples=5, checks=("jacobian_fd",), tolerances={"jacobian_fd": 0.5}
    )
    assert reports[0].tolerance == 0.5


def test_same_seed_reproduces_and_subset_matches_full(fast_reports):
    again = run_verification(default_model(), seed=7, n_samples=10, checks=FAST)
    for a, b in zip(fast_reports, again):
        assert a.check_name == b.check_name
        assert a.max_rel_err == b.max_rel_err
    # each check draws from its own stream, so a lone run reproduces the value
    solo = run_verification(default_model(), seed=7, n_samples=10, checks=("jacobian_fd",))
    assert solo[0].max_rel_err == reports_by_name(fast_reports)["jacobian_fd"].max_rel_err


def test_corrupted_inertia_fails_dynamics_checks_only():
    model = default_model()
    bad_J = model.chains[0].links[2].inertia.copy()
    bad_J[1, 2] += 1e-3
    bad_link = dataclasses.replace(model.chains[0].links[2], inertia=bad_J)
    links = list(model.chains[0].links)
    links[2] = bad_link
    bad_chain = dataclasses.replace(model.chains[0], links=tuple(links))
    bad_model = dataclasses.replace(model, chains=(bad_chain,) + model.chains[1:])
    by_name = reports_by_name(
        run_verification(
            bad_model,
            seed=7,
            n_samples=10,
            checks=("igm_forward_round_trip", "inertia_symmetry", "torque_decomposition"),
        )
    )
    assert by_name["igm_forward_round_trip"].passed
    sym = by_name["inertia_symmetry"]
    assert not sym.passed and math.isfinite(sym.max_rel_err)
    # the defect guard trips inside the decomposition, reported as a failure
    dec = by_name["torque_decomposition"]
    assert not dec.passed and math.isinf(dec.max_rel_err)


def test_sampled_points_stay_clear_of_singular_folds(model):
    from orthoglide import igm

    rng = np.random.default_rng(99)
    pts = np.asarray(sample_platform_points(model, rng, 200, margin=0.2))
    assert pts.shape == (200, 3)
    for p in pts:
        _, cq = igm(model, p)
        for q in cq:
            assert abs(math.cos(q[2])) >= 0.2
            assert abs(math.sin(q[1])) >= 0.2


def test_numpy_and_arithmetic_failures_record_inf(monkeypatch):
    from orthoglide import verify

    def singular(model, rng, n):
        raise np.linalg.LinAlgError("Singular matrix")

    def overflow(model, rng, n):
        raise ZeroDivisionError("float division by zero")

    broken = {"closure_gap": singular, "wrist_axis_fixed": overflow}
    rows = tuple((name, count, tol, broken.get(name, fn)) for name, count, tol, fn in verify._CHECKS)
    monkeypatch.setattr(verify, "_CHECKS", rows)
    by_name = reports_by_name(
        run_verification(default_model(), seed=7, n_samples=1, checks=("closure_gap", "wrist_axis_fixed", "isotropic_inverse"))
    )
    for name in broken:
        rep = by_name[name]
        assert math.isinf(rep.max_rel_err) and rep.samples == 0 and not rep.passed
    # the rest of the battery still runs
    assert by_name["isotropic_inverse"].passed


def _potential_numpy(model, p):
    """potential_energy with per-body numpy products on the frames' arrays:
    the reference for the plain-float sums."""
    _, chain_q = igm(model, p)
    U = -model.platform_mass * float(model.gravity @ np.asarray(p, dtype=float))
    for i in range(3):
        R, O = verify._tree_frames(model, i, [closure_positions(chain_q[i])[r] for r in TREE_ROWS])
        Ui = 0.0
        for b, link in enumerate(model.chains[i].links):
            Ui -= model.gravity @ (link.mass * O[b] + R[b] @ link.first_moment)
        U += float(Ui)
    return U


def _potential_scale(model, p):
    """Sum of the magnitudes of the terms the potential adds up."""
    _, chain_q = igm(model, p)
    g = np.abs(model.gravity)
    scale = model.platform_mass * float(g @ np.abs(p))
    for i in range(3):
        R, O = verify._tree_frames(model, i, [closure_positions(chain_q[i])[r] for r in TREE_ROWS])
        for b, link in enumerate(model.chains[i].links):
            scale += float(g @ (np.abs(link.mass * O[b]) + np.abs(R[b]) @ np.abs(link.first_moment)))
    return scale


def _kinetic_per_call(model, p, v):
    """kinetic_energy solving igm and ik_velocity on every call."""
    v = np.asarray(v, dtype=float).reshape(3)
    _, chain_q = igm(model, p)
    _, chain_qd = ik_velocity(model, chain_q, v)
    T = 0.5 * model.platform_mass * float(v @ v)
    for i in range(3):
        T += chain_kinetic_energy(model, i, chain_q[i], chain_qd[i])
    return T


def _lagrangian_per_call(model, p, v, vdot):
    """lagrangian_idm_oracle solving the geometry for every energy it takes:
    the reference for the oracle that solves each point once."""
    p = np.asarray(p, dtype=float).reshape(3)
    v = np.asarray(v, dtype=float).reshape(3)
    vdot = np.asarray(vdot, dtype=float).reshape(3)
    h_v, h_t, h_p = 0.1, 1e-6, 1e-6

    def dT_dV(pp, vv):
        out = np.empty(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h_v
            out[k] = (_kinetic_per_call(model, pp, vv + e) - _kinetic_per_call(model, pp, vv - e)) / (2.0 * h_v)
        return out

    p_plus = p + h_t * v + 0.5 * h_t * h_t * vdot
    p_minus = p - h_t * v + 0.5 * h_t * h_t * vdot
    ddt_dT_dV = (dT_dV(p_plus, v + h_t * vdot) - dT_dV(p_minus, v - h_t * vdot)) / (2.0 * h_t)
    dT_dP = np.empty(3)
    dU_dP = np.empty(3)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h_p
        dT_dP[k] = (_kinetic_per_call(model, p + e, v) - _kinetic_per_call(model, p - e, v)) / (2.0 * h_p)
        dU_dP[k] = (_potential_numpy(model, p + e) - _potential_numpy(model, p - e)) / (2.0 * h_p)
    _, chain_q = igm(model, p)
    return np.linalg.solve(robot_jacobian_inverse(model, chain_q).T, ddt_dT_dV - dT_dP + dU_dP)


def test_energies_match_the_per_call_numpy_versions(model):
    rng = np.random.default_rng(5)
    tilted = model_with_gravity(model, (1.3, -2.1, -9.0))
    for _ in range(200):
        p, v, _ = verify._sample_state(model, rng)
        assert np.float64(kinetic_energy(model, p, v)).tobytes() == np.float64(_kinetic_per_call(model, p, v)).tobytes()
        # gravity along one axis leaves one product per sum: the same bits
        assert potential_energy(model, p) == _potential_numpy(model, p)
        # otherwise numpy's sums may round differently from the left-to-right
        # ones, by a few units in the last place of the terms they add
        U = potential_energy(tilted, p)
        assert abs(U - _potential_numpy(tilted, p)) <= 1e-15 * _potential_scale(tilted, p), p


def test_lagrangian_oracle_is_bitwise_the_per_call_version(model):
    rng = np.random.default_rng(11)
    for _ in range(12):
        p, v, a = verify._sample_state(model, rng)
        assert lagrangian_idm_oracle(model, p, v, a).tobytes() == _lagrangian_per_call(model, p, v, a).tobytes()


@pytest.mark.parametrize("bad", (math.nan, math.inf))
@pytest.mark.parametrize(
    "fn, args, arg, name",
    (
        ("potential_energy", 1, 0, "p"),
        ("kinetic_energy", 2, 0, "p"),
        ("kinetic_energy", 2, 1, "v"),
        ("total_energy", 2, 0, "p"),
        ("total_energy", 2, 1, "v"),
        ("lagrangian_idm_oracle", 3, 0, "p"),
        ("lagrangian_idm_oracle", 3, 1, "v"),
        ("lagrangian_idm_oracle", 3, 2, "vdot"),
    ),
)
def test_non_finite_energy_input_is_numerical_error(model, fn, args, arg, name, bad):
    state = [[0.0, 0.0, 0.6], [0.1, 0.0, 0.0], [0.5, 0.0, 0.0]][:args]
    state[arg][1] = bad
    with pytest.raises(NumericalError, match=r"non-finite %s \[" % name):
        getattr(verify, fn)(model, *state)


def test_non_finite_chain_potential_input_is_numerical_error(model):
    with pytest.raises(NumericalError, match=r"non-finite q \[0.0, nan, 0.3\]"):
        chain_potential_energy(model, 0, (0.0, math.nan, 0.3))


def test_reports_carry_their_wall_time(fast_reports):
    for rep in fast_reports:
        assert math.isfinite(rep.wall_s) and rep.wall_s >= 0.0
        assert rep.as_dict()["wall_s"] == rep.wall_s
    # the wall time is not part of a report's value
    assert fast_reports[0] == dataclasses.replace(fast_reports[0], wall_s=fast_reports[0].wall_s + 1.0)
