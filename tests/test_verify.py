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
    inverse_dynamics,
    kinetic_energy,
    lagrangian_idm_oracle,
    load_model,
    model_with_gravity,
    potential_energy,
    reports_by_name,
    robot_jacobian_inverse,
    run_verification,
    total_energy,
)
from orthoglide import chain_forward_point, chain_reaction_force, composite_tree_inertia, direct_dynamics, verify
from orthoglide import ik_acceleration, platform_force, tree_newton_euler
from orthoglide.model import TREE_ROWS, closure_positions
from orthoglide.verify import sample_platform_points

from conftest import DENSE, MIXED

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


@pytest.mark.parametrize(
    "setting",
    ({"seed": -1}, {"seed": 1.5}, {"seed": "42"}, {"n_samples": 0}, {"n_samples": -3}, {"n_samples": math.nan},
     {"n_samples": 2.5}),
    ids=lambda setting: "%s=%r" % next(iter(setting.items())),
)
def test_bad_seed_or_sample_count_rejected(setting):
    with pytest.raises(ValidationError, match=next(iter(setting))):
        run_verification(default_model(), checks=("isotropic_inverse",), **setting)


@pytest.mark.parametrize("tol", ("x", "1e-6", None, math.nan, -1.0, [1e-6]), ids=repr)
def test_bad_tolerance_rejected(tol):
    with pytest.raises(ValidationError, match="tolerance of 'isotropic_inverse'"):
        run_verification(default_model(), checks=("isotropic_inverse",), tolerances={"isotropic_inverse": tol})
    bad = dataclasses.replace(default_model(), verify_overrides={"isotropic_inverse": tol})
    with pytest.raises(ValidationError, match="tolerance of 'isotropic_inverse'"):
        run_verification(bad, checks=("isotropic_inverse",))


@pytest.mark.parametrize("tol", ("nan", "-1e-6"))
def test_config_refuses_a_nan_or_negative_tolerance(tol):
    with pytest.raises(ValidationError, match="tolerance of 'jacobian_fd'"):
        load_model(DEFAULT_CONFIG + "\n[verify]\njacobian_fd = %s\n" % tol)


def test_infinite_tolerance_is_accepted():
    tolerances = {"isotropic_inverse": math.inf}
    (rep,) = run_verification(default_model(), checks=("isotropic_inverse",), tolerances=tolerances)
    assert rep.tolerance == math.inf and rep.passed
    model = load_model(DEFAULT_CONFIG + "\n[verify]\njacobian_fd = inf\n")
    assert model.verify_overrides == {"jacobian_fd": math.inf}


@pytest.mark.parametrize("checks", ([], (), iter(()), "isotropic_inverse"), ids=("list", "tuple", "iterator", "string"))
def test_empty_or_string_check_selection_rejected(checks):
    with pytest.raises(ValidationError, match="checks must name at least one check"):
        run_verification(default_model(), n_samples=1, checks=checks)


def test_check_selection_may_be_any_iterable():
    reports = run_verification(default_model(), n_samples=1, checks=iter(("closure_gap", "isotropic_inverse")))
    assert [r.check_name for r in reports] == ["closure_gap", "isotropic_inverse"]
    assert format_report_table([]) == ""


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


def _batch_states(model, seed, n):
    rng = np.random.default_rng(seed)
    return tuple(map(np.array, zip(*(verify._sample_state(model, rng) for _ in range(n)))))


@pytest.mark.parametrize("gravity", (None, (1.3, -2.1, -9.0)), ids=("default", "tilted"))
def test_batched_energies_are_the_scalar_functions(model, gravity):
    m = model if gravity is None else model_with_gravity(model, gravity)
    P, V, _ = _batch_states(model, 21, 1000)
    T, E = verify._energies(m, P, V)
    U = verify._potential_at(m, P, np.array([igm(m, p)[1] for p in P]).transpose(1, 2, 0))
    assert T.tobytes() == np.array([kinetic_energy(m, p, v) for p, v in zip(P, V)]).tobytes()
    assert U.tobytes() == np.array([potential_energy(m, p) for p in P]).tobytes()
    assert E.tobytes() == np.array([total_energy(m, p, v) for p, v in zip(P, V)]).tobytes()


def test_batched_oracle_is_bitwise_the_per_call_version(model):
    P, V, A = _batch_states(model, 13, 200)
    expected = np.array([_lagrangian_per_call(model, p, v, a) for p, v, a in zip(P, V, A)])
    assert verify._lagrangian_many(model, P, V, A).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "point, v, a",
    (
        (lambda m: (0.0, 0.0, 5.0), (0.1, 0.0, 0.0), (0.5, 0.0, 0.0)),
        (lambda m: (0.6, 0.0, 0.6), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
        # chain 1 at its folds: q3 = pi/2, and q2 = 0
        (lambda m: verify.chain_forward_point(m, 0, (0.0, -0.5 * math.pi, 0.5 * math.pi)), (0.0,) * 3, (0.0,) * 3),
        (lambda m: verify.chain_forward_point(m, 0, (0.0, 0.0, 0.2)), (0.02, -0.01, 0.0), (0.0, 0.3, 0.0)),
    ),
    ids=("far", "outside", "fold-q3", "fold-q2"),
)
def test_oracle_refuses_a_state_as_the_per_state_stencil_does(model, point, v, a):
    p = point(model)
    with pytest.raises(Exception) as expected:
        _lagrangian_per_call(model, p, v, a)
    with pytest.raises(type(expected.value)) as got:
        lagrangian_idm_oracle(model, p, v, a)
    assert str(got.value) == str(expected.value)


def test_oracle_refuses_a_non_finite_state_by_name(model):
    with pytest.raises(NumericalError) as got:
        lagrangian_idm_oracle(model, (0.0, 0.0, 0.6), (0.1, math.nan, 0.0), (0.5, 0.0, 0.0))
    assert str(got.value) == "non-finite v [0.1, nan, 0.0]"


def _lagrangian_per_sample(model, rng, n):
    P, V, A = map(np.array, zip(*verify._states(model, rng, n)))
    worst = 0.0
    for p, v, a in zip(P, V, A):
        gam = inverse_dynamics(model, p, v, a)
        worst = verify._worse(worst, verify._rel(gam - _lagrangian_per_call(model, p, v, a), gam))
    return worst, n


def _static_gradient_per_sample(model, rng, n):
    h = 1e-6
    zero = np.zeros(3)
    worst = 0.0
    for p in sample_platform_points(model, rng, n):
        gam = inverse_dynamics(model, p, zero, zero)
        grad = np.array([potential_energy(model, p + e) - potential_energy(model, p - e) for e in h * np.eye(3)])
        expected = np.linalg.solve(robot_jacobian_inverse(model, igm(model, p)[1]).T, grad / (2.0 * h))
        worst = verify._worse(worst, verify._rel(gam - expected, gam))
    return worst, n


def _energies_per_sample(model, P, V):
    return np.array([(kinetic_energy(model, p, v), total_energy(model, p, v)) for p, v in zip(P, V)]).T


# The per-sample errors the batched checks fold, one sample a call through the public functions.


def _igm_round_trip(model, rng, p):
    _, chain_q = igm(model, p)
    return float(np.abs([chain_forward_point(model, i, chain_q[i]) - p for i in range(3)]).max())


def _tree_inertia_crb(model, rng, i, q6):
    m0 = model_with_gravity(model, (0.0, 0.0, 0.0))
    M_crb = composite_tree_inertia(model, i, q6)
    M_ne = np.array([tree_newton_euler(m0, i, q6, np.zeros(6), e) for e in np.eye(6)]).T
    return verify._rel(M_ne - M_crb, M_crb)


def _reaction_balance(model, rng, p, v, a):
    gam = inverse_dynamics(model, p, v, a)
    _, cq = igm(model, p)
    _, cqd = ik_velocity(model, cq, v)
    total = np.zeros(3)
    for i in range(3):
        qdd = ik_acceleration(model, i, cq[i], cqd[i], a)
        total += chain_reaction_force(model, i, cq[i], cqd[i], qdd, gam[i])
    return float(np.abs(total - platform_force(model, a)).max())


def _reaction_unit_column(model, rng, p):
    m0 = model_with_gravity(model, (0.0, 0.0, 0.0))
    zero = np.zeros(3)
    _, cq = igm(m0, p)
    Jp_inv = robot_jacobian_inverse(m0, cq)
    return float(np.abs([chain_reaction_force(m0, i, cq[i], zero, zero, 1.0) - Jp_inv[i] for i in range(3)]).max())


def _round_trip(model, rng, p, v, a):
    return verify._rel(direct_dynamics(model, p, v, inverse_dynamics(model, p, v, a)) - a, a)


_PER_SAMPLE = {
    "igm_forward_round_trip": verify._per_sample(verify._points, _igm_round_trip),
    "tree_inertia_crb": verify._per_sample(verify._trees, _tree_inertia_crb),
    "lagrangian_match": _lagrangian_per_sample,
    "reaction_balance": verify._per_sample(verify._states, _reaction_balance),
    "reaction_unit_column": verify._per_sample(verify._points, _reaction_unit_column),
    "idm_ddm_round_trip": verify._per_sample(verify._states, _round_trip),
    "static_vs_potential_gradient": _static_gradient_per_sample,
}


@pytest.mark.parametrize(
    "seed, m",
    # gravity along z: under a tilted field _lagrangian_per_call's numpy potential rounds differently
    ((42, default_model()), (7, default_model()), (42, MIXED), (1, DENSE)),
    ids=("42", "7", "mixed-42", "dense-1"),
)
def test_batched_checks_report_as_their_per_sample_versions(monkeypatch, seed, m):
    """The batched checks against their per-sample versions, and the two
    energy checks with per-sample energies; the simulations run for 1/20 of
    their time to keep this short, the same runs on both sides."""
    simulate = verify.simulate

    def shortened(model, p0, v0, torque, config):
        return simulate(model, p0, v0, torque, dataclasses.replace(config, t_end=config.t_end / 20))

    monkeypatch.setattr(verify, "simulate", shortened)
    names = (*_PER_SAMPLE, "energy_drift_conservative", "power_balance")
    batched = run_verification(m, seed=seed, n_samples=10, checks=names)
    monkeypatch.setattr(verify, "_CHECKS", tuple((nm, c, t, _PER_SAMPLE.get(nm, fn)) for nm, c, t, fn in verify._CHECKS))
    monkeypatch.setattr(verify, "_energies", _energies_per_sample)
    per_sample = run_verification(m, seed=seed, n_samples=10, checks=names)
    assert [r.samples for r in batched] == [100, 5, 20, 10, 10, 100, 10, 49, 51]
    assert [(r, repr(r.max_rel_err)) for r in batched] == [(r, repr(r.max_rel_err)) for r in per_sample]


_TILTED = (1.3, -2.1, -9.0)


@pytest.mark.parametrize(
    "m",
    (DENSE, model_with_gravity(default_model(), _TILTED), model_with_gravity(DENSE, _TILTED), MIXED),
    ids=("dense", "tilted", "dense-tilted", "mixed"),
)
def test_sampled_checks_pass_on_general_models(m):
    """The default model's diagonal link inertias and shared leg geometry leave
    most terms zero or alike; these models populate every inertia term, tilt
    gravity off the z axis and give each leg its own bar lengths."""
    reports = run_verification(m, seed=42, n_samples=10, checks=FAST)
    assert len(reports) == 21
    assert [r.check_name for r in reports if not (r.passed and r.samples > 0)] == []


@pytest.mark.parametrize("tolerances", ([("jacobian_fd", 1e-6)], "jacobian_fd"), ids=repr)
def test_tolerances_that_are_not_a_mapping_are_rejected(tolerances):
    with pytest.raises(ValidationError, match="tolerances must map check names to numbers"):
        run_verification(default_model(), checks=("isotropic_inverse",), tolerances=tolerances)


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
