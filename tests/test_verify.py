import dataclasses
import math

import numpy as np
import pytest

from orthoglide import (
    CHECK_NAMES,
    DEFAULT_CONFIG,
    NumericalError,
    default_model,
    format_report_table,
    load_model,
    reports_by_name,
    run_verification,
)
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
    with pytest.raises(NumericalError):
        run_verification(model, n_samples=1, checks=("igm_forward_round_trip", "nope"))
    with pytest.raises(NumericalError):
        run_verification(model, n_samples=1, tolerances={"nope": 1.0})


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
