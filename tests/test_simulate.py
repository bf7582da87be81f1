import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from orthoglide import (
    CSV_HEADER,
    ChainSingular,
    NumericalError,
    OutOfWorkspace,
    ParseError,
    SimConfig,
    Trajectory,
    ValidationError,
    feedforward_torque,
    model_with_gravity,
    quintic_path,
    read_trajectory_csv,
    read_trajectory_json,
    simulate,
    torque_from_table,
    write_trajectory_csv,
    write_trajectory_json,
)

P_HOME = (0.0, 0.0, 0.6)


def test_quintic_endpoints_and_clamps():
    path = quintic_path((0.0, 0.0, 0.6), (0.06, -0.05, 0.55), 0.4)
    for t, target in ((0.0, (0.0, 0.0, 0.6)), (0.4, (0.06, -0.05, 0.55))):
        P, V, A = path(t)
        assert np.allclose(P, target, atol=1e-15)
        assert np.all(V == 0.0) and np.all(A == 0.0)
    # clamped outside the interval
    assert np.array_equal(path(-1.0)[0], path(0.0)[0])
    assert np.array_equal(path(9.0)[0], path(0.4)[0])


def test_quintic_derivatives_consistent():
    path = quintic_path((0.0, 0.0, 0.6), (0.06, -0.05, 0.55), 0.4)
    h = 1e-6
    for t in (0.05, 0.13, 0.2, 0.31):
        P0, V0, A0 = path(t)
        Pm, Vm, _ = path(t - h)
        Pp, Vp, _ = path(t + h)
        assert np.abs((Pp - Pm) / (2 * h) - V0).max() < 1e-8
        assert np.abs((Vp - Vm) / (2 * h) - A0).max() < 1e-7


def test_quintic_rejects_bad_inputs(model):
    with pytest.raises(ValidationError):
        quintic_path(P_HOME, (0.0, 0.0, 0.5), 0.0)
    with pytest.raises(OutOfWorkspace):
        quintic_path(P_HOME, (0.0, 0.0, 1.5), 1.0, model=model)
    # without a model the endpoints are not checked
    quintic_path(P_HOME, (0.0, 0.0, 1.5), 1.0)


def test_torque_table_zero_order_hold():
    fn = torque_from_table([0.0, 0.1, 0.2], [[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert np.array_equal(fn(-5.0), [1, 0, 0])
    assert np.array_equal(fn(0.05), [1, 0, 0])
    assert np.array_equal(fn(0.1), [0, 2, 0])
    assert np.array_equal(fn(0.15), [0, 2, 0])
    assert np.array_equal(fn(7.0), [0, 0, 3])
    with pytest.raises(ValidationError):
        torque_from_table([], [])
    with pytest.raises(ValidationError):
        torque_from_table([0.2, 0.1], [[0, 0, 0], [0, 0, 0]])


def test_free_floating_at_rest_stays_put_bitwise(model):
    m0 = model_with_gravity(model, (0.0, 0.0, 0.0))
    res = simulate(m0, P_HOME, (0.0, 0.0, 0.0), config=SimConfig(dt=1e-3, t_end=0.05))
    assert res.completed and res.stop_reason is None
    for s in res.samples:
        assert np.array_equal(s.P, np.asarray(P_HOME))
        assert np.all(s.V == 0.0) and np.all(s.A == 0.0)
        assert np.all(s.Gamma == 0.0)


def _track_error(model, dt, integrator):
    path = quintic_path(P_HOME, (0.06, -0.05, 0.55), 0.2, model=model)
    fn = feedforward_torque(model, path)
    res = simulate(
        model, P_HOME, (0.0, 0.0, 0.0),
        torque_fn=fn,
        config=SimConfig(dt=dt, t_end=0.2, integrator=integrator, record_every=50),
    )
    assert res.completed
    last = res.samples[-1]
    P_ref, V_ref, _ = path(last.t)
    return max(np.abs(last.P - P_ref).max(), np.abs(last.V - V_ref).max())


def test_rk4_error_shrinks_at_fourth_order(model):
    e_coarse = _track_error(model, 4e-3, "rk4")
    e_fine = _track_error(model, 2e-3, "rk4")
    assert e_coarse < 1e-6
    assert e_coarse / e_fine >= 8.0


def test_euler_error_shrinks_at_first_order(model):
    e_coarse = _track_error(model, 4e-3, "euler")
    e_fine = _track_error(model, 2e-3, "euler")
    assert 1.5 <= e_coarse / e_fine <= 3.0
    # and rk4 beats euler outright at the same step
    assert _track_error(model, 4e-3, "rk4") < e_coarse / 100.0


def test_workspace_exit_stops_run_with_reason(model):
    res = simulate(
        model, P_HOME, (0.0, 0.0, 0.0),
        torque_fn=lambda t: np.array([0.0, 300.0, 0.0]),
        config=SimConfig(dt=1e-3, t_end=2.0),
    )
    assert not res.completed
    assert "arcsine" in res.stop_reason
    assert len(res.samples) >= 1
    assert res.samples[-1].t < 2.0


def test_initial_state_outside_workspace_raises(model):
    with pytest.raises(OutOfWorkspace) as err:
        simulate(model, (0.0, 0.0, 1.5), (0.0, 0.0, 0.0))
    assert err.value.chain == 2
    assert err.value.arcsine == 1


def test_record_every_thins_but_keeps_last(model):
    cfg = SimConfig(dt=1e-3, t_end=0.01, record_every=3)
    res = simulate(model, P_HOME, (0.0, 0.0, 0.0), config=cfg)
    times = [s.t for s in res.samples]
    assert times == pytest.approx([0.0, 0.003, 0.006, 0.009, 0.01], abs=1e-12)


def test_simulation_is_deterministic(model):
    cfg = SimConfig(dt=1e-3, t_end=0.02)
    a = simulate(model, P_HOME, (0.01, 0.0, 0.0), config=cfg)
    b = simulate(model, P_HOME, (0.01, 0.0, 0.0), config=cfg)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.t == sb.t
        assert np.array_equal(sa.P, sb.P)
        assert np.array_equal(sa.V, sb.V)
        assert np.array_equal(sa.Gamma, sb.Gamma)


def test_csv_round_trip_is_exact(model, tmp_path):
    res = simulate(model, P_HOME, (0.01, -0.02, 0.0), config=SimConfig(dt=1e-3, t_end=0.01))
    out = tmp_path / "run.csv"
    write_trajectory_csv(res.samples, out)
    assert out.read_text().splitlines()[0] == CSV_HEADER
    back = read_trajectory_csv(out)
    assert len(back) == len(res.samples)
    for s, r in zip(res.samples, back):
        assert r.t == s.t
        assert np.array_equal(r.P, s.P)
        assert np.array_equal(r.V, s.V)
        assert np.array_equal(r.A, s.A)
        assert np.array_equal(r.L, s.L)
        assert np.array_equal(r.Gamma, s.Gamma)
        assert r.Ldot is None


def test_csv_header_is_checked(model, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x\n0.0,1.0\n")
    with pytest.raises(ParseError):
        read_trajectory_csv(bad)


def test_json_round_trip_keeps_joint_rates(model, tmp_path):
    res = simulate(model, P_HOME, (0.01, -0.02, 0.0), config=SimConfig(dt=1e-3, t_end=0.01))
    out = tmp_path / "run.json"
    write_trajectory_json(res.samples, out)
    back = read_trajectory_json(out)
    assert len(back) == len(res.samples)
    for s, r in zip(res.samples, back):
        assert r.t == s.t
        assert np.array_equal(r.P, s.P)
        assert np.array_equal(r.Ldot, s.Ldot)


def test_bad_run_settings_rejected(model):
    with pytest.raises(ValidationError):
        simulate(model, P_HOME, (0, 0, 0), config=SimConfig(integrator="rk5"))
    with pytest.raises(ValidationError):
        simulate(model, P_HOME, (0, 0, 0), config=SimConfig(dt=0.0))
    with pytest.raises(ValidationError):
        simulate(model, P_HOME, (0, 0, 0), config=SimConfig(t_end=-1.0))
    with pytest.raises(ValidationError):
        simulate(model, P_HOME, (0, 0, 0), config=SimConfig(record_every=0))
    for cfg in (SimConfig(t_end=math.inf), SimConfig(t_end=math.nan), SimConfig(dt=math.inf), SimConfig(record_every=1.5)):
        with pytest.raises(ValidationError):
            simulate(model, P_HOME, (0, 0, 0), config=cfg)


def test_t_end_off_the_step_grid_is_rejected(model):
    # 0.01 / 0.003 = 3.33 steps: the run used to stop at 0.009 and report completed
    with pytest.raises(ValidationError, match="whole number of dt"):
        simulate(model, P_HOME, (0, 0, 0), config=SimConfig(dt=0.003, t_end=0.01))
    # round-off in t_end / dt (0.009 / 0.003 = 2.9999999999999996) is no reason to refuse
    res = simulate(model, P_HOME, (0, 0, 0), config=SimConfig(dt=0.003, t_end=0.009))
    assert res.completed and res.samples.t.tolist() == [k * 0.003 for k in range(4)]


def test_rk4_reuses_the_k4_torque_when_the_sample_time_is_the_same(model):
    calls = []

    def torque(t):
        calls.append(t)
        return np.array([0.0, 0.0, 0.1 * t])

    dt = 1e-3
    n = 20
    res = simulate(model, P_HOME, (0.01, 0.0, 0.0), torque, SimConfig(dt=dt, t_end=n * dt))
    # per step: the k2/k3 time, the k4 time, and the sample time only when
    # (k + 1) dt is not the float k dt + dt
    expected = [0.0]
    for k in range(n):
        t = k * dt
        expected += [t + 0.5 * dt, t + dt]
        if t + dt != (k + 1) * dt:
            expected.append((k + 1) * dt)
    assert calls == expected
    assert len(calls) == 1 + 3 * n - 17
    # the recorded efforts are still the torque at the sample times
    assert res.samples.Gamma[:, 2].tolist() == [0.1 * t for t in res.samples.t]


def test_read_csv_non_numeric_cell_is_parse_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\n" + ",".join(["0.0"] * 15 + ["oops"]) + "\n")
    with pytest.raises(ParseError):
        read_trajectory_csv(path)


@pytest.mark.parametrize("error", [NumericalError("torque law guard tripped"), ChainSingular(2, "cos(q3) = 0")])
def test_numerical_error_mid_run_keeps_prefix(model, error):
    cfg = SimConfig(dt=1e-3, t_end=0.01)
    full = simulate(model, P_HOME, (0.01, 0.0, 0.0), config=cfg)

    def torque(t):
        # steps up to t = 0.004 complete; the next one trips
        if t > 0.0042:
            raise error
        return np.zeros(3)

    res = simulate(model, P_HOME, (0.01, 0.0, 0.0), torque_fn=torque, config=cfg)
    assert not res.completed
    assert res.stop_reason == "%s: %s" % (type(error).__name__, error)
    assert [s.t for s in res.samples] == [s.t for s in full.samples[:5]]
    for s, r in zip(full.samples, res.samples):
        assert np.array_equal(s.P, r.P) and np.array_equal(s.V, r.V) and np.array_equal(s.A, r.A)


def test_samples_are_a_read_only_column_sequence(model):
    res = simulate(model, P_HOME, (0.01, -0.02, 0.0), config=SimConfig(dt=1e-3, t_end=0.005))
    samples = res.samples
    assert isinstance(samples, Trajectory) and len(samples) == 6
    assert samples.P.shape == (6, 3) and samples.t.shape == (6,)
    assert samples[-1].t == samples[5].t == samples.t[-1]
    assert np.array_equal(samples[-2].V, samples.V[4])
    with pytest.raises(IndexError):
        samples[6]
    with pytest.raises(ValueError):
        samples.P[0, 0] = 1.0
    with pytest.raises(TypeError):
        samples[0] = samples[1]
    head = samples[:2]
    assert isinstance(head, list) and [s.t for s in head] == [0.0, 0.001]
    assert [s.t for s in samples[::-2]] == [samples.t[5], samples.t[3], samples.t[1]]
    joined = samples[:2] + [samples[-1]]
    assert [s.t for s in joined] == [0.0, 0.001, samples.t[-1]]
    assert [s.t for s in samples] == list(samples.t)
    # a plain list of samples is still a valid result
    replaced = dataclasses.replace(res, samples=joined)
    assert replaced.samples is joined and replaced.completed


def test_round_trips_keep_every_column_bit_for_bit(model, tmp_path):
    res = simulate(model, P_HOME, (0.01, -0.02, 0.0), config=SimConfig(dt=1e-3, t_end=0.01))
    write_trajectory_csv(res.samples, tmp_path / "run.csv")
    write_trajectory_json(res.samples, tmp_path / "run.json")
    from_csv = read_trajectory_csv(tmp_path / "run.csv")
    from_json = read_trajectory_json(tmp_path / "run.json")
    assert isinstance(from_csv, Trajectory) and isinstance(from_json, Trajectory)
    for name in ("t", "P", "V", "A", "L", "Gamma"):
        assert getattr(from_csv, name).tobytes() == getattr(res.samples, name).tobytes()
        assert getattr(from_json, name).tobytes() == getattr(res.samples, name).tobytes()
    assert from_csv.Ldot is None and from_csv[0].Ldot is None
    assert from_json.Ldot.tobytes() == res.samples.Ldot.tobytes()
    # writing a list of samples gives the same text as writing the columns
    write_trajectory_csv(list(res.samples), tmp_path / "list.csv")
    assert (tmp_path / "list.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()


@pytest.mark.parametrize("write", (write_trajectory_csv, write_trajectory_json))
def test_writers_refuse_a_non_sample_and_leave_no_file(model, tmp_path, write):
    first = simulate(model, P_HOME, (0.01, 0.0, 0.0), config=SimConfig(dt=1e-3, t_end=0.001)).samples[0]
    for k, samples in enumerate(([object()], [first, {"t": 0.0}])):
        path = tmp_path / ("bad%d" % k)
        with pytest.raises(ValidationError, match="not a TrajectorySample"):
            write(samples, path)
        assert not path.exists()


def test_workspace_exit_prefix_is_trimmed(model):
    cfg = SimConfig(dt=1e-3, t_end=2.0)
    res = simulate(model, P_HOME, (0.0, 0.0, 0.0), torque_fn=lambda t: np.array([0.0, 300.0, 0.0]), config=cfg)
    assert not res.completed and res.stop_reason.startswith("OutOfWorkspace: ")
    n = len(res.samples)
    assert 1 <= n < 2001 and res.samples.P.shape == (n, 3)
    assert np.isfinite(res.samples.P).all() and np.all(np.diff(res.samples.t) > 0.0)


def test_read_csv_retains_columns_only(tmp_path):
    n = 2000
    rng = np.random.default_rng(5)
    cols = rng.normal(size=(n, 15))
    traj = Trajectory(np.arange(n) * 1e-4, cols[:, 0:3], cols[:, 3:6], cols[:, 6:9], cols[:, 9:12], None, cols[:, 12:15])
    path = tmp_path / "long.csv"
    write_trajectory_csv(traj, path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        back = read_trajectory_csv(path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(back) == n
    assert retained / n < 256


def test_json_with_rates_on_some_samples_only_is_parse_error(model, tmp_path):
    res = simulate(model, P_HOME, (0.01, 0.0, 0.0), config=SimConfig(dt=1e-3, t_end=0.002))
    path = tmp_path / "run.json"
    write_trajectory_json(res.samples, path)
    data = json.loads(path.read_text())
    data["samples"][1]["Ldot"] = None
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError):
        read_trajectory_json(path)
    del data["samples"][0]["P"]
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError):
        read_trajectory_json(path)


def test_non_finite_initial_velocity_is_numerical_error(model):
    with pytest.raises(NumericalError, match="non-finite v_p"):
        simulate(model, P_HOME, (math.nan, 0.0, 0.0), config=SimConfig(dt=1e-3, t_end=0.005))


def test_non_finite_torque_mid_run_keeps_prefix(model):
    cfg = SimConfig(dt=1e-3, t_end=0.01)
    full = simulate(model, P_HOME, (0.01, 0.0, 0.0), config=cfg)

    def torque(t):
        return np.full(3, math.nan) if t > 0.0042 else np.zeros(3)

    res = simulate(model, P_HOME, (0.01, 0.0, 0.0), torque_fn=torque, config=cfg)
    assert not res.completed
    assert res.stop_reason.startswith("NumericalError: non-finite gamma")
    assert res.samples.t.tobytes() == full.samples.t[:5].tobytes()
    assert res.samples.P.tobytes() == full.samples.P[:5].tobytes()


# seeded runs and the SHA-256 of their CSV and JSON texts, as written when
# record() still solved igm and ik_velocity again for every sample
_SIM_TEXT_PINS = (
    (
        None, (0.01, -0.02, 0.61), (0.03, -0.02, 0.015), SimConfig(dt=1e-3, t_end=0.02),
        "747e3a636c28e140013f919fb8344006651577c2d93b5c49b17d5bcc77f2642f",
        "cc42eb02babd7f04cf34cf4ba901d9e7817de7b758742849af89dfef2eafef93",
    ),
    (
        (0.0, 0.0, -0.2), (0.0, 0.0, 0.6), (-0.02, 0.01, 0.0), SimConfig(dt=1e-3, t_end=0.02, record_every=3),
        "7bf09c0263e26dd0fd357f6e68e13b2a047107142408df82b2db09e1a63299be",
        "78d259a925a729beb2f4baba8ed8b4a5acec3298d11c963db46a9aee82518eb2",
    ),
    (
        None, (0.01, -0.02, 0.61), (0.03, -0.02, 0.015), SimConfig(dt=1e-3, t_end=0.02, integrator="euler"),
        "299acfb3890ccfa25261eb2d9a499a010777c79ce7364ac929afe5947ad6d48c",
        "20cfb9bc19bd55a0d448915c21f77006821aeef4b093d72d4bae91f197dadeb3",
    ),
)


@pytest.mark.parametrize("gravity, p0, v0, cfg, csv_sha, json_sha", _SIM_TEXT_PINS)
def test_recorded_rates_are_the_last_dynamics_solve(model, gravity, p0, v0, cfg, csv_sha, json_sha):
    import hashlib

    from orthoglide import format_trajectory_csv, format_trajectory_json, igm, ik_velocity

    m = model if gravity is None else model_with_gravity(model, gravity)
    traj = simulate(m, p0, v0, config=cfg).samples
    for P, V, L, Ldot in zip(traj.P, traj.V, traj.L, traj.Ldot):
        L_ref, chain_q = igm(m, P)
        assert L.tobytes() == L_ref.tobytes()
        assert Ldot.tobytes() == ik_velocity(m, chain_q, V)[0].tobytes()
    assert hashlib.sha256(format_trajectory_csv(traj).encode()).hexdigest() == csv_sha
    assert hashlib.sha256(format_trajectory_json(traj).encode()).hexdigest() == json_sha


def test_rk4_step_solves_the_geometry_four_times(model, monkeypatch):
    import importlib

    calls = []
    for module in ("orthoglide.robot_dynamics", "orthoglide.simulate"):
        mod = importlib.import_module(module)
        real = mod.igm
        monkeypatch.setattr(mod, "igm", lambda m, p, real=real: calls.append(1) or real(m, p))
    simulate(model, P_HOME, (0.01, 0.0, 0.0), config=SimConfig(dt=1e-3, t_end=0.005))
    # the first sample's solve, then the four direct-dynamics solves per step
    assert len(calls) == 1 + 4 * 5


def _json_per_sample(samples):
    """The JSON text built one sample at a time: the reference layout."""
    data = {
        "samples": [
            {
                "t": s.t,
                "P": list(map(float, s.P)),
                "V": list(map(float, s.V)),
                "A": list(map(float, s.A)),
                "L": list(map(float, s.L)),
                "Ldot": None if s.Ldot is None else list(map(float, s.Ldot)),
                "Gamma": list(map(float, s.Gamma)),
            }
            for s in samples
        ]
    }
    return json.dumps(data, indent=1) + "\n"


def test_json_text_is_the_per_sample_text(model, tmp_path):
    import orthoglide

    res = simulate(model, P_HOME, (0.01, -0.02, 0.0), config=SimConfig(dt=1e-3, t_end=0.01))
    traj = res.samples
    write_trajectory_csv(traj, tmp_path / "run.csv")
    rateless = read_trajectory_csv(tmp_path / "run.csv")
    signed = Trajectory(-0.0 * traj.t, -traj.P, 0.0 * traj.V, -0.0 * traj.A, traj.L, -0.0 * traj.Ldot, traj.Gamma)
    mixed = [rateless[0]] + traj[1:]
    for samples in (traj, rateless, signed, list(traj), list(rateless), [], Trajectory([], [], [], [], [], None, [])):
        assert orthoglide.format_trajectory_json(samples) == _json_per_sample(samples)
    assert orthoglide.format_trajectory_csv(traj) == (tmp_path / "run.csv").read_text()
    # read_trajectory_json refuses rates on some samples only, so no such file is written
    with pytest.raises(ValidationError, match="Ldot must be given for every sample or for none"):
        orthoglide.format_trajectory_json(mixed)
    with pytest.raises(ValidationError):
        write_trajectory_json(mixed, tmp_path / "mixed.json")
    assert not (tmp_path / "mixed.json").exists()


def test_json_text_spells_non_finite_floats_as_json(model):
    import orthoglide

    traj = simulate(model, P_HOME, (0.01, 0.0, 0.0), config=SimConfig(dt=1e-3, t_end=0.004)).samples
    n = len(traj)
    odd = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1.5e300, -2.5e-7])
    pick = np.arange(3 * n).reshape(n, 3) % len(odd)
    strange = Trajectory(traj.t, odd[pick], odd[pick[::-1]], traj.A, -odd[pick], odd[(pick + 1) % len(odd)], traj.Gamma)
    for samples in (strange, list(strange), [traj[0]] + list(strange)[1:]):
        text = orthoglide.format_trajectory_json(samples)
        assert text == _json_per_sample(samples)
        assert "NaN" in text and "-Infinity" in text
        back = json.loads(text)["samples"]
        assert len(back) == n
        np.testing.assert_array_equal([s["P"] for s in back[1:]], strange.P[1:])
