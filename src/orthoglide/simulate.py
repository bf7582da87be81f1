"""Fixed-step simulation of the platform dynamics plus trajectory I/O.

State is the platform point and its velocity. Integrators are classic RK4
(default) and explicit Euler, both on a fixed grid t_k = k dt. Recorded
samples carry the platform state, the platform acceleration, the actuator
travels, rates and efforts at the sample instant. A run and the readers
store them as columns (Trajectory), which hands out one TrajectorySample
per index.

CSV files use exactly this header and column order:

    t,Px,Py,Pz,Vx,Vy,Vz,Ax,Ay,Az,L1,L2,L3,G1,G2,G3

Numbers are written with repr, so rereading a file reproduces the values
bit for bit. Actuator rates are not part of the CSV contract; the JSON
format keeps every sample field.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ChainSingular, NumericalError, OutOfWorkspace, ParseError, ValidationError
from .kinematics import igm
from .robot_dynamics import _direct_dynamics, direct_dynamics, inverse_dynamics

CSV_HEADER = "t,Px,Py,Pz,Vx,Vy,Vz,Ax,Ay,Az,L1,L2,L3,G1,G2,G3"


@dataclass(frozen=True)
class TrajectorySample:
    """One recorded instant. Ldot is None for samples read back from CSV."""

    t: float
    P: np.ndarray
    V: np.ndarray
    A: np.ndarray
    L: np.ndarray
    Ldot: np.ndarray | None
    Gamma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        for name in ("P", "V", "A", "L", "Gamma"):
            v = np.array(getattr(self, name), dtype=float).reshape(3).copy()
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        if self.Ldot is not None:
            v = np.array(self.Ldot, dtype=float).reshape(3).copy()
            v.flags.writeable = False
            object.__setattr__(self, "Ldot", v)


def _column(index):
    return property(lambda self: self._data[:, index])


class Trajectory(Sequence):
    """Recorded samples stored as columns, read as a sequence of samples.

    t has shape (n,); P, V, A, L, Ldot and Gamma have shape (n, 3), and Ldot
    is None when the rates are unknown (trajectories read from CSV). The
    columns are read-only views into one block, a copy of the values laid
    out as a CSV row (t, P, V, A, L, Gamma) followed by Ldot, so a stored
    trajectory is a single array. An integer index, negative ones included,
    builds a TrajectorySample; a slice gives a list of them.
    """

    __slots__ = ("_data",)

    t = _column(0)
    P = _column(slice(1, 4))
    V = _column(slice(4, 7))
    A = _column(slice(7, 10))
    L = _column(slice(10, 13))
    Gamma = _column(slice(13, 16))

    def __init__(self, t, P, V, A, L, Ldot, Gamma):
        t = np.asarray(t, dtype=float).reshape(-1, 1)
        n = len(t)
        columns = [np.asarray(x, dtype=float).reshape(n, 3) for x in (P, V, A, L, Gamma)]
        if Ldot is not None:
            columns.append(np.asarray(Ldot, dtype=float).reshape(n, 3))
        self._data = np.concatenate([t] + columns, axis=1)
        self._data.flags.writeable = False

    @property
    def Ldot(self):
        return self._data[:, 16:19] if self._data.shape[1] == 19 else None

    def __len__(self):
        return len(self._data)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self._data)))]
        row = self._data[operator.index(k)]
        return TrajectorySample(
            t=row[0], P=row[1:4], V=row[4:7], A=row[7:10], L=row[10:13],
            Ldot=row[16:19] if len(row) == 19 else None, Gamma=row[13:16],
        )


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-4
    t_end: float = 1.0
    integrator: str = "rk4"
    record_every: int = 1


@dataclass
class SimResult:
    """samples recorded so far, a Trajectory from simulate (any sequence of
    TrajectorySample is accepted); completed is False when the run stopped
    early, and stop_reason then names the error kind and its message: a
    workspace exit (OutOfWorkspace), a fold (ChainSingular) or a tripped
    numerical guard (NumericalError)."""

    samples: Sequence
    completed: bool
    stop_reason: str | None = None
    config: SimConfig = field(default_factory=SimConfig)


def quintic_path(p_start, p_end, duration, model=None):
    """Rest-to-rest point trajectory with zero end velocity and acceleration.

    Returns path(t) -> (P, V, A). Outside [0, duration] the path clamps to
    the endpoints at rest. When a model is given, both endpoints are
    checked against the workspace up front.
    """
    p0 = np.asarray(p_start, dtype=float).reshape(3).copy()
    p1 = np.asarray(p_end, dtype=float).reshape(3).copy()
    T = float(duration)
    if not T > 0.0:
        raise ValidationError("path duration must be positive")
    if model is not None:
        igm(model, p0)
        igm(model, p1)
    dp = p1 - p0
    zero = np.zeros(3)

    def path(t):
        tau = t / T
        if tau <= 0.0:
            return p0.copy(), zero.copy(), zero.copy()
        if tau >= 1.0:
            return p1.copy(), zero.copy(), zero.copy()
        s = tau * tau * tau * (10.0 + tau * (-15.0 + 6.0 * tau))
        sd = tau * tau * (30.0 + tau * (-60.0 + 30.0 * tau)) / T
        sdd = tau * (60.0 + tau * (-180.0 + 120.0 * tau)) / (T * T)
        return p0 + s * dp, sd * dp, sdd * dp

    return path


def torque_from_table(times, values):
    """Zero-order-hold torque lookup: gamma(t) = row of the latest time <= t."""
    times = np.asarray(times, dtype=float).reshape(-1)
    values = np.asarray(values, dtype=float).reshape(len(times), 3)
    if len(times) == 0:
        raise ValidationError("torque table is empty")
    if np.any(np.diff(times) < 0.0):
        raise ValidationError("torque table times must be nondecreasing")

    def fn(t):
        k = int(np.searchsorted(times, t, side="right")) - 1
        if k < 0:
            k = 0
        return values[k]

    return fn


def feedforward_torque(model, path):
    """Torque function tracking a path open loop via inverse dynamics."""

    def fn(t):
        P, V, A = path(t)
        return inverse_dynamics(model, P, V, A)

    return fn


def _zero_torque(t):
    return np.zeros(3)


def simulate(model, p0, v0, torque_fn=None, config: SimConfig | None = None) -> SimResult:
    """Integrate the platform dynamics from (p0, v0) under torque_fn.

    The initial state must be inside the workspace (OutOfWorkspace
    propagates). If a later step leaves the workspace, reaches a fold or
    trips a numerical guard, the run stops and the result carries
    completed=False with the recorded prefix.
    """
    cfg = config if config is not None else SimConfig()
    if cfg.integrator not in ("rk4", "euler"):
        raise ValidationError("unknown integrator '%s'" % cfg.integrator)
    if not 0.0 < cfg.dt < math.inf:
        raise ValidationError("dt must be positive and finite")
    if not 0.0 <= cfg.t_end < math.inf:
        raise ValidationError("t_end must be nonnegative and finite")
    if not (isinstance(cfg.record_every, numbers.Integral) and cfg.record_every >= 1):
        raise ValidationError("record_every must be an integer >= 1")
    dt = cfg.dt
    n_steps = round(cfg.t_end / dt)
    # t_end / dt is a whole number up to its round-off
    if abs(cfg.t_end / dt - n_steps) > 1e-9 * max(1, n_steps):
        raise ValidationError("t_end %r is not a whole number of dt %r steps" % (cfg.t_end, dt))
    fn = torque_fn if torque_fn is not None else _zero_torque

    P = np.asarray(p0, dtype=float).reshape(3).copy()
    V = np.asarray(v0, dtype=float).reshape(3).copy()

    # the start, every record_every-th step and the last one
    n_records = 1 + -(-n_steps // cfg.record_every)
    times = np.empty(n_records)
    columns = np.empty((6, n_records, 3))  # P, V, A, L, Ldot, Gamma
    count = 0

    def record(t, *values):
        # values: P, V, A, L, Ldot, Gamma; L and Ldot are the travels and
        # rates the last direct-dynamics solve found at (P, V)
        nonlocal count
        times[count] = t
        for column, value in zip(columns, values):
            column[count] = value
        count += 1

    def result(completed, stop_reason):
        return SimResult(Trajectory(times[:count], *columns[:, :count]), completed, stop_reason, cfg)

    # first sample: workspace errors here are the caller's problem
    gamma = np.asarray(fn(0.0), dtype=float).reshape(3)
    acc, L, Ldot = _direct_dynamics(model, P, V, gamma)
    record(0.0, P, V, acc, L, Ldot, gamma)

    for k in range(n_steps):
        t = k * dt
        try:
            if cfg.integrator == "euler":
                t4 = None  # no k4 torque to reuse
                P_next = P + dt * V
                V_next = V + dt * acc
            else:
                k1p, k1v = V, acc
                g2 = np.asarray(fn(t + 0.5 * dt), dtype=float).reshape(3)
                k2v = direct_dynamics(model, P + 0.5 * dt * k1p, V + 0.5 * dt * k1v, g2)
                k2p = V + 0.5 * dt * k1v
                k3v = direct_dynamics(model, P + 0.5 * dt * k2p, V + 0.5 * dt * k2v, g2)
                k3p = V + 0.5 * dt * k2v
                t4 = t + dt
                g4 = np.asarray(fn(t4), dtype=float).reshape(3)
                k4v = direct_dynamics(model, P + dt * k3p, V + dt * k3v, g4)
                k4p = V + dt * k3v
                P_next = P + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
                V_next = V + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            t_next = (k + 1) * dt
            # k dt + dt is often the very float (k + 1) dt; the k4 torque is then the sample's
            gamma = g4 if t4 == t_next else np.asarray(fn(t_next), dtype=float).reshape(3)
            acc, L, Ldot = _direct_dynamics(model, P_next, V_next, gamma)
        except (OutOfWorkspace, ChainSingular, NumericalError) as exc:
            return result(False, "%s: %s" % (type(exc).__name__, exc))
        P, V = P_next, V_next
        if (k + 1) % cfg.record_every == 0 or k + 1 == n_steps:
            record(t_next, P, V, acc, L, Ldot, gamma)

    return result(True, None)


# ---------------------------------------------------------------------------
# trajectory files


def _rateless_columns(samples) -> Trajectory:
    """The columns of a sequence of TrajectorySample, without the actuator rates;
    ValidationError names an element that is not one."""
    for k, s in enumerate(samples):
        if not isinstance(s, TrajectorySample):
            raise ValidationError("trajectory element %d is a %s, not a TrajectorySample" % (k, type(s).__name__))
    t, P, V, A, L, Gamma = ([getattr(s, name) for s in samples] for name in ("t", "P", "V", "A", "L", "Gamma"))
    return Trajectory(t, P, V, A, L, None, Gamma)


def format_trajectory_csv(samples) -> str:
    """CSV text of the samples, as write_trajectory_csv stores it; ValidationError for a non-sample."""
    if not isinstance(samples, Trajectory):
        # the CSV keeps no rates
        samples = _rateless_columns(samples)
    table = samples._data[:, :16].tolist()
    return "\n".join([CSV_HEADER] + [",".join(map(repr, row)) for row in table]) + "\n"


def write_trajectory_csv(samples, path) -> None:
    text = format_trajectory_csv(samples)  # a refused sequence leaves no file behind
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def read_trajectory_csv(path) -> Trajectory:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ParseError("bad trajectory CSV header")
    rows = []
    for ln in lines[1:]:
        try:
            vals = [float(x) for x in ln.split(",")]
        except ValueError:
            raise ParseError("bad trajectory CSV row: non-numeric cell in '%s'" % ln) from None
        if len(vals) != 16:
            raise ParseError("bad trajectory CSV row: expected 16 columns")
        rows.append(vals)
    table = np.array(rows).reshape(-1, 16)
    return Trajectory(
        table[:, 0], table[:, 1:4], table[:, 4:7], table[:, 7:10], table[:, 10:13], None, table[:, 13:16]
    )


# json.dumps(..., indent=1) of {"samples": [...]}, written out: one %r per
# float (json writes floats with their repr), the rates as a vector or null
_JSON_VECTOR = "[\n    %r,\n    %r,\n    %r\n   ]"
_JSON_SAMPLE = (
    '  {\n   "t": %r,\n   "P": ' + _JSON_VECTOR + ',\n   "V": ' + _JSON_VECTOR + ',\n   "A": ' + _JSON_VECTOR
    + ',\n   "L": ' + _JSON_VECTOR + ',\n   "Ldot": %s,\n   "Gamma": ' + _JSON_VECTOR + "\n  }"
)


def format_trajectory_json(samples) -> str:
    """JSON text of the samples, as write_trajectory_json stores it.

    The text is json.dumps(..., indent=1) of {"samples": [...]} plus a
    newline, written without the pure-Python encoder that indent selects.
    A sequence that gives rates (Ldot) for some samples only, or holds an
    element that is not a TrajectorySample, raises ValidationError.
    """
    if isinstance(samples, Trajectory):
        rows = samples._data.tolist()
    else:
        rows = _rateless_columns(samples)._data.tolist()
        if len({s.Ldot is None for s in samples}) > 1:  # read_trajectory_json refuses that file
            raise ValidationError("Ldot must be given for every sample or for none")
        rows = [row + ([] if s.Ldot is None else s.Ldot.tolist()) for row, s in zip(rows, samples)]
    if not rows:
        return '{\n "samples": []\n}\n'
    text = ",\n".join(
        _JSON_SAMPLE % (*row[:13], _JSON_VECTOR % tuple(row[16:]) if len(row) == 19 else "null", *row[13:16])
        for row in rows
    )
    # repr spells the non-finite floats nan, inf and -inf, json NaN, Infinity
    # and -Infinity; no key and no null contains either spelling
    text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return '{\n "samples": [\n' + text + "\n ]\n}\n"


def write_trajectory_json(samples, path) -> None:
    text = format_trajectory_json(samples)  # a refused sequence leaves no file behind
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_trajectory_json(path) -> Trajectory:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        samples = data["samples"]
        t, P, V, A, L, Gamma = ([s[name] for s in samples] for name in ("t", "P", "V", "A", "L", "Gamma"))
        rates = [s.get("Ldot") for s in samples]
    except (KeyError, TypeError, AttributeError) as exc:
        raise ParseError("bad trajectory JSON: missing or malformed field %s" % exc) from None
    if None in rates:
        if any(r is not None for r in rates):
            raise ParseError("bad trajectory JSON: Ldot must be given for every sample or for none")
        rates = None
    try:
        return Trajectory(t, P, V, A, L, rates, Gamma)
    except (TypeError, ValueError) as exc:
        raise ParseError("bad trajectory JSON: %s" % exc) from None
