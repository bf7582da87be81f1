"""Robot description: parameter containers, config parsing, frame transforms.

The machine modeled here is a translational parallel robot: three mutually
orthogonal prismatic actuators, each driving an articulated parallelogram
that connects to a common platform. The closure keeps the platform
orientation fixed, so the platform state is the position of one point P and
the robot has exactly three degrees of freedom.

Each leg is described as a small tree of nine frames. Frame 1 rides the
prismatic actuator; frames 2-5 run along the driven bar of the
parallelogram to the wrist; frame 6 is the fixed platform attachment;
frames 7-9 run along the second bar, with frame 9 fixed on the wrist body
so that the loop closes when the frame-8 and frame-9 origins coincide.
Four of the revolute angles are slaved to the two free ones (q2, q3):

    q4 = -q3      q5 = -q2 - pi/2      q7 = q3      q8 = -q3

A frame is placed relative to its parent by six constants (gamma, b, alpha,
d, theta, r):

    T = Rot(z, gamma) Trans(z, b) Rot(x, alpha) Trans(x, d)
        Rot(z, theta) Trans(z, r)

and the joint variable adds to theta for a revolute joint or to r for a
prismatic one.

Config files are INI text (configparser syntax). See DEFAULT_CONFIG for a
complete example. Geometry keys per chain: the base placement row
(base_gamma, base_b, base_alpha, base_d, base_theta, base_r) and the scalar
lengths d4, d6, r2, b7, b9, r5, d8. The rail offsets are not independent:
b7 must equal -2*r2, b9 and r5 must equal -r2, and d8 must equal d4, all
exactly as parsed doubles, or the loop does not close. Inertia sections
give mass (kg), ms (first moment m*c, kg m, 3 numbers) and inertia (9
numbers, row major, kg m^2), both about the link frame. An optional
[verify] section overrides verification tolerances by check name.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import ParseError, ValidationError

_HALF_PI = math.pi / 2.0

# Tree wiring shared by all three chains. Frames are numbered 1..9; parents
# use 0 for the world. Frames 6 and 9 carry no joint.
FRAME_PARENTS = (0, 1, 2, 3, 4, 5, 2, 7, 5)
# Rows (frame number - 1) of the six tree coordinates: frames 1-5 and 7.
TREE_ROWS = (0, 1, 2, 3, 4, 6)

_KIND_CODES = {"revolute": _kernels.REVOLUTE, "prismatic": _kernels.PRISMATIC, "fixed": _kernels.FIXED}


def closure_positions(q):
    """Joint values of frames 1..9 for free chain coordinates (q1, q2, q3)."""
    q1, q2, q3 = map(float, q)
    return (q1, q2, q3, -q3, -q2 - _HALF_PI, 0.0, q3, -q3, 0.0)


def closure_rates(qd):
    """Joint rates (or accelerations) of frames 1..9 for free-coordinate rates."""
    qd1, qd2, qd3 = map(float, qd)
    return (qd1, qd2, qd3, -qd3, -qd2, 0.0, qd3, -qd3, 0.0)


def tree_slots(v6):
    """Joint values of frames 1..7 for the six tree coordinates (frame 6: 0.0)."""
    slots = [0.0] * 7
    for r, x in zip(TREE_ROWS, v6):
        slots[r] = float(x)
    return slots


@dataclass(frozen=True)
class MdhJointParams:
    """Placement of one frame relative to its parent, plus the joint kind."""

    frame: int
    parent: int
    kind: str
    gamma: float = 0.0
    b: float = 0.0
    alpha: float = 0.0
    d: float = 0.0
    theta: float = 0.0
    r: float = 0.0


@dataclass(frozen=True, eq=False)
class LinkInertia:
    """Mass, first moment and inertia tensor of one body, about its frame."""

    mass: float
    first_moment: np.ndarray
    inertia: np.ndarray

    def __post_init__(self):
        fm = np.array(self.first_moment, dtype=float).reshape(3).copy()
        J = np.array(self.inertia, dtype=float).reshape(3, 3).copy()
        fm.flags.writeable = False
        J.flags.writeable = False
        object.__setattr__(self, "mass", float(self.mass))
        object.__setattr__(self, "first_moment", fm)
        object.__setattr__(self, "inertia", J)


@dataclass(frozen=True, eq=False)
class ChainGeometry:
    """One leg: base placement, bar lengths, rail offsets, link inertias."""

    base: MdhJointParams
    d4: float
    d6: float
    r2: float
    b7: float
    b9: float
    r5: float
    d8: float
    links: tuple

    @property
    def joints(self) -> tuple:
        """Frames 2..9 as MdhJointParams rows."""
        mk = MdhJointParams
        return (
            mk(2, 1, "revolute", alpha=-_HALF_PI, r=self.r2),
            mk(3, 2, "revolute", alpha=-_HALF_PI),
            mk(4, 3, "revolute", d=self.d4),
            mk(5, 4, "revolute", alpha=_HALF_PI, r=self.r5),
            mk(6, 5, "fixed", d=self.d6),
            mk(7, 2, "revolute", b=self.b7, alpha=-_HALF_PI),
            mk(8, 7, "revolute", d=self.d8),
            mk(9, 5, "fixed", b=self.b9, alpha=-_HALF_PI),
        )


def _frame_row(params: MdhJointParams, parent: int) -> tuple:
    """One row of the kernels' frame table (layout in _kernels)."""
    return (
        parent,
        _KIND_CODES[params.kind],
        math.cos(params.gamma),
        math.sin(params.gamma),
        math.cos(params.alpha),
        math.sin(params.alpha),
        float(params.b),
        float(params.d),
        float(params.theta),
        float(params.r),
    )


class _ChainPack:
    """Kernel tables and base placement derived from one ChainGeometry."""

    __slots__ = ("frames", "inertia", "R_base", "anchor", "axis", "d4", "d6")

    def __init__(self, chain: ChainGeometry):
        rows = (chain.base,) + chain.joints
        self.frames = tuple(_frame_row(jp, p - 1) for jp, p in zip(rows, FRAME_PARENTS))
        self.inertia = np.array([(li.mass, *li.first_moment, *li.inertia.reshape(9)) for li in chain.links])
        T = frame_transform(chain.base, 0.0)
        self.R_base = T[:3, :3].copy()
        self.anchor = T[:3, 3].copy()
        self.axis = T[:3, 2].copy()
        self.d4 = chain.d4
        self.d6 = chain.d6


@dataclass(frozen=True, eq=False)
class RobotModel:
    """Immutable description of the whole robot.

    chains holds three ChainGeometry entries; gravity is the field vector in
    the world frame; platform_mass is the lumped platform mass (the platform
    never rotates, so no platform inertia tensor is needed). A non-finite
    value anywhere raises ValidationError at construction.
    """

    chains: tuple
    gravity: np.ndarray
    platform_mass: float
    verify_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        g = np.array(self.gravity, dtype=float).reshape(3).copy()
        g.flags.writeable = False
        object.__setattr__(self, "gravity", g)
        object.__setattr__(self, "platform_mass", float(self.platform_mass))
        object.__setattr__(self, "chains", tuple(self.chains))
        _require_finite(self)
        packs = tuple(_ChainPack(c) for c in self.chains)
        anchors = np.stack([p.anchor for p in packs])
        anchors.flags.writeable = False
        object.__setattr__(self, "_packs", packs)
        object.__setattr__(self, "anchors", anchors)


def frame_transform(params: MdhJointParams, q: float = 0.0) -> np.ndarray:
    """Homogeneous transform parent<-frame for one row at joint value q."""
    L = _kernels.place(_frame_row(params, -1), q)
    T = np.eye(4)
    T[:3, :3] = np.reshape(L[:9], (3, 3))
    T[:3, 3] = L[9:]
    return T


# ---------------------------------------------------------------------------
# config parsing


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_vec(v) -> str:
    return ", ".join(_fmt(x) for x in np.asarray(v, dtype=float).reshape(-1))


# config keys of a chain: its base row (each prefixed base_), then its lengths
_BASE_KEYS = ("gamma", "b", "alpha", "d", "theta", "r")
_LENGTH_KEYS = ("d4", "d6", "r2", "b7", "b9", "r5", "d8")


def _get_raw(cp, section, key):
    try:
        return cp.get(section, key)
    except (configparser.NoSectionError, configparser.NoOptionError):
        raise ParseError("missing key '%s' in section [%s]" % (key, section)) from None


def _get_float(cp, section, key):
    raw = _get_raw(cp, section, key)
    try:
        return float(raw)
    except ValueError:
        raise ParseError(
            "key '%s' in section [%s]: cannot parse '%s' as a number" % (key, section, raw)
        ) from None


def _get_vec(cp, section, key, n):
    raw = _get_raw(cp, section, key)
    parts = [p for p in raw.replace(",", " ").split() if p]
    if len(parts) != n:
        raise ParseError(
            "key '%s' in section [%s]: expected %d numbers, got %d"
            % (key, section, n, len(parts))
        )
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise ParseError(
            "key '%s' in section [%s]: cannot parse '%s'" % (key, section, raw)
        ) from None


def _looks_like_text(s: str) -> bool:
    return "\n" in s or "[" in s


def load_model(source) -> RobotModel:
    """Build a RobotModel from config text, a path string, or a Path.

    A string containing a newline or a '[' is treated as config text,
    anything else as a filesystem path. Raises ParseError for malformed
    input and ValidationError for a model that parses but is inconsistent.
    """
    if isinstance(source, os.PathLike):
        text = os.fspath(source)
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif isinstance(source, str):
        if _looks_like_text(source):
            text = source
        else:
            try:
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ParseError("cannot read model file '%s': %s" % (source, exc)) from None
    else:
        raise ParseError("unsupported model source type %r" % type(source).__name__)

    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParseError("bad config syntax: %s" % exc) from None

    if not cp.has_section("robot"):
        raise ParseError("missing section [robot]")
    gravity = _get_vec(cp, "robot", "gravity", 3)
    platform_mass = _get_float(cp, "robot", "platform_mass")

    chains = []
    for ci in (1, 2, 3):
        sec = "chain%d" % ci
        if not cp.has_section(sec):
            raise ParseError("missing section [%s]" % sec)
        base = MdhJointParams(1, 0, "prismatic", **{k: _get_float(cp, sec, "base_" + k) for k in _BASE_KEYS})
        geom = {k: _get_float(cp, sec, k) for k in _LENGTH_KEYS}
        links = []
        for li in range(1, 8):
            lsec = "%s.link%d" % (sec, li)
            if not cp.has_section(lsec):
                raise ParseError("missing section [%s]" % lsec)
            links.append(
                LinkInertia(
                    mass=_get_float(cp, lsec, "mass"),
                    first_moment=_get_vec(cp, lsec, "ms", 3),
                    inertia=_get_vec(cp, lsec, "inertia", 9).reshape(3, 3),
                )
            )
        chains.append(ChainGeometry(base=base, links=tuple(links), **geom))

    overrides = {}
    if cp.has_section("verify"):
        for key in cp.options("verify"):
            overrides[key] = _get_float(cp, "verify", key)

    model = RobotModel(
        chains=tuple(chains),
        gravity=gravity,
        platform_mass=platform_mass,
        verify_overrides=overrides,
    )
    validate_model(model)
    return model


def _require_finite(model: RobotModel) -> None:
    if not np.all(np.isfinite(model.gravity)):
        raise ValidationError("gravity must be finite")
    if not math.isfinite(model.platform_mass):
        raise ValidationError("platform_mass must be finite")
    for ci, chain in enumerate(model.chains, start=1):
        lengths = [getattr(chain.base, k) for k in _BASE_KEYS] + [getattr(chain, k) for k in _LENGTH_KEYS]
        if not np.all(np.isfinite(lengths)):
            raise ValidationError("chain%d: base row, bar lengths and offsets must be finite" % ci)
        for li, link in enumerate(chain.links, start=1):
            if not (math.isfinite(link.mass) and np.all(np.isfinite(link.first_moment))
                    and np.all(np.isfinite(link.inertia))):
                raise ValidationError("chain%d.link%d: mass, ms and inertia must be finite" % (ci, li))


def validate_model(model: RobotModel) -> None:
    """Raise ValidationError if the model is structurally inconsistent.

    Non-finite values are already refused when the RobotModel is built.
    """
    if not (model.platform_mass > 0.0):
        raise ValidationError("platform_mass must be positive")
    for ci, chain in enumerate(model.chains, start=1):
        tag = "chain%d" % ci
        if not (chain.d4 > 0.0):
            raise ValidationError("%s: d4 must be positive" % tag)
        if chain.d6 < 0.0:
            raise ValidationError("%s: d6 must be nonnegative" % tag)
        if chain.b7 != -2.0 * chain.r2:
            raise ValidationError("%s: b7 must equal -2*r2 exactly" % tag)
        if chain.b9 != -chain.r2:
            raise ValidationError("%s: b9 must equal -r2 exactly" % tag)
        if chain.r5 != -chain.r2:
            raise ValidationError("%s: r5 must equal -r2 exactly" % tag)
        if chain.d8 != chain.d4:
            raise ValidationError("%s: d8 must equal d4 exactly" % tag)
        if len(chain.links) != 7:
            raise ValidationError("%s: expected 7 link inertia entries" % tag)
        for li, link in enumerate(chain.links, start=1):
            ltag = "%s.link%d" % (tag, li)
            if link.mass < 0.0:
                raise ValidationError("%s: mass must be nonnegative" % ltag)
            if link.mass == 0.0 and np.any(link.first_moment != 0.0):
                raise ValidationError("%s: massless body must have zero ms" % ltag)
            J = link.inertia
            scale = max(1.0, float(np.abs(J).max()))
            if float(np.abs(J - J.T).max()) > 1e-12 * scale:
                raise ValidationError("%s: inertia tensor must be symmetric" % ltag)
            if float(np.linalg.eigvalsh(0.5 * (J + J.T)).min()) < -1e-12 * scale:
                raise ValidationError("%s: inertia tensor must be positive semidefinite" % ltag)

    anchors = model.anchors
    if float(np.abs(anchors[0]).max()) > 1e-12:
        raise ValidationError("chain1 anchor must sit at the world origin")
    # the three actuator axes must meet at one point
    A = np.zeros((3, 3))
    b = np.zeros(3)
    for pack in model._packs:
        u = pack.axis
        P = np.eye(3) - np.outer(u, u)
        A += P
        b += P @ pack.anchor
    try:
        K = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        raise ValidationError("actuator axes do not define a common point") from None
    for ci, pack in enumerate(model._packs, start=1):
        dv = K - pack.anchor
        perp = dv - pack.axis * float(dv @ pack.axis)
        if float(np.linalg.norm(perp)) > 1e-9:
            raise ValidationError(
                "actuator axes are not concurrent (chain%d misses the common point by %.3g)"
                % (ci, float(np.linalg.norm(perp)))
            )


def dumps_model(model: RobotModel) -> str:
    """Serialize a model to canonical config text.

    Floats are written with repr so load_model(dumps_model(m)) reproduces
    every parameter bit for bit.
    """
    out = []
    out.append("[robot]")
    out.append("gravity = %s" % _fmt_vec(model.gravity))
    out.append("platform_mass = %s" % _fmt(model.platform_mass))
    out.append("")
    for ci, chain in enumerate(model.chains, start=1):
        out.append("[chain%d]" % ci)
        for k in _BASE_KEYS:
            out.append("base_%s = %s" % (k, _fmt(getattr(chain.base, k))))
        for k in _LENGTH_KEYS:
            out.append("%s = %s" % (k, _fmt(getattr(chain, k))))
        out.append("")
        for li, link in enumerate(chain.links, start=1):
            out.append("[chain%d.link%d]" % (ci, li))
            out.append("mass = %s" % _fmt(link.mass))
            out.append("ms = %s" % _fmt_vec(link.first_moment))
            out.append("inertia = %s" % _fmt_vec(link.inertia))
            out.append("")
    if model.verify_overrides:
        out.append("[verify]")
        for key in sorted(model.verify_overrides):
            out.append("%s = %s" % (key, _fmt(model.verify_overrides[key])))
        out.append("")
    return "\n".join(out)


def model_with_gravity(model: RobotModel, gravity) -> RobotModel:
    """Copy of the model with a different gravity vector."""
    return dataclasses.replace(model, gravity=np.array(gravity, dtype=float).reshape(3))


def _default_links():
    diag = np.diag([1e-3, 1e-3, 1e-3])
    ms = {
        1: (0.0, 0.025, 0.0),
        2: (0.0, 0.0, -0.05),
        3: (0.25, 0.0, 0.0),
        4: (0.0, 0.025, 0.0),
        5: (0.05, 0.0, 0.0),
        6: (0.0, 0.0, 0.0),
        7: (0.25, 0.0, 0.0),
    }
    return tuple(LinkInertia(1.0, np.array(ms[i]), diag) for i in range(1, 8))


def _build_default_model() -> RobotModel:
    a = 0.2
    d4, d6, r2 = 0.5, 0.1, 0.05
    bases = (
        MdhJointParams(1, 0, "prismatic"),
        MdhJointParams(1, 0, "prismatic", gamma=_HALF_PI, b=a, alpha=_HALF_PI, r=-a),
        MdhJointParams(1, 0, "prismatic", b=a, alpha=-_HALF_PI, theta=-_HALF_PI, r=-a),
    )
    chains = tuple(
        ChainGeometry(
            base=b,
            d4=d4,
            d6=d6,
            r2=r2,
            b7=-2.0 * r2,
            b9=-r2,
            r5=-r2,
            d8=d4,
            links=_default_links(),
        )
        for b in bases
    )
    return RobotModel(
        chains=chains,
        gravity=np.array([0.0, 0.0, -9.81]),
        platform_mass=1.0,
    )


DEFAULT_CONFIG = dumps_model(_build_default_model())


def default_model() -> RobotModel:
    """The stock symmetric robot (0.2 m frame offset, 0.5 m bars)."""
    return load_model(DEFAULT_CONFIG)
