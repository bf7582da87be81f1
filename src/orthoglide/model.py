"""Robot description: the leg's fixed structure, parameter containers, config parsing.

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
prismatic one. The tree's wiring is fixed: FRAME_PARENTS and FRAME_KINDS
give each frame's parent and joint kind, and a config supplies only the
placements.

Config files are INI text (configparser syntax). See DEFAULT_CONFIG for a
complete example. Geometry keys per chain: the base placement row
(base_gamma, base_b, base_alpha, base_d, base_theta, base_r) of the
prismatic frame 1 and the lengths d4, d6, r2. The second bar's offsets are
derived, as the loop closes only with b7 = -2*r2, b9 = r5 = -r2, d8 = d4;
the loader ignores those keys in older files. Inertia sections
give mass (kg), ms (first moment m*c, kg m, 3 numbers) and inertia (9
numbers, row major, kg m^2), both about the link frame. An optional
[verify] section overrides verification tolerances by check name; an
unknown name is refused.
"""

from __future__ import annotations

import configparser
import copy
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels import FIXED, PRISMATIC, REVOLUTE
from .errors import ParseError, ValidationError

_HALF_PI = math.pi / 2.0

# Tree wiring shared by all three chains. Frames are numbered 1..9; parents
# use 0 for the world. Frame 1 is the slider; frames 6 and 9 carry no joint.
FRAME_PARENTS = (0, 1, 2, 3, 4, 5, 2, 7, 5)
FRAME_KINDS = (PRISMATIC, REVOLUTE, REVOLUTE, REVOLUTE, REVOLUTE, FIXED, REVOLUTE, REVOLUTE, FIXED)
# Rows (frame number - 1) of the six tree coordinates: frames 1-5 and 7.
TREE_ROWS = (0, 1, 2, 3, 4, 6)


def closure_positions(q):
    """Joint values of frames 1..9 for free chain coordinates (q1, q2, q3)."""
    return _closure_positions(*map(float, q))


def _closure_positions(q1, q2, q3):
    # floats, or (N,) arrays for a batch of states
    return (q1, q2, q3, -q3, -q2 - _HALF_PI, 0.0, q3, -q3, 0.0)


def closure_rates(qd):
    """Joint rates (or accelerations) of frames 1..9 for free-coordinate rates."""
    return _closure_rates(*map(float, qd))


def _closure_rates(qd1, qd2, qd3):
    return (qd1, qd2, qd3, -qd3, -qd2, 0.0, qd3, -qd3, 0.0)


def tree_slots(v6):
    """Joint values of frames 1..7 for the six tree coordinates (frame 6: 0.0)."""
    slots = [0.0] * 7
    for r, x in zip(TREE_ROWS, v6):
        slots[r] = float(x)
    return slots


@dataclass(frozen=True)
class MdhJointParams:
    """Placement of one frame relative to its parent; the frame's parent and
    joint kind come from FRAME_PARENTS and FRAME_KINDS."""

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
    """One leg: base placement, bar lengths, link inertias."""

    base: MdhJointParams
    d4: float
    d6: float
    r2: float
    links: tuple

    @property
    def joints(self) -> tuple:
        """Frames 2..9 as MdhJointParams rows; the second bar (frames 7-9)
        has the offsets that close the parallelogram."""
        mk = MdhJointParams
        r2, d4 = self.r2, self.d4
        return (
            mk(alpha=-_HALF_PI, r=r2),
            mk(alpha=-_HALF_PI),
            mk(d=d4),
            mk(alpha=_HALF_PI, r=-r2),
            mk(d=self.d6),
            mk(b=-2.0 * r2, alpha=-_HALF_PI),
            mk(d=d4),
            mk(b=-r2, alpha=-_HALF_PI),
        )


def _frame_row(params: MdhJointParams, parent: int, kind: int) -> tuple:
    """One row of the kernels' frame table (layout in _kernels)."""
    return (
        parent,
        kind,
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
        self.frames = tuple(_frame_row(jp, p - 1, k) for jp, p, k in zip(rows, FRAME_PARENTS, FRAME_KINDS))
        self.inertia = np.array([(li.mass, *li.first_moment, *li.inertia.reshape(9)) for li in chain.links])
        L = _kernels.place(self.frames[0], 0.0)
        self.R_base = np.reshape(L[:9], (3, 3))
        self.anchor = np.array(L[9:])
        self.axis = self.R_base[:, 2].copy()
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
        object.__setattr__(self, "gravity", _gravity_field(self.gravity))
        object.__setattr__(self, "platform_mass", float(self.platform_mass))
        object.__setattr__(self, "chains", tuple(self.chains))
        _require_finite(self)
        packs = tuple(_ChainPack(c) for c in self.chains)
        anchors = np.stack([p.anchor for p in packs])
        anchors.flags.writeable = False
        object.__setattr__(self, "_packs", packs)
        object.__setattr__(self, "anchors", anchors)


# ---------------------------------------------------------------------------
# config parsing


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_vec(v) -> str:
    return ", ".join(_fmt(x) for x in np.asarray(v, dtype=float).reshape(-1))


# config keys of a chain: its base row (each prefixed base_), then its lengths
_BASE_KEYS = ("gamma", "b", "alpha", "d", "theta", "r")
_LENGTH_KEYS = ("d4", "d6", "r2")


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


def load_model(source) -> RobotModel:
    """Build a RobotModel from config text, a path string, or a Path.

    A string containing a newline is treated as config text, anything else
    as a filesystem path. Raises ParseError for malformed input and
    ValidationError for a model that parses but is inconsistent, or whose
    [verify] section names a check that does not exist.
    """
    if isinstance(source, os.PathLike):
        text = os.fspath(source)
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    elif isinstance(source, str):
        if "\n" in source:
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
        base = MdhJointParams(**{k: _get_float(cp, sec, "base_" + k) for k in _BASE_KEYS})
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
        from .verify import CHECK_NAMES  # verify imports this module
        for key in cp.options("verify"):
            if key not in CHECK_NAMES:
                raise ValidationError("[verify]: unknown verification check '%s'" % key)
            overrides[key] = _get_float(cp, "verify", key)

    model = RobotModel(
        chains=tuple(chains),
        gravity=gravity,
        platform_mass=platform_mass,
        verify_overrides=overrides,
    )
    validate_model(model)
    return model


def _gravity_field(gravity) -> np.ndarray:
    """gravity as a read-only 3-vector; ValidationError if it is not finite."""
    g = np.array(gravity, dtype=float).reshape(3)
    if not np.all(np.isfinite(g)):
        raise ValidationError("gravity must be finite")
    g.flags.writeable = False
    return g


def _require_finite(model: RobotModel) -> None:
    if not math.isfinite(model.platform_mass):
        raise ValidationError("platform_mass must be finite")
    for ci, chain in enumerate(model.chains, start=1):
        lengths = [getattr(chain.base, k) for k in _BASE_KEYS] + [getattr(chain, k) for k in _LENGTH_KEYS]
        # and the derived offset b7 = -2*r2, which overflows for a finite r2 past half the largest double
        if not np.all(np.isfinite(lengths + [-2.0 * chain.r2])):
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
    try:
        K = _axes_meeting_point(model)
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


def _axes_meeting_point(model: RobotModel) -> np.ndarray:
    """The point nearest the actuator axes in least squares; LinAlgError if there is none."""
    A = np.zeros((3, 3))
    b = np.zeros(3)
    for pack in model._packs:
        u = pack.axis
        P = np.eye(3) - np.outer(u, u)
        A += P
        b += P @ pack.anchor
    return np.linalg.solve(A, b)


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
    """Copy of the model with a different gravity vector; it shares the
    model's kernel tables, which gravity enters none of."""
    out = copy.copy(model)
    object.__setattr__(out, "gravity", _gravity_field(gravity))
    return out


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
        MdhJointParams(),
        MdhJointParams(gamma=_HALF_PI, b=a, alpha=_HALF_PI, r=-a),
        MdhJointParams(b=a, alpha=-_HALF_PI, theta=-_HALF_PI, r=-a),
    )
    chains = tuple(ChainGeometry(base=b, d4=d4, d6=d6, r2=r2, links=_default_links()) for b in bases)
    return RobotModel(
        chains=chains,
        gravity=np.array([0.0, 0.0, -9.81]),
        platform_mass=1.0,
    )


DEFAULT_CONFIG = dumps_model(_build_default_model())


def default_model() -> RobotModel:
    """The stock symmetric robot (0.2 m frame offset, 0.5 m bars)."""
    return load_model(DEFAULT_CONFIG)
