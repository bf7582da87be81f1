import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoglide import (
    DEFAULT_CONFIG,
    MdhJointParams,
    ParseError,
    ValidationError,
    default_model,
    dumps_model,
    load_model,
    model_with_gravity,
)
from orthoglide._kernels import FIXED, PRISMATIC, REVOLUTE, place
from orthoglide.model import FRAME_KINDS, _frame_row


def _rot_z(a):
    c, s = math.cos(a), math.sin(a)
    T = np.eye(4)
    T[:2, :2] = [[c, -s], [s, c]]
    return T


def _rot_x(a):
    c, s = math.cos(a), math.sin(a)
    T = np.eye(4)
    T[1:3, 1:3] = [[c, -s], [s, c]]
    return T


def _trans(x, y, z):
    T = np.eye(4)
    T[:3, 3] = (x, y, z)
    return T


def _compose(gamma, b, alpha, d, theta, r):
    return _rot_z(gamma) @ _trans(0, 0, b) @ _rot_x(alpha) @ _trans(d, 0, 0) @ _rot_z(theta) @ _trans(0, 0, r)


def _frame_transform(params, kind, q):
    """Homogeneous transform parent<-frame of one placement row at joint value q."""
    L = place(_frame_row(params, -1, kind), q)
    T = np.eye(4)
    T[:3, :3] = np.reshape(L[:9], (3, 3))
    T[:3, 3] = L[9:]
    return T


def test_frame_transform_matches_elementary_product(rng):
    for _ in range(50):
        gamma, b, alpha, d, theta, r = rng.uniform(-2.0, 2.0, 6)
        q = float(rng.uniform(-1.0, 1.0))
        row = MdhJointParams(gamma, b, alpha, d, theta, r)
        assert np.allclose(_frame_transform(row, REVOLUTE, q), _compose(gamma, b, alpha, d, theta + q, r), atol=1e-14)
        assert np.allclose(_frame_transform(row, PRISMATIC, q), _compose(gamma, b, alpha, d, theta, r + q), atol=1e-14)
        assert np.allclose(_frame_transform(row, FIXED, q), _compose(gamma, b, alpha, d, theta, r), atol=1e-14)


def test_frame_transform_pinned_base_row():
    # actuator riding along world x: rotate z by 90deg, lift 0.2, tip around x
    row = MdhJointParams(gamma=math.pi / 2, b=0.2, alpha=math.pi / 2, r=-0.2)
    T = _frame_transform(row, PRISMATIC, 0.3)
    assert np.allclose(T[:3, 3], [0.1, 0.0, 0.2], atol=1e-15)
    assert np.allclose(T[:3, :3], [[0, 0, 1], [1, 0, 0], [0, 1, 0]], atol=1e-15)


def test_default_model_geometry(model):
    a = 0.2
    assert np.allclose(model.anchors, [[0, 0, 0], [-a, 0, a], [0, -a, a]], atol=1e-15)
    axes = np.stack([p.axis for p in model._packs])
    assert np.allclose(axes, np.eye(3)[[2, 0, 1]], atol=1e-15)
    for chain in model.chains:
        assert chain.d4 == 0.5 and chain.d6 == 0.1 and chain.r2 == 0.05
        # the offsets b7, b9, r5 and d8 that close the parallelogram
        j = chain.joints
        assert (j[5].b, j[7].b, j[3].r, j[6].d) == (-0.1, -0.05, -0.05, 0.5)
    assert model.platform_mass == 1.0
    assert np.array_equal(model.gravity, [0.0, 0.0, -9.81])


def test_config_round_trip_is_bit_exact():
    m1 = load_model(DEFAULT_CONFIG)
    text = dumps_model(m1)
    m2 = load_model(text)
    assert dumps_model(m2) == text
    assert np.array_equal(m1.gravity, m2.gravity)
    for c1, c2 in zip(m1.chains, m2.chains):
        assert c1.base == c2.base
        assert c1.d4 == c2.d4 and c1.d6 == c2.d6 and c1.r2 == c2.r2
        for l1, l2 in zip(c1.links, c2.links):
            assert l1.mass == l2.mass
            assert np.array_equal(l1.first_moment, l2.first_moment)
            assert np.array_equal(l1.inertia, l2.inertia)


def test_load_model_from_path(tmp_path):
    path = tmp_path / "robot.ini"
    path.write_text(DEFAULT_CONFIG)
    m = load_model(path)
    assert m.chains[0].d4 == 0.5
    m2 = load_model(str(path))
    assert m2.chains[2].d4 == 0.5
    # only a newline marks config text; brackets may appear in a file name
    path = tmp_path / "m[1].ini"
    path.write_text(DEFAULT_CONFIG)
    assert dumps_model(load_model(str(path))) == DEFAULT_CONFIG


def test_load_model_missing_file():
    with pytest.raises(ParseError):
        load_model("no_such_model_file.ini")


def test_parse_errors():
    with pytest.raises(ParseError):
        load_model("[robot]\ngravity = 0,0\nplatform_mass = 1\n")
    with pytest.raises(ParseError):
        load_model("[robot]\nplatform_mass = 1\n")  # no gravity
    with pytest.raises(ParseError):
        load_model(DEFAULT_CONFIG.replace("platform_mass = 1.0", "platform_mass = turnip"))
    with pytest.raises(ParseError):
        load_model(DEFAULT_CONFIG.replace("[chain2]", "[chain2"))
    with pytest.raises(ParseError):
        load_model(DEFAULT_CONFIG.replace("[chain3.link7]", "[chain3.link8]"))


def _pack_bytes(m):
    """The raw bytes of every kernel table of a model (repr keeps each float's bits)."""
    return [
        (repr(p.frames), p.inertia.tobytes(), p.R_base.tobytes(), p.anchor.tobytes(), p.axis.tobytes(), repr((p.d4, p.d6)))
        for p in m._packs
    ]


def test_config_with_the_old_offset_keys_loads_the_same_tables():
    # files written before the offsets were derived also carry b7, b9, r5 and d8
    old = DEFAULT_CONFIG.replace("r2 = 0.05\n", "r2 = 0.05\nb7 = -0.1\nb9 = -0.05\nr5 = -0.05\nd8 = 0.5\n")
    assert hashlib.sha256(old.encode()).hexdigest() == "9c48ae6f968c802505a831499dc03a8dfdd5c136dd8fa38d3b09529982d5d25a"
    assert _pack_bytes(load_model(old)) == _pack_bytes(default_model())


@pytest.mark.parametrize("kind", ("revolute", "fixed", "spherical"))
def test_base_must_be_a_prismatic_slider(model, kind):
    # a placement row carries no kind, so no base can be given another one:
    # every chain's frame 1 is the slider the kernels drive
    assert [f.name for f in dataclasses.fields(MdhJointParams)] == ["gamma", "b", "alpha", "d", "theta", "r"]
    with pytest.raises(TypeError):
        dataclasses.replace(model.chains[1].base, kind=kind)
    with pytest.raises(TypeError):
        MdhJointParams(kind=kind)
    assert FRAME_KINDS[0] == PRISMATIC
    for pack in model._packs:
        assert tuple(row[1] for row in pack.frames) == FRAME_KINDS
        # the base joint value slides frame 1 along the rail axis, without turning it
        L = place(pack.frames[0], 0.3)
        assert np.allclose(np.reshape(L[:9], (3, 3)), pack.R_base, atol=1e-15)
        assert np.allclose(L[9:], pack.anchor + 0.3 * pack.axis, atol=1e-15)


def test_inertia_validation():
    bad = DEFAULT_CONFIG.replace(
        "inertia = 0.001, 0.0, 0.0, 0.0, 0.001, 0.0, 0.0, 0.0, 0.001",
        "inertia = 0.001, 0.001, 0.0, 0.0, 0.001, 0.0, 0.0, 0.0, 0.001",
        1,
    )
    with pytest.raises(ValidationError):
        load_model(bad)
    bad = DEFAULT_CONFIG.replace(
        "inertia = 0.001, 0.0, 0.0, 0.0, 0.001, 0.0, 0.0, 0.0, 0.001",
        "inertia = -0.001, 0.0, 0.0, 0.0, 0.001, 0.0, 0.0, 0.0, 0.001",
        1,
    )
    with pytest.raises(ValidationError):
        load_model(bad)
    bad = DEFAULT_CONFIG.replace("mass = 1.0", "mass = -1.0", 1)
    with pytest.raises(ValidationError):
        load_model(bad)


def test_robot_section_validation():
    with pytest.raises(ValidationError):
        load_model(DEFAULT_CONFIG.replace("platform_mass = 1.0", "platform_mass = 0.0"))
    with pytest.raises(ValidationError):
        load_model(DEFAULT_CONFIG.replace("gravity = 0.0, 0.0, -9.81", "gravity = 0.0, nan, -9.81"))


def test_axis_concurrency_enforced():
    # lifting chain2's rail breaks the common intersection point
    bad = DEFAULT_CONFIG.replace("base_b = 0.2\nbase_alpha = 1.5707963267948966", "base_b = 0.25\nbase_alpha = 1.5707963267948966")
    with pytest.raises(ValidationError):
        load_model(bad)


def test_chain1_anchor_at_origin_enforced():
    first_chain1 = DEFAULT_CONFIG.index("[chain1]")
    cut = DEFAULT_CONFIG.index("[chain1.link1]")
    block = DEFAULT_CONFIG[first_chain1:cut].replace("base_b = 0.0", "base_b = 0.01")
    bad = DEFAULT_CONFIG[:first_chain1] + block + DEFAULT_CONFIG[cut:]
    with pytest.raises(ValidationError):
        load_model(bad)


def test_verify_section_round_trips():
    text = DEFAULT_CONFIG + "\n[verify]\nlagrangian_match = 0.002\n"
    m = load_model(text)
    assert m.verify_overrides == {"lagrangian_match": 0.002}
    assert "lagrangian_match = 0.002" in dumps_model(m)


def test_model_arrays_are_read_only(model):
    with pytest.raises(ValueError):
        model.gravity[0] = 1.0
    with pytest.raises(ValueError):
        model.anchors[0, 0] = 1.0
    with pytest.raises(ValueError):
        model.chains[0].links[0].inertia[0, 0] = 5.0


def test_model_is_frozen(model):
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.platform_mass = 2.0


def test_model_with_gravity(model):
    m2 = model_with_gravity(model, (0, 0, -1.0))
    assert np.array_equal(m2.gravity, [0, 0, -1.0])
    assert np.array_equal(model.gravity, [0, 0, -9.81])
    assert m2.chains is not None and m2.platform_mass == model.platform_mass
    # gravity enters no kernel table, so the copy shares the model's
    assert m2._packs is model._packs and m2.anchors is model.anchors
    with pytest.raises(ValueError):
        m2.gravity[0] = 1.0
    for bad in ((0.0, math.nan, 0.0), (math.inf, 0.0, 0.0)):
        with pytest.raises(ValidationError, match="gravity must be finite"):
            model_with_gravity(model, bad)


def test_default_model_builds_fresh_instances():
    assert default_model() is not default_model()


@pytest.mark.parametrize(
    "old, new",
    [
        ("platform_mass = 1.0", "platform_mass = inf"),
        ("base_d = 0.0", "base_d = nan"),
        ("base_gamma = 0.0", "base_gamma = inf"),
        ("d6 = 0.1", "d6 = nan"),
        ("r2 = 0.05", "r2 = inf"),
        ("r2 = 0.05", "r2 = 1e308"),  # finite, but the derived offset -2*r2 is not
        ("[chain1.link1]\nmass = 1.0", "[chain1.link1]\nmass = nan"),
        ("ms = 0.0, 0.025, 0.0", "ms = 0.0, inf, 0.0"),
        ("inertia = 0.001, 0.0, 0.0", "inertia = 0.001, nan, 0.0"),
    ],
)
def test_non_finite_values_rejected(old, new):
    assert old in DEFAULT_CONFIG
    with pytest.raises(ValidationError):
        load_model(DEFAULT_CONFIG.replace(old, new, 1))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_MODEST = st.floats(-1e300, 1e300)


def _all_floats(m):
    """Every float of a model, in a fixed order."""
    values = [*m.gravity, m.platform_mass]
    for chain in m.chains:
        values += [getattr(chain.base, k) for k in ("gamma", "b", "alpha", "d", "theta", "r")]
        values += [chain.d4, chain.d6, chain.r2]
        for link in chain.links:
            values += [link.mass, *link.first_moment, *link.inertia.ravel()]
    return np.array(values, dtype=float)


@st.composite
def _valid_models(draw):
    """The default model with random finite values wherever validation allows
    any: gravity, platform mass, each chain's base theta, d4, d6 and r2, and
    each link's mass, first moment and diagonal inertia."""
    m = default_model()
    chains = []
    for chain in m.chains:
        d4, r2 = draw(_POSITIVE), draw(_MODEST)
        links = tuple(
            dataclasses.replace(
                link,
                mass=draw(_POSITIVE),
                first_moment=draw(st.tuples(_FINITE, _FINITE, _FINITE)),
                inertia=np.diag(draw(st.tuples(*[st.floats(0.0, 1e300)] * 3))),
            )
            for link in chain.links
        )
        base = dataclasses.replace(chain.base, theta=draw(_FINITE))
        chains.append(dataclasses.replace(
            chain, base=base, d4=d4, d6=draw(st.floats(0.0, 1e300)), r2=r2, links=links
        ))
    gravity = draw(st.tuples(_FINITE, _FINITE, _FINITE))
    return dataclasses.replace(m, chains=tuple(chains), gravity=gravity, platform_mass=draw(_POSITIVE))


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(_valid_models())
def test_config_round_trip_is_bit_exact_property(m):
    text = dumps_model(m)
    m2 = load_model(text)
    assert dumps_model(m2) == text
    assert _all_floats(m2).tobytes() == _all_floats(m).tobytes()


# (line, component) of every number in the default config
_FIELDS = tuple(
    (k, c)
    for k, line in enumerate(DEFAULT_CONFIG.splitlines())
    if " = " in line
    for c in range(len(line.split(" = ")[1].split(", ")))
)


@pytest.mark.parametrize("bad", ("nan", "-inf"))
def test_every_non_finite_field_is_a_validation_error(bad):
    # every field, not a sample: the 304 numbers load in under a second
    lines = DEFAULT_CONFIG.splitlines()
    for k, c in _FIELDS:
        key, values = lines[k].split(" = ")
        values = values.split(", ")
        values[c] = bad
        text = "\n".join(lines[:k] + ["%s = %s" % (key, ", ".join(values))] + lines[k + 1 :])
        with pytest.raises(ValidationError):
            load_model(text)
