import dataclasses
import math

import numpy as np
import pytest

from orthoglide import (
    DEFAULT_CONFIG,
    MdhJointParams,
    ParseError,
    ValidationError,
    default_model,
    dumps_model,
    frame_transform,
    load_model,
    model_with_gravity,
)


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


def test_frame_transform_matches_elementary_product(rng):
    for _ in range(50):
        gamma, b, alpha, d, theta, r = rng.uniform(-2.0, 2.0, 6)
        q = float(rng.uniform(-1.0, 1.0))
        rev = MdhJointParams(2, 1, "revolute", gamma, b, alpha, d, theta, r)
        pri = MdhJointParams(1, 0, "prismatic", gamma, b, alpha, d, theta, r)
        fix = MdhJointParams(6, 5, "fixed", gamma, b, alpha, d, theta, r)
        assert np.allclose(frame_transform(rev, q), _compose(gamma, b, alpha, d, theta + q, r), atol=1e-14)
        assert np.allclose(frame_transform(pri, q), _compose(gamma, b, alpha, d, theta, r + q), atol=1e-14)
        assert np.allclose(frame_transform(fix, 0.0), _compose(gamma, b, alpha, d, theta, r), atol=1e-14)


def test_frame_transform_pinned_base_row():
    # actuator riding along world x: rotate z by 90deg, lift 0.2, tip around x
    row = MdhJointParams(1, 0, "prismatic", gamma=math.pi / 2, b=0.2, alpha=math.pi / 2, r=-0.2)
    T = frame_transform(row, 0.3)
    assert np.allclose(T[:3, 3], [0.1, 0.0, 0.2], atol=1e-15)
    assert np.allclose(T[:3, :3], [[0, 0, 1], [1, 0, 0], [0, 1, 0]], atol=1e-15)


def test_default_model_geometry(model):
    a = 0.2
    assert np.allclose(model.anchors, [[0, 0, 0], [-a, 0, a], [0, -a, a]], atol=1e-15)
    axes = np.stack([p.axis for p in model._packs])
    assert np.allclose(axes, np.eye(3)[[2, 0, 1]], atol=1e-15)
    for chain in model.chains:
        assert chain.d4 == 0.5 and chain.d6 == 0.1 and chain.r2 == 0.05
        assert chain.b7 == -0.1 and chain.b9 == -0.05 and chain.r5 == -0.05 and chain.d8 == 0.5
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
        assert c1.d4 == c2.d4 and c1.r2 == c2.r2 and c1.b7 == c2.b7
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


def test_rail_offset_identities_enforced():
    bad = DEFAULT_CONFIG.replace("b7 = -0.1", "b7 = -0.1000001")
    with pytest.raises(ValidationError):
        load_model(bad)
    bad = DEFAULT_CONFIG.replace("r5 = -0.05", "r5 = 0.05")
    with pytest.raises(ValidationError):
        load_model(bad)
    bad = DEFAULT_CONFIG.replace("d8 = 0.5", "d8 = 0.51")
    with pytest.raises(ValidationError):
        load_model(bad)


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


def test_default_model_builds_fresh_instances():
    assert default_model() is not default_model()


@pytest.mark.parametrize(
    "old, new",
    [
        ("platform_mass = 1.0", "platform_mass = inf"),
        ("base_d = 0.0", "base_d = nan"),
        ("base_gamma = 0.0", "base_gamma = inf"),
        ("d6 = 0.1", "d6 = nan"),
        ("r2 = 0.05\nb7 = -0.1\nb9 = -0.05\nr5 = -0.05", "r2 = inf\nb7 = -inf\nb9 = -inf\nr5 = -inf"),
        ("[chain1.link1]\nmass = 1.0", "[chain1.link1]\nmass = nan"),
        ("ms = 0.0, 0.025, 0.0", "ms = 0.0, inf, 0.0"),
        ("inertia = 0.001, 0.0, 0.0", "inertia = 0.001, nan, 0.0"),
    ],
)
def test_non_finite_values_rejected(old, new):
    assert old in DEFAULT_CONFIG
    with pytest.raises(ValidationError):
        load_model(DEFAULT_CONFIG.replace(old, new, 1))
