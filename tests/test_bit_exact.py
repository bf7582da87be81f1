"""Exact pins on the default model: any change to a float expression, its
evaluation order or the frame tables shows up here as a changed repr."""

import pytest

from orthoglide import (
    chain_frames,
    chain_kinetic_energy,
    direct_dynamics,
    igm,
    ik_velocity,
    inverse_dynamics,
)

# (p, v, vdot, gamma) and the reprs of: inverse_dynamics(p, v, vdot),
# direct_dynamics(p, v, gamma), the three chain kinetic energies at (p, v),
# and the three chains' frame-6 origins at p
PINS = (
    (
        ((0.0, 0.0, 0.6), (0.1, 0.0, 0.0), (0.5, 0.0, 0.0), (160.0, 0.0, 10.0)),
        "[149.62693333333334, 7.011999999999999, 0.10000000000001139]",
        "[-0.20232790908991585, 0.5025853993477382, 0.7093616492692458]",
        "[0.015080000000000003, 0.034999999999999996, 0.015040000000000001]",
        "[[3.6739403974420595e-17, -3.387880961136568e-17, 0.6],"
        " [2.7755575615628914e-17, 3.0814879110195774e-33, 0.5999999999999999],"
        " [-2.6939915707458453e-17, 2.7755575615628914e-17, 0.6]]",
    ),
    (
        ((0.02, -0.03, 0.58), (0.1, 0.05, -0.02), (0.4, -0.3, 0.2), (12.5, -3.0, 7.25)),
        "[155.4522962660359, 1.132097917514355, 4.141602345609477]",
        "[1.9123218055496514, 2.3584247302710613, -7.885863187100775]",
        "[0.020181109336406825, 0.031759658791862204, 0.022103797345045976]",
        "[[0.020000000000000087, -0.030000000000000037, 0.5800000000000001],"
        " [0.019999999999999976, -0.03000000000000003, 0.5799999999999998],"
        " [0.01999999999999997, -0.029999999999999943, 0.58]]",
    ),
    (
        ((-0.05, 0.04, 0.63), (-0.2, 0.15, 0.1), (1.0, -0.5, -2.0), (-4.0, 20.0, 0.5)),
        "[137.83959728749852, 11.844137151095673, -28.480036607140974]",
        "[3.414404218854753, 2.5938079590219614, -6.123180460617667]",
        "[0.1398906315372843, 0.11102458618576587, 0.29454773887687236]",
        "[[-0.04999999999999992, 0.03999999999999996, 0.63],"
        " [-0.04999999999999999, 0.03999999999999998, 0.6299999999999999],"
        " [-0.050000000000000024, 0.040000000000000056, 0.63]]",
    ),
)


def _floats(v):
    return [float(x) for x in v]


@pytest.mark.parametrize("state, idm, ddm, kinetic, origins", PINS)
def test_outputs_are_bit_exact(model, state, idm, ddm, kinetic, origins):
    p, v, vdot, gamma = state
    _, chain_q = igm(model, p)
    _, chain_qd = ik_velocity(model, chain_q, v)
    assert repr(_floats(inverse_dynamics(model, p, v, vdot))) == idm
    assert repr(_floats(direct_dynamics(model, p, v, gamma))) == ddm
    assert repr([chain_kinetic_energy(model, i, chain_q[i], chain_qd[i]) for i in range(3)]) == kinetic
    assert repr([_floats(chain_frames(model, i, chain_q[i])[1][5]) for i in range(3)]) == origins
