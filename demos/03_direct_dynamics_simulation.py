"""
Direct dynamics and simulation
==============================

Closes the loop: inverse dynamics plans the force for a smooth pick
motion, the integrator replays it open loop, and the recorded trajectory
is written out in both file formats. Ends with a free-fall run that
stops itself at the workspace boundary.
"""

import numpy as np

from orthoglide import (
    SimConfig,
    default_model,
    direct_dynamics,
    feedforward_torque,
    inverse_dynamics,
    quintic_path,
    simulate,
    write_trajectory_csv,
    write_trajectory_json,
)

model = default_model()

# direct dynamics inverts inverse dynamics state by state
P = np.array([0.02, 0.01, 0.57])
V = np.array([-0.03, 0.06, 0.02])
A = np.array([0.40, 0.10, -0.70])
Gamma = inverse_dynamics(model, P, V, A)
A_back = direct_dynamics(model, P, V, Gamma)
print("round trip |Vdot - ddm(idm(Vdot))| = %.3e" % np.abs(A_back - A).max())

# plan a rest-to-rest move and drive it with feedforward forces only
start = np.array([0.0, 0.0, 0.6])
goal = np.array([0.06, -0.05, 0.66])
path = quintic_path(start, goal, 0.4, model=model)
torque = feedforward_torque(model, path)

res = simulate(model, start, np.zeros(3), torque_fn=torque,
               config=SimConfig(dt=1e-4, t_end=0.4, record_every=100))
end = res.samples[-1]
print("feedforward tracking: reached %s, miss %.3e m"
      % (np.round(end.P, 6), np.abs(end.P - goal).max()))

write_trajectory_csv(res.samples, "pick_move.csv")
write_trajectory_json(res.samples, "pick_move.json")
print("wrote pick_move.csv and pick_move.json (%d samples)" % len(res.samples))

# energy bookkeeping along the way: the actuators inject positive work
# on the way out of the gravity well (the samples are stored as columns)
traj = res.samples
power = (traj.Gamma * traj.Ldot).sum(axis=1)
print("peak actuator power %.4f W at t=%.3f s" % (power.max(), traj.t[power.argmax()]))

# with no torque at all the platform falls until a chain folds; the run
# reports why it stopped instead of raising
free = simulate(model, start, np.zeros(3),
                config=SimConfig(dt=1e-3, t_end=2.0, record_every=10))
print("\nfree fall completed: %s" % free.completed)
print("stop reason: %s" % free.stop_reason)
print("last valid state at t=%.3f s, z=%.4f m"
      % (free.samples[-1].t, free.samples[-1].P[2]))
