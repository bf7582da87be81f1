"""Spans around the library's public functions, installed from outside.

Each traced function is replaced by one wrapper in every orthoglide module
namespace that holds it (the defining module, every module that imported
it by name, and the package), so calls between modules and inside one
module both pass through the wrapper and spans nest. Nothing under src/
changes; uninstall() puts the original objects back.

Span names are "<defining module>.<function>". The NE sweep of the
_kernels module is reported as chain_dynamics._kernels.tree_newton_euler,
under the layer that runs it, because a metric name may not start with an
underscore.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

TRACED = {
    "model": ("default_model",),
    "kinematics": (
        "igm",
        "chain_frames",
        "chain_jacobian_inverse",
        "chain_jacobian_dot",
        "robot_jacobian_inverse",
        "ik_velocity",
    ),
    "chain_dynamics": (
        "chain_inertia_A",
        "chain_bias_h",
        "chain_torques_H",
        "tree_newton_euler",
        "chain_kinetic_energy",
    ),
    "_kernels": ("tree_newton_euler",),
    "robot_dynamics": ("direct_dynamics", "inverse_dynamics"),
    "simulate": ("simulate", "write_trajectory_csv", "read_trajectory_csv"),
    "verify": ("run_verification",),
}
_TARGETS = tuple(
    (mod, fn, ("chain_dynamics._kernels" if mod == "_kernels" else mod) + "." + fn)
    for mod, fns in TRACED.items()
    for fn in fns
)
SPAN_NAMES = tuple(name for _, _, name in _TARGETS)
NE_SWEEP = "chain_dynamics._kernels.tree_newton_euler"
DDM = "robot_dynamics.direct_dynamics"


class Tracer:
    """Per-span-name call count, inclusive and self time, plus the number of
    NE sweeps made inside direct_dynamics."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.total_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.sweeps_in_ddm = 0
        self._stack = []  # child time covered so far, one slot per open span
        self._in_ddm = 0
        self._saved = []

    def _wrap(self, name, fn):
        stack = self._stack
        is_ddm = name == DDM
        is_sweep = name == NE_SWEEP

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if is_ddm:
                self._in_ddm += 1
            elif is_sweep and self._in_ddm:
                self.sweeps_in_ddm += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                if is_ddm:
                    self._in_ddm -= 1
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - child

        return span

    def install(self):
        modules = [m for key, m in sys.modules.items() if key == "orthoglide" or key.startswith("orthoglide.")]
        for mod, fn, name in _TARGETS:
            original = getattr(importlib.import_module("orthoglide." + mod), fn)
            span = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, attr, value))
                        setattr(m, attr, span)
        return self

    def uninstall(self):
        for m, attr, value in reversed(self._saved):
            setattr(m, attr, value)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
