"""Command line front end.

Subcommands: ik, idm, ddm, simulate, verify. Every subcommand takes
--model, either the literal word "default" or a path to a config file.
Exit codes: 0 on success, 1 on a domain or file error (reported on stderr
as ERROR:<kind>: message), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import OrthoglideError, ParseError, ValidationError
from .kinematics import igm
from .model import default_model, load_model
from .robot_dynamics import direct_dynamics, inverse_dynamics
from .simulate import (
    SimConfig,
    format_trajectory_csv,
    format_trajectory_json,
    simulate,
    torque_from_table,
)
from .verify import format_report_table, run_verification


def _vec3(text):
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected 3 comma separated numbers, got '%s'" % text)
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise argparse.ArgumentTypeError("cannot parse '%s' as numbers" % text) from None


def _get_model(args):
    if args.model == "default":
        return default_model()
    return load_model(args.model)


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _fmt_vec(v):
    return " ".join(repr(float(x)) for x in v)


def _cmd_ik(args):
    model = _get_model(args)
    L, chain_q = igm(model, args.point)
    if args.format == "json":
        payload = {"L": [float(x) for x in L], "chain_q": [[float(x) for x in row] for row in chain_q]}
        _emit(json.dumps(payload, indent=1), args.out)
    else:
        lines = ["L: %s" % _fmt_vec(L)]
        for i in range(3):
            lines.append("chain%d: %s" % (i + 1, _fmt_vec(chain_q[i])))
        _emit("\n".join(lines), args.out)
    return 0


def _cmd_idm(args):
    model = _get_model(args)
    gamma = inverse_dynamics(model, args.point, args.vel, args.acc)
    if args.format == "json":
        _emit(json.dumps({"Gamma": [float(x) for x in gamma]}, indent=1), args.out)
    else:
        _emit("Gamma: %s" % _fmt_vec(gamma), args.out)
    return 0


def _cmd_ddm(args):
    model = _get_model(args)
    acc = direct_dynamics(model, args.point, args.vel, args.torque)
    if args.format == "json":
        _emit(json.dumps({"Vdot": [float(x) for x in acc]}, indent=1), args.out)
    else:
        _emit("Vdot: %s" % _fmt_vec(acc), args.out)
    return 0


def _read_torque_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0].replace(" ", "") != "t,G1,G2,G3":
        raise ValidationError("torque file must start with header t,G1,G2,G3")
    rows = []
    for ln in lines[1:]:
        try:
            vals = [float(x) for x in ln.split(",")]
        except ValueError:
            raise ParseError("torque file: non-numeric cell in '%s'" % ln) from None
        if len(vals) != 4:
            raise ValidationError("torque file rows need 4 columns")
        rows.append(vals)
    arr = np.array(rows)
    return torque_from_table(arr[:, 0], arr[:, 1:4])


def _cmd_simulate(args):
    model = _get_model(args)
    if args.torque is not None and args.torque_file:
        raise ValidationError("give either --torque or --torque-file, not both")
    if args.torque_file:
        torque_fn = _read_torque_file(args.torque_file)
    elif args.torque is not None:
        hold = np.asarray(args.torque, dtype=float)
        torque_fn = lambda t: hold  # noqa: E731
    else:
        torque_fn = None
    cfg = SimConfig(dt=args.dt, t_end=args.t_end, integrator=args.integrator,
                    record_every=args.record_every)
    res = simulate(model, args.point, args.vel, torque_fn, cfg)
    fmt = format_trajectory_json if args.format == "json" else format_trajectory_csv
    _emit(fmt(res.samples), args.out)
    if not res.completed:
        print("note: stopped early (%s), %d samples recorded" % (res.stop_reason, len(res.samples)),
              file=sys.stderr)
    return 0


def _cmd_verify(args):
    model = _get_model(args)
    checks = None
    if args.checks:
        checks = [c for c in args.checks.replace(",", " ").split() if c]
    reports = run_verification(model, seed=args.seed, n_samples=args.samples, checks=checks)
    print(format_report_table(reports))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump([r.as_dict() for r in reports], fh, indent=1)
            fh.write("\n")
    failed = [r for r in reports if not r.passed]
    if failed:
        print("ERROR:VerificationFailure: %d of %d checks failed" % (len(failed), len(reports)),
              file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orthoglide",
                                     description="parallel robot kinematics and dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", default="default",
                       help="'default' or path to a model config (default: default)")
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("ik", help="inverse geometry for one platform point")
    common(p)
    p.add_argument("--point", type=_vec3, required=True, help="platform point X,Y,Z")
    p.set_defaults(func=_cmd_ik)

    p = sub.add_parser("idm", help="actuator forces for a platform motion state")
    common(p)
    p.add_argument("--point", type=_vec3, required=True)
    p.add_argument("--vel", type=_vec3, default=np.zeros(3))
    p.add_argument("--acc", type=_vec3, default=np.zeros(3))
    p.set_defaults(func=_cmd_idm)

    p = sub.add_parser("ddm", help="platform acceleration for actuator forces")
    common(p)
    p.add_argument("--point", type=_vec3, required=True)
    p.add_argument("--vel", type=_vec3, default=np.zeros(3))
    p.add_argument("--torque", type=_vec3, default=np.zeros(3))
    p.set_defaults(func=_cmd_ddm)

    p = sub.add_parser("simulate", help="integrate the free or driven dynamics")
    p.add_argument("--model", default="default")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--point", type=_vec3, required=True, help="initial platform point")
    p.add_argument("--vel", type=_vec3, default=np.zeros(3), help="initial platform velocity")
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--integrator", choices=("rk4", "euler"), default="rk4")
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--torque", type=_vec3, default=None, help="constant actuator force G1,G2,G3")
    p.add_argument("--torque-file", default=None, help="CSV t,G1,G2,G3 held piecewise constant")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the oracle check battery")
    p.add_argument("--model", default="default")
    p.add_argument("--out", default=None, help="also write a JSON report here")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--checks", default=None, help="comma separated subset of check names")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    try:
        return args.func(args)
    except (OrthoglideError, OSError) as exc:
        print("ERROR:%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
