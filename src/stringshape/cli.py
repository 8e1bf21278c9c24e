"""stringshape command-line tool.

Subcommands cover forward kinematics (shape), measurement synthesis (lengths),
reconstruction (solve), the planar anchor-placement studies (planar-study,
sensitivity-map), the discrete routing search (routing-opt), and the synthetic
spatial validation study (spatial-study).  All numeric output is CSV with
unit-bearing headers; summaries are JSON.

Exit codes: 0 ok, 2 config/schema error, 3 inadmissible configuration,
4 solver failure, 64 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import studies
from .configio import (SchemaError, load_robot, read_csv_matrix,
                       rotation_to_quaternion, write_csv)
from .optimizer import brute_force_search
from .rodsim import RodSpec, ShootingError, convergence_study, error_metrics, synthetic_spatial_truth
from .sensing import (NotRealizableError, Reference, SingularDesignError, SolverError,
                      forward_kinematics, lengths, solve_shape)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INADMISSIBLE = 3
EXIT_SOLVER = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _at_least(low):
    """argparse type for integers >= low: 1 for counts, 0 for seeds."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            kind = "positive" if low > 0 else "non-negative"
            raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
        return value
    return parse


def _positive_float(text):
    """argparse type for positive finite floats, such as a modulus."""
    try:
        value = float(text)
    except ValueError:
        value = -1.0
    if not 0.0 < value < np.inf:   # NaN fails it too
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _number_list(kind):
    """argparse type for comma-separated numbers of one kind."""
    def parse(text):
        try:
            return [kind(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {kind.__name__} "
                                             f"values, got {text!r}") from None
    return parse


POSE_HEADER = ["sample", "s_m", "x_m", "y_m", "z_m", "q_w", "q_x", "q_y", "q_z"]
# Coefficient rows per stacked call of shape (forward_kinematics) and of
# lengths: a stack's Magnus arrays grow with its rows (about 50 kB per row at
# 100 steps), and so do its string integrals (about 20 kB per row on the soft
# robot), so a table goes through in blocks of this many.  shape writes each
# block before the next.  On the stiff robot, blocks of 64 rows write 250- and
# 10,000-row pose tables as fast as blocks of 256, with 7 and 12 MB less peak
# memory.
SHAPE_BLOCK = 64


def _pose_rows(robot, coeffs, s_values):
    """CSV rows of the poses at s_values of every coefficient row, one
    forward_kinematics call per block of SHAPE_BLOCK rows, generated lazily."""
    for k0 in range(0, len(coeffs), SHAPE_BLOCK):
        poses = forward_kinematics(robot.basis, coeffs[k0:k0 + SHAPE_BLOCK], s_values,
                                   n_steps=robot.n_steps)
        for k, row_poses in enumerate(poses, k0):
            for s, pose in zip(s_values, row_poses):
                quat = rotation_to_quaternion(pose[:3, :3])
                yield [k, float(s), *map(float, pose[:3, 3]), *map(float, quat)]


def cmd_shape(args):
    robot = load_robot(args.robot)
    _, coeffs = read_csv_matrix(args.coefficients, expected_cols=robot.basis.m)
    if args.s_values:
        s_values = np.array(args.s_values)
        if not np.all((s_values >= 0) & (s_values <= robot.length)):
            args.error(f"--s-values must lie in [0, {robot.length}] m")
    else:
        s_values = np.linspace(0.0, robot.length, args.n_points)
    if robot.constraints is not None:
        strings = robot.array.strings if robot.realizability else ()
        bad = np.flatnonzero(~robot.constraints.admissible(robot.basis, coeffs, strings))
        if len(bad):
            print(f"configuration row {bad[0]} violates the constraint set", file=sys.stderr)
            return EXIT_INADMISSIBLE
    write_csv(args.output, POSE_HEADER, _pose_rows(robot, coeffs, s_values))
    print(f"wrote {len(coeffs) * len(s_values)} poses to {args.output}")
    return EXIT_OK


def cmd_lengths(args):
    robot = load_robot(args.robot)
    _, coeffs = read_csv_matrix(args.coefficients, expected_cols=robot.basis.m)
    rows = []
    for k0 in range(0, len(coeffs), SHAPE_BLOCK):
        try:
            rows += lengths(robot.array, robot.basis, coeffs[k0:k0 + SHAPE_BLOCK],
                            robot.reference).tolist()
        except NotRealizableError as err:
            print(f"configuration row {k0 + err.row}: {err}", file=sys.stderr)
            return EXIT_INADMISSIBLE
    header = [f"ell_{i}_m" for i in range(robot.array.p)]
    write_csv(args.output, header, rows)
    print(f"wrote {len(rows)} measurement rows to {args.output}")
    return EXIT_OK


def cmd_solve(args):
    robot = load_robot(args.robot)
    header, meas = read_csv_matrix(args.measurements)
    if meas.shape[1] == robot.array.p + 1 and header and header[0] == "sample":
        meas = meas[:, 1:]
    elif meas.shape[1] != robot.array.p:
        raise SchemaError(f"{args.measurements}: expected {robot.array.p} "
                          f"measurement columns, found {meas.shape[1]}")
    rows = []
    diagnostics = []
    initial = None
    for k, ell in enumerate(meas):
        try:
            sol = solve_shape(robot.array, robot.basis, ell, robot.reference,
                              initial=initial if args.warm_start else None)
        except (SingularDesignError, SolverError, ValueError) as err:
            payload = {"row": k, "error": str(err),
                       "kind": type(err).__name__}
            with open(args.diagnostics, "w") as fh:
                json.dump({"status": "failed", "detail": payload}, fh, indent=2)
            print(f"row {k}: {err}", file=sys.stderr)
            return EXIT_SOLVER
        if args.warm_start:
            initial = sol.c
        rows.append([k, *map(float, sol.c)])
        diagnostics.append({"row": k, "iterations": sol.iterations,
                            "residual_norm": sol.residual_norm,
                            "aleph_config": sol.aleph_config,
                            "linear_class": sol.linear,
                            "status": sol.status})
    header = ["sample"] + [f"c_{i}_per_m" for i in range(robot.basis.m)]
    write_csv(args.output, header, rows)
    with open(args.diagnostics, "w") as fh:
        json.dump({"status": "ok", "rows": diagnostics}, fh, indent=2)
    print(f"wrote {len(rows)} coefficient rows to {args.output}; "
          f"diagnostics in {args.diagnostics}")
    return EXIT_OK


def cmd_planar_study(args):
    if args.table1:
        rows = studies.planar_config_study()
        header = ["r_1_over_L", "r_2_over_L", "anchor_1_over_L", "anchor_2_over_L",
                  "aleph_config", "beta_percent"]
        out = args.output or "planar_config_study.csv"
        write_csv(out, header,
                  [[r.r_1, r.r_2, r.anchor_1, r.anchor_2, r.value, r.beta] for r in rows])
        print(f"wrote {len(rows)} peak rows to {out}")
    if args.table2:
        rows = studies.planar_full_study(n_samples=args.samples, seed=args.seed)
        header = ["r_1_over_L", "r_2_over_L", "anchor_1_over_L", "anchor_2_over_L",
                  "aleph_full_tip", "beta_percent"]
        out = args.output_full or "planar_full_study.csv"
        write_csv(out, header,
                  [[r.r_1, r.r_2, r.anchor_1, r.anchor_2, r.value, r.beta] for r in rows])
        print(f"wrote {len(rows)} peak rows to {out}")
    if args.convergence:
        rod = RodSpec(length=0.3, diameter=0.004, elastic_modulus=args.modulus)
        try:
            stats, cases = convergence_study(rod)
        except ShootingError as err:
            print(str(err), file=sys.stderr)
            return EXIT_SOLVER
        out = args.output_convergence or "planar_convergence.csv"
        p_list = sorted(stats)
        header = ["f_x_N", "m_y_Nm"] + [f"e_p_{p}_percent" for p in p_list] \
            + [f"e_rot_{p}_rad" for p in p_list]
        write_csv(out, header,
                  [[c["f_x"], c["m_y"]] + [c[f"e_p_{p}"] for p in p_list]
                   + [c[f"e_rot_{p}"] for p in p_list] for c in cases])
        summary = {str(p): stats[p] for p in p_list}
        with open(os.path.splitext(out)[0] + "_summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
        for p in p_list:
            print(f"strings={p}: mean e_p = {stats[p]['mean_e_p']:.4f} % "
                  f"max e_p = {stats[p]['max_e_p']:.4f} %")
    if not (args.table1 or args.table2 or args.convergence):
        print("nothing to do: pass --table1, --table2, and/or --convergence",
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def cmd_sensitivity_map(args):
    (axis_c, grid_c), (axis_f, grid_f) = studies.planar_landscape_grids(
        args.r1, args.r2, n_samples=args.samples, seed=args.seed)
    rows = [[a1, a2, grid_c[i, j]]
            for i, a1 in enumerate(axis_c) for j, a2 in enumerate(axis_c)]
    write_csv(args.output_config, ["anchor_1_over_L", "anchor_2_over_L", "aleph_config"], rows)
    rows = [[a1, a2, grid_f[i, j]]
            for i, a1 in enumerate(axis_f) for j, a2 in enumerate(axis_f)]
    write_csv(args.output_full, ["anchor_1_over_L", "anchor_2_over_L", "aleph_full_tip"], rows)
    print(f"wrote {len(axis_c)}x{len(axis_c)} config-index grid to {args.output_config}")
    print(f"wrote {len(axis_f)}x{len(axis_f)} full-index grid to {args.output_full}")
    return EXIT_OK


def cmd_routing_opt(args):
    if args.preset == "stiff":
        space = studies.stiff_design_space()
        samples = studies.stiff_workspace(args.samples, args.seed)
    else:
        space = studies.soft_design_space()
        samples = studies.soft_workspace(args.samples, args.seed)
    result = brute_force_search(space, samples, jobs=args.jobs)
    # screens by rule: the straight configuration first, then the workspace mean
    n_singular = int(result.singular.sum())
    n_straight = int((result.aleph_config < space.epsilon).sum())
    print(f"{space.size} designs, {result.n_scored} scored, one per mirror orbit "
          f"({n_singular} singular: {n_straight} at the straight configuration, "
          f"{n_singular - n_straight} by the workspace mean)")
    header = (["design", *(f"anchor_disk_{i+1}" for i in range(result.anchors.shape[1])),
               "n_omega", "aleph_config_straight"]
              + [f"aleph_g_at_{s:.4f}_m" for s in result.s_objectives] + ["singular"])
    rows = []
    for rank, idx in enumerate(result.order):
        rows.append([int(idx), *map(int, result.anchors[idx]), float(result.n_omega[idx]),
                     float(result.aleph_config[idx]),
                     *map(float, result.aleph_g[idx]), int(result.singular[idx])])
    write_csv(args.output, header, rows)
    best = result.best()
    top = {
        "design_index": int(best),
        "anchor_disks": [int(v) for v in result.anchors[best]],
        "n_omega": float(result.n_omega[best]),
        "aleph_config_straight": float(result.aleph_config[best]),
        "aleph_g": {f"{s:.4f}": float(v)
                    for s, v in zip(result.s_objectives, result.aleph_g[best])},
        "characteristic_length": space.c_l,
        "singular": bool(result.singular[best]),
        "n_designs": int(space.size),
        "n_scored": int(result.n_scored),
        "n_singular": n_singular,
        "n_singular_straight": n_straight,
        "n_singular_workspace": n_singular - n_straight,
        "seed": args.seed,
        "workspace_samples": args.samples,
        "sampler_attempts": samples.attempts,
        "sampler_acceptance": len(samples) / samples.attempts,
    }
    with open(args.output_top, "w") as fh:
        json.dump(top, fh, indent=2)
    print(f"ranked designs in {args.output}; top design in {args.output_top}")
    return EXIT_OK


def cmd_spatial_study(args):
    space = studies.soft_design_space()
    basis = studies.soft_basis()
    truth_basis = type(basis)(x=(0, 1, 2, 3), y=(0, 1, 2, 3), z=(0, 1, 2),
                              length=basis.length)
    anchors = args.anchors or [4, 3, 9, 4]
    if len(anchors) != len(space.designed) or not set(anchors) <= set(space.anchor_disks):
        args.error(f"--anchors needs {len(space.designed)} disks from "
                   f"{min(space.anchor_disks)} to {max(space.anchor_disks)}")
    array = space.array_for(anchors, args.n_omega)
    cases = synthetic_spatial_truth(truth_basis, array, studies.soft_constraints(),
                                    args.cases, args.seed)
    solved, fails = [], 0
    for k, (c_true, ell) in enumerate(cases):
        try:
            sol = solve_shape(array, basis, ell, Reference.DELTA_FROM_STRAIGHT)
        except (SolverError, SingularDesignError):
            fails += 1
            continue
        solved.append((k, c_true, sol))
    stagnations = sum(sol.status == "stagnated" for _, _, sol in solved)
    # truth and estimate tip poses, one stacked pass each
    c_true = np.reshape([c for _, c, _ in solved], (-1, truth_basis.m))
    c_est = np.reshape([sol.c for _, _, sol in solved], (-1, basis.m))
    tips = zip(forward_kinematics(truth_basis, c_true, [basis.length])[:, 0],
               forward_kinematics(basis, c_est, [basis.length])[:, 0])
    rows = []
    for (k, _, sol), (pose_t, pose_e) in zip(solved, tips):
        err = error_metrics(pose_t, pose_e, basis.length, space.c_l)
        rows.append([k, err.e_p, err.theta_e, err.e_n, sol.iterations, sol.residual_norm])
    write_csv(args.output,
              ["case", "e_p_percent", "theta_e_rad", "e_n", "iterations", "residual_m"],
              rows)
    ep = np.array([r[1] for r in rows])
    th = np.array([r[2] for r in rows])
    summary = {"cases": len(rows), "solver_failures": fails,
               "solver_stagnations": stagnations,
               "mean_e_p_percent": float(ep.mean()), "max_e_p_percent": float(ep.max()),
               "mean_theta_e_rad": float(th.mean()), "max_theta_e_rad": float(th.max()),
               "anchors": anchors, "n_omega": args.n_omega, "seed": args.seed}
    with open(args.output_summary, "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"{len(rows)} cases: mean e_p {ep.mean():.3f} % max {ep.max():.3f} %; "
          f"summary in {args.output_summary}")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="stringshape",
                     description="Shape sensing and string-routing design "
                                 "for variable-curvature continuum segments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shape", help="forward kinematics: coefficients -> poses CSV")
    p.add_argument("robot", help="robot JSON file")
    p.add_argument("coefficients", help="CSV of modal coefficient rows")
    p.add_argument("-o", "--output", default="poses.csv")
    p.add_argument("--s-values", type=_number_list(float), default=None,
                   help="comma-separated arc lengths (m); default uniform grid")
    p.add_argument("--n-points", type=_at_least(1), default=21)
    p.set_defaults(fn=cmd_shape, error=p.error)

    p = sub.add_parser("lengths", help="measurement synthesis: coefficients -> lengths CSV")
    p.add_argument("robot")
    p.add_argument("coefficients")
    p.add_argument("-o", "--output", default="lengths.csv")
    p.set_defaults(fn=cmd_lengths)

    p = sub.add_parser("solve", help="reconstruction: measurements -> coefficients CSV")
    p.add_argument("robot")
    p.add_argument("measurements")
    p.add_argument("-o", "--output", default="coefficients.csv")
    p.add_argument("--diagnostics", default="diagnostics.json")
    p.add_argument("--warm-start", action="store_true",
                   help="chain rows: initialize each solve from the previous solution")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("planar-study",
                       help="planar anchor-placement studies and convergence study")
    p.add_argument("--table1", action="store_true",
                   help="config-space index peaks over the preset radius pairs")
    p.add_argument("--table2", action="store_true",
                   help="workspace-averaged tip-index peaks over the preset radius pairs")
    p.add_argument("--convergence", action="store_true",
                   help="reconstruction error vs string count on the rod oracle")
    p.add_argument("--samples", type=_at_least(1), default=200)
    p.add_argument("--seed", type=_at_least(0), default=studies.PLANAR_WORKSPACE_SEED)
    p.add_argument("--modulus", type=_positive_float, default=60e9, help="rod modulus (Pa)")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--output-full", default=None)
    p.add_argument("--output-convergence", default=None)
    p.set_defaults(fn=cmd_planar_study)

    p = sub.add_parser("sensitivity-map",
                       help="CSV landscapes of both indices over the anchor grid")
    p.add_argument("--r1", type=float, default=0.10)
    p.add_argument("--r2", type=float, default=-0.10)
    p.add_argument("--samples", type=_at_least(1), default=200)
    p.add_argument("--seed", type=_at_least(0), default=studies.PLANAR_WORKSPACE_SEED)
    p.add_argument("--output-config", default="aleph_config_grid.csv")
    p.add_argument("--output-full", default="aleph_full_grid.csv")
    p.set_defaults(fn=cmd_sensitivity_map)

    p = sub.add_parser("routing-opt",
                       help="brute-force routing search over a preset design space")
    p.add_argument("--preset", choices=("stiff", "soft"), default="soft")
    p.add_argument("--samples", type=_at_least(1), default=200)
    p.add_argument("--seed", type=_at_least(0), default=777)
    p.add_argument("--jobs", type=_at_least(1), default=None,
                   help="threads scoring the design blocks (default: the CPUs this "
                        "process may run on); output is independent of the count")
    p.add_argument("-o", "--output", default="routing_designs.csv")
    p.add_argument("--output-top", default="routing_top.json")
    p.set_defaults(fn=cmd_routing_opt)

    p = sub.add_parser("spatial-study",
                       help="synthetic spatial truth -> reconstruction error metrics")
    p.add_argument("--cases", type=_at_least(1), default=50)
    p.add_argument("--seed", type=_at_least(0), default=20)
    p.add_argument("--anchors", type=_number_list(int), default=None,
                   help="comma-separated anchor disks for the four strings")
    p.add_argument("--n-omega", type=int, default=1)
    p.add_argument("-o", "--output", default="spatial_study.csv")
    p.add_argument("--output-summary", default="spatial_summary.json")
    p.set_defaults(fn=cmd_spatial_study, error=p.error)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NotRealizableError as err:
        print(str(err), file=sys.stderr)
        return EXIT_INADMISSIBLE
    except (SingularDesignError, SolverError, ShootingError) as err:
        print(str(err), file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
