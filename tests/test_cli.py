import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import stringshape
from stringshape import cli, studies
from stringshape.cli import main
from stringshape.configio import read_csv_matrix, write_csv
from stringshape.rodsim import RodSpec
from stringshape.sensing import SOLVE_STEP_TOL, lengths

PLANAR_ROBOT = {
    "version": 1,
    "L": 0.3,
    "basis": {"y": [0, 1, 2]},
    "strings": [
        {"type": "constant_pitch", "r_x": 0.03, "r_y": 0.0, "anchor_s": 0.0612},
        {"type": "constant_pitch", "r_x": -0.03, "r_y": 0.0, "anchor_s": 0.2316},
        {"type": "constant_pitch", "r_x": 0.075, "r_y": 0.0, "anchor_s": 0.3},
    ],
    "c_l": 0.066,
}


@pytest.fixture
def robot_file(tmp_path):
    path = tmp_path / "robot.json"
    path.write_text(json.dumps(PLANAR_ROBOT))
    return str(path)


def coeff_file(tmp_path, rows):
    path = tmp_path / "coeffs.csv"
    write_csv(str(path), ["c_0", "c_1", "c_2"], rows)
    return str(path)


def _exit_code(argv):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as info:
        return info.code


def test_shape_straight_and_constant_curvature(tmp_path, robot_file):
    coeffs = coeff_file(tmp_path, [[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
    out = tmp_path / "poses.csv"
    rc = main(["shape", robot_file, coeffs, "-o", str(out), "--s-values", "0.3"])
    assert rc == 0
    _, mat = read_csv_matrix(str(out))
    # straight row: tip on the axis
    np.testing.assert_allclose(mat[0][2:5], [0, 0, 0.3], atol=1e-12)
    # constant curvature row: circular-arc closed form
    kappa = 4.0
    expect = [(1 - np.cos(kappa * 0.3)) / kappa, 0.0, np.sin(kappa * 0.3) / kappa]
    np.testing.assert_allclose(mat[1][2:5], expect, atol=1e-9)


def test_lengths_solve_round_trip(tmp_path, robot_file):
    coeffs = coeff_file(tmp_path, [[2.0, -1.0, 0.5], [-3.0, 0.7, 1.1]])
    ell = tmp_path / "ell.csv"
    assert main(["lengths", robot_file, coeffs, "-o", str(ell)]) == 0
    rec = tmp_path / "rec.csv"
    diag = tmp_path / "diag.json"
    assert main(["solve", robot_file, str(ell), "-o", str(rec),
                 "--diagnostics", str(diag)]) == 0
    _, got = read_csv_matrix(str(rec))
    np.testing.assert_allclose(got[:, 1:], [[2.0, -1.0, 0.5], [-3.0, 0.7, 1.1]],
                               atol=1e-8)
    info = json.loads(diag.read_text())
    assert info["status"] == "ok"
    assert all(row["linear_class"] for row in info["rows"])
    assert all(row["status"] == "converged" for row in info["rows"])


def test_malformed_robot_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    coeffs = coeff_file(tmp_path, [[0, 0, 0]])
    assert main(["shape", str(bad), coeffs]) == 2


@pytest.mark.parametrize("command", ["shape", "lengths"])
@pytest.mark.parametrize("edit, where", [
    ({"strings": [{"type": "helical", "r_s": 0, "omega": 5.0, "anchor_s": 0.3}]},
     "robot.strings[3]"),
    ({"strings": [{"type": "tabulated", "samples": [[0.2, 0.01, 0.0], [0.1, 0.02, 0.0]],
                   "anchor_s": 0.3}]}, "robot.strings[3]"),
    ({"strings": [{"type": "tabulated", "samples": [[0.0, "a", 0.0], [0.3, 0.02, 0.0]],
                   "anchor_s": 0.3}]}, "robot.strings[3]"),
    ({"constraints": {"bend_limit_deg": "ten", "subsegment_length": 0.03}},
     "bend_limit_deg"),
    ({"constraints": {"backbone_diameter": "4mm", "strain_max": 0.05}},
     "backbone_diameter"),
    ({"constraints": {"realizability": "false"}}, "realizability"),
])
def test_malformed_robot_fields_exit_2(tmp_path, command, edit, where, capsys):
    # path constructors and constraint values reject bad values as schema errors
    robot = dict(PLANAR_ROBOT)
    robot["strings"] = PLANAR_ROBOT["strings"] + edit.get("strings", [])
    robot.update({k: v for k, v in edit.items() if k != "strings"})
    path = tmp_path / "robot.json"
    path.write_text(json.dumps(robot))
    coeffs = coeff_file(tmp_path, [[0.0, 0.0, 0.0]])
    assert main([command, str(path), coeffs, "-o", str(tmp_path / "out.csv")]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("command", ["shape", "lengths"])
@pytest.mark.parametrize("body", ["0,0,0\n1,2\n", "0,0,0\n1,nan,0\n"])
def test_ragged_or_non_finite_coefficients_exit_2(tmp_path, robot_file, command, body, capsys):
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text("c_0,c_1,c_2\n" + body)
    assert main([command, robot_file, str(coeffs), "-o", str(tmp_path / "out.csv")]) == 2
    assert f"{coeffs}:3:" in capsys.readouterr().err


def test_singular_design_exits_4(tmp_path):
    robot = dict(PLANAR_ROBOT)
    robot["strings"] = [
        {"type": "constant_pitch", "r_x": 0.03, "r_y": 0.0, "anchor_s": 0.15},
        {"type": "constant_pitch", "r_x": 0.06, "r_y": 0.0, "anchor_s": 0.15},
        {"type": "constant_pitch", "r_x": 0.075, "r_y": 0.0, "anchor_s": 0.3},
    ]
    path = tmp_path / "robot.json"
    path.write_text(json.dumps(robot))
    meas = tmp_path / "m.csv"
    write_csv(str(meas), ["ell_0_m", "ell_1_m", "ell_2_m"], [[0.0, 0.0, 0.0]])
    diag = tmp_path / "d.json"
    assert main(["solve", str(path), str(meas), "-o", str(tmp_path / "o.csv"),
                 "--diagnostics", str(diag)]) == 4
    assert "Singular" in json.loads(diag.read_text())["detail"]["kind"]


def test_all_zero_jacobian_exits_4(tmp_path):
    # two strings on the axis: J_lc is 0, which the rank test fails
    robot = dict(PLANAR_ROBOT, basis={"x": [0], "y": [0]})
    robot["strings"] = [
        {"type": "constant_pitch", "r_x": 0.0, "r_y": 0.0, "anchor_s": 0.3},
        {"type": "constant_pitch", "r_x": 0.0, "r_y": 0.0, "anchor_s": 0.15},
    ]
    path = tmp_path / "robot.json"
    path.write_text(json.dumps(robot))
    meas = tmp_path / "m.csv"
    write_csv(str(meas), ["ell_0_m", "ell_1_m"], [[0.01, -0.02]])
    diag = tmp_path / "d.json"
    assert main(["solve", str(path), str(meas), "-o", str(tmp_path / "o.csv"),
                 "--diagnostics", str(diag)]) == 4
    assert json.loads(diag.read_text())["detail"]["kind"] == "SingularDesignError"


def test_underdetermined_exits_4(tmp_path, capsys):
    robot = dict(PLANAR_ROBOT)
    robot["strings"] = PLANAR_ROBOT["strings"][:2]
    path = tmp_path / "robot.json"
    path.write_text(json.dumps(robot))
    meas = tmp_path / "m.csv"
    write_csv(str(meas), ["ell_0_m", "ell_1_m"], [[0.0, 0.0]])
    assert main(["solve", str(path), str(meas), "-o", str(tmp_path / "o.csv"),
                 "--diagnostics", str(tmp_path / "d.json")]) == 4
    assert "underdetermined" in capsys.readouterr().err


def test_inadmissible_configuration_exits_3(tmp_path, capsys):
    robot = dict(PLANAR_ROBOT)
    robot["constraints"] = {"strain_max": 0.05, "backbone_diameter": 0.004,
                            "realizability": True}
    path = tmp_path / "robot.json"
    path.write_text(json.dumps(robot))
    # all rows are checked in one call; the first bad one is reported
    coeffs = coeff_file(tmp_path, [[0.0, 0.0, 0.0], [200.0, 0.0, 0.0], [0.0, 300.0, 0.0]])
    assert main(["shape", str(path), coeffs, "-o", str(tmp_path / "p.csv")]) == 3
    assert "row 1 " in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_lengths_blocks_write_the_same_table(tmp_path, robot_file, monkeypatch, capsys):
    # lengths runs its table in stacks of SHAPE_BLOCK rows: the CSV is the one
    # one call per row writes, whatever the block size, and a cusp is
    # reported by its row in the file
    rows = [[0.0, 0.0, 0.0], [1.0, -0.5, 0.2], [2.0, 1.0, -1.0], [-3.0, 0.5, 0.0], [0.5, 0.5, 0.5]]
    coeffs = coeff_file(tmp_path, rows)
    # u_y = 20 gives string 2 (r_x = 0.075) the rate 1 - 1.5
    cusped = str(tmp_path / "cusped.csv")
    write_csv(cusped, ["c_0", "c_1", "c_2"], rows[:3] + [[20.0, 0.0, 0.0]])
    robot = cli.load_robot(robot_file)
    expect = tmp_path / "expect.csv"
    write_csv(str(expect), ["ell_0_m", "ell_1_m", "ell_2_m"],
              [list(map(float, lengths(robot.array, robot.basis, row))) for row in rows])
    for block in (2, cli.SHAPE_BLOCK):
        monkeypatch.setattr(cli, "SHAPE_BLOCK", block)
        out = tmp_path / f"l{block}.csv"
        assert main(["lengths", robot_file, coeffs, "-o", str(out)]) == 0
        assert out.read_bytes() == expect.read_bytes()
        bad = tmp_path / "bad.csv"
        capsys.readouterr()
        assert main(["lengths", robot_file, cusped, "-o", str(bad)]) == 3
        assert "configuration row 3: string path not realizable (string 2)" in capsys.readouterr().err
        assert not bad.exists()


def test_tip_strings_cusped_below_their_anchors_are_admissible(tmp_path):
    # u_y = 3 - 3 (2 s / L - 1): the tangential rate 1 - r_x u_y of r_x = 0.25
    # is negative near the base and positive on [L/2, L], the tip-mounted span
    robot = {"version": 1, "L": 1.0, "basis": {"y": [0, 1]},
             "strings": [{"type": "constant_pitch", "r_x": r_x, "anchor_s": 0.5,
                          "mount": "tip"} for r_x in (0.25, -0.25)],
             "constraints": {"realizability": True}}
    path = tmp_path / "robot.json"
    path.write_text(json.dumps(robot))
    coeffs = tmp_path / "coeffs.csv"
    write_csv(str(coeffs), ["c_0", "c_1"], [[0.0, 0.0], [3.0, -3.0]])
    assert main(["shape", str(path), str(coeffs), "-o", str(tmp_path / "p.csv")]) == 0
    assert main(["lengths", str(path), str(coeffs), "-o", str(tmp_path / "l.csv")]) == 0


def test_unused_seed_key_is_ignored(tmp_path):
    robot = dict(PLANAR_ROBOT, seed="abc")
    path = tmp_path / "robot.json"
    path.write_text(json.dumps(robot))
    coeffs = coeff_file(tmp_path, [[0.0, 0.0, 0.0]])
    assert main(["shape", str(path), coeffs, "-o", str(tmp_path / "p.csv")]) == 0


def _run_cli(*args, **kwargs):
    """Run the CLI in a child interpreter that imports this copy of the package."""
    src = os.path.dirname(os.path.dirname(stringshape.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "stringshape.cli", *args], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, **kwargs)


def test_unknown_flag_exits_64():
    proc = _run_cli("shape", "--no-such-flag")
    assert proc.returncode == 64


@pytest.mark.parametrize("argv", [
    ["spatial-study", "--cases", "0"],
    ["spatial-study", "--cases", "-2"],
    ["routing-opt", "--preset", "stiff", "--samples", "0"],
    ["routing-opt", "--preset", "stiff", "--jobs", "0"],
    ["routing-opt", "--preset", "stiff", "--jobs", "-2"],
    ["planar-study", "--table2", "--samples", "0"],
    ["sensitivity-map", "--samples", "0"],
    ["sensitivity-map", "--samples", "two"],
])
def test_non_positive_counts_exit_64(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 64
    assert "expected a positive integer" in capsys.readouterr().err


# numpy's generators reject negative seeds; the parser must do so first
@pytest.mark.parametrize("argv", [
    ["routing-opt", "--preset", "stiff", "--samples", "2", "--seed", "-1"],
    ["planar-study", "--table2", "--samples", "2", "--seed", "-1"],
    ["spatial-study", "--cases", "1", "--seed", "-3"],
    ["sensitivity-map", "--samples", "2", "--seed", "-1"],
])
def test_negative_seed_exits_64(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 64
    assert "expected a non-negative integer" in capsys.readouterr().err


def test_unknown_preset_exits_64(capsys):
    with pytest.raises(SystemExit) as info:
        main(["routing-opt", "--preset", "bogus"])
    assert info.value.code == 64
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    ["--n-points", "-1"],
    ["--n-points", "0"],
    ["--s-values", "abc"],
    ["--s-values", "0.5"],          # beyond L = 0.3
    ["--s-values", "0.1,nan"],
])
def test_bad_shape_queries_exit_64(tmp_path, robot_file, extra, capsys):
    coeffs = coeff_file(tmp_path, [[0.0, 0.0, 0.0]])
    assert _exit_code(["shape", robot_file, coeffs, "-o", str(tmp_path / "p.csv"), *extra]) == 64
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("anchors", ["4,3", "4,3,9,12", "4,3,9,0", "4,3,9,x"])
def test_bad_spatial_study_anchors_exit_64(tmp_path, anchors, capsys):
    assert _exit_code(["spatial-study", "--cases", "1", "--anchors", anchors,
                       "-o", str(tmp_path / "s.csv"),
                       "--output-summary", str(tmp_path / "s.json")]) == 64
    assert "--anchors" in capsys.readouterr().err


@pytest.mark.parametrize("n_omega", ["5", "-1", "2"])
def test_spatial_study_twist_rate_outside_the_preset_exits_64(tmp_path, n_omega, capsys):
    # the soft preset's strings take twist rates 0 and 1 only
    assert _exit_code(["spatial-study", "--cases", "1", f"--n-omega={n_omega}",
                       "-o", str(tmp_path / "s.csv"),
                       "--output-summary", str(tmp_path / "s.json")]) == 64
    assert "--n-omega must be one of 0, 1" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("radius", ["--r1=nan", "--r2=inf", "--r1=-inf", "--r2=wide"])
def test_non_finite_radii_exit_64(tmp_path, radius, capsys):
    # NaN or infinite radii used to reach the eigensolver and exit 1 with a
    # LinAlgError traceback; they are usage errors, a negative radius is not
    assert _exit_code(["sensitivity-map", radius, "--samples", "2",
                       "--output-config", str(tmp_path / "c.csv"),
                       "--output-full", str(tmp_path / "f.csv")]) == 64
    assert "expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_help_lists_commands():
    proc = _run_cli("--help", text=True)
    assert proc.returncode == 0
    for cmd in ("shape", "lengths", "solve", "planar-study", "routing-opt",
                "sensitivity-map", "spatial-study"):
        assert cmd in proc.stdout


def test_sensitivity_map_grid_dimensions(tmp_path):
    cfg = tmp_path / "c.csv"
    ful = tmp_path / "f.csv"
    rc = main(["sensitivity-map", "--r1", "0.1", "--r2", "-0.1",
               "--samples", "10", "--output-config", str(cfg),
               "--output-full", str(ful)])
    assert rc == 0
    _, grid_c = read_csv_matrix(str(cfg))
    n = int(round(np.sqrt(len(grid_c))))
    assert n * n == len(grid_c)


def test_planar_study_table1(tmp_path):
    out = tmp_path / "t1.csv"
    rc = main(["planar-study", "--table1", "-o", str(out)])
    assert rc == 0
    _, mat = read_csv_matrix(str(out))
    assert mat.shape == (8, 6)


def test_planar_study_without_flags_is_usage_error(tmp_path):
    assert main(["planar-study"]) == 64


@pytest.mark.parametrize("modulus", ["-1", "0", "nan", "inf", "-inf", "soft"])
def test_bad_modulus_exits_64(modulus, capsys):
    # a modulus that is not positive and finite is a usage error, before
    # any study runs; RodSpec refuses the same values
    assert _exit_code(["planar-study", "--convergence", f"--modulus={modulus}"]) == 64
    assert "expected a positive finite number" in capsys.readouterr().err
    if modulus != "soft":
        with pytest.raises(ValueError, match="positive and finite"):
            RodSpec(length=0.3, diameter=0.004, elastic_modulus=float(modulus))


def test_convergence_summary_does_not_overwrite_its_csv(tmp_path, monkeypatch):
    # the summary goes beside the table under the table's stem, whether or
    # not the table's name ends in .csv
    stats = {1: {"mean_e_p": 0.5, "max_e_p": 1.5}}
    cases = [{"f_x": 1.0, "m_y": 0.0, "e_p_1": 0.5, "e_rot_1": 0.01}]
    monkeypatch.setattr(cli, "convergence_study", lambda rod: (stats, cases))
    for name in ("conv.txt", "conv.csv", "conv"):
        out = tmp_path / name
        assert main(["planar-study", "--convergence", "--output-convergence", str(out)]) == 0
        assert read_csv_matrix(str(out))[1].tolist() == [[1.0, 0.0, 0.5, 0.01]]
        summary = json.loads((tmp_path / "conv_summary.json").read_text())
        assert summary == {"1": stats[1]}
        (tmp_path / "conv_summary.json").unlink()


def test_routing_opt_stiff_smoke(tmp_path):
    out = tmp_path / "designs.csv"
    top = tmp_path / "top.json"
    rc = main(["routing-opt", "--preset", "stiff", "--samples", "4",
               "--seed", "3", "-o", str(out), "--output-top", str(top)])
    assert rc == 0
    _, mat = read_csv_matrix(str(out))
    assert len(mat) == 625
    info = json.loads(top.read_text())
    assert info["n_designs"] == 625
    assert info["n_singular"] >= 85
    # J_lc is constant on the stiff preset: every singular design fails the
    # straight screen, none the workspace mean alone
    assert info["n_singular_straight"] == 225
    assert info["n_singular_workspace"] == 0


@pytest.mark.parametrize("preset, n_designs, n_scored",
                         [("stiff", 625, 225), ("soft", 20000, 20000)])
def test_routing_opt_reports_scored_designs(tmp_path, capsys, preset, n_designs, n_scored):
    # the stiff preset's twin strings leave 225 mirror orbits to score; the
    # soft preset has no twins and scores every design.  The stiff box lies
    # inside its bounds, so its sampler accepts its first candidate; the soft
    # sampler takes 13 for one sample at seed 3
    top = tmp_path / "top.json"
    rc = main(["routing-opt", "--preset", preset, "--samples", "1", "--seed", "3",
               "-o", str(tmp_path / "designs.csv"), "--output-top", str(top)])
    assert rc == 0
    info = json.loads(top.read_text())
    assert (info["n_designs"], info["n_scored"]) == (n_designs, n_scored)
    attempts = {"stiff": 1, "soft": 13}[preset]
    assert (info["sampler_attempts"], info["sampler_acceptance"]) == (attempts, 1 / attempts)
    assert f"{n_designs} designs, {n_scored} scored" in capsys.readouterr().out


def test_spatial_study_smoke(tmp_path):
    out = tmp_path / "cases.csv"
    summ = tmp_path / "summary.json"
    rc = main(["spatial-study", "--cases", "3", "--seed", "9",
               "-o", str(out), "--output-summary", str(summ)])
    assert rc == 0
    info = json.loads(summ.read_text())
    assert info["cases"] + info["solver_failures"] == 3
    assert info["solver_stagnations"] == 0
    assert info["mean_e_p_percent"] < 5.0


def test_seeded_outputs_identical(tmp_path, robot_file):
    outs = []
    for k in (1, 2):
        out = tmp_path / f"full{k}.csv"
        rc = main(["sensitivity-map", "--samples", "8", "--seed", "5",
                   "--output-config", str(tmp_path / f"c{k}.csv"),
                   "--output-full", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _preset_robot(preset):
    """Robot file of a preset robot of studies with one of its designs: the
    stiff design (1, 2, 3, 4) with the capstan tendon pairs, or the soft
    design (4, 3, 9, 4) at n_omega 1 with its four tendons."""
    def pitch(radius, angle, **anchor):
        return {"type": "constant_pitch", "r_x": radius * np.cos(np.deg2rad(angle)),
                "r_y": radius * np.sin(np.deg2rad(angle)), **anchor}

    if preset == "stiff":
        return {"version": 1, "L": studies.STIFF_LENGTH, "basis": {"x": [0, 1, 2], "y": [0, 1, 2]},
                "n_disks": studies.STIFF_N_DISKS,
                "strings": [pitch(studies.STIFF_STRING_RADIUS, ang, anchor_disk=disk, mount="tip")
                            for ang, disk in zip(studies.STIFF_STRING_ANGLES, (1, 2, 3, 4))]
                + [pitch(studies.STIFF_TENDON_RADIUS, ang, anchor_s=studies.STIFF_LENGTH)
                   for ang in studies.STIFF_TENDON_ANGLES],
                "composites": [{"members": [4, 5], "signs": [1, 1]},
                               {"members": [6, 7], "signs": [-1, -1]}],
                "c_l": studies.STIFF_CHARACTERISTIC_LENGTH}
    return {"version": 1, "L": studies.SOFT_LENGTH,
            "basis": {"x": [0, 1, 2], "y": [0, 1, 2], "z": [0, 1]}, "n_disks": studies.SOFT_N_DISKS,
            "strings": [{"type": "helical", "r_s": studies.SOFT_STRING_RADIUS, "n_omega": 1,
                         "alpha_deg": ang, "anchor_disk": disk}
                        for ang, disk in zip(studies.SOFT_STRING_ANGLES, (4, 3, 9, 4))]
            + [pitch(studies.SOFT_TENDON_RADIUS, ang, anchor_disk=disk)
               for ang, disk in zip(studies.SOFT_TENDON_ANGLES, studies.SOFT_TENDON_ANCHORS)],
            "c_l": studies.SOFT_CHARACTERISTIC_LENGTH}


# SHA-256 of the pose CSV of 7 workspace rows per preset (stiff_workspace(7, 3),
# soft_workspace(7, 7)) as written when shape took one forward_kinematics
# call per row: at the default 21 on-grid points, and at --s-values mixing
# nodes with arc lengths between them.
SHAPE_CSV_SHA256 = {
    ("stiff", None): "917632ce7deeef0068b2de7c79453f3b0c6f0b7587f74f6866487e6bdf609341",
    ("stiff", "0,0.1,0.1234,0.2,0.29,0.30065"): "c9f0b967633066dcae866dfa26c43ae7aa7fff17c45508c2bf896c21d2b07b13",
    ("soft", None): "b8e497b7d475df86e7118f0c8df3eb8854df92cd87a216cdab31a47fccc42197",
    ("soft", "0,0.1,0.1234,0.2,0.29,0.293"): "68498c1b9c785e2d0efbe8c7248f1c141f87b85509d88bdcbc596d0cbb15bf6c",
}


@pytest.mark.parametrize("preset, s_values", list(SHAPE_CSV_SHA256))
@pytest.mark.parametrize("block", [3, cli.SHAPE_BLOCK])
def test_shape_csv_of_preset_robots_is_pinned(tmp_path, monkeypatch, preset, s_values, block):
    # shape runs its table through forward_kinematics in blocks of
    # SHAPE_BLOCK rows; the bytes must not depend on the block size
    monkeypatch.setattr(cli, "SHAPE_BLOCK", block)
    robot = tmp_path / "robot.json"
    robot.write_text(json.dumps(_preset_robot(preset)))
    workspace = getattr(studies, f"{preset}_workspace")(7, {"stiff": 3, "soft": 7}[preset])
    coeffs = tmp_path / "coeffs.csv"
    write_csv(str(coeffs), [f"c_{i}" for i in range(workspace.configs.shape[1])],
              workspace.configs.tolist())
    out = tmp_path / "poses.csv"
    extra = [] if s_values is None else ["--s-values", s_values]
    assert main(["shape", str(robot), str(coeffs), "-o", str(out), *extra]) == 0
    n_points = 21 if s_values is None else len(s_values.split(","))
    assert len(out.read_text().splitlines()) == 1 + 7 * n_points
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SHAPE_CSV_SHA256[preset, s_values]


def test_solve_warm_start_matches_cold_in_fewer_iterations(tmp_path):
    # frames along straight lines between four admissible soft keyframes,
    # each row started from the previous row's solution: the same
    # coefficients as cold starts from straight, within the solver's step
    # tolerance, in no more Gauss-Newton iterations in total (77 against 95)
    robot = tmp_path / "robot.json"
    robot.write_text(json.dumps(_preset_robot("soft")))
    keys = studies.soft_workspace(4, 0).configs
    t = np.linspace(0.0, 1.0, 6, endpoint=False)[:, None]
    frames = np.concatenate([a + t * (b - a) for a, b in zip(keys[:-1], keys[1:])] + [keys[-1:]])
    coeffs, ell = tmp_path / "coeffs.csv", tmp_path / "ell.csv"
    write_csv(str(coeffs), [f"c_{i}" for i in range(frames.shape[1])], frames.tolist())
    assert main(["lengths", str(robot), str(coeffs), "-o", str(ell)]) == 0
    solved, iterations = {}, {}
    for mode, extra in (("cold", []), ("warm", ["--warm-start"])):
        out, diag = tmp_path / f"{mode}.csv", tmp_path / f"{mode}.json"
        assert main(["solve", str(robot), str(ell), "-o", str(out),
                     "--diagnostics", str(diag), *extra]) == 0
        solved[mode] = read_csv_matrix(str(out))[1][:, 1:]
        rows = json.loads(diag.read_text())["rows"]
        assert all(row["status"] == "converged" for row in rows)
        iterations[mode] = sum(row["iterations"] for row in rows)
    assert solved["warm"].shape == frames.shape
    assert np.linalg.norm(solved["warm"] - solved["cold"], axis=1).max() <= SOLVE_STEP_TOL
    np.testing.assert_allclose(solved["warm"], frames, rtol=0, atol=1e-9)
    assert iterations["warm"] <= iterations["cold"]
