import json
import subprocess
import sys

import numpy as np
import pytest

from stringshape.cli import main
from stringshape.configio import read_csv_matrix, write_csv

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


def test_inadmissible_configuration_exits_3(tmp_path):
    robot = dict(PLANAR_ROBOT)
    robot["constraints"] = {"strain_max": 0.05, "backbone_diameter": 0.004,
                            "realizability": True}
    path = tmp_path / "robot.json"
    path.write_text(json.dumps(robot))
    coeffs = coeff_file(tmp_path, [[200.0, 0.0, 0.0]])
    assert main(["shape", str(path), coeffs]) == 3


def test_unknown_flag_exits_64():
    proc = subprocess.run([sys.executable, "-m", "stringshape.cli",
                           "shape", "--no-such-flag"], capture_output=True)
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


def test_help_lists_commands():
    proc = subprocess.run([sys.executable, "-m", "stringshape.cli", "--help"],
                          capture_output=True, text=True)
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
