import json

import numpy as np
import pytest

from stringshape.configio import (SchemaError, load_robot, parse_robot,
                                  read_csv_matrix, rotation_to_quaternion, write_csv)
from stringshape.routing import Helical, Mount
from stringshape import liegroup as lg


def minimal_robot(**overrides):
    obj = {
        "version": 1,
        "L": 0.3,
        "basis": {"y": [0, 1, 2]},
        "strings": [
            {"type": "constant_pitch", "r_x": 0.03, "r_y": 0.0, "anchor_s": 0.09},
            {"type": "constant_pitch", "r_x": -0.03, "r_y": 0.0, "anchor_s": 0.21},
            {"type": "constant_pitch", "r_x": 0.075, "r_y": 0.0, "anchor_s": 0.3},
        ],
    }
    obj.update(overrides)
    return obj


def test_parse_minimal():
    robot = parse_robot(minimal_robot())
    assert robot.basis.m == 3
    assert robot.array.p == 3
    assert robot.length == 0.3
    assert robot.characteristic_length == pytest.approx(0.075)


def test_parse_helical_with_disk_anchor():
    obj = minimal_robot(n_disks=10)
    obj["strings"].append({"type": "helical", "r_s": 0.035, "n_omega": 1,
                           "alpha_deg": 45, "anchor_disk": 7})
    robot = parse_robot(obj)
    path = robot.array.strings[3].path
    assert isinstance(path, Helical)
    assert path.omega == pytest.approx(1 * (2 * np.pi / 32) / 0.03)
    assert robot.array.strings[3].s_anchor == pytest.approx(0.21)


def test_parse_composites_and_mount():
    obj = minimal_robot()
    obj["strings"].append({"type": "constant_pitch", "r_x": 0.0, "r_y": 0.05,
                           "anchor_s": 0.15, "mount": "tip"})
    obj["composites"] = [{"members": [2, 3], "signs": [1, -1]}]
    robot = parse_robot(obj)
    assert robot.array.strings[3].mount is Mount.TIP
    assert robot.array.p == 3   # two direct + one composite


def test_schema_errors():
    with pytest.raises(SchemaError, match="missing required key 'L'"):
        parse_robot({"basis": {"y": [0]}, "strings": []})
    with pytest.raises(SchemaError, match="strings"):
        parse_robot(minimal_robot(strings=[]))
    bad = minimal_robot()
    bad["strings"][0].pop("anchor_s")
    with pytest.raises(SchemaError, match="anchor"):
        parse_robot(bad)
    bad = minimal_robot()
    bad["strings"][0]["type"] = "spline"
    with pytest.raises(SchemaError, match="unknown path type"):
        parse_robot(bad)
    with pytest.raises(SchemaError, match="version"):
        parse_robot(minimal_robot(version=99))
    bad = minimal_robot()
    bad["strings"][0]["anchor_s"] = 0.5   # beyond L
    with pytest.raises(SchemaError, match="beyond"):
        parse_robot(bad)
    with pytest.raises(SchemaError, match="n_steps"):
        parse_robot(minimal_robot(n_steps=0))


def test_load_robot_malformed_json(tmp_path):
    path = tmp_path / "robot.json"
    path.write_text("{ not json")
    with pytest.raises(SchemaError, match="malformed JSON"):
        load_robot(str(path))
    with pytest.raises(SchemaError, match="not found"):
        load_robot(str(tmp_path / "missing.json"))


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "m.csv"
    write_csv(str(path), ["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
    header, mat = read_csv_matrix(str(path), expected_cols=2)
    assert header == ["a", "b"]
    np.testing.assert_array_equal(mat, [[1, 2], [3, 4]])
    with pytest.raises(SchemaError, match="expected 3 columns"):
        read_csv_matrix(str(path), expected_cols=3)


@pytest.mark.parametrize("body, message", [
    ("1,2\n3\n", "m.csv:3: 1 columns, expected 2"),
    ("1,2\n3,4,5\n", "m.csv:3: 3 columns, expected 2"),
    ("1,2\n\n3,nan\n", "m.csv:4: non-finite value"),
    ("inf,2\n", "m.csv:2: non-finite value"),
    ("1,2\n3,-inf\n", "m.csv:3: non-finite value"),
])
def test_csv_ragged_or_non_finite_rows_name_the_line(tmp_path, body, message):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n" + body)
    with pytest.raises(SchemaError, match=message):
        read_csv_matrix(str(path))


def test_rotation_to_quaternion_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(25):
        w = rng.normal(size=3)
        rot = lg.exp_se3(np.r_[w, 0.0, 0.0, 0.0])[:3, :3]
        q = rotation_to_quaternion(rot)
        assert np.linalg.norm(q) == pytest.approx(1.0)
        # rebuild the rotation from the quaternion
        qw, qx, qy, qz = q
        rebuilt = np.array([
            [1 - 2 * (qy**2 + qz**2), 2 * (qx * qy - qz * qw), 2 * (qx * qz + qy * qw)],
            [2 * (qx * qy + qz * qw), 1 - 2 * (qx**2 + qz**2), 2 * (qy * qz - qx * qw)],
            [2 * (qx * qz - qy * qw), 2 * (qy * qz + qx * qw), 1 - 2 * (qx**2 + qy**2)],
        ])
        np.testing.assert_allclose(rebuilt, rot, atol=1e-12)
