"""Robot description files: JSON schema, validation, and CSV helpers.

A robot file carries the segment length, per-axis basis degrees, string
specs, optional composite channels, constraint set, and solver defaults.
Angles in files use explicit *_deg keys; everything internal is radians.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .modal import ModalBasis
from .routing import ConstantPitch, Helical, Mount, StringSpec, Tabulated
from .sensing import Composite, Reference, SensorArray
from .sensitivity import ConstraintSet, DiskGeometry

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Robot/config file fails validation; message names the offending key."""


def _need(obj, key, where):
    if key not in obj:
        raise SchemaError(f"{where}: missing required key '{key}'")
    return obj[key]


def _number(obj, key, where, default=None, minimum=None):
    if key not in obj:
        if default is None:
            raise SchemaError(f"{where}: missing required key '{key}'")
        return default
    val = obj[key]
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise SchemaError(f"{where}.{key}: expected a number, got {val!r}")
    if minimum is not None and val < minimum:
        raise SchemaError(f"{where}.{key}: must be >= {minimum}")
    return float(val)


@dataclass
class RobotConfig:
    basis: ModalBasis
    array: SensorArray
    constraints: ConstraintSet | None
    realizability: bool   # whether shape applies the cusp rule to the strings
    characteristic_length: float
    n_steps: int
    n_disks: int | None
    reference: Reference

    @property
    def length(self):
        return self.basis.length


def _parse_anchor(entry, length, n_disks, where):
    if "anchor_s" in entry:
        s_a = _number(entry, "anchor_s", where, minimum=0.0)
    elif "anchor_disk" in entry:
        if n_disks is None:
            raise SchemaError(f"{where}: anchor_disk needs top-level n_disks")
        disk = entry["anchor_disk"]
        if not isinstance(disk, int) or not 0 <= disk <= n_disks:
            raise SchemaError(f"{where}.anchor_disk: expected int in [0, {n_disks}]")
        s_a = disk * length / n_disks
    else:
        raise SchemaError(f"{where}: needs anchor_s or anchor_disk")
    if s_a > length + 1e-12:
        raise SchemaError(f"{where}: anchor beyond segment length")
    return s_a


def _parse_path(entry, length, n_disks, where):
    kind = _need(entry, "type", where)
    if kind == "constant_pitch":
        make, args = ConstantPitch, (_number(entry, "r_x", where),
                                     _number(entry, "r_y", where, default=0.0))
    elif kind == "helical":
        r_s = _number(entry, "r_s", where, minimum=0.0)
        if "omega" in entry:
            omega = _number(entry, "omega", where)
        else:
            n_omega = _number(entry, "n_omega", where)
            if n_disks is None:
                raise SchemaError(f"{where}: n_omega needs top-level n_disks")
            hole = _number(entry, "hole_angle", where, default=2.0 * np.pi / 32.0)
            omega = n_omega * hole / (length / n_disks)
        alpha = np.deg2rad(_number(entry, "alpha_deg", where, default=0.0))
        make, args = Helical, (r_s, omega, alpha)
    elif kind == "tabulated":
        pts = _need(entry, "samples", where)
        try:
            s, r_x, r_y = zip(*[(p[0], p[1], p[2]) for p in pts])
        except (TypeError, IndexError):
            raise SchemaError(f"{where}.samples: expected rows of [s, r_x, r_y]") from None
        make, args = Tabulated, (tuple(s), tuple(r_x), tuple(r_y))
    else:
        raise SchemaError(f"{where}.type: unknown path type {kind!r}")
    try:
        return make(*args)
    except (ValueError, TypeError) as err:
        raise SchemaError(f"{where}: {err}") from None


def _optional_number(obj, key, where, minimum=None):
    """A number under key, or None where the key is absent or null."""
    return None if obj.get(key) is None else _number(obj, key, where, minimum=minimum)


def _parse_constraints(obj, where="constraints"):
    if obj is None:
        return None
    disk = None
    if "disk" in obj:
        d = obj["disk"]
        disk = DiskGeometry(height=_number(d, "height", f"{where}.disk", minimum=0.0),
                            radius=_number(d, "radius", f"{where}.disk", minimum=0.0),
                            subsegment_length=_number(d, "subsegment_length",
                                                      f"{where}.disk", minimum=0.0))
    strain = obj.get("strain_max")
    if strain is not None:
        if np.isscalar(strain):
            strain = (float(strain),) * 3
        elif len(strain) == 3:
            strain = tuple(float(v) for v in strain)
        else:
            raise SchemaError(f"{where}.strain_max: scalar or 3-list")
    bend = _optional_number(obj, "bend_limit_deg", where)
    twist = _optional_number(obj, "twist_limit_deg", where)
    return ConstraintSet(
        strain_max=strain,
        backbone_diameter=_optional_number(obj, "backbone_diameter", where, minimum=0.0),
        disk=disk,
        bend_limit=np.deg2rad(bend) if bend is not None else None,
        twist_limit=np.deg2rad(twist) if twist is not None else None,
        subsegment_length=_optional_number(obj, "subsegment_length", where, minimum=0.0),
    )


def parse_robot(obj):
    """Validate a parsed robot JSON object and build the runtime pieces."""
    if not isinstance(obj, dict):
        raise SchemaError("robot file: top level must be an object")
    version = obj.get("version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"robot file: unsupported version {version}")
    length = _number(obj, "L", "robot", minimum=1e-9)
    basis_obj = _need(obj, "basis", "robot")
    try:
        basis = ModalBasis(x=tuple(basis_obj.get("x", ())),
                           y=tuple(basis_obj.get("y", ())),
                           z=tuple(basis_obj.get("z", ())), length=length)
    except (ValueError, TypeError) as err:
        raise SchemaError(f"robot.basis: {err}") from None
    n_disks = obj.get("n_disks")
    if n_disks is not None and (not isinstance(n_disks, int) or n_disks < 1):
        raise SchemaError("robot.n_disks: expected a positive integer")

    strings = []
    entries = _need(obj, "strings", "robot")
    if not entries:
        raise SchemaError("robot.strings: need at least one string")
    for i, entry in enumerate(entries):
        where = f"robot.strings[{i}]"
        path = _parse_path(entry, length, n_disks, where)
        mount_name = entry.get("mount", "base")
        try:
            mount = Mount(mount_name)
        except ValueError:
            raise SchemaError(f"{where}.mount: expected 'base' or 'tip'") from None
        strings.append(StringSpec(path=path,
                                  s_anchor=_parse_anchor(entry, length, n_disks, where),
                                  mount=mount))
    composites = []
    for i, entry in enumerate(obj.get("composites", ())):
        where = f"robot.composites[{i}]"
        try:
            composites.append(Composite(members=tuple(_need(entry, "members", where)),
                                        signs=tuple(_need(entry, "signs", where))))
        except ValueError as err:
            raise SchemaError(f"{where}: {err}") from None
    try:
        array = SensorArray(strings=tuple(strings), composites=tuple(composites))
    except ValueError as err:
        raise SchemaError(f"robot: {err}") from None

    ref_name = obj.get("reference", "delta_from_straight")
    try:
        reference = Reference(ref_name)
    except ValueError:
        raise SchemaError("robot.reference: 'absolute' or 'delta_from_straight'") from None

    try:
        constraints = _parse_constraints(obj.get("constraints"))
    except ValueError as err:
        raise SchemaError(f"robot.constraints: {err}") from None
    realizability = (obj.get("constraints") or {}).get("realizability", True)
    if not isinstance(realizability, bool):
        raise SchemaError(f"robot.constraints.realizability: {realizability!r} is not true or false")

    return RobotConfig(
        basis=basis, array=array, constraints=constraints, realizability=realizability,
        characteristic_length=_number(obj, "c_l", "robot", default=0.25 * length),
        n_steps=int(_number(obj, "n_steps", "robot", default=100, minimum=1)),
        n_disks=n_disks,
        reference=reference,
    )


def load_robot(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"{path}: file not found") from None
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}:{err.lineno}:{err.colno}: malformed JSON ({err.msg})") from None
    return parse_robot(obj)


def read_csv_matrix(path, expected_cols=None):
    """Numeric CSV with one header row -> (header, (n, k) array)."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file")
            rows = []
            for ln, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                try:
                    values = [float(cell) for cell in row]
                except ValueError:
                    raise SchemaError(f"{path}:{ln}: non-numeric value") from None
                if not np.all(np.isfinite(values)):
                    raise SchemaError(f"{path}:{ln}: non-finite value")
                if rows and len(values) != len(rows[0]):
                    raise SchemaError(f"{path}:{ln}: {len(values)} columns, "
                                      f"expected {len(rows[0])} as on the first data row")
                rows.append(values)
    except FileNotFoundError:
        raise SchemaError(f"{path}: file not found") from None
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    mat = np.array(rows)
    if expected_cols is not None and mat.shape[1] != expected_cols:
        raise SchemaError(f"{path}: expected {expected_cols} columns, found {mat.shape[1]}")
    return header, mat


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])


def rotation_to_quaternion(rot):
    """Unit quaternion (w, x, y, z) from a rotation matrix."""
    m = np.asarray(rot, dtype=float)
    tr = np.trace(m)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2.0
        w = 0.25 * s
        x = (m[2, 1] - m[1, 2]) / s
        y = (m[0, 2] - m[2, 0]) / s
        z = (m[1, 0] - m[0, 1]) / s
    else:
        i = int(np.argmax(np.diag(m)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(1.0 + m[i, i] - m[j, j] - m[k, k], 0.0)) * 2.0
        q = np.empty(3)
        q[i] = 0.25 * s
        q[j] = (m[j, i] + m[i, j]) / s
        q[k] = (m[k, i] + m[i, k]) / s
        w = (m[k, j] - m[j, k]) / s
        x, y, z = q
    quat = np.array([w, x, y, z])
    return quat / np.linalg.norm(quat)
