"""Packaged experiment recipes: planar anchor-placement studies, the
reconstruction convergence study, and the two spatial routing-search setups
used as regression fixtures.  The command-line tool and the acceptance suite
both drive these functions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .modal import ModalBasis
from .optimizer import (PLANAR_REFERENCE_RADIUS, DesignSpace, DesignedString, Peak,
                        improvement_beta, planar_basis, planar_config_index,
                        planar_config_jacobian, planar_full_index, planar_landscape,
                        planar_peak_search, planar_sample_grams)
from .routing import ConstantPitch, Helical, Mount, StringSpec
from .sensing import Composite
from .sensitivity import ConstraintSet, sample_admissible

# Radius pairs (units of L) swept by both planar studies.
PLANAR_RADIUS_PAIRS = ((0.10, -0.10), (0.10, -0.20), (0.20, -0.10), (0.20, -0.20))

# Planar robot used throughout: 300 mm, 4 mm backbone, 5 % strain allowance.
PLANAR_ROD_LENGTH = 0.3
PLANAR_BACKBONE_DIAMETER = 0.004
PLANAR_STRAIN_MAX = 0.05
PLANAR_ROD_EI = 60e9 * np.pi * PLANAR_BACKBONE_DIAMETER**4 / 64.0

# Workspace box for the full-map study: curvature reachable under the planar
# load envelope (tip moment 6 N m on the 60 GPa rod), normalized by L.  The
# strain-limit box admits far larger curvatures than the load family ever
# reaches and buries the tip-sensitivity landscape structure.
PLANAR_BOX_CURVATURE = 6.0 * PLANAR_ROD_LENGTH / PLANAR_ROD_EI
# Characteristic length for the planar tip study, units of L (mid pitch radius).
PLANAR_CHARACTERISTIC_LENGTH = 0.22

PLANAR_WORKSPACE_SEED = 20240

# Anchor grid steps (units of L) of the config-space and workspace landscapes.
PLANAR_CONFIG_STEP = 0.004
PLANAR_FULL_STEP = 0.01


def planar_strain_curvature():
    """Per-axis curvature limit from the strain allowance, normalized by L."""
    return PLANAR_STRAIN_MAX / (PLANAR_BACKBONE_DIAMETER / 2.0) * PLANAR_ROD_LENGTH


def planar_workspace(n_samples=200, seed=PLANAR_WORKSPACE_SEED):
    """Admissible workspace samples for the planar full-map study (L = 1).

    The per-axis cap is the load-envelope curvature (tighter than and
    therefore also satisfying the 5 %-strain bound).
    """
    basis = planar_basis()
    cap = min(PLANAR_BOX_CURVATURE, planar_strain_curvature())
    return sample_admissible(basis, ConstraintSet(axis_cap=(cap, cap, cap)), n_samples, seed)


@dataclass
class PlanarStudyRow:
    r_1: float
    r_2: float
    anchor_1: float
    anchor_2: float
    value: float
    beta: float


def _peak_rows(grid_step, index):
    """The two highest landscape peaks per radius pair of PLANAR_RADIUS_PAIRS,
    with the improvement over evenly spaced anchors.

    index sees J_lc only up to row order and sign (see planar_landscape), so
    a pair whose |r| swap those of an earlier pair has that pair's landscape
    transposed: it takes that pair's peaks with the two anchors swapped, and
    its beta against its own evenly spaced baseline.
    """
    rows, found = [], {}
    for r_1, r_2 in PLANAR_RADIUS_PAIRS:
        radii = (r_1, r_2, PLANAR_REFERENCE_RADIUS)
        base = float(index(planar_config_jacobian(radii, [1.0 / 3.0, 2.0 / 3.0, 1.0])))
        mirror = found.get((abs(r_2), abs(r_1)))
        peaks = (planar_peak_search(radii, index, grid_step)[:2] if mirror is None else
                 [Peak(pk.anchors[::-1], pk.value) for pk in mirror])
        found[abs(r_1), abs(r_2)] = peaks
        rows += [PlanarStudyRow(r_1, r_2, *pk.anchors, pk.value, improvement_beta(pk.value, base))
                 for pk in peaks]
    return rows


def _tip_index(n_samples, seed):
    """The workspace tip index on the seeded planar workspace."""
    rows = planar_sample_grams(planar_workspace(n_samples, seed), PLANAR_CHARACTERISTIC_LENGTH)
    return functools.partial(planar_full_index, sample_rows=rows)


def planar_config_study(grid_step=PLANAR_CONFIG_STEP):
    """Peaks of the config-space index landscape per radius pair.  Pure
    kinematics, no sampling."""
    return _peak_rows(grid_step, planar_config_index)


def planar_full_study(n_samples=200, seed=PLANAR_WORKSPACE_SEED, grid_step=PLANAR_FULL_STEP):
    """Peaks of the workspace-averaged tip sensitivity index per radius pair."""
    return _peak_rows(grid_step, _tip_index(n_samples, seed))


def planar_landscape_grids(r_1, r_2, n_samples=200, seed=PLANAR_WORKSPACE_SEED):
    """Both anchor-placement landscapes for one radius pair (CSV export), each
    as (axis, values)."""
    radii = (r_1, r_2, PLANAR_REFERENCE_RADIUS)
    return (planar_landscape(radii, planar_config_index, PLANAR_CONFIG_STEP),
            planar_landscape(radii, _tip_index(n_samples, seed), PLANAR_FULL_STEP))


# ---------------------------------------------------------------------------
# Zero-torsion constant-pitch robot with tip-mounted encoders and two
# capstan-coupled tendon pairs; anchors restricted to the five intermediate
# disks (the end plate, where the tendons terminate, is a sixth station).
# ---------------------------------------------------------------------------

STIFF_LENGTH = 0.30065
STIFF_N_DISKS = 6                 # five intermediate disks + end plate
STIFF_ANCHOR_DISKS = (1, 2, 3, 4, 5)
STIFF_TENDON_RADIUS = 0.0652
STIFF_STRING_RADIUS = 0.0587
STIFF_CHARACTERISTIC_LENGTH = 0.0652
STIFF_STRING_ANGLES = (45.0, 135.0, 225.0, 315.0)
STIFF_TENDON_ANGLES = (80.0, 100.0, 170.0, 190.0)
# Arc lengths of the search objectives: the third disk and the tip.
STIFF_S_OBJECTIVES = (3 * STIFF_LENGTH / STIFF_N_DISKS, STIFF_LENGTH)


def stiff_basis():
    return ModalBasis(x=(0, 1, 2), y=(0, 1, 2), length=STIFF_LENGTH)


def _pitch_from_angle(radius, angle_deg):
    ang = np.deg2rad(angle_deg)
    return ConstantPitch(r_x=radius * np.cos(ang), r_y=radius * np.sin(ang))


def stiff_fixed_tendons():
    """Two differential tendon pairs anchored at the end disk.

    Each capstan channel reads the summed length change of its two tendons;
    the opposite-side pair carries the mirrored signal and is not modeled
    separately.
    """
    specs = tuple(
        StringSpec(path=_pitch_from_angle(STIFF_TENDON_RADIUS, ang),
                   s_anchor=STIFF_LENGTH, mount=Mount.BASE)
        for ang in STIFF_TENDON_ANGLES
    )
    composites = (Composite(members=(4, 5), signs=(1, 1)),
                  Composite(members=(6, 7), signs=(-1, -1)))
    return specs, composites


def stiff_design_space():
    """625-design space: four tip-mounted strings over five disk anchors.

    epsilon sits at the rank-deficiency level.  The strings are constant
    pitch on a torsion-free basis, so J_lc does not depend on c; its index
    (meter units) is 1.3e-5 to 1.8e-4 on healthy designs and round-off
    (below 1e-33) on exactly singular ones (collinear pairs, three strings
    on one disk).  1e-12 sits seven decades under the weakest healthy design.
    """
    basis = stiff_basis()
    designed = tuple(
        DesignedString(ConstantPitch(r_x=STIFF_STRING_RADIUS * np.cos(np.deg2rad(ang)),
                                     r_y=STIFF_STRING_RADIUS * np.sin(np.deg2rad(ang))),
                       mount=Mount.TIP)
        for ang in STIFF_STRING_ANGLES
    )
    fixed, composites = stiff_fixed_tendons()
    return DesignSpace(basis=basis, designed=designed, fixed=fixed,
                       composites=composites,
                       anchor_disks=STIFF_ANCHOR_DISKS,
                       n_disks=STIFF_N_DISKS, twist_rates=(0,),
                       s_objectives=STIFF_S_OBJECTIVES, c_l=STIFF_CHARACTERISTIC_LENGTH,
                       epsilon=1e-12)


def stiff_workspace(n_samples=200, seed=424242):
    """Admissible samples in a box of half-width PLANAR_BOX_CURVATURE /
    PLANAR_ROD_LENGTH (1/m) per coefficient, inside the 5 % strain limit."""
    basis = stiff_basis()
    constraints = ConstraintSet(strain_max=(PLANAR_STRAIN_MAX,) * 3,
                                backbone_diameter=PLANAR_BACKBONE_DIAMETER)
    # Load-envelope scale as in the planar study, here in physical units:
    # the strain limit's curvature bound (25 1/m) shrinks to the load box.
    box = PLANAR_BOX_CURVATURE / PLANAR_ROD_LENGTH / constraints.axis_bounds()[0]
    return sample_admissible(basis, constraints, n_samples, seed, box_scale=box)


# ---------------------------------------------------------------------------
# Torsionally compliant robot with helical encoder strings; 20,000 designs.
# ---------------------------------------------------------------------------

SOFT_LENGTH = 0.293
SOFT_N_DISKS = 10
SOFT_STRING_RADIUS = 0.035
SOFT_TENDON_RADIUS = 0.0375
SOFT_CHARACTERISTIC_LENGTH = 0.0375
SOFT_HOLE_ANGLE = 2.0 * np.pi / 32.0
SOFT_TWIST_RATES = (0, 1)              # n_omega: hole angles per subsegment
SOFT_BEND_LIMIT = np.deg2rad(10.0)     # per subsegment
SOFT_TWIST_LIMIT = np.deg2rad(7.5)     # per subsegment
SOFT_STRING_ANGLES = (45.0, 135.0, 225.0, 315.0)
SOFT_TENDON_ANGLES = (0.0, 90.0, 180.0, 270.0)
SOFT_TENDON_ANCHORS = (10, 10, 7, 7)   # disk indices
# Arc lengths of the search objectives: disks 4 and 6 and the tip.
SOFT_S_OBJECTIVES = (4 * (SOFT_LENGTH / SOFT_N_DISKS), 6 * (SOFT_LENGTH / SOFT_N_DISKS),
                     SOFT_LENGTH)


def soft_basis():
    return ModalBasis(x=(0, 1, 2), y=(0, 1, 2), z=(0, 1), length=SOFT_LENGTH)


def soft_fixed_tendons():
    length = SOFT_LENGTH
    return tuple(
        StringSpec(path=_pitch_from_angle(SOFT_TENDON_RADIUS, ang),
                   s_anchor=disk * length / SOFT_N_DISKS, mount=Mount.BASE)
        for ang, disk in zip(SOFT_TENDON_ANGLES, SOFT_TENDON_ANCHORS)
    )


def soft_design_space(twist_rates=SOFT_TWIST_RATES):
    """20,000-design space: four helical strings, ten disks, two twist rates."""
    basis = soft_basis()
    designed = tuple(
        DesignedString(Helical(r_s=SOFT_STRING_RADIUS, omega=0.0, alpha=np.deg2rad(ang)),
                       mount=Mount.BASE)
        for ang in SOFT_STRING_ANGLES
    )
    return DesignSpace(basis=basis, designed=designed, fixed=soft_fixed_tendons(),
                       anchor_disks=tuple(range(1, SOFT_N_DISKS + 1)),
                       n_disks=SOFT_N_DISKS, twist_rates=tuple(twist_rates),
                       hole_angle=SOFT_HOLE_ANGLE,
                       s_objectives=SOFT_S_OBJECTIVES, c_l=SOFT_CHARACTERISTIC_LENGTH)


def soft_constraints():
    return ConstraintSet(bend_limit=SOFT_BEND_LIMIT, twist_limit=SOFT_TWIST_LIMIT,
                         subsegment_length=SOFT_LENGTH / SOFT_N_DISKS)


def soft_workspace(n_samples=200, seed=777):
    return sample_admissible(soft_basis(), soft_constraints(), n_samples, seed)
