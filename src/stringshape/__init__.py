"""Shape sensing for variable-curvature continuum robots with general
string-encoder routing, plus sensitivity-driven routing-design search."""

from .modal import ModalBasis, curvature, identity_basis
from .routing import ConstantPitch, Helical, Mount, StringSpec, Tabulated
from .sensing import (Composite, NotRealizableError, Reference, SensorArray,
                      SingularDesignError, SolverError, body_jacobian,
                      config_jacobian, forward_kinematics, lengths, solve_shape)
from .sensitivity import (ConstraintSet, DiskGeometry, WorkspaceSamples,
                          disk_collision_radius, global_index,
                          noise_amp, sample_admissible)
from .optimizer import (DesignSpace, DesignedString, brute_force_search,
                        improvement_beta, planar_peak_search)
from .rodsim import (PoseErrors, RodSpec, ShootingError, TipWrench,
                     convergence_study, error_metrics, planar_rod_bvp,
                     synthetic_spatial_truth)

__version__ = "0.1.0"
