"""cubemass: total mass of asymptotically flat 3-metrics from cube boundaries.

The mass is evaluated on the boundary of large coordinate cubes through
several equivalent boundary expressions (coordinate flux, mean curvature
plus dihedral deficit, sliced angle defects, per-direction gradient
fluxes), together with machinery to verify their error-decay rates and
a pointwise checker for the harmonic level-set identity that motivates
them.
"""

__version__ = "0.1.0"

from .converge import ConvergenceReport, fit_rate, ladder_csv, run_ladder
from .expr import Expression, ScalarJet2, derivative, eval_jet2, parse, to_source
from .geom import (CurveFrame, EdgeFrame, EdgeId, FaceFrame, FaceId,
                   TurningAngleSet, coordinate_gradient_jet, curve_frame,
                   edge_frame, face_frame, inverse_and_christoffel,
                   level_set_gauss_curvature, turning_angles)
from .mass import (GromovDefect, MassEstimate, adm_flux_cube, adm_flux_sphere,
                   bartnik_gradient_integral, bartnik_sum_mass,
                   bkks_direction_mass, estimate, estimate_ladder,
                   gauss_bonnet_slice_mass,
                   gromov_cube_mass, gromov_defect)
from .metric import (FalloffAudit, MetricJet2, MetricModel, composed_model,
                     conformal_model, expression_model, falloff_audit,
                     flat_model, load_model, metric_jet, pullback_model,
                     schwarzschild_model)
from .quad import (QuadratureSpec, gauss_nodes, integrate_edges, integrate_face,
                   integrate_slice_curve, integrate_slices)
from .stern import (HarmonicTestFunction, SternSample, SternSurvey, flat_dipole,
                    flat_linear, flat_monopole, schwarzschild_radial,
                    stern_residual, stern_survey)

__all__ = [name for name in dir() if not name.startswith("_")]
