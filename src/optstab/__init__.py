"""Stability of optimal values under set perturbations.

A numpy/scipy toolkit for pseudo-distance spaces: Hausdorff-type distances
between set models, sup/inf operators with stability verifiers, parametric
value functions, generalized inverses with certified Lipschitz constants,
gradient-Lipschitz ladders, and a bracketed convergence scheme for optimal
values over approximating sets.
"""

from .extreal import INF, NEG_INF, inf_of, row_form, scale, sup_of
from .distances import (PseudoDistance, absolute, energy_ladder, euclidean,
                        eval_distance, gauge_distance)
from .gauges import GaugeSet, InvalidGaugeError, conjugate_gauge, minkowski_gauge
from .sets import (AffineSlab, AxisSegments, DistanceReport, FiniteCloud,
                   ImplicitSampled, Interval, IntervalUnion, SetModel,
                   asym_hausdorff, hausdorff, load_set, point_set_distance,
                   save_set)
from .optima import (ContinuousOnly, LinearPiece, Lipschitz, ObjectiveFn,
                     OptValue, UniformModulus, check_finite_stability,
                     check_infinite_escape, domain_transfer_check, inf_over,
                     minimizer_set_instability_demo,
                     piecewise_linear_objective, sup_over)
from .parametric import (ParamFamily, ValueFunction, certify_value_lipschitz,
                         empirical_hausdorff_limsup, eval_value_function)
from .linear import (EGI, AffineFamily, LinearMap, affine_family, decompose,
                     hoffman_check, penrose_residuals, penrose_table,
                     pseudo_inverse, restricted_inverse_egi)
from .ladder import (LadderResult, SmoothProblem, build_ladder, hessian_sup,
                     solve_radius)
from .scheme import (ConvergenceCertificate, SchemeInstance,
                     build_inner_grid_family, build_inner_polygon_family,
                     run_scheme)
from . import instances

__version__ = "0.1.0"
