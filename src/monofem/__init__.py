"""monofem: P1 finite elements for the monodomain reaction-diffusion system
with residual-based a posteriori error indicators.

Modules: `mesh` (structured grids, refined to twice the width), `assembly`
(P1 matrices and quadrature), `ionic` (Aliev-Panfilov kinetics), `solver`
(implicit Euler + Newton-Galerkin), `estimators` (space/time/linearization
indicators and the cumulative bound), `verify` (reference solutions, X/Y
error norms and the three studies), `cli` (experiment commands).
"""

from .mesh import (TriMesh, unit_square_mesh, refine_uniform, mesh_chain,
                   prolongation, write_vtk)
from .assembly import (QuadratureRule, quadrature_rule, l2_project,
                       evaluate_p1, DiscreteOperators)
from .ionic import AlievPanfilovParams, ReactionEval, react, initial_data
from .solver import (StateField, NewtonConfig, TrajectorySolution,
                     newton_solve, time_march, SolverError, NewtonError)
from .estimators import (space_indicator, time_indicator,
                         linearization_indicator, simplified_indicators,
                         cumulative_bound, estimate_trajectory,
                         EstimatorReport, TrajectoryEstimate)
from .verify import (ErrorNorms, StudyResult, build_reference, error_curve,
                     upper_bound_study, convergence_study, newton_study)

__version__ = "0.1.0"
