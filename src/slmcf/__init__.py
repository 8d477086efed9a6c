"""Space-like graphical mean curvature flow with prescribed contact angle.

Simulates graphs over strictly convex domains in a curved two-dimensional
background evolving inside the product Lorentz geometry, verifies the
long-time convergence to rigidly translating profiles, and checks the
quantitative run invariants (space-like bounds, speed maximum principle,
oscillation decay, energy balance).
"""

__version__ = "0.1.0"

from .domain import ConvexDomain, build_domain
from .errors import (CheckPreconditionError, ContinuationError, GridError,
                     NewtonError, NonConvexDomainError, ScenarioError,
                     SlmcfError, SpacelikeBoundaryError, SpacelikeViolationError,
                     StepSizeUnderflowError, UnknownMetricError)
from .flow import (FlowRun, FlowState, PairRun, StepperConfig, run_pair,
                   run_to_convergence)
from .geometry import EVO_DU_CONVENTIONS, evo_du_rhs, mean_curvature_field
from .grid import ContactAngle, CurvilinearGrid, GridFunction, build_grid
from .metrics import get_metric, metric_ids
from .oracle import RadialOracle, translator_oracle
from .translator import ContinuationSchedule, TranslatorSolution, compute_c3, continuation
from .verify import (CheckReport, c1_formula, check_evo_du_residual, check_maximal_limit,
                     check_osc_decay, check_spacelike_bound, check_translator_agreement,
                     check_ut_max_principle, monitor_constants, render_reports)
