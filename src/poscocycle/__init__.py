"""Positive random dynamical systems on R^N: random matrix cocycles and
cooperative / type-K linear ODE cocycles, with estimators for principal
directions, top Lyapunov exponents, and exponential-separation rates."""

__version__ = "0.1.0"

from .drivers import IidShift, MarkovShift, TorusRotation
from .errors import ConfigError, EstimationError, PositivityViolation
from .estimators import (AdjointCocycle, DivergenceDiagnostic, FloquetTrack,
                         MatrixCocycle, OdeCocycle, SeparationEstimate, forward_floquet,
                         lambda1_via_kappa, oseledets_qr, pullback_convergence,
                         separation_estimate, warmup_direction)
from .matrices import (AssumptionReport, ConstantMatrixModel, FocusingCertificate,
                       IidChoiceModel, LeslieModel, MarkovMatrixModel, MatrixModel,
                       SampledMatrixModel, UniformEntriesModel, check_D,
                       cocycle_product, focusing_certificate, leslie_matrix,
                       leslie_model, matrix_from_csv)
from .odes import (CallableOdeModel, ConstantOdeModel, IrreducibilityQuantities,
                   OdeModel, PiecewiseConstantOdeModel, check_O,
                   TypeKFlipModel, cooperative_sampler, integrate,
                   irreducibility_quantities, propagate)
from .torus import (FOCUSING_RATIO_BOUND, PRINCIPAL_DIRECTION, SEPARATION_RATE,
                    TorusExampleModel, validate_against_closed_form)
