"""Null-solutions of the parabolic Dirac operator d_x + f d_t + fdag
and its four-parameter generalization d_x + zeta, with exact and
numeric verification."""

from .algebra import (AlgebraContext, AlgebraMismatchError, Multivector,
                      SplitForm, split, witt_basis)
from .builders import (ALL_MODES, SeriesSolution, build_generalized,
                       build_helmholtz, build_parabolic_closed,
                       build_parabolic_recurrence)
from .harmonics import (HarmonicPoly, MonogenicPoly, harmonic_basis,
                        harmonic_dimension, integer_rescale, monogenic_basis,
                        monogenic_decompose)
from .poly import rho_squared, vector_variable
from .scalars import GaussianRational
from .serialize import (load_solution, residual_report_to_dict, save_report,
                        save_solution, solution_from_dict, solution_to_dict)
from .timefn import (SpaceTimeFunction, TimeFunction, apply_0F1,
                     assemble_split, heat_residual, parabolic_dirac)
from .verify import (CheckReport, ResidualReport, check_component_conditions,
                     check_factorization, cross_check, dirac_residual,
                     perturb_component, symbolic_residual)
from .zeta import NotInvertibleError, PowerSeries, ZetaElement, sylvester_eval

__version__ = "0.1.0"

__all__ = [
    "AlgebraContext", "AlgebraMismatchError", "Multivector", "SplitForm",
    "split", "witt_basis",
    "rho_squared", "vector_variable",
    "GaussianRational",
    "TimeFunction", "SpaceTimeFunction", "apply_0F1", "assemble_split",
    "heat_residual", "parabolic_dirac",
    "HarmonicPoly", "MonogenicPoly", "harmonic_basis", "harmonic_dimension",
    "integer_rescale", "monogenic_basis", "monogenic_decompose",
    "ZetaElement", "PowerSeries", "NotInvertibleError", "sylvester_eval",
    "SeriesSolution", "ALL_MODES", "build_parabolic_closed",
    "build_parabolic_recurrence", "build_helmholtz", "build_generalized",
    "CheckReport", "ResidualReport", "check_factorization",
    "check_component_conditions", "dirac_residual", "cross_check",
    "perturb_component", "symbolic_residual",
    "solution_to_dict", "solution_from_dict", "save_solution",
    "load_solution", "residual_report_to_dict", "save_report",
    "__version__",
]
