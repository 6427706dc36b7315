"""orliczkit: numerics for Musielak-Orlicz spaces and a Neumann energy solver.

The package computes modulars, Luxemburg-type norms and Sobolev-level norms
for x-dependent Young functions, certifies their structural inequalities on
random samples, and minimizes the associated nonlinear Neumann energy
J(u) = integral[Phi(x,|grad u|) + Phi(x,|u|)] - lam * integral G(x,u)
by trust-region Newton, with threshold formulas and qualitative
probes for the small- and large-parameter existence regimes.
"""

from .errors import DomainError, InputError, NumericsError
from .exponents import ExponentField
from .families import (MusielakFamily, StructureReport, check_structure,
                       custom_family, exponent_bounds, log_quotient_family,
                       log_weight_family, power_family)
from .grid import (DomainGrid, GridFunction, bump_function, gradient,
                   gradient_magnitude, integrate, load_function, make_grid,
                   quad_weights, random_function, save_function)
from .spaces import (conjugate_modular, conjugate_norm, luxemburg_norm,
                     modular, sobolev_modular, sobolev_norm, sobolev_norms)
from .energy import (EnergyConfig, ReactionFamily, directional_derivative,
                     energy, power_log_reaction, power_reaction,
                     power_sin_reaction, residual)
from .solver import (CoercivityReport, SmallTProbeReport, SolveReport,
                     SolverOptions, SweepReport, bump_seed, coercivity_probe,
                     estimate_embedding_constant, lambda_star_formula,
                     minimize, small_t_probe, sweep_lambda)
from .verify import VerifyReport, replay_witness, run_property_suite
from .config import family_from_text, family_to_text

__version__ = "0.1.0"

__all__ = [
    "DomainError", "InputError", "NumericsError",
    "ExponentField",
    "MusielakFamily", "StructureReport", "check_structure", "custom_family",
    "exponent_bounds", "family_from_text", "family_to_text",
    "log_quotient_family", "log_weight_family", "power_family",
    "DomainGrid", "GridFunction", "bump_function", "gradient",
    "gradient_magnitude", "integrate", "load_function", "make_grid",
    "quad_weights", "random_function", "save_function",
    "conjugate_modular", "conjugate_norm", "luxemburg_norm", "modular",
    "sobolev_modular", "sobolev_norm", "sobolev_norms",
    "EnergyConfig", "ReactionFamily", "directional_derivative", "energy",
    "power_log_reaction", "power_reaction", "power_sin_reaction", "residual",
    "CoercivityReport", "SmallTProbeReport", "SolveReport", "SolverOptions",
    "SweepReport", "bump_seed", "coercivity_probe", "estimate_embedding_constant",
    "lambda_star_formula", "minimize", "small_t_probe", "sweep_lambda",
    "VerifyReport", "replay_witness", "run_property_suite",
]
