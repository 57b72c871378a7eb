"""Numerical laboratory for degenerate weighted p-Laplacian diffusion.

The package solves u_t = div(w(x) |grad u|^{p-2} grad u) + f(x, t, u) on
radial and tensor-product grids with homogeneous Dirichlet data, and ships
the surrounding toolbox: weight admissibility checks, a nonlinear
eigensolver, an adaptive implicit time stepper with blow-up detection, and
diagnostics (closed-form ODE comparisons, self-similar reference solutions,
decay-rate fits).
"""

from types import ModuleType as _ModuleType

from .errors import (
    ConfigError,
    ConvergenceError,
    DegenflowError,
    DivergenceError,
    FitError,
    NumericalError,
    ShapeError,
)
from .weight_models import (
    DoublingReport,
    MuckenhouptReport,
    WeightSpec,
    ball_mass,
    check_doubling,
    check_muckenhoupt,
    eval_radial,
    surface_area,
)
from .discretization import (
    Field,
    Grid,
    build_grid,
    cell_volumes,
    integrate,
    weight_on_grid,
    write_field_csv,
)
from .plap_operator import (
    ReactionSpec,
    apply_plaplacian,
    energy,
    energy_hessian_matrix,
    face_operator,
    reaction_derivative,
    reaction_eval,
    variational_dot,
)
from .jsonio import write_json
from .eigensolver import EigenPair, smallest_eigenpair, steady_state
from .timestepper import (
    BlowupBracket,
    ProblemSpec,
    RunOutcome,
    Trajectory,
    bisect_dichotomy,
    estimate_blowup_time,
    run_simulation,
    # steps a Field; timestepper.step_implicit steps a run's interior vector
    _step_field as step_implicit,
)
from .diagnostics import (
    Exponents,
    OdeParams,
    barenblatt_corrected,
    barenblatt_exact,
    bernoulli_blowup,
    bernoulli_comparison,
    bernoulli_time,
    blowup_threshold,
    decay_exponent_fit,
    exp_forced_bound,
    exp_forced_comparison,
    fit_bernoulli_constant,
    fit_exp_forced_constant,
    residual_check,
)

__version__ = "0.1.0"

# every public name bound above, the submodules excepted
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)] + ["__version__"]
