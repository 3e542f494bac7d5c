"""Simulation and certification toolkit for fixed-step Kuramoto dynamics and
explicit gradient-descent flows on the unwrapped phase line."""

from .core import (
    NaturalFrequencies,
    OrderParameter,
    PhaseConfig,
    SimParams,
    diameter,
    kuramoto_gradient,
    kuramoto_potential,
    order_parameter,
)
from .integrate import (
    DivergenceError,
    ErrorBoundReport,
    Rk4Path,
    Trajectory,
    euler_error_bound,
    euler_step,
    rk4_reference,
    rk4_step,
    simulate,
    simulate_batch,
)
from .descent import (
    DescentProblem,
    DescentResult,
    LojasiewiczProbe,
    certify_descent,
    gradient_square_sum,
    kuramoto_problem,
    lojasiewicz_probe,
    run_descent,
)
from .analysis import (
    Certificate,
    ClusterSpec,
    DecayFit,
    EquilibriumState,
    InitialClassification,
    certify_bipolar_bounds,
    certify_cluster_invariance,
    certify_diameter_decay,
    certify_two_sided_decay,
    certify_uniform_bound,
    check_bipolar_containment,
    check_order_preservation,
    classify_initial,
    cluster_spec,
    coupling_threshold,
    effective_phases,
    effective_series,
    fit_decay_rate,
    match_equilibrium,
)
from . import inits

__version__ = "0.1.0"
