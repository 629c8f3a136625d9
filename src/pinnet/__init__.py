"""Pinning-node selection and consensus simulation for coupled networks.

The package splits into five layers: ``network`` builds directed weighted
graphs, Laplacians and multi-network overlap structure; ``stability`` reduces
the pinning-consensus matrix inequality to symmetric eigenvalue tests and
solves minimal certifying gains; ``dynamics`` integrates the coupled node
dynamics, recording per-node errors and the Lyapunov value at every step;
``ga`` searches binary pinning sets with a violation penalty; and ``harness``
reproduces the study scenarios end to end (with a CLI in ``cli``).
"""

from .network import (
    PROFILES,
    DirectedNetwork,
    LaplacianPair,
    MembershipProfile,
    MultiNetworkSystem,
    generate_adjacency,
    generate_membership,
    laplacian,
    load_adjacency,
    save_adjacency,
)
from .stability import (
    FeasibilityResult,
    StabilityParams,
    check_gain,
    solve_min_gain,
    stability_matrix,
)
from .dynamics import (
    DivergenceError,
    SimulationConfig,
    Trajectory,
    convergence_time,
    export_errors_csv,
    export_trajectory_csv,
    simulate_multi,
)
from .ga import (
    GaConfig,
    GaReport,
    crossover,
    evolve,
    init_population,
    mutate,
    tournament_select,
)
from .harness import (
    BatchSummary,
    FixedGainStudy,
    NetworkSpec,
    Scenario,
    TrialOutcome,
    brute_force_min_pinning,
    build_system,
    builtin_scenario,
    draw_initial_states,
    fixed_gain_study,
    load_scenario,
    run_batch,
    run_scenario,
    save_scenario,
)

__version__ = "0.1.0"
