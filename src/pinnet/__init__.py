"""Pinning-node selection and consensus simulation for coupled networks.

The package splits into five layers: ``network`` builds directed weighted
graphs, Laplacians and multi-network overlap structure; ``stability`` reduces
the pinning-consensus matrix inequality to symmetric eigenvalue tests and
solves minimal certifying gains; ``dynamics`` integrates the coupled node
dynamics and derives error and Lyapunov series; ``ga`` searches binary pinning
sets with a violation penalty; and ``harness`` reproduces the study scenarios
end to end (with a CLI in ``cli``).
"""

from .network import (
    PROFILES,
    DirectedNetwork,
    LaplacianPair,
    MembershipProfile,
    MultiNetworkSystem,
    build_multinetwork,
    generate_adjacency,
    generate_membership,
    laplacian,
    load_adjacency,
    make_network,
    save_adjacency,
    single_network_system,
)
from .stability import (
    FeasibilityResult,
    PinningPlan,
    StabilityParams,
    check_gain,
    infeasibility_multi,
    joint_stability_margin,
    min_eigenvalue,
    solve_min_gain,
    stability_matrix,
    violation_norm,
)
from .dynamics import (
    DivergenceError,
    SimulationConfig,
    Trajectory,
    convergence_time,
    export_errors_csv,
    export_trajectory_csv,
    lyapunov_series,
    simulate_multi,
    simulate_single,
)
from .ga import (
    GaConfig,
    GaReport,
    crossover,
    evolve,
    fitness,
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
