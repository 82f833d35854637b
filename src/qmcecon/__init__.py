"""Statevector engine for amplitude-estimation Monte Carlo, with economics
workloads and gate-level runtime benchmarking."""

from .sim import (
    Circuit,
    Gate,
    ResourceLimitError,
    StateVector,
    apply_circuit,
    apply_gate,
    dense_unitary,
    init_state,
    probabilities,
)
from .circuits import (
    GateTimeModel,
    ResourceReport,
    count_resources,
    decompose,
    inverse_qft,
    mcx,
)
from .distributions import (
    DiscretizedDistribution,
    TrainingSchedule,
    VariationalAnsatz,
    ansatz_circuit,
    ansatz_cost,
    discretize_beta,
    discretize_normal,
    exact_state_prep,
    train_ansatz,
)
from .engine import (
    LinearRParams,
    PhaseEstimate,
    QMCConfig,
    RandomVariableSpec,
    build_F,
    build_R_exact,
    build_R_linear,
    build_controlled_Q,
    denormalize_mu,
    extract_theta,
    grover_operator,
    normalize_rv,
    phase_estimation,
    run_qmc,
    theta_to_mu,
)

__all__ = [name for name in dir() if not name.startswith("_")]
