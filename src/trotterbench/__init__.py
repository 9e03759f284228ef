"""Trotterized transverse-field Ising dynamics on a dense statevector
simulator, benchmarked against exact evolution: free fermions on the open
chain, dense spin-flip sectors on the periodic chain."""

__version__ = "0.1.0"

from .circuit import Circuit, circuit_unitary, gate_counts
from .exact import build_hamiltonian, exact_series
from .kernels import active_backend
from .noise import DEVICE_LIKE, NoiseParams, noisy_execute
from .observables import (
    ErrorSummary,
    MagnetizationSeries,
    error_series,
    local_magnetization_from_counts,
    scaling_fit,
)
from .runner import (
    RunConfig,
    RunResult,
    compare_command,
    run_command,
    scaling_command,
    sweep_command,
)
from .statevector import (
    all_down_state,
    execute,
    init_basis_state,
    sample_bitstrings,
)
from .trotter import (
    TfimParams,
    build_evolution_circuit,
    first_order_step,
    symmetric_step,
)

__all__ = [
    "__version__",
    "Circuit",
    "circuit_unitary",
    "gate_counts",
    "init_basis_state",
    "all_down_state",
    "execute",
    "sample_bitstrings",
    "TfimParams",
    "first_order_step",
    "symmetric_step",
    "build_evolution_circuit",
    "build_hamiltonian",
    "exact_series",
    "NoiseParams",
    "DEVICE_LIKE",
    "noisy_execute",
    "MagnetizationSeries",
    "ErrorSummary",
    "local_magnetization_from_counts",
    "error_series",
    "scaling_fit",
    "RunConfig",
    "RunResult",
    "run_command",
    "sweep_command",
    "compare_command",
    "scaling_command",
    "active_backend",
]
