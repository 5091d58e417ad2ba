"""Multiqubit noisy-channel simulation, transfer matrices, noise
deconvolution and channel characterization."""

from .channels import (
    PTM,
    KrausChannel,
    adjoint_ptm,
    apply_channel,
    bit_flip_channel,
    channel_from_config,
    compose,
    correlated_amplitude_damping,
    correlated_pauli_channel,
    correlated_pauli_weights,
    dephasing_channel,
    depolarizing_channel,
    ptm_power,
)
from .characterization import (
    CharacterizedPTM,
    ProbeState,
    estimate_diagonal_entries,
    estimate_diagonal_entry,
    estimate_full_ptm,
    is_positive_semidefinite,
    positivity_certificate,
    positivity_coefficients,
    probe_state,
)
from .deconvolution import (
    DeconvolutionPlan,
    deconvolve,
    plan,
    plan_composed,
    plan_from_characterization,
    plan_general,
    plan_pauli,
    propagated_std_error,
    reconstruction_factor,
)
from .pauli import (
    MAX_QUBITS,
    Observable,
    PauliIndex,
    devectorize,
    hs_inner,
    pauli_element,
    vectorize,
)
from .sampling import exact_pauli_expectation
from .simulator import (
    ExpectationRecord,
    ExperimentConfig,
    evolve,
    expectation_sampled,
    records_to_csv,
    run_experiment,
)

__version__ = "0.1.0"
