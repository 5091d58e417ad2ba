"""Multiqubit noisy-channel simulation, transfer matrices, noise
deconvolution and channel characterization."""

from .channels import (
    PTM,
    KrausChannel,
    apply_channel,
    bit_flip_channel,
    channel_from_config,
    correlated_amplitude_damping,
    correlated_pauli_channel,
    correlated_pauli_weights,
    dephasing_channel,
    depolarizing_channel,
)
from .characterization import (
    CharacterizedPTM,
    estimate_diagonal_entries,
    estimate_full_ptm,
    positivity_certificates,
    probe_state,
)
from .deconvolution import (
    DeconvolutionPlan,
    deconvolve,
    plan,
    plan_general,
    plan_pauli,
    propagated_std_error,
)
from .pauli import (
    MAX_QUBITS,
    Observable,
    label_index,
    pauli_element,
    pauli_label,
    vectorize,
)
from .simulator import (
    ExpectationRecord,
    ExperimentConfig,
    records_to_csv,
    run_experiment,
)

__version__ = "0.1.0"
