"""Constrained de Finetti reductions and separability bounds, verified exactly at desk scale."""

from .operators import (
    DensityMatrix,
    Dims,
    HermitianOperator,
    KrausChannel,
    ResourceCapError,
    apply_channel,
    completely_depolarizing_channel,
    density,
    haar_state_vector,
    hermitian,
    identity_channel,
    identity_operator,
    induced_mixed_state,
    max_side,
    min_eigenvalue,
    partial_trace,
    pauli_twirl_channel,
    permute_factors,
    pure_state_density,
    qc_dephasing_channel,
    set_max_side,
    stream,
    sym_projector,
    symmetric_state_vector,
    tensor,
    tensor_power,
)

__version__ = "0.1.0"
