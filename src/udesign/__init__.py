"""udesign: weighted unitary t-designs, tight rank-one POVMs and
ancilla-assisted quantum process tomography simulation."""

__version__ = '0.1.0'

from .channels import (
    ChannelEstimate,
    QuantumChannel,
    channel_distance,
    channel_from_spec,
    channel_gallery,
    depolarizing_channel,
    inverse_jamiolkowski,
    jamiolkowski,
    process_matrix,
    rotate_channel,
)
from .designs import (
    DesignCertificate,
    WeightedUnitarySet,
    assert_phase_distinct,
    certify,
    design_moment,
    frame_potential,
    gallery,
    gamma,
    group_closure,
    haar_moment,
    muub_check,
    pu2_muub_family,
    quat_to_unitary,
    uniform_set,
    unitary_operator_frame,
)
from .errors import (
    InvalidInputError,
    NotAPovmError,
    NotChannelImageError,
    NotInformationallyCompleteError,
    ResourceLimitError,
    UDesignError,
)
from .io import load_design, save_design
from .linalg import haar_unitary, herm_basis, make_rng, partial_trace
from .povm import (
    DiscretePovm,
    TomographyReport,
    canonical_dual,
    dual_frame_norm,
    estimate_channel,
    frame_superop,
    outcome_probabilities,
    povm_from_design,
    predicted_error,
    reconstruct,
    sample_counts,
    simulate,
    tight_check,
)
from .search import SearchConfig, SearchTrace, parametrize, refine, search, theta_from_set
