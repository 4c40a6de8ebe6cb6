"""Unitary-induced channel families on paired ancillas.

Finite-dimensional tensor and commuting models, their induced channel
families computed by two independent formulas (direct conjugation and
moment-table contraction), CPTP audits, the Fourier bridge between
channels and Bell behaviours, and a see-saw optimizer over strategies.
"""

__version__ = "0.1.0"

from .bell import (Behaviour, behaviour_direct, behaviour_from_channel, bell_value,
                   chsh_functional, chsh_optimal_strategy, diagonal_moment_behaviour,
                   fourier_coeffs, sub_povm_total_bound)
from .channels import (ChannelFamily, CPTPReport, MomentTable, channel_direct,
                       channel_from_moments, choi, cptp_report, moment_table,
                       moments_from_channel)
from .errors import (DimensionMismatchError, DomainError, InconsistentChannelError,
                     InvalidModelError, PipelineInconsistencyError)
from .linalg import herm_eig, swap_matrix, tol
from .models import (Check, CommutingModel, PVMFamily, TensorModel,
                     diagonal_fourier_lift, embed_tensor_as_commuting, random_model,
                     random_pvm_family, random_tensor_model, validate_commuting)
from .seesaw import (LiftVerification, SeesawConfig, SeesawResult, lift_and_verify,
                     optimize_bell)

__all__ = [
    "__version__",
    "Behaviour", "behaviour_direct", "behaviour_from_channel", "bell_value",
    "chsh_functional", "chsh_optimal_strategy", "diagonal_moment_behaviour",
    "fourier_coeffs", "sub_povm_total_bound",
    "ChannelFamily", "CPTPReport", "MomentTable", "channel_direct",
    "channel_from_moments", "choi", "cptp_report", "moment_table",
    "moments_from_channel",
    "DimensionMismatchError", "DomainError", "InconsistentChannelError",
    "InvalidModelError", "PipelineInconsistencyError",
    "herm_eig", "swap_matrix", "tol",
    "Check", "CommutingModel", "PVMFamily", "TensorModel",
    "diagonal_fourier_lift", "embed_tensor_as_commuting", "random_model",
    "random_pvm_family", "random_tensor_model", "validate_commuting",
    "LiftVerification", "SeesawConfig", "SeesawResult", "lift_and_verify",
    "optimize_bell",
]
