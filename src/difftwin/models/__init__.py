from .base import DifferentiableModel, fd_jacobian
from .conveyor import conveyor_model, delay_interpolation_weights
from .layouts import (
    HISTORY_SLOTS,
    MATERIALS,
    SIZES,
    STEP_SECONDS,
    StateLayout,
    conveyor_layout,
    hist_name,
    magsorter_layout,
    siever_layout,
)
from .lowpass import history_prediction, lowpass_prediction, shift_register_rows
from .magsorter import magsorter_model
from .mlp import MlpModel, mlp_forward, mlp_jacobian, mlp_train
from .siever import (
    ResidenceKernel,
    fit_splits,
    fit_step_response,
    siever_model,
    split_fractions,
)

__all__ = [
    "DifferentiableModel",
    "fd_jacobian",
    "conveyor_model",
    "delay_interpolation_weights",
    "HISTORY_SLOTS",
    "MATERIALS",
    "SIZES",
    "STEP_SECONDS",
    "StateLayout",
    "conveyor_layout",
    "hist_name",
    "magsorter_layout",
    "siever_layout",
    "history_prediction",
    "lowpass_prediction",
    "shift_register_rows",
    "magsorter_model",
    "MlpModel",
    "mlp_forward",
    "mlp_jacobian",
    "mlp_train",
    "ResidenceKernel",
    "fit_splits",
    "fit_step_response",
    "siever_model",
    "split_fractions",
]
