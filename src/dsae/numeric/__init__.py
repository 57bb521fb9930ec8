from .optim import (
    AdamState,
    LbfgsConfig,
    LbfgsResult,
    adam_step,
    adam_train,
    grad_check,
    lbfgs_minimize,
)
from .rng import Rng

__all__ = [
    "AdamState",
    "LbfgsConfig",
    "LbfgsResult",
    "adam_step",
    "adam_train",
    "grad_check",
    "lbfgs_minimize",
    "Rng",
]
