from .crf import CrfConfig, CrfModel, crf_train
from .lstm_crf import LstmCrfConfig, LstmCrfModel, lstm_crf_train
from .svm import svm_train

__all__ = [
    "CrfConfig",
    "CrfModel",
    "crf_train",
    "LstmCrfConfig",
    "LstmCrfModel",
    "lstm_crf_train",
    "svm_train",
]
