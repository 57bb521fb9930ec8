from .features import FeatureRegistry, TokenFeatures, featurize
from .crf import CrfConfig, CrfModel, crf_train, viterbi
from .lstm_crf import LstmCrfConfig, LstmCrfModel, lstm_crf_train
from .svm import SvmModel, svm_train

__all__ = [
    "FeatureRegistry",
    "TokenFeatures",
    "featurize",
    "CrfConfig",
    "CrfModel",
    "crf_train",
    "viterbi",
    "LstmCrfConfig",
    "LstmCrfModel",
    "lstm_crf_train",
    "SvmModel",
    "svm_train",
]
