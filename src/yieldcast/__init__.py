"""Crop yield regression from climate and pesticide panel data.

Ingests country-year climate series and FAOSTAT tables into a merged
panel, then fits and cross-validates six from-scratch regressors (OLS,
SGD-trained linear, CART, gradient boosting, k-NN, random forest) plus
their averaging ensemble, with deterministic JSON artifacts throughout.
"""

__version__ = "0.1.0"

from .core import (
    ClimateRecord,
    FaoRecord,
    FeatureConfig,
    FeatureMatrix,
    PanelTable,
    Scaler,
    build_feature_matrix,
    train_test_split,
)
from .errors import YieldcastError

__all__ = [
    "__version__",
    "ClimateRecord",
    "FaoRecord",
    "FeatureConfig",
    "FeatureMatrix",
    "PanelTable",
    "Scaler",
    "build_feature_matrix",
    "train_test_split",
    "YieldcastError",
]
