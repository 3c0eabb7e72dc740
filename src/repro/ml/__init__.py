"""Estimation substrate (paper §3.3, §5.2, A.4): NumPy-only regressors (CART
trees, random forests, linear and ridge regression) in place of the original
implementation's sklearn, feature encoders, equi-width and equi-depth
bucketization (Figure 9), frequency-table conditional estimators with the
paper's zero-support index, and estimation-quality metrics.
"""

from .density import ConditionalMeanRegressor, FrequencyTable, make_regressor
from .discretize import Discretizer, equal_depth_edges, equal_width_edges
from .encoding import ColumnEncoder, FeatureEncoder
from .forest import RandomForestRegressor
from .linear import LinearRegression, RidgeRegression
from .metrics import mean_absolute_error, mean_squared_error, r2_score, relative_error
from .tree import DecisionTreeRegressor

__all__ = [
    "ColumnEncoder",
    "ConditionalMeanRegressor",
    "DecisionTreeRegressor",
    "Discretizer",
    "FeatureEncoder",
    "FrequencyTable",
    "LinearRegression",
    "RandomForestRegressor",
    "RidgeRegression",
    "equal_depth_edges",
    "equal_width_edges",
    "make_regressor",
    "mean_absolute_error",
    "mean_squared_error",
    "r2_score",
    "relative_error",
]
