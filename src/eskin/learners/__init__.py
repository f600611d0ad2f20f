"""From-scratch estimators used by the decoupling pipeline."""

from .forest import (
    ForestConfig,
    ForestModel,
    ForestTable,
    compile_forests,
    fit_forests,
    forest_fit,
    forest_predict,
)
from .gp import (
    GpHyper,
    GpModel,
    gp_fit,
    gp_grid_search,
    gp_predict,
    log_marginal_likelihood,
    rbf_kernel,
)
from .linear import LinearModel, ols_fit, ols_predict
from .preprocess import Standardizer
from .svm import SvmConfig, SvmModel, svm_decision_function, svm_fit, svm_predict
