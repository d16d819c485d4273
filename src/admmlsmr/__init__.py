"""Gradient-free feed-forward network training with a fixed-point LSMR core."""

from .fixedpoint import (
    DETERMINISTIC_MODES,
    FIXED16,
    FIXED32,
    FixedFormat,
    FixedFormatError,
    FixedWord,
    RoundingMode,
    SaturationStats,
    convert,
    make_stream,
    value_of,
)
from .matrix import (
    FixedMatrix,
    dequantize_matrix,
    mat_mul_fixed,
    quantize_matrix,
)
from .lsmr import (
    LsmrJob,
    lsmr_solve,
    lsmr_solve_multi,
)
from .admm import (
    IterationTimings,
    NetworkConfig,
    NetworkState,
    SolveEngine,
    TrainReport,
    TrainingDivergedError,
    accuracy,
    activation_update,
    init_network,
    lagrangian_update,
    predict,
    train,
    weight_update,
    z_update_hidden,
    z_update_output,
)
from .data import (
    DataError,
    Dataset,
    Split,
    add_bias_feature,
    iris_path,
    load_csv,
    one_hot,
    split,
    standardize,
    subsample,
    synthetic_blobs,
)

__version__ = "0.1.0"
