"""Interval ARX forecasting over a pattern moving space.

A scalar operating-condition series is clustered into ordered pattern
classes, each represented by a closed interval; the encoded interval
series is modeled by a two-channel interval ARX predictor whose center
channel is fit by least squares and whose radius channel is fit by
nonnegative least squares. Forecasts are snapped back onto the pattern
classes, so final outputs always live in the space they were learned from.
"""

from .errors import (
    ClusteringError,
    ConfigError,
    ConvergenceWarning,
    DataError,
    IarxError,
    IdentificationError,
    SimulationError,
)
from .intervals import (
    Interval,
    PairMatrix,
    add,
    hausdorff_distance,
    pair_product,
    scale,
    sub,
)
from .pattern_space import FcmConfig, PatternClass, PatternSpace, build_space, fcm_cluster
from .model import (
    IarxParams,
    QpProblem,
    RegressorPair,
    assemble_qp,
    build_regressors,
    fit,
    fit_center,
    fit_radius,
    nnls,
    predict,
    predict_compositional,
    solve_qp_nonneg,
)
from .pipeline import (
    EncodedSeries,
    ForecastRecord,
    ForecastTrace,
    MovingPatternModel,
    RmseReport,
    RobustnessResult,
    SweepCell,
    evaluate,
    fit_model,
    forecast_series,
    perturb_center_params,
    perturb_radius_params,
    rmse_from_records,
    robustness_experiment,
    sweep_cpms,
)
from .data_io import (
    RawDataset,
    StepScheduleInput,
    SynthesisResult,
    SyntheticSpec,
    WhiteNoiseInput,
    default_synthetic_spec,
    load_csv,
    pca_project,
    synthesize,
    zero_mean_normalize,
)

__version__ = "0.1.0"

__all__ = [
    "Interval",
    "PairMatrix",
    "add",
    "sub",
    "scale",
    "hausdorff_distance",
    "pair_product",
    "FcmConfig",
    "PatternClass",
    "PatternSpace",
    "fcm_cluster",
    "build_space",
    "IarxParams",
    "RegressorPair",
    "QpProblem",
    "build_regressors",
    "predict",
    "predict_compositional",
    "fit_center",
    "fit_radius",
    "fit",
    "assemble_qp",
    "nnls",
    "solve_qp_nonneg",
    "EncodedSeries",
    "MovingPatternModel",
    "ForecastRecord",
    "ForecastTrace",
    "RmseReport",
    "SweepCell",
    "RobustnessResult",
    "fit_model",
    "forecast_series",
    "evaluate",
    "rmse_from_records",
    "sweep_cpms",
    "perturb_radius_params",
    "perturb_center_params",
    "robustness_experiment",
    "RawDataset",
    "WhiteNoiseInput",
    "StepScheduleInput",
    "SyntheticSpec",
    "SynthesisResult",
    "load_csv",
    "zero_mean_normalize",
    "pca_project",
    "synthesize",
    "default_synthetic_spec",
    "IarxError",
    "DataError",
    "ConfigError",
    "ClusteringError",
    "IdentificationError",
    "SimulationError",
    "ConvergenceWarning",
    "__version__",
]
