"""Stacked and spatio-temporal stacked peephole-LSTM forecasting.

Two 2-layer recurrent architectures for multi-location daily series:
an early-fusion stacked LSTM, and a variant with one independent
layer-1 cell per location whose hidden states are concatenated before
the shared second layer. Both train with quadratic loss plus L2
regularization and are verified by finite-difference gradient oracles,
exact parameter-count formulas, and a block-diagonal equivalence test
between the two architectures.
"""

from .cell import ACTIVATIONS, CellParams, CellState
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    Dataset,
    Manifest,
    WindowArrays,
    gen_synthetic,
    load_dataset,
    load_manifest,
    make_windows,
    normalize,
    synthetic_series,
    test_windows,
    train_windows,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    DivergenceError,
    NonFiniteResultError,
    ReportError,
    ShapeError,
    StlstmError,
)
from .metrics import EvalReport, comparison_csv, comparison_report, comparison_text, mae, median_low, mse
from .model import (
    ModelParams,
    ModelSpec,
    block_diagonal_embed,
    dense_head,
    init_model_params,
    model_backward,
    model_forward,
    param_count,
    random_model_params,
    zero_model_params,
)
from .train import (
    GradCheckReport,
    RepeatedResult,
    RunResult,
    TrainConfig,
    gradcheck,
    loss,
    predict_batch,
    train_once,
    train_repeated,
)

__version__ = "0.1.0"
