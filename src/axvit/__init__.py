"""axvit: approximate-multiplier emulation for toy vision transformers with
MCTS-based accuracy/power design space exploration.

The names below are the entry points the demos, README and tests use; the
rest is reached through its module (``axvit.multipliers``, ``axvit.quant``,
``axvit.model``, ``axvit.training``, ``axvit.search``, ``axvit.data``)."""

from .multipliers import (
    approx_product,
    approx_products,
    build_lut,
    builtin_catalog,
    error_metrics,
    lut_lookup,
    parse_multiplier_spec,
)
from .quant import HistogramCalibrator, QuantParams, dequantize, quantize
from .model import (
    ModelConfig,
    calibrate,
    evaluate_accuracy,
    init_model,
    load_checkpoint,
    save_checkpoint,
    vit_forward,
)
from .training import TrainHyperparams, finetune
from .search import SearchParams, power_of_config, profile_sensitivity, search_model

__version__ = "0.1.0"
