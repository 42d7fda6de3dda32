"""axvit: approximate-multiplier emulation for toy vision transformers with
MCTS-based accuracy/power design space exploration."""

from .multipliers import (
    AxMultiplier,
    Catalog,
    ErrorMetrics,
    ProductLut,
    approx_product,
    approx_products,
    build_lut,
    builtin_catalog,
    error_metrics,
    load_catalog,
    load_lut,
    lut_lookup,
    parse_multiplier_spec,
    save_catalog,
    save_lut,
    EXACT_BASELINE_NAME,
)
from .quant import (
    HistogramCalibrator,
    QuantParams,
    dequantize,
    fake_quant,
    fake_quant_ste_grad,
    quantize,
)
from .model import (
    ModelConfig,
    VitModel,
    attention_forward,
    axx_matmul,
    calibrate,
    evaluate_accuracy,
    exact_int_matmul,
    init_model,
    linear_forward,
    load_checkpoint,
    save_checkpoint,
    vit_forward,
)
from .training import (
    TrainHyperparams,
    finetune,
    ste_gradient_check,
    toy_attention_experiment,
    train_float,
)
from .search import (
    MctsNode,
    SearchParams,
    SearchPoint,
    SearchResult,
    SensitivityTable,
    mcts_search,
    normalized_power,
    pareto_front,
    power_of_config,
    power_reduction_pct,
    predict_accuracy,
    profile_sensitivity,
    rollout_policy_probs,
    search_model,
    transformer_mac_counts,
    ucb_score,
)

__version__ = "0.1.0"
