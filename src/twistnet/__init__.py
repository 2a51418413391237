"""Combinatorial feature-combination networks for tabular data.

The library expands a feature vector into products (or pairwise sums of
products) over all m-subsets, feeds the expanded representation through a
small residual network, and trains the whole thing with hand-written
reverse-mode gradients. Everything is deterministic given a seed.
"""

from types import ModuleType as _ModuleType

from .data import (
    PRODUCT_SIGN,
    THREE_WAY_PRODUCT_SIGN,
    Dataset,
    NormStats,
    Pipeline,
    combine,
    load_csv,
    save_csv,
    stratified_split,
    synth_interaction,
    zscore_apply,
    zscore_fit,
)
from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    ParseError,
    SchemaError,
    ShapeError,
    StateError,
)
from .featcomb import (
    MULTIPLICATIVE,
    PAIRWISE_SUM,
    CombinationSpec,
    CombinedFeatures,
    combine_backward,
    combined_feature_names,
    enumerate_subsets,
    transform_dataset,
)
from .layers import (
    INFER,
    TRAIN,
    BatchNorm,
    Conv1D,
    Dense,
    Dropout,
    ReLULayer,
    ResidualBlock,
    he_init,
    relu,
    softmax_cross_entropy,
)
from .model import (
    Checkpoint,
    ModelConfig,
    ModelGraph,
    backward,
    build_baseline,
    build_tcn,
    forward,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from .ndcore import RNG_ALGORITHM, Rng
from .train import (
    AdamState,
    EvalResult,
    TrainConfig,
    TrainHistory,
    adam_step,
    evaluate,
    find_check_batch,
    grad_check_report,
    kink_distance,
    l2_penalty,
    train_loop,
)

__version__ = "0.1.0"

# every name imported above, so each public name is listed once; the
# submodules themselves are not exported
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
