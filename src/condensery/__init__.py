"""Dataset condensation by layer-wise feature alignment.

Learns a small synthetic training set from a large real one by matching
per-class, per-layer feature statistics while forcing synthetic class
centers to classify real samples, driven by a dynamic bi-level
optimization loop. Ships coreset baselines, an evaluation harness, and a
small reverse-mode autodiff core everything runs on.
"""

from .bilevel import AccQueue, CondenseConfig, CondenseState, inner_step, outer_step, \
    query_accuracy, run_condense
from .coreset import SelectionResult, forgetting_events, materialize, select_forgetting, \
    select_herding, select_kcenter, select_random
from .data import LabeledDataset, NormStats, SyntheticSet, denormalize, \
    export_projection_csv, load_idx, load_synthetic, make_blob_split, make_blobs, \
    new_synthetic, normalize, save_synthetic
from .errors import CondenseryError, ConfigError, DimensionError, InputError, \
    ParseError, UsageError
from .evaluate import EvalConfig, EvalReport, evaluate_protocol, record_training_trace, \
    test_accuracy, train_on_synthetic
from .losses import ClassMeans, LossBreakdown, cwfa, discrimination_logits, \
    discrimination_loss, feature_alignment_loss, total_loss
from .models import ConvNetSpec, FeaturePyramid, MLPSpec, ModelParams, convnet_forward, \
    forward, init_params, mlp_forward
from .tensor import Tensor, backward, sgd_step

__version__ = "0.1.0"
