"""Domain-generalization training lab.

Trains classifiers that hold up on unseen data-generating regimes without
ever seeing domain labels, by aligning class-conditional soft labels and by
shuffle-masking low-saliency input observations. Built on a small
reverse-mode autodiff core with synthetic multi-domain benchmarks and a
leave-one-domain-out evaluation harness.
"""

from .autodiff import GradMap, Tensor, backward, grad_check, no_grad
from .data import (
    DomainDataset,
    TrainView,
    class_balanced_batches,
    generate_shifted_waveforms,
    generate_spurious_gaussian,
    leave_one_domain_out,
    load_dataset,
    save_dataset,
    split_holdout,
)
from .errors import (
    ConfigError,
    ContractError,
    DataFormatError,
    DimensionError,
    NumericError,
)
from .evaluation import (
    RunReport,
    ablation_grid,
    evaluate,
    export_features,
    lodo_experiment,
)
from .losses import (
    SoftLabelBatch,
    alignment_loss,
    cross_entropy,
    objective_parts,
)
from .masking import augment_batch, mask_below_percentile, sample_threshold
from .models import (
    Model,
    build_cnn1d,
    build_mlp,
    features,
    forward,
    load_model,
    model_batch,
    save_model,
)
from .saliency import SmoothGradConfig, smoothgrad, vanilla_saliency
from .trainer import TrainConfig, TrainHistory, choose_strategy, lr_schedule, train, train_step

__version__ = "0.1.0"
