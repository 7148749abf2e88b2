"""EEG-spectrogram drowsiness detection: capsule network, CNN baseline, and evaluation harness."""

from .tensor import (
    GraphError,
    NumericError,
    Tensor,
    affine,
    conv2d,
    cross_entropy_logits,
    dropout,
    einsum2,
    maxpool2d,
    no_grad,
    pad2d,
    relu,
    sigmoid,
    softmax_axis,
    truncated_normal,
)
from .optim import AdamState, adam_init, adam_step
from .config import RunSettings, TrainConfig
from .signal import (
    Channel,
    ChannelSet,
    EegRecording,
    Label,
    Pvt,
    SpectrogramImage,
    build_dataset,
    build_synth_corpus,
    label_from_kss,
    load_dataset,
    load_recording,
    segment,
    stft_spectrogram,
    synth_eeg,
    to_grayscale_image,
)
from .augment import augment_one, coarse_dropout, expand_dataset
from .capsnet import CapsNetParams, capsnet_forward, dynamic_routing, margin_loss, squash, total_loss, votes
from .cnn import CnnParams, cnn_forward, cnn_loss
from .mlp import MlpParams, mlp_forward
from .metrics import ConfusionMatrix, MetricsReport, aggregate, metrics, normalize_confusion
from .splits import SplitPlan, make_splits
from .training import evaluate, load_model, save_model, train_model
from .experiment import ExperimentReport, run_experiment

__version__ = "0.1.0"
