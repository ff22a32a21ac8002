"""Streaming video depth estimation at desk scale.

Batched banded-mask attention for training, cached sliding-window
cross-attention for inference, with the loss stack, alignment protocols,
evaluation metrics, and synthetic data tooling needed to verify the whole
pipeline end to end.
"""

from .align import (AffineAlign, DriftCurve, EvalReport, absrel, delta1,
                    eval_first_frame, eval_global, invert_disparity,
                    least_squares_align, scale_drift_curve)
from .cache import CacheBank
from .losses import (AugmentConfig, LossWeights, TrainConfig, frame_augment,
                     loss_sascon, loss_ssi_scene, loss_tgm, loss_total,
                     train_step)
from .model import (DepthModel, ModelConfig, StreamingSession,
                    load_checkpoint, save_checkpoint)
from .tensor import Tape, Tensor, gradcheck

__version__ = "0.1.0"
