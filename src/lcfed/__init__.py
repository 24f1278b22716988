"""Personalized federated segmentation simulator.

Sites share a U-shaped base body through parameter averaging while keeping
their prediction heads local; local training is calibrated at the feature
level (contrastive site-embedding channel gates) and at the prediction level
(disagreement maps over all sites' heads).  Which parameters stay local is one
rule: each split in `config.SPLITS` lists name patterns (``head_*`` for LC-Fed),
and every parameter no pattern matches is averaged.  A mode is a split with
PCS and HC each on or off (`config.MODES`).
"""

from .config import ExperimentConfig
from .tensor import Tensor

__all__ = ["ExperimentConfig", "Tensor"]
__version__ = "0.1.0"
