"""Attentive recurrent network for time-domain speech enhancement.

Library layout:

- ``arn.tensor``: numpy-backed reverse-mode autograd, including the framing
  and overlap-add ops and the rfft magnitude of the PCM loss
- ``arn.optim``: Adam optimizer
- ``arn.dsp``: STFT magnitude, RMS normalization
- ``arn.model``: the network and its configuration
- ``arn.losses``: MSE / phase-constrained-magnitude losses, SNR metrics
- ``arn.mixing``: deterministic dynamic-mixing data pipeline
- ``arn.training``: training loop, schedule, checkpoints
- ``arn.wavio``: WAV file I/O
- ``arn.cli``: the ``arn`` command
"""

from .model import ARNConfig, arn_forward, enhance, init_params
from .tensor import Tensor, backward, no_grad
from .training import TrainConfig, load_checkpoint, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "ARNConfig", "TrainConfig", "Tensor",
    "arn_forward", "backward", "enhance", "init_params",
    "load_checkpoint", "no_grad", "save_checkpoint",
    "__version__",
]
