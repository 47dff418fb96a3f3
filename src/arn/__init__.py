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
