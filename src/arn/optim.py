"""Adam optimizer over named parameter collections."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import GradientMissingError


@dataclass
class AdamState:
    """First/second moment estimates mirroring the parameter shapes."""

    m: dict
    v: dict
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    @classmethod
    def for_params(cls, params: dict, beta1: float = 0.9, beta2: float = 0.999,
                   epsilon: float = 1e-8) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p.data) for k, p in params.items()},
            v={k: np.zeros_like(p.data) for k, p in params.items()},
            beta1=beta1, beta2=beta2, epsilon=epsilon,
        )


def adam_step(params: dict, state: AdamState, lr: float):
    """One bias-corrected Adam update; consumes and clears all gradients."""
    for name, p in params.items():
        if p.grad is None:
            raise GradientMissingError(f"parameter {name!r} has no gradient")
        if state.m[name].shape != p.data.shape:
            raise GradientMissingError(f"state shape mismatch for {name!r}")

    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = p.grad
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p.data -= lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
        p.grad = None
