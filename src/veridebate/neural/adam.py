"""Adam with bias correction, on flat parameter vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    lr: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def create(cls, num_params: int, lr: float) -> "AdamState":
        return cls(lr=lr, m=np.zeros(num_params), v=np.zeros(num_params))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One update of the float64 vector ``params``, in place; the moments
    are updated in place and the step count incremented."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("params, grads, and optimizer state must share one shape")
    if not np.all(np.isfinite(grads)):
        raise ValueError("adam_step requires finite grads")

    state.step += 1
    state.m *= BETA1
    state.m += (1.0 - BETA1) * grads
    buf = (1.0 - BETA2) * grads**2
    state.v *= BETA2
    state.v += buf
    # buf is reused for the denominator sqrt(v_hat) + eps
    np.divide(state.v, 1.0 - BETA2**state.step, out=buf)
    np.sqrt(buf, out=buf)
    buf += EPS
    update = state.m / (1.0 - BETA1**state.step)
    update *= state.lr
    update /= buf
    params -= update
