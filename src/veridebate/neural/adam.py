"""Adam with bias correction, on flat parameter vectors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# Elements per pass: params, grads, m, v and the two scratch rows of one
# chunk (6 x 256 KiB) stay in a core's L2 cache.
CHUNK = 32768


@dataclass
class AdamState:
    lr: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = np.empty((2, min(CHUNK, self.m.size)))

    @classmethod
    def create(cls, num_params: int, lr: float) -> "AdamState":
        return cls(lr=lr, m=np.zeros(num_params), v=np.zeros(num_params))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One update of the float64 vector ``params``, in place; the moments
    are updated in place and the step count incremented. Runs chunk by
    chunk through ``state.scratch`` with no temporaries; every element
    sees the same operations in the same order as the whole-vector
    formula, so the result is bit-identical to it."""
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ValueError("params, grads, and optimizer state must share one shape")
    if not np.all(np.isfinite(grads)):
        raise ValueError("adam_step requires finite grads")

    state.step += 1
    m_scale = 1.0 - BETA1**state.step
    v_scale = 1.0 - BETA2**state.step
    for start in range(0, params.size, CHUNK):
        sl = slice(start, start + CHUNK)
        g, m, v = grads[sl], state.m[sl], state.v[sl]
        buf, update = state.scratch[:, : g.size]
        m *= BETA1
        m += np.multiply(1.0 - BETA1, g, out=buf)
        np.square(g, out=buf)
        buf *= 1.0 - BETA2
        v *= BETA2
        v += buf
        # buf is reused for the denominator sqrt(v_hat) + eps
        np.divide(v, v_scale, out=buf)
        np.sqrt(buf, out=buf)
        buf += EPS
        np.divide(m, m_scale, out=update)
        update *= state.lr
        update /= buf
        params[sl] -= update
