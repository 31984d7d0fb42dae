"""Adam with bias correction, on flat parameter vectors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# Elements per pass: params, grads, m, v and the scratch row of one chunk
# (5 x 256 KiB in float64, half that in float32) stay in a core's L2 cache.
CHUNK = 32768


@dataclass
class AdamState:
    lr: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = np.empty(min(CHUNK, self.m.size), dtype=self.m.dtype)

    @classmethod
    def create(cls, params: np.ndarray, lr: float) -> "AdamState":
        """Zero moments of the shape and dtype of ``params``."""
        return cls(lr=lr, m=np.zeros_like(params), v=np.zeros_like(params))


def all_finite(values: np.ndarray) -> bool:
    """Whether no entry is NaN or infinite, with no array-sized
    temporary: min and max are NaN if any entry is, else infinite if
    any entry is."""
    return bool(np.isfinite(values.min()) and np.isfinite(values.max()))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState) -> None:
    """One update of the vector ``params``, in place; the moments are
    updated in place and the step count incremented. The parameters,
    the gradient and the moments share one dtype, and every pass runs
    in it.

    Uses the efficient order of Kingma & Ba (arXiv:1412.6980, section
    2): the bias corrections fold into the step size, α_t = lr *
    sqrt(1 - β2^t) / (1 - β1^t), and the epsilon, ε̂ = ε * sqrt(1 -
    β2^t), so ``params -= m / (sqrt(v) + ε̂) * α_t``. That is the
    textbook bias-corrected update, exactly in real arithmetic, with
    one division and one square root per element. Runs chunk by chunk
    through ``state.scratch`` with no temporaries; every element sees
    the same operations in the same order as that whole-vector formula,
    so the result is bit-identical to it."""
    if any(a.shape != params.shape or a.dtype != params.dtype for a in (grads, state.m)):
        raise ValueError("params, grads, and optimizer state must share one shape and dtype")
    if not all_finite(grads):
        raise ValueError("adam_step requires finite grads")

    state.step += 1
    root = math.sqrt(1.0 - BETA2**state.step)
    alpha = state.lr * root / (1.0 - BETA1**state.step)
    eps_hat = EPS * root
    for start in range(0, params.size, CHUNK):
        sl = slice(start, start + CHUNK)
        g, m, v = grads[sl], state.m[sl], state.v[sl]
        buf = state.scratch[: g.size]
        m *= BETA1
        m += np.multiply(1.0 - BETA1, g, out=buf)
        np.square(g, out=buf)
        buf *= 1.0 - BETA2
        v *= BETA2
        v += buf
        # buf is reused for the step m / (sqrt(v) + eps_hat) * alpha
        np.sqrt(v, out=buf)
        buf += eps_hat
        np.divide(m, buf, out=buf)
        buf *= alpha
        params[sl] -= buf
