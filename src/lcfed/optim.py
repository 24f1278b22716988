"""Adam over named parameter tensors; the moments belong to the caller.

`Adam` binds (name, Tensor) pairs and the learning rate, and keeps no
per-site values: `step` advances a state ``{"t": int, "m": {name: array},
"v": {name: array}}`` that the caller owns.  It rebinds the state's entries
and each tensor's ``.data`` to fresh arrays and writes no array it was
handed, neither a parameter, a moment nor a gradient; `zero_grad` releases
the gradients (sets every ``.grad`` to None).
"""

from __future__ import annotations

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, named_params, lr: float = 1e-4):
        self.params = list(named_params)  # (name, Tensor)
        self.lr = lr

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None

    def step(self, state: dict):
        """One update of every bound tensor with a gradient; advances
        ``state["t"]`` and binds new moments in ``state["m"]``, ``state["v"]``."""
        state["t"] += 1
        bias1 = 1.0 - BETA1 ** state["t"]
        bias2 = 1.0 - BETA2 ** state["t"]
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            # each += writes only the array the line above it made
            m = state["m"][name] = state["m"][name] * BETA1
            m += (1 - BETA1) * g
            v = state["v"][name] = state["v"][name] * BETA2
            v += (1 - BETA2) * (g * g)
            p.data = p.data - self.lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)
