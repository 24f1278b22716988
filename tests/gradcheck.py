"""Central finite-difference gradient oracle shared by the test modules.

Works purely through forward evaluations, so it stays independent of the
backward implementations it is used to check.
"""

import numpy as np

STEP = 1e-5
TOL = 1e-5


def numeric_grad(f, arrays, idx, step=STEP):
    """d f(arrays) / d arrays[idx] by central differences; f returns a float."""
    grad = np.zeros_like(arrays[idx], dtype=np.float64)
    flat = grad.reshape(-1)
    for i in range(flat.size):
        plus = [a.copy() for a in arrays]
        minus = [a.copy() for a in arrays]
        plus[idx].reshape(-1)[i] += step
        minus[idx].reshape(-1)[i] -= step
        flat[i] = (f(*plus) - f(*minus)) / (2.0 * step)
    return grad


def rel_err(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    return float(np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1.0)))


def assert_grads_close(f, arrays, analytic_grads, tol=TOL, step=STEP):
    """Check every analytic gradient in `analytic_grads` (one per input array)
    against central differences of the scalar function `f`; an input without
    an analytic gradient (None) fails."""
    for idx, ag in enumerate(analytic_grads):
        assert ag is not None, f"input {idx}: no analytic gradient"
        ng = numeric_grad(f, arrays, idx, step=step)
        err = rel_err(ag, ng)
        assert err < tol, f"input {idx}: rel err {err:.3e} >= {tol:.0e}"
