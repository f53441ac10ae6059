"""The model step's independent gradient oracle: central finite differences."""

from typing import Callable

import numpy as np


def finite_diff_check(build: Callable[[dict[str, np.ndarray]], tuple[float, np.ndarray]],
                      params: dict[str, np.ndarray], eps: float = 1e-5) -> float:
    """Max relative error between a step's flat gradient and central finite differences.

    ``build`` must run the step afresh from plain parameter arrays and return
    (scalar loss, flat gradient), the gradient laid out as the entries of
    ``params`` raveled and concatenated in their order, as
    ``ModelParams.arrays.flat`` is.  The error for each parameter entry is
    |analytic - fd| / max(1, |analytic|).
    """
    assert eps > 0
    base = {k: np.asarray(v, dtype=np.float64).copy() for k, v in params.items()}
    _, flat_grad = build({k: v.copy() for k, v in base.items()})
    offsets = np.cumsum([0] + [v.size for v in base.values()])
    grads = {k: flat_grad[lo:hi] for k, lo, hi in zip(base, offsets[:-1], offsets[1:])}
    assert flat_grad.shape == (offsets[-1],)
    worst = 0.0
    for name in sorted(base):
        arr = base[name]
        g = np.asarray(grads[name], dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            for sign in (+1.0, -1.0):
                mod = {k: v.copy() for k, v in base.items()}
                mod[name].reshape(-1)[i] = orig + sign * eps
                out, _ = build(mod)
                if sign > 0:
                    f_plus = float(out)
                else:
                    f_minus = float(out)
            fd = (f_plus - f_minus) / (2.0 * eps)
            err = abs(gflat[i] - fd) / max(1.0, abs(gflat[i]))
            if err > worst:
                worst = err
    return worst
