"""The tape's independent gradient oracle: central finite differences."""

from typing import Callable

import numpy as np

from rptdetect.autodiff import Tape, Tensor


def finite_diff_check(build: Callable[[dict[str, np.ndarray]], tuple[Tape, Tensor]],
                      params: dict[str, np.ndarray], eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central finite differences.

    ``build`` must construct a fresh tape from plain parameter arrays,
    register each entry of ``params`` on it, and return (tape, scalar loss).
    The error for each parameter entry is |analytic - fd| / max(1, |analytic|).
    """
    assert eps > 0
    base = {k: np.asarray(v, dtype=np.float64).copy() for k, v in params.items()}
    tape, loss = build({k: v.copy() for k, v in base.items()})
    grads = tape.backward(loss)
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
                _, out = build(mod)
                if sign > 0:
                    f_plus = float(out.data)
                else:
                    f_minus = float(out.data)
            fd = (f_plus - f_minus) / (2.0 * eps)
            err = abs(gflat[i] - fd) / max(1.0, abs(gflat[i]))
            if err > worst:
                worst = err
    return worst
