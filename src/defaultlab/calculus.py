"""Discrete stochastic calculus on a uniform grid.

The affine operators act on step arrays (trailing dim N, column k-1 is
step k) and level arrays (trailing dim N+1), broadcasting over leading path
dimensions.  The predictable sums and brackets take any carrier (tree or
path bundle) and go through its carrier methods.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, GridMismatchError

__all__ = [
    "stochastic_integral",
    "doleans_exponential",
    "affine_solve",
    "affine_solve_product_form",
    "predictable_sum",
    "step_bracket",
    "predictable_bracket",
]


def _steps_of(*arrays) -> int:
    n = {a.shape[-1] for a in arrays}
    if len(n) != 1:
        raise GridMismatchError(f"step arrays disagree on length: {sorted(n)}")
    return n.pop()


def stochastic_integral(integrand: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """I_k = sum_{j<=k} H_j dX_j with I_0 = 0; level array out.

    ``integrand`` column k-1 must be the predictable value H_k.
    """
    integrand = np.asarray(integrand, dtype=float)
    increments = np.asarray(increments, dtype=float)
    _steps_of(integrand, increments)
    prod = integrand * increments
    shape = np.broadcast_shapes(integrand.shape, increments.shape)
    out = np.zeros(shape[:-1] + (shape[-1] + 1,))
    np.cumsum(prod, axis=-1, out=out[..., 1:])
    return out


def doleans_exponential(increments: np.ndarray, start_index: int = 0) -> np.ndarray:
    """Multiplicative solution E_k of dE_k = E_{k-1} dW_k started at 1.

    ``E_k = 1`` for k <= start_index, then picks up factor ``1 + dW_k`` each
    step.  A factor of zero is legitimate: the process is absorbed at zero
    from then on (a crossing to negative values is legitimate too; no sign
    or domain policing happens here).
    """
    increments = np.asarray(increments, dtype=float)
    n = increments.shape[-1]
    if not 0 <= start_index <= n:
        raise GridMismatchError(f"start_index {start_index} outside 0..{n}")
    out = np.ones(increments.shape[:-1] + (n + 1,))
    factors = 1.0 + increments[..., start_index:]
    np.cumprod(factors, axis=-1, out=out[..., start_index + 1:])
    return out


def affine_solve(a, w_increments: np.ndarray, v_increments: np.ndarray) -> np.ndarray:
    """Solve dX_k = (X_{k-1} + dV_k) dW_k + dV_k with X_0 = a.

    Raises DomainError when any ``dW_k <= -1``; the affine equation is only
    well posed while the multiplicative factors ``1 + dW_k`` stay positive
    (otherwise the comparison/uniqueness structure collapses).
    """
    w_increments = np.asarray(w_increments, dtype=float)
    v_increments = np.asarray(v_increments, dtype=float)
    n = _steps_of(w_increments, v_increments)
    if np.any(w_increments <= -1.0):
        raise DomainError("driver increment <= -1 leaves the admissible domain")
    shape = np.broadcast_shapes(w_increments.shape, v_increments.shape)
    out = np.empty(shape[:-1] + (n + 1,))
    out[..., 0] = a
    for k in range(1, n + 1):
        x = out[..., k - 1]
        dw = w_increments[..., k - 1]
        dv = v_increments[..., k - 1]
        out[..., k] = x + (x + dv) * dw + dv
    return out


def affine_solve_product_form(a, w_increments: np.ndarray, v_increments: np.ndarray) -> np.ndarray:
    """Closed form of the affine recursion via the multiplicative solution.

    X_k = E_k * (a + sum_{j<=k} dV_j / E_{j-1}) where E is the
    multiplicative solution of dW.  Used as an independent cross-check of
    ``affine_solve``; requires all 1 + dW_k > 0 so no division by zero.
    """
    w_increments = np.asarray(w_increments, dtype=float)
    v_increments = np.asarray(v_increments, dtype=float)
    _steps_of(w_increments, v_increments)
    if np.any(w_increments <= -1.0):
        raise DomainError("driver increment <= -1 leaves the admissible domain")
    e = doleans_exponential(w_increments)
    v_over_e = np.cumsum(v_increments / e[..., :-1], axis=-1)
    out = e.copy()
    out[..., 1:] *= np.asarray(a, dtype=float)[..., None] + v_over_e
    out[..., 0] = np.broadcast_to(np.asarray(a, dtype=float), out[..., 0].shape)
    return out


def predictable_sum(carrier, increments):
    """Level process A_0 = 0, A_k = A_{k-1} + dA_k of predictable increments.

    ``increments`` is a carrier step object whose entry k-1 is dA_k on the
    parent level; the result is a level object of the same carrier.
    """
    n = carrier.grid.steps
    out = carrier.alloc(n + 1)
    carrier.put(out, 0, np.zeros(carrier.n_nodes(0)))
    for k in range(1, n + 1):
        carrier.put(out, k, carrier.lift(carrier.at(out, k - 1) + carrier.at(increments, k - 1)))
    return out


def step_bracket(carrier, k: int, x_coeffs: dict, y_coeffs: dict) -> np.ndarray:
    """E[dX_k dY_k | F_{k-1}] of two driver-linear step-k increments.

    Both maps send a driver to its predictable step-k coefficient; the
    per-step covariances come from the carrier's increment model and the
    terms are summed in a fixed order.  Parent-level array out.
    """
    out = np.zeros(carrier.n_nodes(k - 1))
    for d, cx in x_coeffs.items():
        for e, cy in y_coeffs.items():
            cov = carrier.model.cov(d, e)
            if cov != 0.0:
                out = out + cx * cy * cov
    return out


def predictable_bracket(x, y):
    """Cumulative predictable bracket of two driver-linear processes.

    B_k = sum_{j<=k} E[dX_j dY_j | F_{j-1}] computed from the closed-form
    per-step covariances of the increment model, never from sample moments.
    Both processes (``TestMartingale``s) must live on the same carrier; the
    result is a level object of that carrier.
    """
    carrier = x.carrier
    if carrier is not y.carrier:
        raise GridMismatchError("bracket operands live on different carriers")
    n = carrier.grid.steps
    inc = carrier.alloc(n)
    for k in range(1, n + 1):
        carrier.put(inc, k - 1, step_bracket(carrier, k, x.step_coeffs(k), y.step_coeffs(k)))
    return predictable_sum(carrier, inc)
