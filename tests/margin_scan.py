"""Brute-force admissibility margins, the reference the margin oracle is held to.

`scan_inf_b` is the point-by-point scan that `_StepMarginOracle.inf_b_exact`
must reproduce bitwise: for each predictable state pS and each candidate
branch, the minimum over the scan grid of -phi'(pS - x) g0 + phi(pS - x) g1,
capped at 0.  `jump_set_margin` gives both margins of one jump vector from
the same kind of scan.
"""

import numpy as np

from defaultlab.coefficients import _dot_components, evaluate_f_x, smooth_clamp, smooth_clamp_deriv
from defaultlab.errors import GridMismatchError


def scan_inf_b(oracle, ps):
    """(states, b) grid infima of `oracle`'s branches, scanned point by point."""
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    nb = oracle.g0.shape[0]
    out = np.empty((ps.size, nb))
    chunk = max(1, (1 << 22) // oracle.xs.size)
    for lo in range(0, ps.size, chunk):
        gap = ps[lo : lo + chunk, None] - oracle.xs[None, :]
        phi_gap = smooth_clamp(gap)
        dphi_gap = smooth_clamp_deriv(gap)
        for b in range(nb):
            vals = -dphi_gap * oracle.g0[b] + phi_gap * oracle.g1[b]
            out[lo : lo + chunk, b] = np.minimum(vals.min(axis=1), 0.0)
    return out


def jump_set_margin(spec, t, dm, z, pred_one_minus_z, n_grid=None):
    """Margins of the two admissibility conditions for one jump vector z.

    margin_a = (1 + dm) - sup_x 2|g(t,x)'z|
    margin_b = (1 + dm) + inf_x df/dx(t,x)'z

    z is admissible iff both are strictly positive.  Suprema are taken on a
    dense grid over the support of g; off the support both quantities
    vanish, which the inf and sup include analytically.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (spec.m,):
        raise GridMismatchError(f"jump vector needs {spec.m} components")
    xs = spec.scan_grid(n_grid)
    gz = _dot_components(z, spec.g_value(t, xs))
    sup_a = 2.0 * float(np.max(np.abs(gz), initial=0.0))
    fxz = _dot_components(z, evaluate_f_x(spec, t, xs, pred_one_minus_z))
    inf_b = min(float(np.min(fxz, initial=0.0)), 0.0)
    return (1.0 + dm) - sup_a, (1.0 + dm) + inf_b
