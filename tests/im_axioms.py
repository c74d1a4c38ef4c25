"""Member-by-member check of the family axioms on a tree, the reference the
family pass is held to.

`verify_im_axioms` walks every stored member of a family a second time and
reports, in the tree row order of `build_family`, the worst violation of
each axiom.  The pass folds the same reductions while it solves, so its
report must equal this one exactly.
"""

import numpy as np


def verify_im_axioms(tree, family, tol: float = 1e-12) -> dict:
    """Exhaustive check of the increasing-martingale-family axioms.

    Checks, per u on the grid: martingale property on [u, N], bounds
    0 <= M^u <= 1 - Z, the start condition M^u_u = 1 - Z_u, monotonicity
    in u, and normalization of the full-horizon solution.  ``family``
    needs ``u_indices``, ``one_minus_z`` and a level list per u
    (``family.values(u)``).  Returns a report dict; it never raises
    (negative controls inspect the report).
    """
    checks = []

    def record(name, violation):
        checks.append(
            {"name": name, "max_violation": float(violation), "pass": bool(violation <= tol)}
        )

    n = tree.depth
    one_minus_z = family.one_minus_z
    worst_mart = 0.0
    worst_low = 0.0
    worst_high = 0.0
    worst_start = 0.0
    for u in family.u_indices:
        vals = family.values(u)
        worst_start = max(worst_start, float(np.max(np.abs(vals[u] - one_minus_z[u]))))
        for k in range(u + 1, n + 1):
            resid = tree.step_expectation(vals[k]) - vals[k - 1]
            worst_mart = max(worst_mart, float(np.max(np.abs(resid))))
        for k in range(u, n + 1):
            worst_low = max(worst_low, float(np.max(-vals[k])))
            worst_high = max(worst_high, float(np.max(vals[k] - one_minus_z[k])))
    record("martingale", worst_mart)
    record("nonnegative", worst_low)
    record("bounded_by_one_minus_z", worst_high)
    record("starts_at_one_minus_z", worst_start)

    worst_mono = 0.0
    us = list(family.u_indices)
    for lo, hi in zip(us[:-1], us[1:]):
        vlo, vhi = family.values(lo), family.values(hi)
        for k in range(hi, n + 1):
            worst_mono = max(worst_mono, float(np.max(vlo[k] - vhi[k])))
    record("nondecreasing_in_u", worst_mono)

    if us[-1] == n:
        # at u = N the solution is 1 - Z_N; adding the survival mass Z_N
        # must give total mass one
        full = family.values(us[-1])
        z_term = 1.0 - one_minus_z[n]
        record("terminal_normalization", float(np.max(np.abs(full[n] + z_term - 1.0))))
    return {"checks": checks, "pass": all(c["pass"] for c in checks)}
