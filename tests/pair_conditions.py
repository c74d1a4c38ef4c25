"""Member-by-member pair-condition sweep, the reference the family pass is held to.

`check_pair_conditions` re-evaluates f along one solution (and an optional
partner) over a window of steps and reports the slacks of conditions
(i)-(iii).  `fold_report` folds such reports into the aggregate that
`build_family(..., conditions=...)` returns, and `reference_conditions`
builds the whole sweep for the "adjacent" and "all" folds from solutions
solved one member at a time.
"""

import numpy as np

from defaultlab.coefficients import (
    _CONDITIONS,
    _dot_components,
    _new_condition_agg,
    _pair_slacks,
    _state_slacks,
    evaluate_f,
)
from defaultlab.family import solve_natural

_UNCHECKED = {"checked": 0, "min_slack": None, "violations": 0}


def check_pair_conditions(pair, model, x_values, x_prime_values=None, window=None, tiny=1e-12):
    """Pointwise admissibility report for a solution (and optional partner).

    (i)   dm - f(X)'dY / (pS - X-) > -1          where pS != X-
    (ii)  dm + f(X)'dY / X-        >= -1         where X- != 0 (strictness flagged)
    (iii) dm + (f(X) - f(X'))'dY / (X- - X'-) >= -1   where X- != X'-

    plus the equivalent one-step-map monotonicity form of (iii); the report
    records whether the two forms agree.  Violations are counted below
    -1e-12 slack; the function reports and never raises.
    """
    carrier = pair.carrier
    grid = carrier.grid
    lo, hi = window if window is not None else (1, grid.steps)
    slack_i, slack_ii, slack_iii = [], [], []
    strict_ii = True
    agree = True
    for k in range(lo, hi + 1):
        t = grid.times[k]
        dm = carrier.at(model.tilde_m_increments, k - 1)
        ps_prev = carrier.at(model.pred_one_minus_z, k - 1)
        dy = pair.y_step(k)
        x_prev = carrier.at(x_values, k - 1)
        x = carrier.lift(x_prev)
        fdy = _dot_components(carrier.lift(evaluate_f(pair.spec, t, x_prev, ps_prev)), dy)
        cond_i, cond_ii = _state_slacks(dm, carrier.lift(ps_prev), x, fdy, tiny)
        slack, ok = cond_i
        if np.any(ok):
            slack_i.append(slack[ok])
        slack, ok = cond_ii
        if np.any(ok):
            slack_ii.append(slack[ok])
            strict_ii = strict_ii and bool(np.all(slack[ok] > 0.0))
        if x_prime_values is not None:
            xp_prev = carrier.at(x_prime_values, k - 1)
            xp = carrier.lift(xp_prev)
            fpdy = _dot_components(carrier.lift(evaluate_f(pair.spec, t, xp_prev, ps_prev)), dy)
            (slack, ok), same = _pair_slacks(
                dm, x, fdy, x + x * dm + fdy, xp, fpdy, xp + xp * dm + fpdy, tiny
            )
            if np.any(ok):
                slack_iii.append(slack[ok])
                agree = agree and same

    def summarize(chunks):
        if not chunks:
            return dict(_UNCHECKED)
        allv = np.concatenate(chunks)
        return {
            "checked": int(allv.size),
            "min_slack": float(allv.min()),
            "violations": int(np.sum(allv < -1e-12)),
        }

    rep_i = summarize(slack_i)
    rep_ii = summarize(slack_ii)
    rep_iii = summarize(slack_iii)
    passed = (
        (rep_i["checked"] == 0 or rep_i["min_slack"] > 0.0)
        and rep_ii["violations"] == 0
        and rep_iii["violations"] == 0
        and agree
    )
    return {
        "condition_i": rep_i,
        "condition_ii": rep_ii,
        "condition_ii_strict": strict_ii,
        "condition_iii": rep_iii,
        "monotone_map_agrees": agree,
        "pass": bool(passed),
    }


def fold_report(agg, rep, pair_only=False):
    """Fold one `check_pair_conditions` report into a running aggregate;
    ``pair_only`` folds just its (iii), for a member whose (i) and (ii)
    are already counted."""
    for key in _CONDITIONS:
        sub = rep[key]
        if sub["checked"] and not (pair_only and key != "condition_iii"):
            slot = agg[key]
            slot["checked"] += sub["checked"]
            slot["violations"] += sub["violations"]
            ms = sub["min_slack"]
            slot["min_slack"] = ms if slot["min_slack"] is None else min(slot["min_slack"], ms)
    agg["agree"] = agg["agree"] and rep["monotone_map_agrees"]


def reference_conditions(pair, model, mode):
    """The pair-condition aggregate of the whole u grid, member by member.

    Every member is solved alone and checked over its own steps: (i) and
    (ii) once per member, (iii) against the member before it plus the
    witness pair (N // 2, 0) under "adjacent", against every earlier member
    under "all".
    """
    carrier = pair.carrier
    n = carrier.grid.steps
    sols = [solve_natural(pair, model, u, carrier.at(model.s, u)) for u in range(n)]
    if mode == "adjacent":
        partners = [[u - 1] if u else [] for u in range(n)]
        if n // 2 >= 1:
            partners[n // 2].append(0)
    else:
        partners = [list(range(u)) for u in range(n)]
    agg = _new_condition_agg()
    for u in range(n):
        window = (u + 1, n)
        fold_report(agg, check_pair_conditions(pair, model, sols[u], None, window))
        for up in partners[u]:
            rep = check_pair_conditions(pair, model, sols[u], sols[up], window)
            fold_report(agg, rep, pair_only=True)
    return agg
