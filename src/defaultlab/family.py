"""Solve the driving equation and build the increasing martingale family.

One solver step from state x is

    x_next = (x + x * dm) + F,   F = sum_j f_j(t_k, x) * dY_j,

with the same canonical grouping the survival generator uses for 1 - Z
(there pS = x bitwise on steps with dA = 0).  That shared grouping makes
two identities exact in floats: a step with dA = 0 maps 1 - Z_{k-1} to
1 - Z_k bitwise, so consecutive family members collapse there and the
u-increment of the family carries zero mass off the support of dA.  The
family member M^u is the solution started at (u, 1 - Z_u); it is a
martingale by construction because dm and dY have zero conditional mean
and the coefficients are predictable.

The flow is the same recursion from an arbitrary start, together with
the variational derivative D_k = D_{k-1} ((1 + dm_k) + df/dx' dY_k),
which governs how the family depends on u through the one-step atom
identity

    (1 - Z_k) - one step from 1 - Z_{k-1} = kappa_k * dA_k,
    kappa_k = (1 + dm_k) - (1 - Z_{k-1}) g(t_k, 1 - Z_{k-1})' dY_k.

`build_family` is one pass: it solves each member once, evaluating f once
per (member, step), and on a bundle folds in from the same states and f'dY
both the pathwise invariants and the slacks of the pair conditions
(i)-(iii) over adjacent members plus one wide witness pair.  The Monte
Carlo suite reads that aggregate from ``MartingaleFamily.conditions``
instead of solving the members again and re-evaluating f on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import (
    _CONDITIONS,
    _condition_slacks,
    _dot_components,
    _fold_conditions,
    _new_condition_agg,
    evaluate_f,
    evaluate_f_x,
)
from .errors import ConfigurationError, GridMismatchError, SolverInconsistencyError
from .tree import ScenarioTree, verify_im_axioms

__all__ = [
    "MartingaleFamily",
    "Flow",
    "solve_natural",
    "build_family",
    "flow_solve",
    "kappa_values",
    "one_step_atom_residuals",
    "family_regularity",
]


def _start_level(pair, x, size):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return np.full(size, float(x))
    if x.shape != (size,):
        raise GridMismatchError(f"start value needs shape ({size},), got {x.shape}")
    return x.copy()


def _advance(x, dm, f, dy):
    """The solver update (x + x dm) + f'dY on child/path-level inputs.

    Returns the next state and the f'dY it used.
    """
    fdy = _dot_components(f, dy)
    return (x + x * dm) + fdy, fdy


def _step(pair, model, k: int, x_prev):
    """Map the state at k-1 to the state at k; also return its f'dY."""
    carrier = pair.carrier
    ps = carrier.at(model.pred_one_minus_z, k - 1)
    f = evaluate_f(pair.spec, carrier.grid.times[k], x_prev, ps)
    dm = carrier.at(model.tilde_m_increments, k - 1)
    return _advance(carrier.lift(x_prev), dm, carrier.lift(f), pair.y_step(k))


def _solve(pair, model, u: int, x, keep_fdy: bool = False):
    """solve_natural's recursion; with ``keep_fdy`` also the per-step f'dY
    as a carrier step object (entries before step u + 1 unset)."""
    carrier = pair.carrier
    n = carrier.grid.steps
    if not 0 <= u <= n:
        raise ConfigurationError(f"start index {u} outside grid")
    out = carrier.alloc(n + 1)
    fdy = carrier.alloc(n) if keep_fdy else None
    carrier.put(out, u, _start_level(pair, x, carrier.n_nodes(u)))
    for k in range(u + 1, n + 1):
        x_next, fdy_k = _step(pair, model, k, carrier.at(out, k - 1))
        carrier.put(out, k, x_next)
        if keep_fdy:
            carrier.put(fdy, k - 1, fdy_k)
    return out, fdy


def solve_natural(pair, model, u: int, x):
    """Solve from X_u = x forward; x may be a scalar or a level array.

    Trees return a level list with entries below u set to None; bundles
    return a (paths, steps+1) array with nan below u.  The start column is
    the given x bitwise.
    """
    return _solve(pair, model, u, x)[0]


@dataclass
class MartingaleFamily:
    """Family of solutions M^u started at (u, 1 - Z_u), u on the grid.

    ``values(u)`` returns the stored solution (level list on trees, a
    (paths, steps+1) array on bundles); ``terminal(u)`` its final slice.
    The full-mass member is identically one and exposed separately since
    it carries the beyond-horizon atom.  ``report`` holds the invariant
    verification; ``conditions`` (bundles) the pair-condition aggregate
    folded in during the solve (see `_PairConditionFold`).
    """

    pair: object
    model: object
    u_indices: list
    values_by_u: dict
    report: dict = field(default_factory=dict)
    storage: str = "full"
    terminal_by_u: dict = field(default_factory=dict)
    conditions: dict | None = None

    @property
    def carrier(self):
        return self.pair.carrier

    @property
    def one_minus_z(self):
        return self.model.s

    def values(self, u: int):
        if self.storage == "terminal":
            raise ConfigurationError("family stores terminal slices only")
        return self.values_by_u[u]

    def terminal(self, u: int):
        if self.storage == "terminal":
            return self.terminal_by_u[u]
        return self.carrier.at(self.values_by_u[u], self.carrier.grid.steps)

    def terminal_infinity(self):
        return np.ones_like(np.asarray(self.terminal(self.u_indices[-1])))


class _PathwiseFamilyCheck:
    """Pathwise bundle invariants, folded in member by member as solved.

    Only the previous member stays referenced, so the check costs one extra
    solution whatever the storage mode.  The martingale property is not
    checked pathwise; the Monte Carlo suites test it statistically.
    """

    def __init__(self, model):
        self.s = model.s
        self.n = model.grid.steps
        names = ("starts_at_one_minus_z", "nonnegative", "bounded_by_one_minus_z")
        self.worst = dict.fromkeys(names + ("nondecreasing_in_u",), 0.0)
        self.prev = None
        self.normalization = None

    def add(self, u, sol):
        s, worst = self.s, self.worst
        worst["starts_at_one_minus_z"] = max(
            worst["starts_at_one_minus_z"], float(np.max(np.abs(sol[:, u] - s[:, u])))
        )
        window = sol[:, u:]
        worst["nonnegative"] = max(worst["nonnegative"], float(np.max(-window)))
        worst["bounded_by_one_minus_z"] = max(
            worst["bounded_by_one_minus_z"], float(np.max(window - s[:, u:]))
        )
        if self.prev is not None:
            worst["nondecreasing_in_u"] = max(
                worst["nondecreasing_in_u"], float(np.max(self.prev[:, u:] - sol[:, u:]))
            )
        if u == self.n:
            self.normalization = float(np.max(np.abs(sol[:, u] + (1.0 - s[:, u]) - 1.0)))
        self.prev = sol

    def report(self, tol):
        worst = dict(self.worst)
        if self.normalization is not None:
            worst["terminal_normalization"] = self.normalization
        checks = [
            {"name": name, "max_violation": val, "pass": val <= tol} for name, val in worst.items()
        ]
        return {"checks": checks, "pass": all(c["pass"] for c in checks)}


class _PairConditionFold:
    """Slacks of pair conditions (i)-(iii), folded in member by member as solved.

    Each member u is checked over its own steps u + 1..N from the f'dY its
    solve produced, so no f is evaluated again: (i) and (ii) on the member,
    and (iii) against the previous member of the u grid (the first member
    is checked alone).  The member at N // 2 is checked once more in (iii)
    only, against the member at 0, a wide witness pair; any pair quotient is
    a gap-weighted mean of adjacent ones, so adjacent strictness is the
    binding case.  The aggregate is what `check_pair_conditions` reports for
    those (member, partner) calls, folded, with each member's (i) and (ii)
    counted once: per condition the states checked, the smallest slack (None
    if nothing was checked) and the violations below -1e-12, plus ``agree``,
    whether the one-step-map form of (iii) agreed everywhere.
    Only the previous member, and the member at 0 until the witness pair is
    checked, stay referenced.
    """

    def __init__(self, pair, model, u_indices):
        self.pair, self.model = pair, model
        n = pair.carrier.grid.steps
        mid = n // 2
        self.mid = mid if mid >= 1 and 0 in u_indices and mid in u_indices else None
        self.prev = self.zero = None
        self.agg = _new_condition_agg()

    def add(self, u, sol, fdy):
        carrier, model = self.pair.carrier, self.model
        partners = [self.prev]
        if u == self.mid:
            partners.append(self.zero)
        for k in range(u + 1, carrier.grid.steps + 1):
            dm = carrier.at(model.tilde_m_increments, k - 1)
            ps = carrier.lift(carrier.at(model.pred_one_minus_z, k - 1))
            x = carrier.lift(carrier.at(sol, k - 1))
            for witness, partner in enumerate(partners):
                xp = fpdy = None
                if partner is not None:
                    xp = carrier.lift(carrier.at(partner[0], k - 1))
                    fpdy = carrier.at(partner[1], k - 1)
                conds = _condition_slacks(dm, ps, x, carrier.at(fdy, k - 1), xp, fpdy)
                # the witness pair adds only (iii); the member's own pair gave (i)/(ii)
                self._fold(*((None, None) + conds[2:] if witness else conds))
        if u == 0 and self.mid is not None:
            self.zero = (sol, fdy)
        if u == self.mid:
            self.zero = None
        self.prev = (sol, fdy)

    def _fold(self, cond_i, cond_ii, cond_iii, agree):
        # the step's report in check_pair_conditions' form; unchecked
        # states read +inf, so they never set the minimum or a violation
        rep = {"monotone_map_agrees": agree}
        for key, cond in zip(_CONDITIONS, (cond_i, cond_ii, cond_iii)):
            checked = 0 if cond is None else int(np.count_nonzero(cond[1]))
            rep[key] = {
                "checked": checked,
                "min_slack": float(cond[0].min()) if checked else None,
                "violations": int(np.count_nonzero(cond[0] < -1e-12)) if checked else 0,
            }
        _fold_conditions(self.agg, rep)


def build_family(pair, model, u_indices=None, tol: float = 1e-12, keep: str = "full") -> MartingaleFamily:
    """Solve M^u from (u, 1 - Z_u) for each requested u and verify invariants.

    On a tree the full axiom battery (including the exact martingale
    property through the enumeration oracle) runs and any violation beyond
    `tol` raises; on bundles the pathwise invariants (start value, bounds,
    monotonicity in u, terminal normalization) are hard assertions at the
    same tolerance, checked on each member as it is solved, while
    martingale-property checks are statistical and live in the Monte Carlo
    suites.  ``u_indices`` defaults to the whole grid.  ``keep="terminal"``
    (bundles only) stores just the terminal slice per u to bound memory on
    wide bundles; every invariant is still checked on the full solution
    before it is dropped.  On bundles the same pass also folds the slacks
    of pair conditions (i)-(iii) into ``conditions`` (see
    `_PairConditionFold`); trees leave it None.
    """
    carrier = pair.carrier
    n = carrier.grid.steps
    if u_indices is None:
        u_indices = list(range(n + 1))
    u_indices = sorted(int(u) for u in u_indices)
    if not u_indices:
        raise ConfigurationError("a family needs at least one u index")
    if u_indices[0] < 0 or u_indices[-1] > n:
        raise ConfigurationError("u indices outside the grid")
    if keep not in ("full", "terminal"):
        raise ConfigurationError(f"unknown storage mode {keep!r}")
    exact = isinstance(carrier, ScenarioTree)
    if keep == "terminal" and exact:
        raise ConfigurationError("terminal storage is a bundle option")
    pathwise = None if exact else _PathwiseFamilyCheck(model)
    conditions = None if exact else _PairConditionFold(pair, model, u_indices)
    values, terminal = {}, {}
    for u in u_indices:
        sol, fdy = _solve(pair, model, u, carrier.at(model.s, u), keep_fdy=not exact)
        if not exact:
            pathwise.add(u, sol)
            conditions.add(u, sol, fdy)
        if keep == "full":
            values[u] = sol
        else:
            terminal[u] = carrier.at(sol, n).copy()
    family = MartingaleFamily(
        pair=pair,
        model=model,
        u_indices=u_indices,
        values_by_u=values,
        storage=keep,
        terminal_by_u=terminal,
        conditions=None if exact else conditions.agg,
    )
    family.report = verify_im_axioms(carrier, family, tol=tol) if exact else pathwise.report(tol)
    if not family.report["pass"]:
        worst = max(c["max_violation"] for c in family.report["checks"])
        raise SolverInconsistencyError(
            f"family invariant violation {worst:.3e} beyond tolerance {tol:.1e}"
        )
    return family


@dataclass
class Flow:
    """Solution values and variational derivative from one start (u, x)."""

    pair: object
    model: object
    u: int
    x0: object
    values: object
    deriv: object

    def at(self, k: int):
        return self.pair.carrier.at(self.values, k)

    def deriv_at(self, k: int):
        return self.pair.carrier.at(self.deriv, k)


def flow_solve(pair, model, u: int, x) -> Flow:
    """Same recursion as solve_natural plus D_k, the derivative in x.

    D_k = D_{k-1} * ((1 + dm_k) + df/dx(t_k, X_{k-1})' dY_k), D_u = 1.
    The value recursion shares solve_natural's step verbatim, so a flow
    started at (u, 1 - Z_u) reproduces the family member bitwise.
    """
    carrier = pair.carrier
    grid = carrier.grid
    n = grid.steps
    if not 0 <= u <= n:
        raise ConfigurationError(f"start index {u} outside grid")
    vals, der = carrier.alloc(n + 1), carrier.alloc(n + 1)
    carrier.put(vals, u, _start_level(pair, x, carrier.n_nodes(u)))
    carrier.put(der, u, np.ones(carrier.n_nodes(u)))
    for k in range(u + 1, n + 1):
        x_prev = carrier.at(vals, k - 1)
        ps = carrier.at(model.pred_one_minus_z, k - 1)
        fx = evaluate_f_x(pair.spec, grid.times[k], x_prev, ps)
        fxdy = _dot_components(carrier.lift(fx), pair.y_step(k))
        dm = carrier.at(model.tilde_m_increments, k - 1)
        carrier.put(vals, k, _step(pair, model, k, x_prev)[0])
        carrier.put(der, k, carrier.lift(carrier.at(der, k - 1)) * ((1.0 + dm) + fxdy))
    return Flow(pair=pair, model=model, u=u, x0=x, values=vals, deriv=der)


def kappa_values(pair, model, k: int):
    """One-step atom density kappa_k at child (tree) or path granularity.

    kappa_k = (1 + dm_k) - (1 - Z_{k-1}) * g(t_k, 1 - Z_{k-1})' dY_k; the
    strict-pair margins keep these strictly positive.
    """
    carrier = pair.carrier
    s_prev = carrier.at(model.s, k - 1)
    g = pair.spec.g_value(carrier.grid.times[k], s_prev)
    dm = carrier.at(model.tilde_m_increments, k - 1)
    gdy = _dot_components(carrier.lift(g), pair.y_step(k))
    return (1.0 + dm) - carrier.lift(s_prev) * gdy


def one_step_atom_residuals(pair, model):
    """Per-step max residual of (1-Z_k) - [one step from 1-Z_{k-1}] = kappa_k dA_k.

    The identity is the discrete default-atom formula; with dA_k = 0.0 both
    sides vanish bitwise because the solver shares the survival generator's
    update grouping.
    """
    carrier = pair.carrier
    n = carrier.grid.steps
    out = np.empty(n)
    for k in range(1, n + 1):
        kap = kappa_values(pair, model, k)
        image = _step(pair, model, k, carrier.at(model.s, k - 1))[0]
        diff = carrier.at(model.s, k) - image
        da = carrier.lift(carrier.at(model.a_increments, k - 1))
        out[k - 1] = float(np.max(np.abs(diff - kap * da)))
    return out


def _lift_to(carrier, arr, from_level: int, to_level: int):
    if to_level < from_level:
        raise GridMismatchError("cannot lift downward")
    for _ in range(to_level - from_level):
        arr = carrier.lift(arr)
    return arr


def family_regularity(pair, model, family, v: int, t: int) -> dict:
    """Regularity report around grid time v, observed at grid time t > v.

    Contents: the residual of the jump identity

        M^v_k - M^{v-1}_k = Xi^v_k(1 - Z_v) - Xi^v_k(1 - Z_v - kappa_v dA_v)

    over k in [v, t]; the left and right difference quotients of
    u -> M^u_t over one grid cell against the flow-derivative predictions
    D_t * kappa_v (left) and D_t (right); and kappa statistics.  The grid
    refinement sweeps that drive the quotients to their limits live in the
    suites.  Quotients need strictly positive compensator increments at
    steps v and v + 1.
    """
    carrier = pair.carrier
    n = carrier.grid.steps
    if not 1 <= v < t <= n:
        raise ConfigurationError("need 1 <= v < t <= steps")
    for u in (v - 1, v, v + 1):
        if u not in family.values_by_u:
            raise ConfigurationError(f"family must contain u = {u}")
    at = carrier.at
    kap = kappa_values(pair, model, v)
    s_v = at(model.s, v)
    da_v = carrier.lift(at(model.a_increments, v - 1))
    da_next = carrier.lift(at(model.a_increments, v))
    if np.min(da_v) <= 0.0 or np.min(da_next) <= 0.0:
        raise ConfigurationError("difference quotients need dA > 0 at v and v + 1")
    m_prev = family.values(v - 1)
    m_v = family.values(v)
    m_next = family.values(v + 1)

    flow_hi = flow_solve(pair, model, v, s_v)
    flow_lo = flow_solve(pair, model, v, s_v - kap * da_v)

    jump_resid = 0.0
    for k in range(v, t + 1):
        lhs = at(m_v, k) - at(m_prev, k)
        rhs = flow_hi.at(k) - flow_lo.at(k)
        jump_resid = max(jump_resid, float(np.max(np.abs(lhs - rhs))))

    d_t = flow_hi.deriv_at(t)
    kap_t = _lift_to(carrier, kap, v, t)
    quot_left = (at(m_v, t) - at(m_prev, t)) / _lift_to(carrier, da_v, v, t)
    quot_right = (at(m_next, t) - at(m_v, t)) / _lift_to(carrier, da_next, v + 1, t)
    return {
        "v": v,
        "t": t,
        "jump_identity_residual": jump_resid,
        "left_quotient_residual": float(np.max(np.abs(quot_left - d_t * kap_t))),
        "right_quotient_residual": float(np.max(np.abs(quot_right - d_t))),
        "kappa_min": float(np.min(kap)),
        "kappa_max": float(np.max(kap)),
    }
