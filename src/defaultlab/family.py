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

`build_family` is one step-major pass on both carriers, and the only code
that checks a family.  Every requested member advances together as one
stacked state, (members, nodes) per tree level or (members, paths) on a
bundle, row i holding member u_indices[i] once it has started.  Each step
is processed in fixed blocks of at most `_BLOCK` children or paths, so the
temporaries stay a few hundred kB whatever the carrier width.  f and f'dY
are evaluated once per (member, step), and that step's arrays feed the
solver update, the family axioms as per-step max reductions, and, when
``conditions=`` asks for it, the fold of the pair conditions (i)-(iii), in
which (iii) is a difference along the member axis.  On a tree the axioms
include the exact martingale property: a block holds whole sibling groups,
so E[M^u_k | level k-1 node] - M^u_{k-1} is taken per parent inside it.
Every operation is elementwise or an order-free min, max or count, so the
pass gives bitwise the numbers of solving and checking member by member.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .coefficients import (
    _dot_components,
    _fold_slack,
    _new_condition_agg,
    _pair_slacks,
    _state_slacks,
    evaluate_f,
    evaluate_f_x,
)
from .errors import ConfigurationError, GridMismatchError, SolverInconsistencyError
from .tree import ScenarioTree

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
    """Map the state at k-1 to the state at k."""
    carrier = pair.carrier
    ps = carrier.at(model.pred_one_minus_z, k - 1)
    f = evaluate_f(pair.spec, carrier.grid.times[k], x_prev, ps)
    dm = carrier.at(model.tilde_m_increments, k - 1)
    return _advance(carrier.lift(x_prev), dm, carrier.lift(f), pair.y_step(k))[0]


def solve_natural(pair, model, u: int, x):
    """Solve from X_u = x forward; x may be a scalar or a level array.

    Trees return a level list with entries below u set to None; bundles
    return a (paths, steps+1) array with nan below u.  The start column is
    the given x bitwise.
    """
    carrier = pair.carrier
    n = carrier.grid.steps
    if not 0 <= u <= n:
        raise ConfigurationError(f"start index {u} outside grid")
    out = carrier.alloc(n + 1)
    carrier.put(out, u, _start_level(pair, x, carrier.n_nodes(u)))
    for k in range(u + 1, n + 1):
        carrier.put(out, k, _step(pair, model, k, carrier.at(out, k - 1)))
    return out


@dataclass
class MartingaleFamily:
    """Family of solutions M^u started at (u, 1 - Z_u), u on the grid.

    ``values(u)`` returns the stored solution (level list on trees, a
    (paths, steps+1) array on bundles); ``terminal(u)`` its final slice.
    The full-mass member is identically one and exposed separately since
    it carries the beyond-horizon atom.  ``report`` holds the invariant
    verification; ``conditions`` the pair-condition aggregate folded in
    during the pass when `build_family` was asked for one, else None.
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


_BLOCK = 2048  # children or paths per block of the family pass
_FOLDS = (None, "adjacent", "all")
# the report rows of each carrier, in their order; a tree adds the exact
# martingale row
_BUNDLE_AXIOMS = ("starts_at_one_minus_z", "nonnegative", "bounded_by_one_minus_z", "nondecreasing_in_u")
_TREE_AXIOMS = ("martingale", "nonnegative", "bounded_by_one_minus_z", "starts_at_one_minus_z",
                "nondecreasing_in_u")


def _fold_invariants(worst, x, s, new):
    """Fold a block of one level of the stacked state into the worst cases
    of the pathwise axioms; rows from ``new`` on are members starting at
    this level."""
    worst["starts_at_one_minus_z"] = max(
        worst["starts_at_one_minus_z"], float(np.max(np.abs(x[new:] - s), initial=0.0))
    )
    worst["nonnegative"] = max(worst["nonnegative"], float(np.max(-x)))
    worst["bounded_by_one_minus_z"] = max(worst["bounded_by_one_minus_z"], float(np.max(x - s)))
    worst["nondecreasing_in_u"] = max(
        worst["nondecreasing_in_u"], float(np.max(x[:-1] - x[1:], initial=0.0))
    )


def _fold_conditions(agg, mode, witness, dm, ps, x, fdy, image):
    """Fold one step's pair-condition slacks of the active members (rows).

    Each member gives (i) and (ii) once per step.  (iii) pairs every row
    with the row before it under "adjacent", plus the ``witness`` rows
    (member N // 2, member 0): any pair quotient is a gap-weighted mean of
    adjacent ones, so adjacent strictness is the binding case.  Under
    "all" every row is paired with every row before it.
    """
    cond_i, cond_ii = _state_slacks(dm, ps, x, fdy)
    _fold_slack(agg["condition_i"], cond_i)
    _fold_slack(agg["condition_ii"], cond_ii)
    rows = x.shape[0]
    if mode == "adjacent":
        pairs = [(slice(1, rows), slice(0, rows - 1))]
        if witness is not None and witness[0] < rows:
            pairs.append(witness)
    else:
        pairs = [(i, slice(0, i)) for i in range(1, rows)]
    for i, j in pairs:
        cond, same = _pair_slacks(dm, x[i], fdy[i], image[i], x[j], fdy[j], image[j])
        _fold_slack(agg["condition_iii"], cond)
        agg["agree"] = agg["agree"] and same


def build_family(
    pair, model, u_indices=None, tol: float = 1e-12, keep: str = "full", conditions=None
) -> MartingaleFamily:
    """Solve M^u from (u, 1 - Z_u) for each requested u and verify the axioms.

    One step-major pass (see the module docstring) solves every member and
    folds the family axioms as it goes: start value, 0 <= M^u <= 1 - Z,
    monotonicity in u and, when u = N is requested, terminal normalization;
    on a tree also the exact martingale property.  On bundles the
    martingale property is statistical and lives in the Monte Carlo
    suites.  A violation beyond `tol` raises `SolverInconsistencyError`
    carrying the report.  ``u_indices`` defaults to the whole grid.
    ``keep="terminal"`` stores just the terminal slice per u; the pass
    holds two levels of the stacked state, never a member's trajectory.
    ``conditions`` folds the slacks of pair conditions (i)-(iii) into
    ``MartingaleFamily.conditions``: "adjacent" checks each member with the
    one before it plus the witness pair (N // 2, 0), "all" every ordered
    pair; None (the default) folds nothing.
    """
    carrier = pair.carrier
    n = carrier.grid.steps
    if u_indices is None:
        u_indices = list(range(n + 1))
    us = sorted(int(u) for u in u_indices)
    if not us:
        raise ConfigurationError("a family needs at least one u index")
    if us[0] < 0 or us[-1] > n:
        raise ConfigurationError("u indices outside the grid")
    if keep not in ("full", "terminal"):
        raise ConfigurationError(f"unknown storage mode {keep!r}")
    if conditions not in _FOLDS:
        raise ConfigurationError(f"unknown pair-condition fold {conditions!r}")
    exact = isinstance(carrier, ScenarioTree)
    worst = dict.fromkeys(_TREE_AXIOMS if exact else _BUNDLE_AXIOMS, 0.0)
    agg = None if conditions is None else _new_condition_agg()
    witness = None
    if conditions == "adjacent" and n // 2 >= 1 and 0 in us and n // 2 in us:
        witness = (us.index(n // 2), us.index(0))
    values = {u: carrier.alloc(n + 1) for u in us} if keep == "full" else {}

    spec = pair.spec
    x_prev, active = None, 0
    for k in range(us[0], n + 1):
        # rows [active, started) start at level k; the rows before advance
        started = bisect.bisect_right(us, k)
        s_k = carrier.at(model.s, k)
        x_k = np.empty((started, carrier.n_nodes(k)))
        x_k[active:] = _start_level(pair, s_k, carrier.n_nodes(k))
        if active:
            t = carrier.grid.times[k]
            ps = carrier.at(model.pred_one_minus_z, k - 1)
            dm = carrier.at(model.tilde_m_increments, k - 1)
            dy = pair.y_step(k)
            fan = carrier.n_nodes(k) // carrier.n_nodes(k - 1)
            per = max(1, _BLOCK // fan)
            for lo in range(0, carrier.n_nodes(k - 1), per):
                par, ch = slice(lo, lo + per), slice(lo * fan, (lo + per) * fan)
                x = x_prev[:, par]
                f = evaluate_f(spec, t, x, ps[par])
                x = carrier.lift(x)
                image, fdy = _advance(x, dm[ch], carrier.lift(f), dy[:, ch])
                x_k[:active, ch] = image
                if exact:
                    resid = carrier.step_expectation(image).reshape(active, -1) - x_prev[:, par]
                    worst["martingale"] = max(worst["martingale"], float(np.max(np.abs(resid))))
                _fold_invariants(worst, x_k[:, ch], s_k[ch], active)
                if agg is not None:
                    _fold_conditions(
                        agg, conditions, witness, dm[ch], carrier.lift(ps[par]), x, fdy, image
                    )
        else:
            _fold_invariants(worst, x_k, s_k, 0)
        if keep == "full":
            for i in range(started):
                carrier.put(values[us[i]], k, x_k[i])
        x_prev, active = x_k, started
    terminal = {} if keep == "full" else {u: x_prev[i] for i, u in enumerate(us)}

    family = MartingaleFamily(
        pair=pair,
        model=model,
        u_indices=us,
        values_by_u=values,
        storage=keep,
        terminal_by_u=terminal,
        conditions=agg,
    )
    if us[-1] == n:
        # M^N is 1 - Z_N; adding the survival mass Z_N gives total mass one
        worst["terminal_normalization"] = float(
            np.max(np.abs(x_prev[-1] + (1.0 - carrier.at(model.s, n)) - 1.0))
        )
    checks = [
        {"name": name, "max_violation": val, "pass": val <= tol} for name, val in worst.items()
    ]
    family.report = {"checks": checks, "pass": all(c["pass"] for c in checks)}
    if not family.report["pass"]:
        bad = max(c["max_violation"] for c in family.report["checks"])
        raise SolverInconsistencyError(
            f"family invariant violation {bad:.3e} beyond tolerance {tol:.1e}",
            report=family.report,
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
        carrier.put(vals, k, _step(pair, model, k, x_prev))
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
        image = _step(pair, model, k, carrier.at(model.s, k - 1))
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
