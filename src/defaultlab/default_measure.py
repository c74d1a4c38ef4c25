"""Default-time law on the product space: sampling, kernels, enlargement.

The terminal family slice u -> M^u_N is a conditional CDF per outcome;
sampling inverts it with one uniform per path, with the survival atom
mapped beyond the horizon.  Conditioning the product measure on the
default cell turns family increments into density processes, which is
what the enlargement compensator formula expresses: per step k,

    dC_k = 1_{k <= tau} (d<M,X>_k + dB^X_k) / Z_{k-1}
         - 1_{tau < k} d<M,X>_k / pS_k
         + 1_{tau < k} p_kernel(k, tau)' d<Y,X>_k,

with dB^X_k = dA_k E[dX_k kappa_k | F_{k-1}].  All brackets are closed
form because test processes are driver-linear and dm, dY have predictable
driver coefficients.  X - X_0 - C is then a martingale for the filtration
enlarged by the default time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import step_bracket
from .coefficients import CoefficientSpec, ComponentSpec, PlateauSpec, build_y, evaluate_f, evaluate_f_x
from .errors import ConfigurationError, GridMismatchError, InvalidFamilyError
from .family import _advance, _lift_to, build_family
from .grids import TimeGrid, sample_bundle, three_branch_model
from .survival import ZGeneratorConfig, generate_z
from .tree import ScenarioTree

__all__ = [
    "DefaultSamples",
    "sample_tau",
    "p_kernel",
    "TestMartingale",
    "driver_martingale",
    "sign_modulated_martingale",
    "EnlargementReport",
    "enlargement_compensator",
    "enlargement_compensators",
    "absolute_continuity_check",
    "polarization_experiment",
]


@dataclass
class DefaultSamples:
    """Sampled default cells for a path bundle.

    ``cell[i] = c`` means path i defaults in the u-cell ending at
    ``u_indices[c]`` (cell 0 is default at or before the first grid
    point); ``cell == len(u_indices)`` is the beyond-horizon atom.  The
    uniform draws are kept so runs are reproducible and the inversion
    auditable.
    """

    u_indices: list
    cell: np.ndarray
    uniform: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.cell.shape[0]

    @property
    def beyond(self) -> np.ndarray:
        return self.cell == len(self.u_indices)

    def tau_u(self) -> np.ndarray:
        """Grid index of the default cell end, -1 beyond the horizon."""
        us = np.asarray(list(self.u_indices) + [-1])
        return us[self.cell]


def sample_tau(family, model, rng) -> DefaultSamples:
    """Invert the terminal CDF u -> M^u_N with one uniform per path."""
    if isinstance(family.carrier, ScenarioTree):
        raise ConfigurationError("sampling works on path bundles; trees enumerate")
    us = list(family.u_indices)
    cdf = np.stack([family.terminal(u) for u in us])  # (n_u, paths)
    if np.any(np.diff(cdf, axis=0) < -1e-12):
        raise InvalidFamilyError("terminal family slice not nondecreasing in u")
    if np.any(cdf < -1e-12) or np.any(cdf > 1.0 + 1e-12):
        raise InvalidFamilyError("terminal family slice leaves [0,1]")
    uniform = rng.random(cdf.shape[1])
    cell = (cdf < uniform[None, :]).sum(axis=0)
    return DefaultSamples(u_indices=us, cell=cell, uniform=uniform)


def p_kernel(spec, family, k: int, v: int, atom_tol: float = 1e-12):
    """Per-component kernel at step k for default in the cell ending at v.

    With a = M^{v-}_{k-1} and b = M^v_{k-1} (v- the previous family grid
    point, the zero process before the first), returns the difference
    quotient (f(t_k, b) - f(t_k, a)) / (b - a) where the cell has mass and
    df/dx(t_k, b) where it does not (gap <= atom_tol).  Shape (m, nodes)
    on trees, (m, paths) on bundles.
    """
    us = list(family.u_indices)
    if v not in us:
        raise ConfigurationError(f"v = {v} not in the family grid")
    if k <= v:
        raise ConfigurationError("kernel needs k > v")
    carrier = family.carrier
    t = carrier.grid.times[k]
    pos = us.index(v)
    b = carrier.at(family.values(v), k - 1)
    a = carrier.at(family.values(us[pos - 1]), k - 1) if pos > 0 else np.zeros_like(b)
    ps = carrier.at(family.model.pred_one_minus_z, k - 1)
    fb, fa = evaluate_f(spec, t, b, ps), evaluate_f(spec, t, a, ps)
    return _kernel(spec, t, b, a, ps, atom_tol, fb, fa)


def _kernel(spec, t, b, a, ps, atom_tol, fb, fa):
    """(f(t, b) - f(t, a)) / (b - a) where b - a > atom_tol, else df/dx(t, b).

    ``fb`` and ``fa`` are f(t, b) and f(t, a), shape (m, states); df/dx is
    evaluated on the flat cells only.
    """
    gap = b - a
    quot_mask = gap > atom_tol
    denom = np.where(quot_mask, gap, 1.0)
    out = (fb - fa) / denom
    flat = ~quot_mask
    if np.any(flat):
        out[:, flat] = evaluate_f_x(spec, t, b[flat], ps[flat])
    return out


@dataclass
class TestMartingale:
    """Driver-linear test process dX_k = sum_d coeff_d,k dW_d,k, X_0 = x0.

    Coefficients are predictable step objects of the carrier: on a tree
    ``coeffs[d]`` is a per-step list of parent-level arrays (or scalars); on
    a bundle a (paths, steps) array or anything with a trailing steps axis
    that broadcasts to it.  A length-``steps`` array of per-step constants
    works on either carrier.  Only drivers registered in the carrier's
    increment model are allowed, which keeps every bracket closed form.
    """

    __test__ = False  # not a pytest class

    carrier: object
    name: str
    x0: float
    coeffs: dict

    def __post_init__(self):
        for drv in self.coeffs:
            self.carrier.model.block_of(drv)  # raises UnsupportedProcessError

    def coeff_at(self, drv: str, k: int):
        """Step-k coefficient of one driver on the parent level."""
        ck = self.carrier.at(self.coeffs[drv], k - 1)
        return np.broadcast_to(np.asarray(ck, dtype=float), (self.carrier.n_nodes(k - 1),))

    def step_coeffs(self, k: int) -> dict:
        return {drv: self.coeff_at(drv, k) for drv in self.coeffs}

    def step_increments(self, k: int):
        """Realized dX_k on the child level (tree) or per path (bundle)."""
        out = 0.0
        for drv in self.coeffs:
            out = out + self.carrier.lift(self.coeff_at(drv, k)) * (
                self.carrier.driver_increments(drv, k)
            )
        return out

    def increments(self):
        """Realized increments as a carrier step object."""
        n = self.carrier.grid.steps
        out = self.carrier.alloc(n)
        for k in range(1, n + 1):
            self.carrier.put(out, k - 1, self.step_increments(k))
        return out

    def values(self):
        """X as a carrier level object, x0 added to the running sum."""
        carrier = self.carrier
        n = carrier.grid.steps
        inc = self.increments()
        out = carrier.alloc(n + 1)
        run = np.zeros(carrier.n_nodes(0))
        carrier.put(out, 0, run + self.x0)
        for k in range(1, n + 1):
            run = carrier.lift(run) + carrier.at(inc, k - 1)
            carrier.put(out, k, run + self.x0)
        return out


def driver_martingale(carrier, driver: str, name=None, x0: float = 0.0) -> TestMartingale:
    """X with unit coefficient on one driver."""
    return TestMartingale(carrier, name or driver, x0, {driver: np.ones(carrier.grid.steps)})


def sign_modulated_martingale(carrier, driver: str, mod: str, name=None) -> TestMartingale:
    """X whose step-k coefficient is the sign of the mod driver at k-1.

    The coefficient is predictable (it reads the previous step) and
    bounded, giving a second test martingale correlated with the history.
    """
    n = carrier.grid.steps
    coeff = carrier.alloc(n)
    carrier.put(coeff, 0, np.ones(carrier.n_nodes(0)))
    for k in range(2, n + 1):
        prev = carrier.driver_increments(mod, k - 1)
        carrier.put(coeff, k - 1, np.sign(prev) + (prev == 0.0))
    return TestMartingale(carrier, name or f"sign({mod}){driver}", 0.0, {driver: coeff})


def _bracket_tilde_m(pair, model, mart, k):
    """d<m, X>_k as a predictable parent-level/path array."""
    carrier = pair.carrier
    cm = {d: carrier.at(c, k - 1) for d, c in model.tilde_m_coeffs.items()}
    return step_bracket(carrier, k, cm, mart.step_coeffs(k))


def _bracket_y(pair, mart, k):
    """d<Y, X>_k, shape (m, parents) or (m, paths)."""
    carrier = pair.carrier
    yc = {d: carrier.at(c, k - 1) for d, c in pair.y_coeffs.items()}
    xc = mart.step_coeffs(k)
    return np.stack(
        [step_bracket(carrier, k, {d: c[j] for d, c in yc.items()}, xc) for j in range(pair.m)]
    )


def _step_brackets(pair, model, mart, k):
    """All predictable step-k quantities of the compensator formula."""
    carrier = pair.carrier
    s_prev = carrier.at(model.s, k - 1)
    ps = carrier.at(model.pred_one_minus_z, k - 1)
    da = carrier.at(model.a_increments, k - 1)
    bmx = _bracket_tilde_m(pair, model, mart, k)
    byx = _bracket_y(pair, mart, k)
    g = pair.spec.g_value(carrier.grid.times[k], s_prev)
    gbyx = 0.0
    for j in range(pair.m):
        gbyx = gbyx + g[j] * byx[j]
    b_x = da * (bmx - s_prev * gbyx)
    m_x = -ps * bmx
    pre = (m_x + b_x) / (1.0 - s_prev)
    post_base = -(m_x / ps)
    return {"bmx": bmx, "byx": byx, "b_x": b_x, "m_x": m_x, "pre": pre, "post_base": post_base}


@dataclass
class EnlargementReport:
    """Verification record for one test martingale.

    ``entries`` holds one row per checked unit (a (step, condition-atom)
    class on trees, a functional on bundles); ``max_residual`` is the
    worst conditional mean on trees, None for the statistical report.
    ``tol`` bounds that mean on trees and is the multiple of the standard
    error each functional must stay within on bundles.
    """

    kind: str
    martingale: str
    tol: float
    entries: list
    max_residual: object
    passed: bool
    extras: dict = field(default_factory=dict)


# default tolerances of the enlargement check: an absolute bound on the
# conditional means of a tree, a multiple of the standard error on a bundle
_TREE_TOL = 1e-10
_MC_SIGMA_MULT = 3.0


def _cond_mean(tree, dg, dens, s0):
    """Largest |E[dg dens | node] / E[dens | node]| (the bare E[dg dens | node]
    where the atom has no mass)."""
    s1 = tree.step_expectation(dg * dens)
    return float(np.max(np.abs(np.where(s0 > 0.0, s1 / np.where(s0 > 0.0, s0, 1.0), s1))))


def _enlargement_tree(pair, model, family, marts, tol, atom_tol):
    tree = pair.carrier
    n = tree.depth
    if list(family.u_indices) != list(range(n + 1)):
        raise ConfigurationError("tree enlargement check needs the full u grid")
    runs = [{"entries": [], "worst": 0.0, "pre": [], "post": []} for _ in marts]
    for k in range(1, n + 1):
        # the condition atoms at step k: every past cell v <= k-1, plus the
        # aggregated future {tau >= k}; densities are family increments at
        # level k.  Kernels and densities do not depend on the martingale.
        dens_fut = 1.0 - family.values(k - 1)[k]
        s0_fut = tree.step_expectation(dens_fut)
        kerns, dens = [], []
        for v in range(k):
            kerns.append(p_kernel(pair.spec, family, k, v, atom_tol=atom_tol))
            lo = family.values(v - 1)[k] if v > 0 else 0.0
            d = family.values(v)[k] - lo
            dens.append((d, tree.step_expectation(d)))
        for mart, run in zip(marts, runs):
            br = _step_brackets(pair, model, mart, k)
            dx = mart.step_increments(k)
            run["pre"].append(br["pre"])
            resid = _cond_mean(tree, dx - tree.lift(br["pre"]), dens_fut, s0_fut)
            run["entries"].append({"step": k, "atom": "future", "residual": resid})
            run["worst"] = max(run["worst"], resid)
            post_step = []
            for v, (kern, (d, s0)) in enumerate(zip(kerns, dens)):
                kby = 0.0
                for j in range(pair.m):
                    kby = kby + kern[j] * br["byx"][j]
                post = br["post_base"] + kby
                post_step.append(post)
                resid = _cond_mean(tree, dx - tree.lift(post), d, s0)
                run["entries"].append({"step": k, "atom": f"cell_{v}", "residual": resid})
                run["worst"] = max(run["worst"], resid)
            run["post"].append(post_step)
    return [
        EnlargementReport(
            kind="tree",
            martingale=mart.name,
            tol=tol,
            entries=run["entries"],
            max_residual=run["worst"],
            passed=run["worst"] <= tol,
            extras={"pre_parts": run["pre"], "post_parts": run["post"]},
        )
        for mart, run in zip(marts, runs)
    ]


def _default_functionals(bundle, model, mart, samples, anchors):
    """Bounded functionals measurable at each anchor step."""
    tau_u = samples.tau_u()
    funcs = []
    x_vals = mart.values()
    for s in anchors:
        alive = (samples.beyond | (tau_u >= s + 1)).astype(float)
        funcs.append((f"one@{s}", s, np.ones(bundle.n_paths)))
        funcs.append((f"alive@{s}", s, alive))
        funcs.append((f"sign_x@{s}", s, np.sign(x_vals[:, s]) + (x_vals[:, s] == 0.0)))
        funcs.append((f"sign_diff@{s}", s, np.sign(bundle.driver_increments("diff", s))))
        funcs.append((f"surv@{s}", s, model.s[:, s]))
        for j in (s // 2, s):
            dead = ((~samples.beyond) & (tau_u <= j)).astype(float)
            funcs.append((f"default_by_{j}@{s}", s, dead))
        funcs.append(
            (f"dead_sign@{s}", s, ((~samples.beyond) & (tau_u <= s)) * np.sign(x_vals[:, s]))
        )
    return funcs


def _enlargement_mc(pair, model, family, marts, samples, tol, functionals, atom_tol):
    bundle = pair.carrier
    n = bundle.grid.steps
    p = bundle.n_paths
    if samples.n_paths != p:
        raise GridMismatchError("sample count does not match the bundle")
    if list(samples.u_indices) != list(range(n + 1)):
        raise ConfigurationError("bundle enlargement check needs the full u grid")
    tau_u = samples.tau_u()
    grid = bundle.grid
    spec = pair.spec

    # states (b, a) = (M^{v}, M^{v-1}) along each path's own default cell,
    # activated at k = v; cell 0 activates at the start against the zero
    # process
    state = np.full((2, p), 0.5)
    mask0 = tau_u == 0
    state[0, mask0] = model.s[mask0, 0]
    state[1, mask0] = 0.0

    parts = [
        {key: np.empty((p, n)) for key in ("dg", "pre", "post", "compensator")} for _ in marts
    ]
    for k in range(1, n + 1):
        t = grid.times[k]
        ps = model.pred_one_minus_z[:, k - 1]
        dm = model.tilde_m_increments[:, k - 1]
        dy = pair.y_step(k)
        # one f evaluation on both density states feeds the kernel quotient
        # and the state step
        f = evaluate_f(spec, t, state, ps)
        kern = _kernel(spec, t, state[0], state[1], ps, atom_tol, f[:, 0], f[:, 1])
        dead = (~samples.beyond) & (tau_u <= k - 1)
        for mart, part in zip(marts, parts):
            br = _step_brackets(pair, model, mart, k)
            kby = 0.0
            for j in range(pair.m):
                kby = kby + kern[j] * br["byx"][j]
            post = br["post_base"] + kby
            dc_k = np.where(dead, post, br["pre"])
            part["dg"][:, k - 1] = mart.step_increments(k) - dc_k
            part["compensator"][:, k - 1] = dc_k
            part["pre"][:, k - 1] = br["pre"]
            part["post"][:, k - 1] = post
        # advance both density states through the solver step, then
        # activate the paths whose cell ends at k
        state = _advance(state, dm, f, dy)[0]
        act = tau_u == k
        if np.any(act):
            x = model.s[act, k - 1]
            image = _advance(x, dm[act], evaluate_f(spec, t, x, ps[act]), dy[:, act])[0]
            state[0, act] = model.s[act, k]
            state[1, act] = image
    return [
        _mc_report(bundle, model, mart, samples, tol, functionals, part)
        for mart, part in zip(marts, parts)
    ]


def _mc_report(bundle, model, mart, samples, tol, functionals, part):
    n = bundle.grid.steps
    p = bundle.n_paths
    g_vals = np.concatenate([np.zeros((p, 1)), np.cumsum(part["dg"], axis=1)], axis=1)
    if functionals is None:
        anchors = sorted({max(1, n // 4), max(1, n // 2), max(1, (3 * n) // 4)})
        functionals = _default_functionals(bundle, model, mart, samples, anchors)
    entries = []
    ok = True
    for name, s, h in functionals:
        inc = (g_vals[:, n] - g_vals[:, s]) * h
        est = float(np.mean(inc))
        se = float(np.std(inc) / np.sqrt(p))
        passed = abs(est) <= tol * se if se > 0.0 else est == 0.0
        ok = ok and passed
        entries.append(
            {"functional": name, "anchor": int(s), "estimate": est, "se": se, "pass": passed}
        )
    return EnlargementReport(
        kind="mc",
        martingale=mart.name,
        tol=tol,
        entries=entries,
        max_residual=None,
        passed=ok,
        extras=part,
    )


def enlargement_compensators(
    pair,
    model,
    family,
    marts,
    samples: DefaultSamples | None = None,
    tol: float | None = None,
    functionals=None,
    atom_tol: float = 1e-12,
) -> list:
    """`enlargement_compensator` for each test martingale of ``marts``.

    One pass serves every martingale.  On trees each kernel p_kernel(k, v)
    and each cell density is computed once for all of them; on bundles one
    pass over the default-cell density states evaluates f once per step
    whatever their number.  The reports equal the one-at-a-time ones
    bitwise.
    """
    if isinstance(pair.carrier, ScenarioTree):
        tol = _TREE_TOL if tol is None else tol
        return _enlargement_tree(pair, model, family, marts, tol, atom_tol)
    if samples is None:
        raise ConfigurationError("bundle enlargement check needs sampled defaults")
    tol = _MC_SIGMA_MULT if tol is None else tol
    return _enlargement_mc(pair, model, family, marts, samples, tol, functionals, atom_tol)


def enlargement_compensator(
    pair,
    model,
    family,
    mart: TestMartingale,
    samples: DefaultSamples | None = None,
    tol: float | None = None,
    functionals=None,
    atom_tol: float = 1e-12,
) -> EnlargementReport:
    """Check that X - X_0 - C is a martingale for the enlarged filtration.

    On trees the check is exhaustive: the conditional mean of every
    compensated increment given each condition atom (past default cells
    individually, the future aggregated) must vanish within `tol`
    (default 1e-10).  On bundles it is statistical: sampled defaults plus a
    battery of bounded functionals, each within `tol` standard errors
    (default 3).
    """
    return enlargement_compensators(
        pair, model, family, [mart], samples, tol, functionals, atom_tol
    )[0]


def absolute_continuity_check(family, model, t: int, tol: float = 1e-12) -> dict:
    """Ratios of family increments to compensator increments up to time t.

    Reports min/max of (M^v_t - M^u_t) / (A_v - A_u) over consecutive
    family grid cells in (0, t], and the largest family increment sitting
    on a cell with zero compensator mass (which must vanish).
    """
    us = [u for u in family.u_indices if u <= t]
    if len(us) < 2:
        raise ConfigurationError("need at least two family grid points below t")
    carrier = family.carrier
    a = model.a
    ratio_min, ratio_max = np.inf, -np.inf
    zero_mass_max = 0.0
    zero_cells = 0
    cells = 0
    for lo, hi in zip(us[:-1], us[1:]):
        num = carrier.at(family.values(hi), t) - carrier.at(family.values(lo), t)
        a_hi = _lift_to(carrier, carrier.at(a, hi), hi, t)
        den = a_hi - _lift_to(carrier, carrier.at(a, lo), lo, t)
        cells += 1
        mass = den > 0.0
        if np.any(mass):
            r = num[mass] / den[mass]
            ratio_min = min(ratio_min, float(np.min(r)))
            ratio_max = max(ratio_max, float(np.max(r)))
        if np.any(~mass):
            zero_cells += 1
            zero_mass_max = max(zero_mass_max, float(np.max(np.abs(num[~mass]))))
    return {
        "t": t,
        "cells": cells,
        "ratio_min": ratio_min,
        "ratio_max": ratio_max,
        "zero_cells": zero_cells,
        "zero_mass_max": zero_mass_max,
        "pass": zero_mass_max <= tol,
    }


def polarization_experiment(
    t_values=(5.0, 10.0, 20.0, 40.0),
    n_paths: int = 10_000,
    dt: float = 0.1,
    u_times=None,
    eta: float = 0.05,
    seed: int = 0,
    n_bins: int = 20,
    scale_factor: float = 2.0,
    tol: float = 1e-12,
) -> dict:
    """Long-horizon polarization of the family under exponential survival.

    Z decays deterministically one grid step ahead of e^{-t} (an exact
    e^{-t} would need Z_0 = 1, outside the open state space), the driving
    coefficient is identically one on the state range, so the solution is
    the logistic-drift martingale x (pS - x) dY.  For each horizon T the
    family of a fixed set of early u values is built in one `build_family`
    pass, which raises `SolverInconsistencyError` when an axiom fails
    beyond ``tol``.  The report holds the histogram of M^u_T over (u, path)
    and the fraction of mass inside [eta, 1 - eta]; the family polarizes
    toward {0, 1} as T grows.  ``terminal_bound_violation`` holds, per
    horizon, the largest breach of the pathwise bounds 0 <= M^u_T <= 1 - Z_T
    over every (u, path); it is 0.0 on a valid family.
    """
    if u_times is None:
        u_times = tuple(np.arange(0.0, 5.0, 0.5))
    comp = ComponentSpec(plateaus=(PlateauSpec(-0.5, 1.5, 0.5, 1.0),))
    spec = CoefficientSpec(components=(comp,))
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    fractions, hists, bound_viol = [], [], []
    for t_mult in t_values:
        steps = int(round(t_mult / dt))
        grid = TimeGrid(horizon=float(t_mult), steps=steps)
        bundle = sample_bundle(grid, three_branch_model(), n_paths, seed)
        cfg = ZGeneratorConfig(z0=float(np.exp(-dt)), rate=1.0, eps=1e-19)
        model = generate_z(cfg, bundle)
        pair = build_y(spec, model, seed=seed, scale=scale_factor * float(np.sqrt(dt)))
        u_idx = [grid.index_of(u) for u in u_times]
        family = build_family(pair, model, u_indices=u_idx, keep="terminal", tol=tol)
        vals = np.concatenate([family.terminal(u) for u in u_idx])
        inside = float(np.mean((vals > eta) & (vals < 1.0 - eta)))
        fractions.append(inside)
        counts, _ = np.histogram(vals, bins=edges)
        hists.append(counts / vals.size)
        above = vals - np.tile(model.s[:, -1], len(u_idx))
        bound_viol.append(max(0.0, float(np.max(-vals)), float(np.max(above))))
    dec = all(b < a for a, b in zip(fractions[:-1], fractions[1:]))
    return {
        "t_values": [float(t) for t in t_values],
        "dt": dt,
        "eta": eta,
        "u_times": [float(u) for u in u_times],
        "n_paths": n_paths,
        "seed": seed,
        "interior_fraction": fractions,
        "monotone_decreasing": dec,
        "bin_edges": edges.tolist(),
        "histograms": [h.tolist() for h in hists],
        "terminal_bound_violation": bound_viol,
    }
