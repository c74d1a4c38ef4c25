"""Markovian coefficient family and admissible-jump construction.

The equation coefficient is f(t, x) = phi(pS_t - x) * phi(x) * g(t, x)
where pS is the predictable projection of 1 - Z, phi is a smooth clamp
that is exactly the identity on [-1, 1], and g is a smooth compactly
supported vector function built from bumps and plateaus.  The two clamp
factors confine solutions to the tube [0, 1 - Z]: f vanishes at both
of its boundaries.

Jump admissibility: a candidate jump vector z of the driving martingale Y
is admissible at a step when

* 2 |g(t, x)' z| < 1 + dm          for all x      (keeps the atom weight positive)
* df/dx(t, x)' z > -(1 + dm)       for all x      (one-step map stays monotone)

Both quantities are linear in z, so scaling a candidate down far enough
always works; `build_y` walks a power-of-two ladder to pick the largest
admissible scale per node, which preserves exact zero conditional means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grids import philox_stream
from .tree import ScenarioTree

__all__ = [
    "smoothstep",
    "smoothstep_deriv",
    "smooth_clamp",
    "smooth_clamp_deriv",
    "BumpSpec",
    "PlateauSpec",
    "ComponentSpec",
    "CoefficientSpec",
    "NaturalPair",
    "evaluate_f",
    "evaluate_f_x",
    "build_y",
]


# ---------------------------------------------------------------------------
# smooth primitives

def _bump_exp(u):
    """exp(-1/u) for u > 0, exactly 0 elsewhere (all derivatives vanish)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    pos = u > 0.0
    with np.errstate(divide="ignore", over="ignore"):
        out[pos] = np.exp(-1.0 / u[pos])
    return out


def smoothstep(u):
    """C-infinity monotone step: exactly 0 for u <= 0 and 1 for u >= 1.

    nan maps to nan.  It is kept out of the quotient, where both bumps are
    0 and it would divide 0 by 0.
    """
    u = np.asarray(u, dtype=float)
    b1 = _bump_exp(u)
    b2 = _bump_exp(1.0 - u)
    out = np.full(u.shape, np.nan)
    mid = (u > 0.0) & (u < 1.0)
    out[u <= 0.0] = 0.0
    out[u >= 1.0] = 1.0
    out[mid] = b1[mid] / (b1[mid] + b2[mid])
    return out


def smoothstep_deriv(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    mid = (u > 0.0) & (u < 1.0)
    um = u[mid]
    b1 = np.exp(-1.0 / um)
    b2 = np.exp(-1.0 / (1.0 - um))
    num = b1 * b2 * (1.0 / um**2 + 1.0 / (1.0 - um) ** 2)
    out[mid] = num / (b1 + b2) ** 2
    return out


def _phi_tail_tables():
    # phi continues past 1 with slope 1 - smoothstep((t-1)/2) and flattens at
    # t = 3; the integrand is flat to all orders at both endpoints, so the
    # trapezoid sum converges far faster than the table resolution suggests
    t = np.linspace(1.0, 3.0, 4097)
    slope = 1.0 - smoothstep((t - 1.0) / 2.0)
    h = t[1] - t[0]
    vals = 1.0 + np.concatenate([[0.0], np.cumsum((slope[1:] + slope[:-1]) * (0.5 * h))])
    vals = np.minimum(vals, 2.0)
    curv = float(np.max(np.abs(np.diff(slope))) / h)
    return t, vals, curv


_TAIL_T, _TAIL_PHI, _PHI_CURV_MAX = _phi_tail_tables()


def _tail(x):
    """Mask of the points outside [-1, 1] (nan included), None if there are none.

    The clamp's tail formulas run on these points only; in the identity
    region they are never needed.
    """
    tail = ~(np.abs(x) <= 1.0)
    return tail if tail.any() else None


def smooth_clamp(x):
    """Odd, smooth, nondecreasing; exactly x on [-1, 1]; saturates near 2.

    |phi| <= 2 and |phi(x)| <= |x| everywhere.  The identity region is a
    bitwise pass-through, which downstream exactness arguments rely on.
    """
    x = np.asarray(x, dtype=float)
    out = x.copy()
    tail = _tail(x)
    if tail is not None:
        xt = x[tail]
        out[tail] = np.sign(xt) * np.interp(np.abs(xt), _TAIL_T, _TAIL_PHI)
    return out if out.ndim else float(out)


def smooth_clamp_deriv(x):
    x = np.asarray(x, dtype=float)
    out = np.ones(x.shape)
    tail = _tail(x)
    if tail is not None:
        out[tail] = 1.0 - smoothstep((np.abs(x[tail]) - 1.0) / 2.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# coefficient specification

@dataclass(frozen=True)
class BumpSpec:
    """Smooth bump height * exp(1 - 1/(1-y^2)) with y = (x-center)/width."""

    center: float
    width: float
    height: float

    def __post_init__(self):
        if self.width <= 0.0:
            raise ConfigurationError("bump width must be positive")

    def value(self, x):
        y = (np.asarray(x, dtype=float) - self.center) / self.width
        out = np.zeros(y.shape)
        inside = np.abs(y) < 1.0
        yi = y[inside]
        out[inside] = self.height * np.exp(1.0 - 1.0 / (1.0 - yi**2))
        return out

    def deriv(self, x):
        y = (np.asarray(x, dtype=float) - self.center) / self.width
        out = np.zeros(y.shape)
        inside = np.abs(y) < 1.0
        yi = y[inside]
        core = np.exp(1.0 - 1.0 / (1.0 - yi**2))
        out[inside] = self.height * core * (-2.0 * yi / (1.0 - yi**2) ** 2) / self.width
        return out

    def support(self):
        return self.center - self.width, self.center + self.width


@dataclass(frozen=True)
class PlateauSpec:
    """Smooth plateau: exactly `height` on [lo, hi], zero outside the ramps."""

    lo: float
    hi: float
    ramp: float
    height: float

    def __post_init__(self):
        if self.ramp <= 0.0 or self.hi < self.lo:
            raise ConfigurationError("plateau needs hi >= lo and a positive ramp")

    def _args(self, x):
        x = np.asarray(x, dtype=float)
        left = (x - (self.lo - self.ramp)) / self.ramp
        right = ((self.hi + self.ramp) - x) / self.ramp
        return left, right

    def value(self, x):
        left, right = self._args(x)
        return self.height * smoothstep(left) * smoothstep(right)

    def deriv(self, x):
        left, right = self._args(x)
        dl = smoothstep_deriv(left) / self.ramp
        dr = -smoothstep_deriv(right) / self.ramp
        return self.height * (dl * smoothstep(right) + smoothstep(left) * dr)

    def support(self):
        return self.lo - self.ramp, self.hi + self.ramp


@dataclass(frozen=True)
class ComponentSpec:
    """One component of g: a sum of bumps and plateaus, optional affine time weight."""

    bumps: tuple = ()
    plateaus: tuple = ()
    time_affine: tuple = (1.0, 0.0)

    def weight(self, t):
        a, b = self.time_affine
        return a + b * t

    def value(self, t, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for piece in list(self.bumps) + list(self.plateaus):
            out = out + piece.value(x)
        return self.weight(t) * out

    def deriv(self, t, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for piece in list(self.bumps) + list(self.plateaus):
            out = out + piece.deriv(x)
        return self.weight(t) * out

    def support(self):
        pieces = list(self.bumps) + list(self.plateaus)
        if not pieces:
            return None
        spans = [p.support() for p in pieces]
        return min(s[0] for s in spans), max(s[1] for s in spans)


@dataclass(frozen=True)
class CoefficientSpec:
    """Vector coefficient g plus the scan-grid resolution for margin suprema."""

    components: tuple
    x_resolution: int = 2048

    def __post_init__(self):
        if not self.components:
            raise ConfigurationError("need at least one coefficient component")
        if self.x_resolution < 16:
            raise ConfigurationError("x_resolution too small")

    @property
    def m(self) -> int:
        return len(self.components)

    @property
    def is_autonomous(self) -> bool:
        return all(c.time_affine[1] == 0.0 for c in self.components)

    def support(self):
        spans = [c.support() for c in self.components if c.support() is not None]
        if not spans:
            return 0.0, 1.0
        return min(s[0] for s in spans), max(s[1] for s in spans)

    def scan_grid(self, n: int | None = None) -> np.ndarray:
        lo, hi = self.support()
        return np.linspace(lo, hi, n or self.x_resolution)

    def g_value(self, t, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.stack([c.value(t, x) for c in self.components])

    def g_deriv(self, t, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.stack([c.deriv(t, x) for c in self.components])

    def bound_g(self, t) -> float:
        return float(np.max(np.abs(self.g_value(t, self.scan_grid())), initial=0.0))

    def bound_g_deriv(self, t) -> float:
        return float(np.max(np.abs(self.g_deriv(t, self.scan_grid())), initial=0.0))

    def lipschitz_bound(self, t) -> float:
        """Global Lipschitz constant of x -> f(t, x) from the factor bounds."""
        return 4.0 * self.bound_g(t) + 4.0 * self.bound_g_deriv(t)


def evaluate_f(spec: CoefficientSpec, t: float, x, pred_one_minus_z) -> np.ndarray:
    """f(t, x) = phi(pS - x) phi(x) g(t, x); shape (m,) + broadcast shape."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(pred_one_minus_z, dtype=float)
    return smooth_clamp(p - x) * smooth_clamp(x) * spec.g_value(t, x)


def evaluate_f_x(spec: CoefficientSpec, t: float, x, pred_one_minus_z) -> np.ndarray:
    """Exact x-derivative of f (phi has a closed-form derivative)."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(pred_one_minus_z, dtype=float)
    phi_gap = smooth_clamp(p - x)
    dphi_gap = smooth_clamp_deriv(p - x)
    phi_x = smooth_clamp(x)
    dphi_x = smooth_clamp_deriv(x)
    g = spec.g_value(t, x)
    gx = spec.g_deriv(t, x)
    return -dphi_gap * phi_x * g + phi_gap * (dphi_x * g + phi_x * gx)


# ---------------------------------------------------------------------------
# jump admissibility

def _dot_components(vec, arrays):
    # fixed-order contraction over the component axis
    out = vec[0] * arrays[0]
    for j in range(1, len(vec)):
        out = out + vec[j] * arrays[j]
    return out


def _scan_inf_b(ps, xs, g0, g1):
    """(states, b) minima of -phi'(pS - x) g0_b + phi(pS - x) g1_b over the
    scan points xs, evaluated point by point (+inf without scan points)."""
    out = np.empty((ps.size, g0.shape[0]))
    chunk = max(1, (1 << 22) // max(xs.size, 1))
    for lo in range(0, ps.size, chunk):
        gap = ps[lo : lo + chunk, None] - xs[None, :]
        phi_gap = smooth_clamp(gap)
        dphi_gap = smooth_clamp_deriv(gap)
        for b in range(g0.shape[0]):
            vals = -dphi_gap * g0[b] + phi_gap * g1[b]
            out[lo : lo + chunk, b] = vals.min(axis=1, initial=np.inf)
    return out


_HULL_NEIGHBOURS = 2  # hull lines evaluated on each side of a query's own line
_NEAR_TIE = 2.0**-40  # gap to the envelope, relative to the line scale, that may tie in floats


@dataclass(frozen=True)
class _LowerEnvelope:
    """Lower envelope of the lines -g0[i] + (pS - x[i]) g1[i] over pS in [0, 1].

    ``hull`` lists the envelope's lines by decreasing slope and ``breaks``
    the pS at which each hands over to the next.  ``near`` lists the other
    lines (off-hull ones and hull lines beyond the query window) that come
    within rounding of the envelope somewhere in [0, 1]; every query
    evaluates them too.
    """

    x: np.ndarray
    g0: np.ndarray
    g1: np.ndarray
    hull: np.ndarray
    breaks: np.ndarray
    near: np.ndarray

    @classmethod
    def build(cls, x, g0, g1):
        # lines that are zero everywhere read +-0, which the final min with 0 absorbs
        live = (g0 != 0.0) | (g1 != 0.0)
        x, g0, g1 = x[live], g0[live], g1[live]
        slope, icpt = g1, -g0 - x * g1
        order = np.lexsort((icpt, -slope))
        first = np.ones(order.size, dtype=bool)
        first[1:] = slope[order[1:]] != slope[order[:-1]]
        # monotone chain: decreasing slopes, lowest intercept per slope
        s, c = slope.tolist(), icpt.tolist()
        hull, breaks = [], []
        for j in order[first].tolist():
            while hull:
                i = hull[-1]
                p = (c[j] - c[i]) / (s[i] - s[j])
                if not breaks or p > breaks[-1]:
                    break
                hull.pop()
                breaks.pop()
            if hull:
                breaks.append(p)
            hull.append(j)
        hull, breaks = np.array(hull, dtype=np.intp), np.array(breaks)
        near = np.array([], dtype=np.intp)
        if hull.size:
            # far above the rounding of any line value, which is a few ulps
            # of |g0| + |g1| since |pS - x| <= 1
            tie = _NEAR_TIE * (np.max(np.abs(g0)) + np.max(np.abs(g1))) + 1e-290
            near = cls._near_lines(slope, icpt, hull, breaks, tie)
        return cls(x, g0, g1, hull, breaks, near)

    @staticmethod
    def _near_lines(slope, icpt, hull, breaks, tie):
        """Lines a query window misses that come within ``tie`` of the envelope.

        A line's height above the envelope is convex in pS, so its smallest
        value over a stretch of [0, 1] sits at one point: where the hull's
        slope crosses the line's own for an off-hull line, and at the first
        break beyond the window on either side for a hull line.
        """
        sh, ch = slope[hull], icpt[hull]

        def height(lines, p):
            i = np.searchsorted(breaks, p)
            j = np.maximum(i - 1, 0)
            env = np.minimum(ch[i] + sh[i] * p, ch[j] + sh[j] * p)
            return icpt[lines] + slope[lines] * p - env

        # ends[i]: where hull line i takes over
        ends = np.concatenate([[-np.inf], breaks, [np.inf]])
        near = np.ones(slope.size, dtype=bool)
        near[hull] = False
        off = np.flatnonzero(near)
        cross = np.searchsorted(-sh, -slope[off])
        near[off] = height(off, np.clip(ends[cross], 0.0, 1.0)) <= tie
        # past the window of hull line i: from ends[i + k + 1] on and up to
        # ends[i - k]; only the parts inside [0, 1] are ever queried
        k = _HULL_NEIGHBOURS
        i = np.arange(hull.size - k - 1)
        i = i[ends[i + k + 1] <= 1.0]
        near[hull[i]] |= height(hull[i], np.clip(ends[i + k + 1], 0.0, 1.0)) <= tie
        i = np.arange(k + 1, hull.size)
        i = i[ends[i - k] >= 0.0]
        near[hull[i]] |= height(hull[i], np.clip(ends[i - k], 0.0, 1.0)) <= tie
        return np.flatnonzero(near)

    def minimum(self, ps):
        """Per state, min over the lines evaluated as the clamp scan does (+inf if none)."""
        if not self.hull.size:
            return np.full(ps.size, np.inf)
        k = _HULL_NEIGHBOURS
        own = np.searchsorted(self.breaks, ps)
        win = np.clip(own[:, None] + np.arange(-k, k + 1), 0, self.hull.size - 1)
        lines = np.concatenate([self.hull[win], np.broadcast_to(self.near, (ps.size, self.near.size))], axis=1)
        return (-self.g0[lines] + (ps[:, None] - self.x[lines]) * self.g1[lines]).min(axis=1)


class _StepMarginOracle:
    """Per-step margin machinery shared by the tree and bundle builders.

    For fixed t and candidate branch values, sup_x 2|g'z_b| does not depend
    on the state, while inf_x df/dx'z_b depends on it only through the
    predictable pS.  The oracle evaluates g once per step and offers the
    exact grid infimum per state (trees) and a conservative lookup table
    over a pS grid (large path bundles) whose cells are endpoint minima,
    taken from the exact infimum, padded by a Lipschitz-in-pS correction.

    The exact infimum is a lower envelope of lines: for pS and a scan point
    x both in [0, 1], pS - x lies in [-1, 1], where the clamp is exactly the
    identity with derivative exactly 1, so the scanned term is the line
    -g0[x] + (pS - x) g1[x] in pS.  Each branch builds the envelope of those
    lines once, on first use; a query evaluates the hull lines around its
    own, plus the few lines that may tie within rounding, with the scan's
    float expression, so the minimum is the scan's bitwise.  Scan points
    outside [0, 1], and states outside [0, 1] or nan, are scanned point by
    point.
    """

    def __init__(self, spec, t, cand, n_grid=None):
        self.spec = spec
        self.cand = cand  # (m, b) candidate branch values
        self.xs = spec.scan_grid(n_grid)
        g = spec.g_value(t, self.xs)
        gx = spec.g_deriv(t, self.xs)
        phi_x = smooth_clamp(self.xs)
        dphi_x = smooth_clamp_deriv(self.xs)
        nb = cand.shape[1]
        self.gz = np.stack([_dot_components(cand[:, b], g) for b in range(nb)])
        gxz = np.stack([_dot_components(cand[:, b], gx) for b in range(nb)])
        self.sup_a = 2.0 * np.max(np.abs(self.gz), axis=1, initial=0.0)  # (b,)
        # inf_x df/dx'z_b = min_x of -phi'(pS - x) g0_b + phi(pS - x) g1_b
        self.g0 = phi_x * self.gz
        self.g1 = dphi_x * self.gz + phi_x * gxz
        # scan points whose terms are lines in every pS in [0, 1], with
        # coefficients far enough from overflow for the hull arithmetic
        tame = np.all(np.abs(self.g0) + np.abs(self.g1) <= 2.0**1000, axis=0)
        self._on_lines = (self.xs >= 0.0) & (self.xs <= 1.0) & tame
        self._envelopes = [None] * nb

    def _envelope(self, b):
        if self._envelopes[b] is None:
            on = self._on_lines
            self._envelopes[b] = _LowerEnvelope.build(self.xs[on], self.g0[b][on], self.g1[b][on])
        return self._envelopes[b]

    def inf_b_exact(self, ps) -> np.ndarray:
        """(states, b) exact grid infima at the given predictable states."""
        ps = np.atleast_1d(np.asarray(ps, dtype=float))
        out = np.empty((ps.size, self.g0.shape[0]))
        unit = (ps >= 0.0) & (ps <= 1.0)  # False on nan
        out[~unit] = _scan_inf_b(ps[~unit], self.xs, self.g0, self.g1)
        if unit.any():
            q, rest = ps[unit], ~self._on_lines
            vals = _scan_inf_b(q, self.xs[rest], self.g0[:, rest], self.g1[:, rest])
            for b in range(vals.shape[1]):
                vals[:, b] = np.minimum(vals[:, b], self._envelope(b).minimum(q))
            out[unit] = vals
        return np.minimum(out, 0.0)

    def build_table(self, n_cells: int = 128):
        ps_grid = np.linspace(0.0, 1.0, n_cells + 1)
        node_vals = self.inf_b_exact(ps_grid)  # (cells+1, b)
        lip = _PHI_CURV_MAX * np.max(np.abs(self.g0), axis=1, initial=0.0) + np.max(
            np.abs(self.g1), axis=1, initial=0.0
        )
        step = ps_grid[1] - ps_grid[0]
        self._table_grid = ps_grid
        self._table_cells = np.minimum(node_vals[:-1], node_vals[1:]) - lip * step

    def inf_b_table(self, ps) -> np.ndarray:
        idx = np.clip(
            np.searchsorted(self._table_grid, ps, side="right") - 1,
            0,
            self._table_cells.shape[0] - 1,
        )
        return self._table_cells[idx]


# ---------------------------------------------------------------------------
# Y construction

_LADDER_GUARD = 1e-9  # keeps selected rungs strictly inside the margin


@dataclass
class NaturalPair:
    """Coefficient spec plus an admissible driving martingale Y.

    ``y_coeffs[driver]`` holds predictable per-component coefficients; each
    Y_j is driver-linear up to a one-ulp recentring residue on the last
    branch, so brackets computed from the coefficients are accurate to
    rounding.  ``rho`` is the selected ladder scale per node or path step;
    margins are realized per step at child level.  Exact zero conditional
    means hold because candidates are recentred patterns and rho is a
    predictable power of two.
    """

    spec: CoefficientSpec
    model: object
    carrier: object
    drivers: tuple
    scale: float
    seed: int
    ladder_depth: int
    candidates: np.ndarray  # (steps, m, branches) recentred branch values
    y_coeffs: dict
    y_increments: object  # bundle: (m, paths, steps); tree: list of (m, nodes_k)
    rho: object
    margin_a: object
    margin_b: object

    @property
    def m(self) -> int:
        return self.spec.m

    def y_step(self, k: int):
        """(m, children/paths) realized increments of step k."""
        return self.carrier.at(self.y_increments, k - 1)

    def min_margins(self):
        flat = self.carrier.flat
        return float(np.min(flat(self.margin_a))), float(np.min(flat(self.margin_b)))


def _draw_candidates(spec, imodel, grid, drivers, scale, seed):
    """(steps, m, b) exactly mean-zero candidate branch patterns."""
    for d in drivers:
        if imodel.block_of(d) is not imodel.block_of(drivers[0]):
            raise ConfigurationError("candidate drivers must share one block")
    blk = imodel.block_of(drivers[0])
    pats = [imodel.pattern(d) for d in drivers]
    gen = philox_stream(seed, "y-candidates")
    theta = gen.uniform(0.0, 2.0 * np.pi, size=(grid.steps, spec.m))
    cand = np.empty((grid.steps, spec.m, blk.n_branches))
    for k in range(grid.steps):
        for j in range(spec.m):
            if len(pats) == 1:
                raw = scale * pats[0]
            else:
                raw = scale * (np.cos(theta[k, j]) * pats[0] + np.sin(theta[k, j]) * pats[1])
            # recentre the last branch with the block's exact reduction
            acc = 0.0
            for p, v in zip(blk.probs[:-1], raw[:-1]):
                acc += p * float(v)
            raw = raw.copy()
            raw[-1] = -acc / blk.probs[-1]
            cand[k, j] = raw
    return cand, blk


def _ladder_select(bound, depth):
    """Largest power-of-two rung strictly below the bound (guarded), else 0."""
    rho = np.zeros(bound.shape)
    for exp in range(depth + 1):
        rung = 2.0**-exp
        rho = np.where((rho == 0.0) & (rung < bound * (1.0 - _LADDER_GUARD)), rung, rho)
    return rho


def _rho_bounds(one_plus_dm, sup_a, inf_b):
    """Upper bounds on the admissible scale per branch, combined by min.

    Condition a needs rho * sup_a < 1 + dm; condition b needs
    rho * (-inf_b) < 1 + dm.  Inputs broadcast to (..., b); the branch axis
    is reduced away.
    """
    cap_a = np.where(sup_a > 0.0, one_plus_dm / np.where(sup_a > 0.0, sup_a, 1.0), np.inf)
    neg = -inf_b
    cap_b = np.where(neg > 0.0, one_plus_dm / np.where(neg > 0.0, neg, 1.0), np.inf)
    return np.minimum(cap_a, cap_b).min(axis=-1)


def _joint_branches(blocks):
    """Branch index of each named block over every joint outcome of the blocks.

    Independent blocks realize every combination of their branches; a
    block listed twice counts once, so a single block gives its own
    branches in order.
    """
    blocks = list({blk.name: blk for blk in blocks}.values())
    idx = np.indices([blk.n_branches for blk in blocks]).reshape(len(blocks), -1)
    return {blk.name: idx[i] for i, blk in enumerate(blocks)}


def _coeff_split(cand_km, drivers, pats):
    """Express a candidate as sum_d coeff_d * pattern_d (per component)."""
    if len(drivers) == 1:
        ref = pats[0]
        b = int(np.argmax(np.abs(ref)))
        return [cand_km[:, b] / ref[b]]
    a = np.stack([p[:2] for p in pats], axis=1)  # rows branches, cols drivers
    sol = np.linalg.solve(a, cand_km[:, :2].T)
    return [sol[0], sol[1]]


def build_y(
    spec: CoefficientSpec,
    model,
    seed: int = 0,
    scale: float = 1.0,
    drivers: tuple = ("diff", "jump"),
    ladder_depth: int = 10,
    table_cells: int = 128,
) -> NaturalPair:
    """Construct an admissible Y on the survival model's carrier.

    Candidates are mean-zero mixtures of the named driver patterns; at each
    (node, step) the largest rho in {1, 1/2, ..., 2^-ladder_depth, 0} is
    chosen such that both jump margins of every branch outcome
    (dm_b, rho * z_b) stay positive: (1 + dm) - rho sup_x 2|g'z| and
    (1 + dm) + rho inf_x df/dx'z, over the spec's scan grid.  Trees take the
    exact grid infimum at each node from the step's lower envelope (bitwise
    the point-by-point scan); bundles use the conservative pS table, whose
    nodes come from the same envelope (still strictly admissible, at worst
    one rung lower in rare borderline states).
    """
    carrier = model.carrier
    imodel = carrier.model
    grid = carrier.grid
    n = grid.steps
    cand, blk = _draw_candidates(spec, imodel, grid, drivers, scale, seed)
    pats = [imodel.pattern(d) for d in drivers]
    exact = isinstance(carrier, ScenarioTree)
    # joint (dm branch, candidate branch) outcomes a path can realize
    joint = _joint_branches([imodel.block_of(d) for d in model.tilde_m_coeffs] + [blk])
    y_inc = carrier.alloc(n, spec.m)
    coeffs = {d: carrier.alloc(n, spec.m) for d in drivers}
    rho_all, ma_all, mb_all = carrier.alloc(n), carrier.alloc(n), carrier.alloc(n)
    for k in range(1, n + 1):
        oracle = _StepMarginOracle(spec, grid.times[k], cand[k - 1])
        ps = carrier.at(model.pred_one_minus_z, k - 1)
        dm = carrier.at(model.tilde_m_increments, k - 1)
        sup_a = carrier.realize(oracle.sup_a[None, :], blk, k)
        if exact:
            # every child is realized: bound each node by its own children
            inf_b = oracle.inf_b_exact(ps)  # (parents, b) over block branches
            siblings = (-1, carrier.branching)
            bound = _rho_bounds(
                (1.0 + dm).reshape(siblings),
                sup_a.reshape(siblings),
                carrier.realize(inf_b, blk, k).reshape(siblings),
            )
        else:
            # a path realizes one outcome; admissibility must cover every
            # joint outcome of dm, rebuilt from its coefficients, and of
            # the candidate
            oracle.build_table(table_cells)
            inf_b = oracle.inf_b_table(ps)  # (paths, b) conservative
            dm_branch = 0.0
            for d, c in model.tilde_m_coeffs.items():
                pattern = imodel.pattern(d)[joint[imodel.block_of(d).name]]
                dm_branch = dm_branch + c[:, k - 1 : k] * pattern[None, :]
            cand_branch = joint[blk.name]
            bound = _rho_bounds(
                1.0 + dm_branch, oracle.sup_a[None, cand_branch], inf_b[:, cand_branch]
            )
        rho = _ladder_select(bound, ladder_depth)
        rho_child = carrier.lift(rho)
        carrier.put(rho_all, k - 1, rho)
        dy = rho_child[None, :] * carrier.realize(cand[k - 1][:, None, :], blk, k)
        carrier.put(y_inc, k - 1, dy)
        # margins use the realized dm: on a bundle the branch values rebuilt
        # from coefficients differ from it in the last bits
        carrier.put(ma_all, k - 1, (1.0 + dm) - rho_child * sup_a)
        carrier.put(mb_all, k - 1, (1.0 + dm) + rho_child * carrier.realize(inf_b, blk, k))
        for d, c in zip(drivers, _coeff_split(cand[k - 1], drivers, pats)):
            carrier.put(coeffs[d], k - 1, rho[None, :] * c[:, None])
    return NaturalPair(
        spec=spec,
        model=model,
        carrier=carrier,
        drivers=drivers,
        scale=scale,
        seed=seed,
        ladder_depth=ladder_depth,
        candidates=cand,
        y_coeffs=coeffs,
        y_increments=y_inc,
        rho=rho_all,
        margin_a=ma_all,
        margin_b=mb_all,
    )


# ---------------------------------------------------------------------------
# pair conditions (i)(ii)(iii)
#
# (i)   dm - f(X)'dY / (pS - X-) > -1          where pS != X-
# (ii)  dm + f(X)'dY / X-        >= -1         where X- != 0
# (iii) dm + (f(X) - f(X'))'dY / (X- - X'-) >= -1   where X- != X'-
#
# plus the equivalent one-step-map monotonicity form of (iii).  Each slack
# function works on child/path-level arrays of any shape that broadcast,
# so a stacked (members, states) step is checked in one call.

_CONDITIONS = ("condition_i", "condition_ii", "condition_iii")


def _new_condition_agg():
    """Empty running aggregate of pair-condition slacks: per condition the
    states checked, the smallest slack (None if nothing was checked) and
    the violations below -1e-12, plus ``agree``, whether the one-step-map
    form of (iii) agreed with the quotient form everywhere."""
    agg = {key: {"checked": 0, "min_slack": None, "violations": 0} for key in _CONDITIONS}
    agg["agree"] = True
    return agg


def _fold_slack(slot, cond):
    """Fold one ``(slack, ok)`` pair into a condition slot of the aggregate."""
    slack, ok = cond
    checked = int(np.count_nonzero(ok))
    if checked:
        slot["checked"] += checked
        slot["violations"] += int(np.count_nonzero(slack < -1e-12))
        ms = float(slack.min())
        slot["min_slack"] = ms if slot["min_slack"] is None else min(slot["min_slack"], ms)


def _state_slacks(dm, ps, x, fdy, tiny=1e-12):
    """Slacks of conditions (i) and (ii) at one step.

    ``ps`` and ``x`` are lifted to the children; ``fdy`` is f(X)'dY of the
    step.  Each condition gives ``(slack, ok)``: the slack on every state,
    and the mask of states where its denominator exceeds ``tiny``;
    elsewhere the slack reads +inf.
    """
    one = 1.0 + dm
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = ps - x
        ok = np.abs(denom) > tiny
        cond_i = (np.where(ok, one - fdy / denom, np.inf), ok)
        ok = np.abs(x) > tiny
        cond_ii = (np.where(ok, one + fdy / x, np.inf), ok)
    return cond_i, cond_ii


def _pair_slacks(dm, x, fdy, image, xp, fpdy, image_p, tiny=1e-12):
    """Slack of condition (iii) between a state and its partner at one step.

    ``image`` and ``image_p`` are the solver's images (x + x dm) + f'dY of
    the two states.  Returns ``(slack, ok)`` as `_state_slacks` does, and
    whether the one-step-map form agrees with the quotient form wherever
    (iii) is checked: the map is monotone between the two states iff the
    slack is nonnegative.
    """
    one = 1.0 + dm
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = x - xp
        ok = np.abs(denom) > tiny
        slack = one + (fdy - fpdy) / denom
        map_diff = image - image_p
        same = np.abs(map_diff - denom * slack) <= 1e-10 * (1.0 + np.abs(map_diff))
    return (np.where(ok, slack, np.inf), ok), bool(np.all(same | ~ok))
