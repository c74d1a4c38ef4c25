"""Survival-process models: Z = N e^{-Lambda} with exact decomposition.

Z is a (0,1)-valued supermartingale built from a deterministic decay curve
Lambda (constant rate plus at most one jump) and a positive martingale N
whose volatility vanishes at both boundaries.  Everything downstream needs
the derived objects more than Z itself:

* dA_k = Z_{k-1} (1 - e^{-dLambda_k}), the predictable compensator increment
  (closed form, never estimated);
* pS_k = (1 - Z)_{k-1} + dA_k, the predictable projection of 1 - Z;
* dm_k, the driving martingale increments with dm > -1, satisfying
  pS_k (1 + dm_k) = (1 - Z)_k.

The complement S = 1 - Z is the primary stored object and is advanced with
the canonical one-step expression ``pS + pS * dm``; the equation solver
uses the same expression so that boundary solutions coincide bitwise with
S itself.  On a tree the realized dm children are recentred so conditional
means are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryError, ConfigurationError, SolverInconsistencyError
from .calculus import predictable_sum

__all__ = ["ZGeneratorConfig", "SupermartingaleModel", "generate_z", "tilde_m_increments"]


@dataclass(frozen=True)
class ZGeneratorConfig:
    """Parameters of the survival-process generator.

    z0: initial value in (0,1); rate: exponential decay per unit time;
    jump_time/jump_size: single predictable jump of the decay curve;
    sigma: diffusive volatility of the martingale factor; jump_scale:
    weight of the jump driver; eps: containment band, the generator
    guarantees Z stays inside (eps, 1-eps) for every outcome.
    """

    z0: float
    rate: float = 0.0
    jump_time: float | None = None
    jump_size: float = 0.0
    sigma: float = 0.0
    jump_scale: float = 0.0
    eps: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 < self.z0 < 1.0:
            raise ConfigurationError(f"z0 must lie in (0,1), got {self.z0}")
        if self.rate < 0.0:
            raise ConfigurationError("decay rate must be >= 0")
        if self.jump_size < 0.0:
            raise ConfigurationError("jump size must be >= 0")
        if self.jump_size > 0.0 and self.jump_time is None:
            raise ConfigurationError("jump size given without a jump time")
        if self.sigma < 0.0 or self.jump_scale < 0.0:
            raise ConfigurationError("volatilities must be >= 0")
        if not 0.0 < self.eps < 0.5:
            raise ConfigurationError(f"eps must lie in (0, 1/2), got {self.eps}")


@dataclass
class SupermartingaleModel:
    """Generated survival model with its exact decomposition.

    ``s`` holds 1 - Z (level layout), ``pred_one_minus_z`` the predictable
    projection per step, ``a_increments`` the compensator increments,
    ``tilde_m_increments`` the realized driving-martingale increments and
    ``tilde_m_coeffs`` their predictable per-driver coefficients (used for
    closed-form brackets).  On a bundle these are arrays; on a tree,
    per-level lists (step arrays live on the child level, predictable
    arrays on the parent level).
    """

    carrier: object
    config: ZGeneratorConfig
    decay: np.ndarray  # per-step factors e^{-dLambda_k}
    jump_index: int | None
    s: object
    pred_one_minus_z: object
    a_increments: object
    tilde_m_increments: object
    tilde_m_coeffs: dict = field(default_factory=dict)

    @property
    def grid(self):
        return self.carrier.grid

    def _levelwise(self, fn, *procs):
        carrier = self.carrier
        out = carrier.alloc(self.grid.steps + 1)
        for k in range(self.grid.steps + 1):
            carrier.put(out, k, fn(*(carrier.at(p, k) for p in procs)))
        return out

    @property
    def z(self):
        return self._levelwise(lambda s: 1.0 - s, self.s)

    @property
    def a(self):
        """Cumulative compensator as a level object, A_0 = 0."""
        return predictable_sum(self.carrier, self.a_increments)

    @property
    def m(self):
        """Martingale part M = Z + A."""
        return self._levelwise(np.add, self.z, self.a)


def _decay_factors(grid, config):
    dlam = np.full(grid.steps, config.rate * grid.dt)
    jump_index = None
    if config.jump_time is not None:
        jump_index = grid.index_of(config.jump_time)
        if not 1 <= jump_index <= grid.steps:
            raise ConfigurationError("jump time must be a positive grid time")
        dlam[jump_index - 1] += config.jump_size
    return np.exp(-dlam), jump_index


def _mix_weights(config, dt):
    # per-branch weight of the martingale-factor increment, before the
    # state-dependent N(1-Z) scaling
    return config.sigma * np.sqrt(dt), config.jump_scale * np.sqrt(dt)


def _validate_envelope(config, grid, decay, w_lo, w_hi):
    """Worst-case interval iteration: reject configs that could leave
    (eps, 1-eps).  The one-step map z -> z q (1 + (1-z) w) is increasing
    in both z (for |w| < 1) and w, so propagating [lo, hi] through the
    extreme branch weights bounds every outcome."""
    lo = hi = config.z0
    for q in decay:
        lo = q * lo * (1.0 + (1.0 - lo) * w_lo)
        hi = q * hi * (1.0 + (1.0 - hi) * w_hi)
        if not (config.eps < lo and hi < 1.0 - config.eps):
            raise ConfigurationError(
                "volatility/decay config can push Z outside "
                f"({config.eps}, {1 - config.eps}); worst-case interval [{lo}, {hi}]"
            )


def generate_z(config: ZGeneratorConfig, carrier) -> SupermartingaleModel:
    """Generate the survival model on a path bundle or a scenario tree."""
    grid = carrier.grid
    decay, jump_index = _decay_factors(grid, config)
    a_w, b_w = _mix_weights(config, grid.dt)
    model = carrier.model
    w_branch = a_w * model.pattern("diff") + b_w * model.pattern("jump")
    if np.max(np.abs(w_branch)) >= 1.0:
        raise ConfigurationError("combined branch volatility must stay below 1")
    _validate_envelope(config, grid, decay, float(w_branch.min()), float(w_branch.max()))

    n = grid.steps
    s = carrier.alloc(n + 1)
    carrier.put(s, 0, np.full(carrier.n_nodes(0), 1.0 - config.z0))
    stores = ps_all, da_all, dm_all, c_diff, c_jump = [carrier.alloc(n) for _ in range(5)]
    for k in range(1, n + 1):
        c, ps, da = _dm_coefficient(carrier.at(s, k - 1), decay[k - 1])
        w = a_w * carrier.driver_increments("diff", k)
        w = w + b_w * carrier.driver_increments("jump", k)
        dm = carrier.recenter_children(carrier.lift(c) * w)
        ps_child = carrier.lift(ps)
        carrier.put(s, k, ps_child + ps_child * dm)
        for store, val in zip(stores, (ps, da, dm, c * a_w, c * b_w)):
            carrier.put(store, k - 1, val)
    _check_outputs(carrier.flat(dm_all), carrier.flat(s), config)
    return SupermartingaleModel(
        carrier=carrier,
        config=config,
        decay=decay,
        jump_index=jump_index,
        s=s,
        pred_one_minus_z=ps_all,
        a_increments=da_all,
        tilde_m_increments=dm_all,
        tilde_m_coeffs={"diff": c_diff, "jump": c_jump},
    )


def _dm_coefficient(s_prev, q):
    # dm = -dM / pS with dM = Z_{k-1} q (1-Z_{k-1}) w; everything here is
    # predictable, so float noise lands in the coefficient value, never in
    # the martingale property
    z_prev = 1.0 - s_prev
    ps = s_prev + z_prev * (1.0 - q)
    return -(z_prev * q * s_prev) / ps, ps, z_prev * (1.0 - q)


def _check_outputs(dm, s, config):
    # the envelope argument makes these unreachable; they guard against
    # implementation drift, not against bad configs
    if np.any(dm <= -1.0):
        raise SolverInconsistencyError("driving-martingale increment at or below -1")
    if np.any(s <= 0.0) or np.any(s >= 1.0):
        raise SolverInconsistencyError("survival complement left (0,1)")


def tilde_m_increments(model: SupermartingaleModel):
    """Validated driving-martingale increments dm = -dM / p(1-Z).

    Raises if the predictable projection is not strictly positive (the
    standing positivity hypothesis on 1 - Z fails).
    """
    if np.any(model.carrier.flat(model.pred_one_minus_z) <= 0.0):
        raise BoundaryError("predictable projection of 1 - Z must be positive")
    return model.tilde_m_increments
