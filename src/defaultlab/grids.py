"""Time grids, bounded driver increments, and simulated path bundles.

Array conventions used across the package:

* a "level" array stores values at grid times and has trailing dimension
  ``N + 1``; column ``k`` is the value at ``t_k``;
* a "step" array stores per-step quantities and has trailing dimension ``N``;
  column ``k - 1`` belongs to step ``k``, i.e. to the interval
  ``(t_{k-1}, t_k]``.  Predictable step-``k`` quantities (known at
  ``t_{k-1}``) use the same layout.

Those are the bundle layouts.  A `ScenarioTree` stores the same objects as
lists instead: a level process is a list of ``N + 1`` per-level node arrays
(level ``k`` has ``b**k`` nodes), a realized step-``k`` quantity is entry
``k - 1`` holding child-level (level ``k``) values, and a predictable one is
entry ``k - 1`` holding parent-level (level ``k - 1``) values.  Leading
dimensions (components) come before the node axis in both layouts.

Both carriers expose the same methods, so each construction step is written
once against them:

* ``at(obj, k)`` / ``put(obj, k, values)``: read or write entry ``k``;
* ``alloc(length, *lead)``: an empty process of ``length`` entries (a list
  of None on a tree, a NaN-filled ``(*lead, paths, length)`` matrix on a
  bundle);
* ``n_nodes(k)``: states at level ``k`` (``b**k`` nodes, or the path count);
* ``lift(values)``: parent-level values onto the children (a bundle path is
  its own child, so this is the identity there);
* ``realize(branch_values, block, k)``: per-branch values, shape
  ``(..., parents or 1, block branches)``, to realized step-``k`` values
  (every child on a tree, each path's own branch on a bundle);
* ``driver_increments(driver, k)``: realized step-``k`` unit increments;
* ``recenter_children(values)``: exact zero conditional mean on a tree, the
  identity on a bundle where a path realizes a single branch;
* ``flat(obj)``: every stored value as one array.

Driver increments are bounded, symmetric-ish multi-point draws whose
conditional mean is exactly zero in floating point.  This is arranged by
restricting branch probabilities to powers of two and recentring the last
branch value, so that every product ``prob * value`` and the final
cancellation are exact.  Martingale identities downstream then hold at
machine precision instead of merely "up to discretisation noise".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, GridMismatchError, UnsupportedProcessError

__all__ = [
    "TimeGrid",
    "DriverBlock",
    "IncrementModel",
    "PathBundle",
    "three_branch_model",
    "sample_bundle",
    "philox_stream",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * horizon / steps, k = 0..steps."""

    horizon: float
    steps: int

    def __post_init__(self) -> None:
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ConfigurationError(f"grid horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ConfigurationError(f"grid steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @cached_property
    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * (self.horizon / self.steps)

    def index_of(self, t: float, tol: float = 1e-9) -> int:
        """Grid index of an on-grid time; raises if t is off the grid."""
        k = int(round(t / self.dt))
        if k < 0 or k > self.steps or abs(k * self.dt - t) > tol * max(1.0, self.horizon):
            raise ConfigurationError(f"time {t} is not on the grid (dt={self.dt})")
        return k


def _is_pow2(p: float) -> bool:
    m, _ = np.frexp(p)
    return m == 0.5


def _exact_dot(probs: np.ndarray, values: np.ndarray) -> float:
    # fixed left-to-right accumulation; order matters for exact cancellation
    acc = 0.0
    for p, v in zip(probs, values):
        acc += p * float(v)
    return acc


class DriverBlock:
    """One independent branch draw per step with named increment patterns.

    ``probs[b]`` is the probability of branch ``b``; each pattern maps a
    branch to an increment value.  All probabilities must be powers of two;
    patterns are recentred on the last branch so the conditional mean is
    exactly zero in floating point.
    """

    def __init__(self, name: str, probs, patterns: dict[str, np.ndarray] | None = None):
        self.name = name
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or probs.size < 2:
            raise ConfigurationError("driver block needs at least two branches")
        if np.any(probs <= 0.0):
            raise ConfigurationError("branch probabilities must be strictly positive")
        if float(probs.sum()) != 1.0:
            raise ConfigurationError("branch probabilities must sum to one exactly")
        if not all(_is_pow2(p) for p in probs):
            raise ConfigurationError(
                "branch probabilities must be powers of two for exact conditional means"
            )
        if not all(_is_pow2(s) for s in np.cumsum(probs)):
            # prefix sums that are powers of two make the left-to-right
            # weighted reduction of a constant exact, which the tree
            # oracle's exactness guarantees build on
            raise ConfigurationError("branch probability prefix sums must be powers of two")
        self.probs = probs
        self.n_branches = probs.size
        self.patterns: dict[str, np.ndarray] = {}
        for key, vals in (patterns or {}).items():
            self.add_pattern(key, vals)

    def add_pattern(self, name: str, values) -> np.ndarray:
        values = np.asarray(values, dtype=float).copy()
        if values.shape != (self.n_branches,):
            raise ConfigurationError(
                f"pattern {name!r} needs {self.n_branches} branch values"
            )
        # recentre the last branch; exact because probs are powers of two
        head = _exact_dot(self.probs[:-1], values[:-1])
        values[-1] = -head / self.probs[-1]
        self.patterns[name] = values
        return values

    def conditional_mean(self, name: str) -> float:
        return _exact_dot(self.probs, self.patterns[name])

    def cov(self, a: str, b: str) -> float:
        va, vb = self.patterns[a], self.patterns[b]
        return _exact_dot(self.probs, va * vb)

    def bound(self) -> float:
        if not self.patterns:
            return 0.0
        return max(float(np.max(np.abs(v))) for v in self.patterns.values())


class IncrementModel:
    """Registry of independent driver blocks with closed-form moments.

    Conditional step moments never depend on the step here (patterns are
    fixed; all state dependence lives in predictable coefficients), which is
    what keeps every bracket computation closed form.
    """

    def __init__(self, blocks: list[DriverBlock]):
        names = [b.name for b in blocks]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate driver block names")
        self.blocks = list(blocks)
        self._owner: dict[str, DriverBlock] = {}
        for blk in blocks:
            for drv in blk.patterns:
                if drv in self._owner:
                    raise ConfigurationError(f"duplicate driver name {drv!r}")
                self._owner[drv] = blk

    @property
    def drivers(self) -> list[str]:
        return list(self._owner)

    def block_of(self, driver: str) -> DriverBlock:
        try:
            return self._owner[driver]
        except KeyError:
            raise UnsupportedProcessError(f"unknown driver {driver!r}") from None

    def pattern(self, driver: str) -> np.ndarray:
        return self.block_of(driver).patterns[driver]

    def cov(self, a: str, b: str) -> float:
        """Per-step conditional covariance of two unit driver increments."""
        blk_a, blk_b = self.block_of(a), self.block_of(b)
        if blk_a is not blk_b:
            return 0.0  # independent blocks
        return blk_a.cov(a, b)

    def add_pattern(self, block: str, driver: str, values) -> np.ndarray:
        blk = next((b for b in self.blocks if b.name == block), None)
        if blk is None:
            raise ConfigurationError(f"unknown driver block {block!r}")
        if driver in self._owner:
            raise ConfigurationError(f"duplicate driver name {driver!r}")
        vals = blk.add_pattern(driver, values)
        self._owner[driver] = blk
        return vals


def three_branch_model(with_coin: bool = False) -> IncrementModel:
    """Canonical model: an up/down pair plus a jump branch.

    Branch probabilities (1/4, 1/4, 1/2).  ``diff`` moves on the up/down
    pair only; ``jump`` acts on all branches with the heavy branch opposite.
    ``with_coin`` adds an independent fair-coin block for test martingales.
    """
    tri = DriverBlock(
        "tri",
        (0.25, 0.25, 0.5),
        {"diff": np.array([1.0, -1.0, 0.0]), "jump": np.array([1.0, 1.0, -1.0])},
    )
    blocks = [tri]
    if with_coin:
        # the coin goes first: on product trees the last block owns the
        # recentring axis, and recentring must stay inside the tri block
        # so the coin remains exactly independent of the survival model
        blocks.insert(0, DriverBlock("coin", (0.5, 0.5), {"coin": np.array([1.0, -1.0])}))
    return IncrementModel(blocks)


def philox_stream(seed: int, tag: str) -> np.random.Generator:
    """Counter-based generator stream keyed by (seed, tag).

    The tag is hashed with sha256 so stream separation is stable across
    runs and platforms (Python's builtin hash is salted, unusable here).
    """
    digest = hashlib.sha256(tag.encode("utf8")).digest()
    subkey = int.from_bytes(digest[:8], "little")
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(subkey)])
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class PathBundle:
    """Branch draws for every block over (paths, steps).

    Realized driver increments are materialized on demand as
    ``pattern[branch]``; everything else in the package is built on top of
    these plus predictable coefficient arrays.
    """

    grid: TimeGrid
    model: IncrementModel
    branches: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = None
        for name, idx in self.branches.items():
            if idx.ndim != 2 or idx.shape[1] != self.grid.steps:
                raise GridMismatchError(f"branch array {name!r} has wrong shape {idx.shape}")
            if n is None:
                n = idx.shape[0]
            elif idx.shape[0] != n:
                raise GridMismatchError("branch arrays disagree on path count")

    @property
    def n_paths(self) -> int:
        first = next(iter(self.branches.values()))
        return first.shape[0]

    def n_nodes(self, k: int) -> int:
        return self.n_paths

    def at(self, obj, k: int):
        return np.asarray(obj)[..., k]

    def put(self, obj, k: int, values) -> None:
        obj[..., k] = values

    def alloc(self, length: int, *lead: int) -> np.ndarray:
        return np.full(lead + (self.n_paths, length), np.nan)

    def lift(self, values):
        return values

    def recenter_children(self, values):
        return values

    def realize(self, branch_values, block: DriverBlock, k: int) -> np.ndarray:
        v = np.asarray(branch_values)
        v = np.broadcast_to(v, v.shape[:-2] + (self.n_paths, v.shape[-1]))
        return v[..., np.arange(self.n_paths), self.branches[block.name][:, k - 1]]

    def driver_increments(self, driver: str, k: int) -> np.ndarray:
        """(paths,) realized step-k unit increments of one driver."""
        return self.realize(self.model.pattern(driver)[None, :], self.model.block_of(driver), k)

    def flat(self, obj) -> np.ndarray:
        return np.asarray(obj).ravel()


def sample_bundle(grid: TimeGrid, model: IncrementModel, n_paths: int, seed: int) -> PathBundle:
    """Draw branch indices for every block with per-block Philox streams."""
    if n_paths < 1:
        raise ConfigurationError("n_paths must be >= 1")
    branches = {}
    for blk in model.blocks:
        gen = philox_stream(seed, f"branches/{blk.name}")
        cum = np.cumsum(blk.probs)
        u = gen.random((n_paths, grid.steps))
        branches[blk.name] = np.searchsorted(cum, u, side="right").astype(np.int8)
    return PathBundle(grid=grid, model=model, branches=branches)
