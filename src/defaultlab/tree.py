"""Exact finite scenario tree: the brute-force oracle for every identity.

A tree of depth N branches the same way at every node: one combined child
per joint outcome of all driver blocks.  Level k holds ``b**k`` nodes; the
children of node ``i`` are ``i*b + j`` for ``j = 0..b-1``.  A process is a
list of per-level value arrays; it is adapted by construction, and a step-k
quantity is predictable iff it is constant across siblings (equivalently,
a function of the level k-1 node).

Conditional expectations are computed with a fixed left-to-right reduction
over children.  Together with power-of-two branch probabilities this makes
"martingale increment has zero conditional mean" an exact float statement
for increments of the form (predictable coefficient) * (pattern value in
{0, +1, -1}), and `recenter_children` extends that exactness to arbitrary
per-child increments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryError,
    ConfigurationError,
    GridMismatchError,
    InvalidFamilyError,
    NotSupermartingaleError,
)
from .grids import IncrementModel, TimeGrid, philox_stream, three_branch_model

__all__ = [
    "ScenarioTree",
    "DoobDecomposition",
    "ProductMeasure",
    "conditional_expectation",
    "doob_decompose_exact",
    "build_tree_z",
    "build_product_measure",
    "verify_im_axioms",
    "tree_path_matrix",
    "tree_to_json",
    "tree_from_json",
]


class ScenarioTree:
    """Finite branching model over a time grid and an increment model."""

    def __init__(self, grid: TimeGrid, model: IncrementModel | None = None):
        if model is None:
            model = three_branch_model()
        if grid.steps > 12:
            raise ConfigurationError("tree depth > 12 is not supported (node blowup)")
        self.grid = grid
        self.model = model
        sizes = [blk.n_branches for blk in model.blocks]
        self.branching = int(np.prod(sizes))
        if self.branching ** grid.steps > 4_000_000:
            raise ConfigurationError("tree would exceed the node budget")
        # combined child j decomposes mixed-radix over blocks, first block
        # most significant; child probabilities are exact products of
        # powers of two
        probs = np.ones(1)
        self._block_branch: dict[str, np.ndarray] = {}
        for blk in model.blocks:
            probs = np.kron(probs, blk.probs)
        tile_after = self.branching
        for blk in model.blocks:
            tile_after //= blk.n_branches
            idx = np.repeat(np.arange(blk.n_branches), tile_after)
            idx = np.tile(idx, self.branching // (blk.n_branches * tile_after))
            self._block_branch[blk.name] = idx
        self.child_probs = probs
        self._block_shape = tuple(blk.n_branches for blk in model.blocks)

    @property
    def depth(self) -> int:
        return self.grid.steps

    def n_nodes(self, k: int) -> int:
        return self.branching ** k

    def driver_step(self, driver: str) -> np.ndarray:
        """(b,) increment of one driver for each combined child."""
        blk = self.model.block_of(driver)
        return self.model.pattern(driver)[self._block_branch[blk.name]]

    def driver_increments(self, driver: str, k: int) -> np.ndarray:
        """Realized step-k increments as a level-k array."""
        return np.tile(self.driver_step(driver), self.n_nodes(k - 1))

    def at(self, obj, k: int):
        return obj[k]

    def put(self, obj, k: int, values) -> None:
        obj[k] = values

    def alloc(self, length: int, *lead: int) -> list:
        # level arrays carry their own leading dimensions
        return [None] * length

    def lift(self, values: np.ndarray) -> np.ndarray:
        """Copy level k-1 node values onto their children (last axis)."""
        return np.repeat(values, self.branching, axis=-1)

    def realize(self, branch_values, block, k: int) -> np.ndarray:
        """Per-branch values of one block, (..., parents or 1, branches), as
        level-k values: every combined child realizes its block branch."""
        v = np.asarray(branch_values)[..., self._block_branch[block.name]]
        v = np.broadcast_to(v, v.shape[:-2] + (self.n_nodes(k - 1), self.branching))
        return v.reshape(v.shape[:-2] + (-1,))

    def flat(self, obj) -> np.ndarray:
        return np.concatenate([np.ravel(v) for v in obj])

    def node_probs(self, k: int) -> np.ndarray:
        out = np.ones(1)
        for _ in range(k):
            out = np.kron(out, self.child_probs)
        return out

    def step_expectation(self, values: np.ndarray) -> np.ndarray:
        """E[values at level k | level k-1 node].

        The weighted sum is reduced block by block, innermost (last) block
        first, each with a fixed left-to-right order.  With power-of-two
        probabilities and prefix sums this keeps two cancellations exact
        in floating point: a single-block pattern in {0, +1, -1} times a
        predictable coefficient averages to exactly 0.0, and a value
        constant across a block reduces to exactly itself.
        """
        v = np.asarray(values, dtype=float).reshape((-1,) + self._block_shape)
        for blk in reversed(self.model.blocks):
            acc = v[..., 0] * blk.probs[0]
            for j in range(1, blk.n_branches):
                acc = acc + v[..., j] * blk.probs[j]
            v = acc
        return v

    def recenter_children(self, values: np.ndarray) -> np.ndarray:
        """Adjust the last block's last branch so step_expectation is 0.0.

        Recentring happens inside the innermost block, once per outer
        branch combination, using the same reduction expression as
        `step_expectation`; the cancellation is then exact in floating
        point and no dependence on the other blocks is introduced.
        """
        v = np.array(values, dtype=float).reshape((-1,) + self._block_shape)
        blk = self.model.blocks[-1]
        acc = v[..., 0] * blk.probs[0]
        for j in range(1, blk.n_branches - 1):
            acc = acc + v[..., j] * blk.probs[j]
        v[..., blk.n_branches - 1] = -acc / blk.probs[blk.n_branches - 1]
        return v.reshape(-1)

    def expectation(self, values: np.ndarray, k: int | None = None) -> float:
        v = np.asarray(values, dtype=float)
        while v.size > 1:
            v = self.step_expectation(v)
        return float(v[0])


def conditional_expectation(tree: ScenarioTree, leaf_values: np.ndarray, k: int) -> np.ndarray:
    """E[X | F_k] for leaf-valued X, as a level-k array."""
    v = np.asarray(leaf_values, dtype=float)
    if v.shape != (tree.n_nodes(tree.depth),):
        raise GridMismatchError("leaf value array has wrong length")
    if not 0 <= k <= tree.depth:
        raise GridMismatchError(f"level {k} outside 0..{tree.depth}")
    for _ in range(tree.depth - k):
        v = tree.step_expectation(v)
    return v


@dataclass
class DoobDecomposition:
    """Z = M - A with A predictable nondecreasing, A_0 = 0.

    ``a_increments[k-1]`` is the level k-1 array of dA_k; ``m`` and ``a``
    are level lists.  The exact zero-conditional-mean statement for dM is
    ``(E[Z_k|node] - Z_{k-1}) + dA_k == 0``, which holds bitwise because
    dA_k is computed as the negated same difference.
    """

    m: list
    a: list
    a_increments: list


def doob_decompose_exact(tree: ScenarioTree, z_levels: list, tol: float = 0.0) -> DoobDecomposition:
    """Exact discrete Doob decomposition of a supermartingale on the tree.

    dA_k = Z_{k-1} - E[Z_k | F_{k-1}]; any dA_k < -tol raises (Z is not a
    supermartingale).  Default tol 0.0: trees built backward from their
    conditional expectations satisfy the inequality exactly.
    """
    n = tree.depth
    if len(z_levels) != n + 1:
        raise GridMismatchError("need one value array per level")
    a_inc = []
    a_levels = [np.zeros(1)]
    m_levels = [np.asarray(z_levels[0], dtype=float).copy()]
    for k in range(1, n + 1):
        e = tree.step_expectation(z_levels[k])
        da = z_levels[k - 1] - e
        if np.any(da < -tol):
            raise NotSupermartingaleError(
                f"negative predictable increment at step {k}: min {da.min()}"
            )
        a_inc.append(da)
        a_levels.append(tree.lift(a_levels[-1] + da))
        m_levels.append(z_levels[k] + a_levels[-1])
    return DoobDecomposition(m=m_levels, a=a_levels, a_increments=a_inc)


def build_tree_z(
    tree: ScenarioTree,
    delta_profile,
    seed: int = 0,
    eps: float = 0.05,
) -> list:
    """Backward survival-process construction on the tree.

    Leaf values are drawn uniformly in (eps, 1-eps); each inner node gets
    E[Z_next | node] + delta_profile[k-1] for step k.  Nonnegative deltas
    make Z a supermartingale by construction, and a zero delta gives an
    exactly zero Doob increment at that step (rounding is monotone).
    """
    n = tree.depth
    delta_profile = np.asarray(delta_profile, dtype=float)
    if delta_profile.shape != (n,):
        raise ConfigurationError(f"delta profile needs {n} entries")
    if np.any(delta_profile < 0.0):
        raise ConfigurationError("delta profile must be nonnegative")
    if not 0.0 < eps < 0.5:
        raise ConfigurationError("eps must lie in (0, 1/2)")
    gen = philox_stream(seed, "tree-z-leaves")
    levels = [None] * (n + 1)
    levels[n] = gen.uniform(eps, 1.0 - eps, size=tree.n_nodes(n))
    for k in range(n, 0, -1):
        levels[k - 1] = tree.step_expectation(levels[k]) + delta_profile[k - 1]
    for k, z in enumerate(levels):
        if np.any(z <= 0.0) or np.any(z >= 1.0):
            raise BoundaryError(f"tree survival process left (0,1) at level {k}")
    return levels


@dataclass
class ProductMeasure:
    """Joint law of (default cell, leaf) built from a terminal family slice.

    Cell i < n_u is the event "tau in (u_{i-1}, u_i]" (cell 0 is tau <= u_0);
    the last cell is the beyond-horizon atom.  ``weights[cell, leaf]`` are
    joint probabilities; the leaf marginal reproduces the tree measure.
    """

    tree: ScenarioTree
    u_indices: list
    weights: np.ndarray
    leaf_probs: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.weights.shape[0]

    def total_mass(self) -> float:
        return float(self.weights.sum())

    def cell_cdf_at_node(self, i_cell: int, k: int) -> np.ndarray:
        """Q[tau <= u_i | F_k] for every level-k node."""
        joint = self.weights[: i_cell + 1].sum(axis=0)
        cond = conditional_expectation(self.tree, joint / self.leaf_probs, k)
        return cond

    def expectation(self, h: np.ndarray) -> float:
        """E_Q[h(cell, leaf)] for an (n_cells, n_leaves) payoff array."""
        if h.shape != self.weights.shape:
            raise GridMismatchError("payoff array must match the weight table")
        return float(np.sum(self.weights * h))


def build_product_measure(tree: ScenarioTree, family) -> ProductMeasure:
    """Joint weights w(leaf, cell) = P(leaf) * (terminal CDF increment).

    ``family`` needs ``u_indices`` and a terminal slice M^u_N per leaf for
    each u (``family.terminal(u)``); the beyond-horizon atom gets the
    leftover 1 - M^{u_max}_N.
    """
    leaf_probs = tree.node_probs(tree.depth)
    u_indices = list(family.u_indices)
    cdf = np.stack([np.asarray(family.terminal(u), dtype=float) for u in u_indices])
    if np.any(np.diff(cdf, axis=0) < -1e-12):
        raise InvalidFamilyError("terminal slice not nondecreasing in u")
    if np.any(cdf < -1e-12) or np.any(cdf > 1.0 + 1e-12):
        raise InvalidFamilyError("terminal slice leaves [0,1]")
    n_u = len(u_indices)
    cells = np.empty((n_u + 1, cdf.shape[1]))
    cells[0] = cdf[0]
    cells[1:n_u] = np.diff(cdf, axis=0)
    cells[n_u] = 1.0 - cdf[-1]
    weights = cells * leaf_probs
    return ProductMeasure(tree=tree, u_indices=u_indices, weights=weights, leaf_probs=leaf_probs)


def verify_im_axioms(tree: ScenarioTree, family, tol: float = 1e-12) -> dict:
    """Exhaustive check of the increasing-martingale-family axioms.

    Checks, per u on the grid: martingale property on [u, N], bounds
    0 <= M^u <= 1 - Z, the start condition M^u_u = 1 - Z_u, monotonicity
    in u, and normalization of the full-horizon solution.  Returns a
    report dict; it never raises (negative controls inspect the report).
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


def tree_path_matrix(tree: ScenarioTree, step_arrays: list, predictable: bool = False) -> np.ndarray:
    """Unroll per-step tree arrays into an (n_leaves, steps) path matrix.

    ``step_arrays[k-1]`` holds step k: child-level values by default,
    parent-level values with ``predictable=True``.  Row i is the root-to-
    leaf history of leaf i; handy for cross-checking tree processes
    against the flat-array operators.
    """
    n = len(step_arrays)
    leaves = tree.n_nodes(n)
    out = np.empty((leaves, n))
    for k in range(1, n + 1):
        arr = np.asarray(step_arrays[k - 1], dtype=float)
        level = k - 1 if predictable else k
        if arr.shape != (tree.n_nodes(level),):
            raise GridMismatchError(f"step array {k} has wrong length {arr.shape}")
        out[:, k - 1] = np.repeat(arr, tree.branching ** (n - level))
    return out


def tree_to_json(tree: ScenarioTree, processes: dict | None = None) -> str:
    """Serialize structure plus named level-list processes (golden files)."""
    payload = {
        "horizon": tree.grid.horizon,
        "steps": tree.grid.steps,
        "blocks": [
            {
                "name": blk.name,
                "probs": blk.probs.tolist(),
                "patterns": {k: v.tolist() for k, v in blk.patterns.items()},
            }
            for blk in tree.model.blocks
        ],
        "processes": {
            name: [lvl.tolist() for lvl in levels] for name, levels in (processes or {}).items()
        },
    }
    return json.dumps(payload, sort_keys=True, indent=1)


def tree_from_json(text: str) -> tuple:
    """Inverse of tree_to_json; returns (tree, processes dict)."""
    from .grids import DriverBlock

    payload = json.loads(text)
    blocks = [
        DriverBlock(b["name"], b["probs"], {k: np.array(v) for k, v in b["patterns"].items()})
        for b in payload["blocks"]
    ]
    tree = ScenarioTree(TimeGrid(payload["horizon"], payload["steps"]), IncrementModel(blocks))
    processes = {
        name: [np.array(lvl) for lvl in levels]
        for name, levels in payload["processes"].items()
    }
    return tree, processes
