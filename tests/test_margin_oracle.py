"""The lower-envelope margin oracle against the point-by-point scan, bitwise."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defaultlab import coefficients
from defaultlab.coefficients import BumpSpec, CoefficientSpec, ComponentSpec, PlateauSpec, _StepMarginOracle
from defaultlab.config import default_config, validate_config
from defaultlab.suites import build_tree_world
from margin_scan import scan_inf_b

EDGE_STATES = [0.0, 1.0, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), -0.25, 1.5, -np.inf, np.inf, np.nan]


def assert_bitwise(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_default_tree_every_state_and_branch():
    cfg = validate_config(default_config())
    tree, model, pair = build_tree_world(cfg)
    for k in range(1, tree.depth + 1):
        oracle = _StepMarginOracle(pair.spec, tree.grid.times[k], pair.candidates[k - 1])
        ps = model.pred_one_minus_z[k - 1]
        assert_bitwise(oracle.inf_b_exact(ps), scan_inf_b(oracle, ps))
        # the default scan grid lies in [0, 1]: every scan point is an envelope line
        assert oracle._on_lines.all()
        assert all(env.hull.size > 0 for env in oracle._envelopes)


# ---------------------------------------------------------------------------
# random specs: scan points all inside [0, 1], partly inside, or all outside

heights = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def pieces(draw, lo, hi):
    """A bump or a plateau whose support lies in [lo, hi]."""
    if draw(st.booleans()):
        width = draw(st.floats(0.01, (hi - lo) / 2))
        center = draw(st.floats(lo + width, hi - width))
        return BumpSpec(center, width, draw(heights))
    ramp = draw(st.floats(0.01, (hi - lo) / 4))
    a = draw(st.floats(lo + ramp, hi - ramp))
    b = draw(st.floats(a, hi - ramp))
    return PlateauSpec(a, b, ramp, draw(heights))


@st.composite
def specs(draw, lo, hi):
    comps = []
    for _ in range(draw(st.integers(1, 2))):
        parts = draw(st.lists(pieces(lo, hi), min_size=1, max_size=3))
        comps.append(
            ComponentSpec(
                bumps=tuple(p for p in parts if isinstance(p, BumpSpec)),
                plateaus=tuple(p for p in parts if isinstance(p, PlateauSpec)),
                time_affine=(1.0, draw(st.floats(-0.5, 0.5))),
            )
        )
    res = draw(st.sampled_from([16, 17, 200, 2048]))
    return CoefficientSpec(components=tuple(comps), x_resolution=res)


SUPPORTS = {"inside": (0.0, 1.0), "partly": (-0.6, 1.7), "outside": (1.05, 2.5)}


@st.composite
def oracles(draw, where):
    spec = draw(specs(*SUPPORTS[where]))
    cand = np.array(
        draw(st.lists(st.floats(-2.0, 2.0), min_size=3 * spec.m, max_size=3 * spec.m))
    ).reshape(spec.m, 3)
    return _StepMarginOracle(spec, draw(st.floats(0.0, 1.0)), cand)


states = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40)


@pytest.mark.parametrize("where", sorted(SUPPORTS))
def test_random_specs_match_the_scan(where):
    @settings(max_examples=40, deadline=None)
    @given(oracles(where), states)
    def check(oracle, ps):
        ps = np.array(ps + EDGE_STATES)
        with np.errstate(invalid="ignore"):
            assert_bitwise(oracle.inf_b_exact(ps), scan_inf_b(oracle, ps))
        lines = oracle._on_lines
        if where == "inside":
            assert lines.all()
        if where == "outside":
            assert not lines.any()
            assert all(env.hull.size == 0 for env in oracle._envelopes)

    check()


def test_flat_and_zero_lines():
    # the plateau gives parallel lines; the third candidate, zero on it and
    # weighting only the empty component, gives lines that vanish everywhere;
    # both must reproduce the scan, zero signs included
    comps = (
        ComponentSpec(plateaus=(PlateauSpec(0.3, 0.7, 0.1, 0.8),)),
        ComponentSpec(),
    )
    spec = CoefficientSpec(components=comps)
    cand = np.array([[0.5, -0.25, 0.0], [1.0, 1.0, 1.0]])
    oracle = _StepMarginOracle(spec, 0.5, cand)
    ps = np.concatenate([np.linspace(0.0, 1.0, 1001), EDGE_STATES])
    with np.errstate(invalid="ignore"):
        assert_bitwise(oracle.inf_b_exact(ps), scan_inf_b(oracle, ps))
    assert oracle._envelopes[2].hull.size == 0  # a zero candidate leaves no line


def tying_lines(seed, n, bend):
    """Lines through one point (p0, y0) (bend 0), or tangent to an envelope
    curving by ~bend, so that many lines hold sliver-wide hull stretches."""
    rng = np.random.default_rng(seed)
    x, g1 = rng.uniform(0.0, 1.0, n), np.sort(rng.uniform(-2.0, 2.0, n))
    p0, y0 = rng.uniform(0.0, 1.0), rng.uniform(-1.0, 0.0)
    g0 = (p0 - x) * g1 - y0 - bend * g1 * g1
    reach = max(8.0 * bend, 2.0**-50)
    ps = np.clip(p0 + np.linspace(-reach, reach, 401), 0.0, 1.0)
    return x, g0, g1, ps


tie_cases = given(
    st.integers(0, 2**32 - 1), st.integers(2, 400), st.sampled_from([0.0, 1e-16, 1e-15, 1e-14, 1e-13])
)


@settings(max_examples=60, deadline=None)
@tie_cases
def test_lines_that_tie_within_rounding(seed, n, bend):
    # near p0 the float minimum can come from any line, on the hull or off
    # it, inside the query window or beyond it.  The oracle caps at 0,
    # which also stands for the lines that vanish everywhere
    x, g0, g1, ps = tying_lines(seed, n, bend)
    env = coefficients._LowerEnvelope.build(x, g0, g1)
    want = (-g0 + (ps[:, None] - x) * g1).min(axis=1)
    assert_bitwise(np.minimum(env.minimum(ps), 0.0), np.minimum(want, 0.0))


@settings(max_examples=60, deadline=None)
@tie_cases
def test_near_lines_hold_every_tie_the_window_misses(seed, n, bend):
    # the contract behind the bitwise answer: at each state, every line
    # within rounding distance of the envelope is in the query window or
    # in `near`
    x, g0, g1, ps = tying_lines(seed, n, bend)
    env = coefficients._LowerEnvelope.build(x, g0, g1)
    vals = -env.g0 + (ps[:, None] - env.x) * env.g1
    tied = vals - vals.min(axis=1, keepdims=True) <= 2.0**-45 * (np.abs(g0).max() + np.abs(g1).max())
    k = coefficients._HULL_NEIGHBOURS
    own = np.searchsorted(env.breaks, ps)
    win = env.hull[np.clip(own[:, None] + np.arange(-k, k + 1), 0, env.hull.size - 1)]
    held = np.zeros_like(tied)
    held[:, env.near] = True
    held[np.arange(ps.size)[:, None], win] = True
    assert not np.any(tied & ~held)


def test_dropped_hull_line_is_caught(monkeypatch):
    # seeded defect: the envelope forgets its widest interior hull line
    cfg = validate_config(default_config())
    tree, model, pair = build_tree_world(cfg)
    build = coefficients._LowerEnvelope.build
    dropped = {}

    def drop_one(x, g0, g1):
        env = build(x, g0, g1)
        inner = np.clip(env.breaks, 0.0, 1.0)
        widths = np.diff(inner)  # width in [0, 1] of hull lines 1 .. size-2
        i = int(np.argmax(widths)) + 1
        dropped["ps"] = 0.5 * (inner[i - 1] + inner[i])
        keep = np.arange(env.hull.size) != i
        return dataclasses.replace(env, hull=env.hull[keep], breaks=np.delete(env.breaks, i))

    monkeypatch.setattr(coefficients._LowerEnvelope, "build", staticmethod(drop_one))
    oracle = _StepMarginOracle(pair.spec, tree.grid.times[1], pair.candidates[0])
    oracle._envelope(0)
    ps = np.array([dropped["ps"]])
    got, want = oracle.inf_b_exact(ps), scan_inf_b(oracle, ps)
    assert got[0, 0] > want[0, 0]
