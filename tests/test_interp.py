"""Multilinear interpolation: the plan/apply split against a one-pass reference."""

from __future__ import annotations

import numpy as np
import pytest

from tugpricer._interp import multilinear, multilinear_apply, multilinear_plan
from tugpricer.errors import ValidationError


def one_pass_multilinear(axes, table, points):
    """Interpolation in one pass, locating and gathering per call (reference)."""
    pts = np.asarray(points, dtype=float)
    n = len(axes)
    if pts.ndim == 1:
        pts = pts[None, :]
    cell = np.empty(pts.shape, dtype=np.intp)
    frac = np.empty(pts.shape, dtype=float)
    for i, ax in enumerate(axes):
        idx = np.clip(np.searchsorted(ax, pts[:, i], side="right") - 1, 0, ax.size - 2)
        cell[:, i] = idx
        width = ax[idx + 1] - ax[idx]
        frac[:, i] = np.clip((pts[:, i] - ax[idx]) / width, 0.0, 1.0)
    flat = np.ascontiguousarray(table).reshape(-1)
    strides = np.empty(n, dtype=np.intp)
    acc = 1
    for i in range(n - 1, -1, -1):
        strides[i] = acc
        acc *= table.shape[i]
    corners = np.empty((pts.shape[0],) + (2,) * n, dtype=float)
    for corner in range(1 << n):
        offs = np.zeros(pts.shape[0], dtype=np.intp)
        for i in range(n):
            offs += (cell[:, i] + ((corner >> i) & 1)) * strides[i]
        corners[(slice(None),) + tuple((corner >> i) & 1 for i in range(n))] = flat[offs]
    out = corners
    for i in range(n - 1, -1, -1):
        v0 = out[..., 0]
        v1 = out[..., 1]
        out = v0 + frac[:, i].reshape((-1,) + (1,) * i) * (v1 - v0)
    return out


def _case(n: int, seed: int):
    rng = np.random.default_rng(seed)
    axes = tuple(np.sort(rng.uniform(-1.0, 1.0, 4 + i)) for i in range(n))
    table = rng.standard_normal(tuple(ax.size for ax in axes))
    lo = np.array([ax[0] for ax in axes])
    hi = np.array([ax[-1] for ax in axes])
    inside = rng.uniform(lo, hi, (200, n))
    outside = rng.uniform(lo - 0.5, hi + 0.5, (200, n))  # clamped where off the box
    on_nodes = np.column_stack([rng.choice(ax, 50) for ax in axes])
    at_hi = np.tile(hi, (5, 1))
    at_hi[1:, 0] = axes[0][1]  # on hi in every other axis
    return axes, table, np.vstack([inside, outside, on_nodes, at_hi])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_plan_then_apply_is_bytewise_the_one_pass_result(n):
    axes, table, pts = _case(n, 100 + n)
    want = one_pass_multilinear(axes, table, pts)
    got = multilinear_apply(multilinear_plan(axes, pts), table)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert multilinear(axes, table, pts).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_plan_serves_every_table(n):
    axes, table, pts = _case(n, 200 + n)
    plan = multilinear_plan(axes, pts)
    for k in range(3):
        other = table * (k + 1.5) - k
        assert multilinear_apply(plan, other).tobytes() == \
            one_pass_multilinear(axes, other, pts).tobytes()


def test_single_point_and_coordinate_count():
    axes, table, pts = _case(2, 7)
    assert multilinear(axes, table, pts[0]).tobytes() == \
        one_pass_multilinear(axes, table, pts[0]).tobytes()
    with pytest.raises(ValidationError, match="points must have 2 coordinates"):
        multilinear_plan(axes, np.zeros((3, 3)))
