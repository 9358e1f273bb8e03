"""Multilinear interpolation on rectangular grids (shared helper)."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def check_axes(axes: tuple[np.ndarray, ...]) -> None:
    for i, ax in enumerate(axes):
        if ax.ndim != 1 or ax.size < 2:
            raise ValidationError(f"axes[{i}] must be 1-D with at least 2 points")
        if np.any(np.diff(ax) <= 0):
            raise ValidationError(f"axes[{i}] must be strictly increasing")


def multilinear(axes: tuple[np.ndarray, ...], table: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Interpolate ``table`` at ``points`` with flat (clamped) extrapolation.

    ``axes`` are strictly increasing 1-D coordinate arrays, ``table`` has shape
    ``tuple(len(ax) for ax in axes)`` and ``points`` has shape (B, n).
    """
    return multilinear_apply(multilinear_plan(axes, points), table)


def multilinear_plan(axes: tuple[np.ndarray, ...], points: np.ndarray):
    """The table-independent half of :func:`multilinear`: ``(offsets, frac)``, the
    (2^n, B) flat offsets of each point's cell corners (corner c takes the upper
    node on axis i when bit i of c is set) and the (n, B) clamped fractions."""
    pts = np.asarray(points, dtype=float)
    n = len(axes)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[-1] != n:
        raise ValidationError(f"points must have {n} coordinates, got {pts.shape[-1]}")

    base = np.zeros(pts.shape[0], dtype=np.intp)
    corner = np.zeros(1 << n, dtype=np.intp)
    frac = np.empty((n, pts.shape[0]), dtype=float)
    stride = 1
    for i in range(n - 1, -1, -1):
        ax = axes[i]
        idx = np.clip(np.searchsorted(ax, pts[:, i], side="right") - 1, 0, ax.size - 2)
        frac[i] = np.clip((pts[:, i] - ax[idx]) / (ax[idx + 1] - ax[idx]), 0.0, 1.0)
        base += idx * stride
        corner += ((np.arange(1 << n) >> i) & 1) * stride
        stride *= ax.size
    offsets = corner[:, None] + base[None, :]
    return offsets, frac


def multilinear_apply(plan, table: np.ndarray) -> np.ndarray:
    """Interpolate ``table`` at the points a :func:`multilinear_plan` was made for."""
    offsets, frac = plan
    n = frac.shape[0]
    # gather the 2^n corner values, then collapse one axis at a time, the last
    # axis first, with v0 + f*(v1 - v0); unlike the weighted corner sum this is
    # exact on locally constant data, so flat tables interpolate without jitter
    out = np.ascontiguousarray(table).reshape(-1).take(offsets)
    for i in range(n - 1, -1, -1):
        v0, v1 = np.split(out, 2)  # corners without and with the upper node on axis i
        v1 -= v0
        v1 *= frac[i]
        out = np.add(v0, v1, out=v0 if i else None)
    return out[0]
