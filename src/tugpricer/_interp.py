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
    pts = np.asarray(points, dtype=float)
    n = len(axes)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[-1] != n:
        raise ValidationError(f"points must have {n} coordinates, got {pts.shape[-1]}")

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

    # gather the 2^n corner values, then collapse one axis at a time with
    # v0 + f*(v1 - v0); unlike the weighted corner sum this is exact on
    # locally constant data, so flat tables interpolate without jitter
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
