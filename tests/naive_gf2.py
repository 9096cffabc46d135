"""Independent one-bit-per-byte GF(2) elimination oracle for cross-checking.

Deliberately naive: dense uint8 arrays, one Gauss-Jordan elimination shared
by rank, solve and nullspace, no shared code with the packed implementation.
"""
from __future__ import annotations

import numpy as np


def _eliminate(m: np.ndarray, ncols: int) -> list[tuple[int, int]]:
    """Bring m to reduced row echelon form in place, pivoting only in its
    first ncols columns, and return the (row, col) pivots.

    The pivot of column c is the first row at or below the next pivot row
    with a 1 there; it is swapped up and XORed into every other row with a 1
    in column c, in one numpy operation.
    """
    nrows = m.shape[0]
    pivots: list[tuple[int, int]] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        hits = np.flatnonzero(m[r:, c])
        if hits.size == 0:
            continue
        pivot = r + int(hits[0])
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        hit = np.flatnonzero(m[:, c])
        m[hit[hit != r]] ^= m[r]
        pivots.append((r, c))
    return pivots


def naive_rank(a: np.ndarray) -> int:
    m = np.array(a, dtype=np.uint8) % 2
    return len(_eliminate(m, m.shape[1]))


def naive_solve(a: np.ndarray, b: np.ndarray):
    """Return some x with a @ x = b mod 2, or None."""
    m = np.array(a, dtype=np.uint8) % 2
    ncols = m.shape[1]
    aug = np.concatenate([m, (np.array(b, dtype=np.uint8) % 2)[:, None]], axis=1)
    pivots = _eliminate(aug, ncols)
    if aug[len(pivots) :, ncols].any():
        return None
    x = np.zeros(ncols, dtype=np.uint8)
    for row, col in pivots:
        x[col] = aug[row, ncols]
    return x


def naive_nullspace(a: np.ndarray) -> np.ndarray:
    """Rows of the result form a basis of {x : a @ x = 0 mod 2}."""
    m = np.array(a, dtype=np.uint8) % 2
    ncols = m.shape[1]
    pivots = _eliminate(m, ncols)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = np.zeros(ncols, dtype=np.uint8)
        v[free] = 1
        for row, col in pivots:
            if m[row, free]:
                v[col] = 1
        basis.append(v)
    if not basis:
        return np.zeros((0, ncols), dtype=np.uint8)
    return np.vstack(basis)


def naive_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (np.array(a, dtype=np.uint8) @ (np.array(x, dtype=np.uint8) % 2)) % 2


def naive_symp_inner(u: np.ndarray, w: np.ndarray) -> int:
    u = np.array(u, dtype=np.uint8) % 2
    w = np.array(w, dtype=np.uint8) % 2
    n = len(u) // 2
    return int((u[:n] @ w[n:] + u[n:] @ w[:n]) % 2)
