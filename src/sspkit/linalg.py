"""Exact rational linear algebra: rank, affine dimension, LP feasibility.

Every geometric decision downstream (adjacency oracle, facet tests) is a
yes/no question, so this module works in exact arithmetic (Fraction for
rank, a fraction-free integer tableau for the simplex) and never touches
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence, Union

Scalar = Union[int, Fraction]
Vector = Sequence[Scalar]
Matrix = Sequence[Vector]


class PivotLimitError(RuntimeError):
    """Simplex exceeded its pivot cap.

    Bland's rule cannot cycle, so reaching the cap indicates a bug, not an
    unlucky instance; callers should treat this as a hard failure.
    """


def _as_rows(matrix: Matrix) -> list[list[Fraction]]:
    rows = [[Fraction(x) for x in row] for row in matrix]
    if rows:
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged matrix")
    return rows


def rank(matrix: Matrix) -> int:
    """Rank over the rationals, by Gaussian elimination."""
    rows = _as_rows(matrix)
    if not rows:
        return 0
    m, n = len(rows), len(rows[0])
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pval = prow[col]
        for i in range(r + 1, m):
            f = rows[i][col]
            if f != 0:
                f = f / pval
                ri = rows[i]
                for j in range(col, n):
                    ri[j] -= f * prow[j]
        r += 1
        if r == m:
            break
    return r


def affine_dim(points: Sequence[Vector]) -> int:
    """Dimension of the affine span of the points; -1 when there are none."""
    pts = [[Fraction(x) for x in p] for p in points]
    if not pts:
        return -1
    width = len(pts[0])
    for p in pts:
        if len(p) != width:
            raise ValueError("points of mixed dimension")
    base = pts[0]
    diffs = [[x - b for x, b in zip(p, base)] for p in pts[1:]]
    return rank(diffs)


def nonnegative_certificate(
    eq_lhs: Matrix,
    eq_rhs: Vector,
    pivot_cap: Optional[int] = None,
) -> Optional[tuple[Fraction, ...]]:
    """A vector g >= 0 with eq_lhs @ g == eq_rhs, or None if none exists.

    Phase-one simplex with Bland's smallest-index anti-cycling rule, exact
    arithmetic. A system with zero columns is feasible only for a zero
    right-hand side; a system with zero rows is trivially feasible.

    The tableau is kept fraction-free (Edmonds; Bareiss): integer entries
    over one positive common denominator det, which after each pivot is
    the pivot entry itself, so every row update divides exactly.
    """
    if len(eq_lhs) != len(eq_rhs):
        raise ValueError(
            f"lhs has {len(eq_lhs)} rows but rhs has {len(eq_rhs)} entries"
        )
    # Tableau columns: n structural, then the rhs. Rows are sign-flipped so
    # the rhs is nonnegative and the artificial basis is feasible from the
    # start. The artificial columns are never read, so they are not stored;
    # basis[i] = n + i marks row i's artificial as basic. One global lcm
    # clears denominators: it keeps every sign and every ratio between
    # entries, so the pivots are those of the rational tableau.
    rows = _as_rows([[*row, x] for row, x in zip(eq_lhs, eq_rhs)])
    scale = lcm(1, *(x.denominator for row in rows for x in row))
    tab = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    m = len(tab)
    n = len(tab[0]) - 1 if tab else 0
    if n == 0:
        return () if all(row[-1] == 0 for row in tab) else None
    for row in tab:
        if row[-1] < 0:
            row[:] = [-x for x in row]
    basis = [n + i for i in range(m)]
    det = 1

    # Phase-one objective: minimize the artificial sum. With the artificial
    # basis, the reduced-cost row is the column sum of the constraint rows;
    # pivoting keeps it current. z[-1] is the current objective value.
    z = [sum(col) for col in zip(*tab)]

    cap = pivot_cap if pivot_cap is not None else 1000 + 50 * (m + n) * (m + n)
    pivots = 0
    while True:
        enter = next((j for j in range(n) if z[j] > 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # ratio tab[i][-1] / a against the chosen row's, cross-multiplied
                here = tab[i][-1] * tab[leave][enter]
                best = tab[leave][-1] * a
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise AssertionError(
                "phase-one objective unbounded; input invariants violated"
            )
        prow = tab[leave]
        p = prow[enter]
        for row in tab:
            if row is not prow:
                f = row[enter]
                row[:] = [(x * p - f * y) // det for x, y in zip(row, prow)]
        f = z[enter]
        z = [(x * p - f * y) // det for x, y in zip(z, prow)]
        det = p
        basis[leave] = enter
        pivots += 1
        if pivots > cap:
            raise PivotLimitError(
                f"simplex exceeded {cap} pivots on a {m}x{n} system"
            )

    if z[-1] != 0:
        return None
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = Fraction(tab[i][-1], det)
    return tuple(x)


def lp_feasible(
    eq_lhs: Matrix, eq_rhs: Vector, pivot_cap: Optional[int] = None
) -> bool:
    """True iff {g >= 0 : eq_lhs @ g == eq_rhs} is nonempty."""
    return nonnegative_certificate(eq_lhs, eq_rhs, pivot_cap) is not None
