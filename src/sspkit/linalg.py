"""Exact integer linear algebra: independent rows, cone rays, LP feasibility.

Every geometric decision downstream (adjacency oracle, facet tests) is a
yes/no question, so this module works in exact arithmetic and never
touches floating point. Matrices hold plain ints only: a ragged matrix
raises ValueError and any other entry type raises TypeError. One
fraction-free elimination (Edmonds 1967), `independent_rows`, settles
every rank question that `independent_mod2`, a GF(2) elimination on bit
rows, leaves open; one fraction-free pivot (Bareiss 1968) serves the
simplex and the cone inversion. The simplex returns its certificate in
ints too, as numerators over one positive common denominator:
(numerators, det).
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Optional, Sequence

Matrix = Sequence[Sequence[int]]


class PivotLimitError(RuntimeError):
    """Simplex exceeded its pivot cap.

    Bland's rule cannot cycle, so reaching the cap indicates a bug, not an
    unlucky instance; callers should treat this as a hard failure.
    """


def primitive(vec: Sequence[int]) -> tuple[int, ...]:
    """vec divided by the gcd of its entries (unchanged when all are 0)."""
    g = gcd(*vec)
    if g > 1:
        return tuple(v // g for v in vec)
    return tuple(vec)


def _width(matrix: Matrix) -> int:
    """The common row length of an int matrix (0 when it has no rows).

    `pivot` divides with //, which would silently floor a rational or a
    float entry, so an entry that is not a plain int is refused here.
    """
    width = len(matrix[0]) if matrix else 0
    for row in matrix:
        if len(row) != width:
            raise ValueError("ragged matrix")
        for x in row:
            if type(x) is not int:
                raise TypeError(f"matrix entries must be ints, got {x!r}")
    return width


def independent_rows(matrix: Matrix) -> list[int]:
    """Indices of the first rows, in order, that form a basis of the row space.

    Each incoming row is reduced against the primitive integer rows chosen
    so far, cross-multiplying instead of dividing; a row that does not
    reduce to zero is chosen. The scan stops at full column rank.
    """
    width = _width(matrix)
    basis: list[tuple[int, tuple[int, ...]]] = []
    chosen: list[int] = []
    for i, vec in enumerate(matrix):
        for col, brow in basis:
            f = vec[col]
            if f:
                p = brow[col]
                vec = [x * p - f * y for x, y in zip(vec, brow)]
        col = next((j for j, x in enumerate(vec) if x), None)
        if col is None:
            continue
        basis.append((col, primitive(vec)))
        chosen.append(i)
        if len(chosen) == width:
            break
    return chosen


def independent_mod2(rows: Iterable[int], rank: int) -> list[int]:
    """Indices of the first rows, in order, independent mod 2, stopping
    once rank are chosen. Each row is an int read as a bit row.

    Rows independent mod 2 are independent over Q: some square minor of
    theirs is odd, so not 0.
    """
    basis: dict[int, int] = {}  # leading bit -> basis row
    chosen: list[int] = []
    for i, v in enumerate(rows):
        while v:
            top = v.bit_length()
            if top not in basis:
                basis[top] = v
                chosen.append(i)
                if len(chosen) == rank:
                    return chosen
                break
            v ^= basis[top]
    return chosen


def pivot(tab: list[list[int]], r: int, col: int, det: int) -> int:
    """One fraction-free pivot on tab[r][col]; returns the new common
    denominator.

    tab holds integer numerators over the common denominator det (of
    either sign), which after the pivot is the pivot entry itself. Every
    row but r is updated, and each update divides exactly (Bareiss).
    """
    prow = tab[r]
    p = prow[col]
    for i, row in enumerate(tab):
        f = row[col]
        # with f == 0 and p == det the update is (x * p) // det == x
        if i != r and (f or p != det):
            tab[i] = [(x * p - f * y) // det for x, y in zip(row, prow)]
    return p


def cone_rays(basis: Matrix) -> list[tuple[int, ...]]:
    """Extreme rays of the simplicial cone {y : basis @ y >= 0}.

    basis is a nonsingular square matrix. Ray j is the primitive integer
    column with basis @ ray_j a positive multiple of e_j: column j of the
    inverse, read off a fraction-free Gauss-Jordan run on [basis | I].
    """
    d = len(basis)
    if _width(basis) != d:
        raise ValueError("cone basis must be square")
    tab = [
        [*row, *(int(i == j) for j in range(d))]
        for i, row in enumerate(basis)
    ]
    det = 1
    for col in range(d):
        r = next((i for i in range(col, d) if tab[i][col]), None)
        if r is None:
            raise ValueError("cone basis is singular")
        tab[col], tab[r] = tab[r], tab[col]
        det = pivot(tab, col, col, det)
    sign = 1 if det > 0 else -1
    return [primitive([sign * tab[i][d + j] for i in range(d)]) for j in range(d)]


def nonnegative_certificate(
    eq_lhs: Matrix, eq_rhs: Sequence[int]
) -> Optional[tuple[tuple[int, ...], int]]:
    """(numerators, det): ints with every numerator >= 0, det > 0 and
    eq_lhs @ numerators == det * eq_rhs, so g = numerators / det >= 0
    solves eq_lhs @ g == eq_rhs; None if no such g exists.

    Phase-one simplex with Bland's smallest-index anti-cycling rule. A
    system with zero columns is feasible, as ((), 1), only for a zero
    right-hand side; a system with zero rows is trivially feasible.

    The tableau is kept fraction-free by `pivot`: integer entries over one
    common denominator det, positive here because every pivot entry is.
    """
    if len(eq_lhs) != len(eq_rhs):
        raise ValueError(
            f"lhs has {len(eq_lhs)} rows but rhs has {len(eq_rhs)} entries"
        )
    # Tableau columns: n structural, then the rhs. Rows are sign-flipped so
    # the rhs is nonnegative and the artificial basis is feasible from the
    # start. The artificial columns are never read, so they are not stored;
    # basis[i] = n + i marks row i's artificial as basic.
    tab = [[*row, x] for row, x in zip(eq_lhs, eq_rhs)]
    m = len(tab)
    n = _width(tab) - 1 if tab else 0
    if n == 0:
        return ((), 1) if all(row[-1] == 0 for row in tab) else None
    for row in tab:
        if row[-1] < 0:
            row[:] = [-x for x in row]
    basis = [n + i for i in range(m)]
    det = 1

    # Phase-one objective: minimize the artificial sum. With the artificial
    # basis, the reduced-cost row is the column sum of the constraint rows;
    # it rides along as row m, so pivoting keeps it current. tab[m][-1] is
    # the current objective value.
    tab.append([sum(col) for col in zip(*tab)])

    cap = 1000 + 50 * (m + n) * (m + n)
    pivots = 0
    while True:
        enter = next((j for j in range(n) if tab[m][j] > 0), None)
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
        det = pivot(tab, leave, enter, det)
        basis[leave] = enter
        pivots += 1
        if pivots > cap:
            raise PivotLimitError(
                f"simplex exceeded {cap} pivots on a {m}x{n} system"
            )

    if tab[m][-1] != 0:
        return None
    x = [0] * n
    for i, bv in enumerate(basis):
        if bv < n:
            x[bv] = tab[i][-1]
    return tuple(x), det


def lp_feasible(eq_lhs: Matrix, eq_rhs: Sequence[int]) -> bool:
    """True iff {g >= 0 : eq_lhs @ g == eq_rhs} is nonempty."""
    return nonnegative_certificate(eq_lhs, eq_rhs) is not None
