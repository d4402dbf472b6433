"""Exact rank (by independent rows), cone rays, and LP feasibility.

Frozen expectations are hand-checked (row3 = row1 + row2 and the like);
rank and row selection are cross-checked against a Fraction Gaussian
elimination kept here as the reference, and randomized systems against
scipy's floating simplex. The package takes ints only, so rational test
systems are scaled here, each row with its rhs, by the lcm of its
denominators: the same ranks and the same solution sets.
"""

import ast
from fractions import Fraction
from math import lcm
from pathlib import Path
import random

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspkit import linalg
from sspkit.linalg import (
    cone_rays,
    independent_mod2,
    independent_rows,
    lp_feasible,
    nonnegative_certificate,
    primitive,
)


def fraction_rank(matrix):
    """Rank by Gaussian elimination over Fraction: the reference route."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] / rows[r][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def scaled(row):
    """The row times the lcm of its entries' denominators, as ints."""
    row = [Fraction(x) for x in row]
    k = lcm(*(x.denominator for x in row))
    return [int(x * k) for x in row]


def scaled_system(lhs, rhs):
    """Each equation, rhs included, scaled to ints: same solution set."""
    rows = [scaled([*row, x]) for row, x in zip(lhs, rhs)]
    return [row[:-1] for row in rows], [row[-1] for row in rows]


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def rational_matrices(draw, max_side=6):
    m = draw(st.integers(1, max_side))
    n = draw(st.integers(1, max_side))
    # a narrow entry range makes dependent rows common
    entry = st.one_of(st.integers(-2, 2), rationals)
    return draw(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)
    )


class TestPrimitive:
    def test_zero_row_total(self):
        # only the last entry is nonzero, or none is: nothing to divide
        assert primitive((0, 0, 1)) == (0, 0, 1)
        assert primitive((0, 0, 0)) == (0, 0, 0)


class TestRank:
    def test_identity(self):
        ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert len(independent_rows(ident)) == 3

    def test_zero_matrix(self):
        assert independent_rows([[0, 0, 0, 0], [0, 0, 0, 0]]) == []

    def test_dependent_row(self):
        # row3 = row1 + row2
        assert len(independent_rows([(1, 0, 1), (0, 1, 0), (1, 1, 1)])) == 2

    def test_empty(self):
        assert independent_rows([]) == []

    def test_fractions(self):
        m = [
            [Fraction(1, 2), Fraction(1, 3)],
            [Fraction(3, 2), Fraction(1, 1)],
        ]
        # second row = 3 * first row; both scale to [3, 2]
        assert [scaled(row) for row in m] == [[3, 2], [3, 2]]
        assert len(independent_rows([scaled(row) for row in m])) == 1
        # pivot's // would floor a Fraction silently, so one is refused
        with pytest.raises(TypeError):
            independent_rows(m)

    @given(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=3, max_size=3),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_equals_transpose_rank(self, rows):
        cols = [[row[j] for row in rows] for j in range(3)]
        assert len(independent_rows(rows)) == len(independent_rows(cols))


class TestIndependentRows:
    @given(rational_matrices())
    @settings(max_examples=100, deadline=None)
    def test_rank_matches_fraction_reference(self, rows):
        chosen = independent_rows([scaled(row) for row in rows])
        assert len(chosen) == fraction_rank(rows)

    @given(rational_matrices())
    @settings(max_examples=100, deadline=None)
    def test_picks_exactly_the_rows_independent_of_earlier_picks(self, rows):
        chosen = set(independent_rows([scaled(row) for row in rows]))
        picked = []
        for i, row in enumerate(rows):
            independent = fraction_rank(picked + [row]) > len(picked)
            assert (i in chosen) == independent, i
            if independent:
                picked.append(row)

    def test_stops_at_full_column_rank(self):
        assert independent_rows([(1, 0), (0, 0), (0, 2), (1, 1)]) == [0, 2]

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            independent_rows([(1, 0), (1,)])


class TestIndependentMod2:
    @given(st.integers(1, 7).flatmap(lambda w: st.tuples(
        st.just(w), st.lists(st.integers(0, (1 << w) - 1), max_size=10))))
    @settings(max_examples=150, deadline=None)
    def test_picks_are_independent_over_q(self, drawn):
        width, rows = drawn
        chosen = independent_mod2(rows, width)
        picked = [[r >> k & 1 for k in range(width)] for r in (rows[i] for i in chosen)]
        assert independent_rows(picked) == list(range(len(chosen)))
        # each row left out is a sum mod 2 of the rows picked before it
        span = {0}
        for i, r in enumerate(rows):
            if len(span) == 1 << width:
                break
            assert (i in chosen) == (r not in span), i
            if i in chosen:
                span |= {x ^ r for x in span}

    def test_stops_at_rank(self):
        assert independent_mod2([0b11, 0b01, 0b10, 0b100, 0b1000], 3) == [0, 1, 3]

    def test_dependent_mod_2_only(self):
        # (1,1,0) + (1,0,1) + (0,1,1) is 0 mod 2 and not over Q
        rows = [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
        bitrows = [sum(x << k for k, x in enumerate(r)) for r in rows]
        assert independent_mod2(bitrows, 3) == [0, 1]
        assert independent_rows(rows) == [0, 1, 2]


@st.composite
def nonsingular_int_matrices(draw):
    d = draw(st.integers(1, 6))
    rows = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=d, max_size=d),
            min_size=d,
            max_size=d,
        ).filter(lambda m: fraction_rank(m) == len(m))
    )
    # a permutation of rows flips the determinant's sign and can put a zero
    # on the diagonal, which forces a row swap
    return draw(st.permutations(rows))


@st.composite
def nonsingular_01_matrices(draw):
    """0/1 bases, like the lifted vertex rows double description inverts:
    pivots equal to the running denominator are common."""
    d = draw(st.integers(1, 6))
    return draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=d, max_size=d),
            min_size=d,
            max_size=d,
        ).filter(lambda m: fraction_rank(m) == len(m))
    )


def unskipped_pivot(tab, r, col, det):
    """linalg.pivot updating every row but r, as before it skipped rows."""
    prow = tab[r]
    p = prow[col]
    for i, row in enumerate(tab):
        if i != r:
            f = row[col]
            tab[i] = [(x * p - f * y) // det for x, y in zip(row, prow)]
    return p


class TestConeRays:
    @staticmethod
    def check(basis):
        d = len(basis)
        rays = cone_rays(basis)
        assert len(rays) == d
        for j, ray in enumerate(rays):
            assert primitive(ray) == ray and any(ray)
            image = [sum(a * y for a, y in zip(row, ray)) for row in basis]
            assert image[j] > 0
            assert all(v == 0 for i, v in enumerate(image) if i != j)

    @given(nonsingular_int_matrices())
    @settings(max_examples=150, deadline=None)
    def test_random_nonsingular(self, basis):
        self.check(basis)

    @given(st.one_of(nonsingular_int_matrices(), nonsingular_01_matrices()))
    @settings(max_examples=150, deadline=None)
    def test_matches_an_unskipped_pivot(self, basis):
        with mock.patch.object(linalg, "pivot", unskipped_pivot):
            want = cone_rays(basis)
        assert cone_rays(basis) == want

    @pytest.mark.parametrize(
        "basis",
        [
            [[0, 1], [1, 0]],  # row swap, determinant -1
            [[1, 1, 0], [1, 1, 1], [0, 1, 1]],  # zero second pivot
            [[2, 0, 0], [0, -3, 0], [0, 0, 5]],
            [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]],
        ],
    )
    def test_frozen(self, basis):
        self.check(basis)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            cone_rays([[1, 2], [2, 4]])

    @pytest.mark.parametrize(
        "basis",
        [[[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [1, 1]]],
        ids=["wide", "tall"],
    )
    def test_not_square_rejected(self, basis):
        with pytest.raises(ValueError, match="square"):
            cone_rays(basis)


def test_only_linalg_imports_fractions():
    """Plain int is the one exact number type: no module, linalg
    included, imports fractions."""
    src = Path(__file__).resolve().parents[1] / "src" / "sspkit"
    importers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "fractions" in names:
                importers.append(path.name)
    assert importers == []


def affine_dim(points):
    """The rank of the lifted rows (1, p) less one, as is_facet counts."""
    return len(independent_rows([(1, *p) for p in points])) - 1


class TestAffineDim:
    def test_empty(self):
        assert affine_dim([]) == -1

    def test_single_point(self):
        assert affine_dim([(3, 1, 4)]) == 0

    def test_triangle(self):
        assert affine_dim([(0, 0, 0), (1, 0, 0), (0, 1, 0)]) == 2

    def test_repeated_points(self):
        assert affine_dim([(1, 1), (1, 1), (1, 1)]) == 0

    def test_bell3_vertices_span_space(self):
        # the five stable sets of the 3-pair clash graph, as 0/1 vectors
        pts = [
            (0, 0, 0),
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (1, 0, 1),
        ]
        assert affine_dim(pts) == 3


class TestLpFeasible:
    def test_one_var_positive(self):
        assert lp_feasible([[1]], [1]) is True

    def test_one_var_negative_rhs(self):
        assert lp_feasible([[1]], [-1]) is False

    def test_three_cols(self):
        lhs = [[1, 0, 1], [0, 1, 1]]
        assert lp_feasible(lhs, [2, 1]) is True

    def test_infeasible_sign_conflict(self):
        # x - x' ... actually: x1 = 1 and x1 = -1 cannot both hold
        lhs = [[1], [1]]
        assert lp_feasible(lhs, [1, -1]) is False

    def test_empty_system_zero_rhs(self):
        assert lp_feasible([[], []], [0, 0]) is True
        assert nonnegative_certificate([[], []], [0, 0]) == ((), 1)

    def test_empty_system_nonzero_rhs(self):
        assert lp_feasible([[], []], [0, 1]) is False

    def test_no_rows(self):
        assert lp_feasible([], []) is True

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lp_feasible([[1, 2]], [1, 2])

    def test_certificate_substitutes(self):
        lhs = [[1, 0, 1], [0, 1, 1]]
        rhs = [2, 1]
        cert = nonnegative_certificate(lhs, rhs)
        assert cert is not None
        num, det = cert
        assert det > 0 and all(c >= 0 for c in num)
        for row, want in zip(lhs, rhs):
            assert sum(c * x for c, x in zip(row, num)) == det * want

    @given(st.integers(1, 4).flatmap(lambda m: st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=m, max_size=m),
        st.lists(st.integers(-2, 2), min_size=m, max_size=m)))))
    @settings(max_examples=150, deadline=None)
    def test_certificate_matches_an_unskipped_pivot(self, system):
        lhs, rhs = system
        with mock.patch.object(linalg, "pivot", unskipped_pivot):
            want = nonnegative_certificate(lhs, rhs)
        assert nonnegative_certificate(lhs, rhs) == want

    def test_certificate_none_when_infeasible(self):
        assert nonnegative_certificate([[1]], [-1]) is None

    def test_fractional_certificate(self):
        # x / 3 = 1 / 2 scales by 6 to 2x = 3: x = 3/2 is numerator 3 over 2
        lhs, rhs = scaled_system([[Fraction(1, 3)]], [Fraction(1, 2)])
        assert (lhs, rhs) == ([[2]], [3])
        assert nonnegative_certificate(lhs, rhs) == ((3,), 2)
        with pytest.raises(TypeError):
            lp_feasible([[Fraction(1, 3)]], [Fraction(1, 2)])
        with pytest.raises(TypeError):
            lp_feasible([[2]], [1.5])


def _scipy_feasible(lhs, rhs):
    from scipy.optimize import linprog

    cols = len(lhs[0]) if lhs else 0
    if cols == 0:
        return all(x == 0 for x in rhs)
    res = linprog(
        [0.0] * cols,
        A_eq=[[float(x) for x in row] for row in lhs],
        b_eq=[float(x) for x in rhs],
        bounds=[(0, None)] * cols,
        method="highs",
    )
    return res.status == 0


def _check_against_scipy(lhs, rhs):
    """Feasibility agrees with scipy, and a certificate (numerators over
    det) solves the system exactly in ints; returns whether the system was
    feasible."""
    cert = nonnegative_certificate(lhs, rhs)
    assert (cert is not None) == _scipy_feasible(lhs, rhs)
    if cert is not None:
        num, det = cert
        assert type(det) is int and det > 0
        assert all(type(x) is int and x >= 0 for x in num)
        for row, want in zip(lhs, rhs):
            assert sum(a * x for a, x in zip(row, num)) == det * want
    return cert is not None


def test_feasibility_matches_scipy_on_random_systems():
    scipy = pytest.importorskip("scipy")  # noqa: F841
    rng = random.Random(20260816)
    agree = 0
    for _ in range(120):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 6)
        lhs = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(m)]
        rhs = [rng.randrange(-4, 5) for _ in range(m)]
        _check_against_scipy(lhs, rhs)
        agree += 1
    assert agree == 120


def _random_entry(rng):
    if rng.random() < 0.3:
        return Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
    return rng.randrange(-3, 4)


def test_feasibility_matches_scipy_on_wider_rational_systems():
    """Systems up to 6x10 take several pivots, so an inexact division in
    the integer tableau would show in a certificate."""
    scipy = pytest.importorskip("scipy")  # noqa: F841
    rng = random.Random(20261018)
    feasible = 0
    for k in range(120):
        m = rng.randrange(1, 7)
        n = rng.randrange(1, 11)
        lhs = [[_random_entry(rng) for _ in range(n)] for _ in range(m)]
        if k % 2:
            # a planted nonnegative solution makes half the systems feasible
            g = [rng.choice((0, 0, 1, 2, Fraction(1, 3))) for _ in range(n)]
            rhs = [sum(a * x for a, x in zip(row, g)) for row in lhs]
        else:
            rhs = [_random_entry(rng) for _ in range(m)]
        feasible += _check_against_scipy(*scaled_system(lhs, rhs))
    assert feasible >= 60
