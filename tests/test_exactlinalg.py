"""Oracle tests for the exact integer/rational linear algebra core.

Expected values were worked out by hand (they are small enough to check on
paper) and frozen here; the randomized identity checks live in
test_properties.py.
"""

from fractions import Fraction

import pytest

from lagrangelab.exactlinalg import (
    IntMatrix,
    det,
    gcd_list,
    hnf,
    identity,
    integer_kernel,
    is_unimodular,
    lattice_index,
    mat_mul,
    mat_vec,
    rational_rank,
    snf,
    solve_rational,
)


def M(rows, cols=None):
    return IntMatrix.from_rows(rows, cols)


def test_hnf_pinned_example():
    h, u = hnf(M([[2, 4], [1, 1]]))
    assert h.data == ((1, 1), (0, 2))
    assert is_unimodular(u)
    assert mat_mul(u, M([[2, 4], [1, 1]])).data == h.data


def test_hnf_reduces_above_pivots():
    h, u = hnf(M([[5, 7], [2, 3]]))
    # pivots positive, entry above second pivot reduced into [0, pivot)
    piv_cols = []
    for row in h.data:
        nz = [j for j, x in enumerate(row) if x != 0]
        if nz:
            piv_cols.append(nz[0])
            assert row[nz[0]] > 0
    for r, c in enumerate(piv_cols):
        for above in range(r):
            assert 0 <= h.data[above][c] < h.data[r][c]
    assert mat_mul(u, M([[5, 7], [2, 3]])).data == h.data


def test_hnf_zero_and_empty():
    h, u = hnf(M([[0, 0], [0, 0]]))
    assert h.data == ((0, 0), (0, 0))
    assert u.data == ((1, 0), (0, 1))
    h2, u2 = hnf(IntMatrix((), 3))
    assert h2.rows == 0 and h2.cols == 3 and u2.rows == 0


def test_snf_pinned_example():
    d, u, v = snf(M([[2, 0], [0, 3]]))
    assert d.data == ((1, 0), (0, 6))
    assert mat_mul(mat_mul(u, M([[2, 0], [0, 3]])), v).data == d.data
    assert is_unimodular(u) and is_unimodular(v)


def test_snf_rectangular():
    m = M([[2, 4, 6], [4, 8, 12]])
    d, u, v = snf(m)
    assert d.data[0][0] == 2
    assert d.data[1] == (0, 0, 0)
    assert mat_mul(mat_mul(u, m), v).data == d.data


def test_kernel_pinned_line():
    k = integer_kernel(M([[1, 1]]))
    assert k.data == ((1, -1),)


def test_kernel_is_saturated_not_scaled():
    # rows (2, -2) kill the same rational line; the integer kernel must be
    # the primitive generator (1, -1), not (2, -2).
    k = integer_kernel(M([[2, 2]]))
    assert k.data == ((1, -1),)


def test_kernel_of_pentagon_normals():
    # normals (1,0),(0,1),(-1,0),(0,-1),(-1,-1) as columns of a 2x5 matrix
    a = M([[1, 0, -1, 0, -1], [0, 1, 0, -1, -1]])
    k = integer_kernel(a)
    assert k.data == (
        (1, 0, 0, -1, 1),
        (0, 1, 0, 1, 0),
        (0, 0, 1, 1, -1),
    )
    # rows really are killed by a
    for row in k.data:
        assert all(x == 0 for x in mat_vec(a, row))


def test_kernel_edge_cases():
    assert integer_kernel(M([[1, 0], [0, 1]])).rows == 0
    assert integer_kernel(IntMatrix((), 3)).data == identity(3).data


def test_solve_rational_diagonal():
    x = solve_rational(M([[2, 0], [0, 3]]), [1, 1])
    assert x == (Fraction(1, 2), Fraction(1, 3))


def test_solve_rational_least_index_free_vars():
    x = solve_rational(M([[1, 1]]), [3])
    assert x == (Fraction(3), Fraction(0))
    x2 = solve_rational(M([[0, 2, 4]]), [6])
    assert x2 == (Fraction(0), Fraction(3), Fraction(0))


def test_solve_rational_inconsistent():
    assert solve_rational(M([[1, 1], [2, 2]]), [1, 3]) is None


def test_solve_rational_fraction_rhs():
    x = solve_rational(M([[3]]), [Fraction(1, 2)])
    assert x == (Fraction(1, 6),)


def test_elimination_skips_column_after_non_unit_pivot():
    # column 1 is twice column 0, so it is skipped after the pivot 2; the
    # next pivot is 2 again and the Bareiss divisions by it must be exact
    rows = [[2, 4, 1, 3], [4, 8, 3, 1], [6, 12, 5, 7]]
    assert rational_rank(rows) == 3
    assert rational_rank(M(rows)) == 3
    # x = (1, 0, 2, -1): the skipped column's variable is the free one
    assert solve_rational(rows, [1, 9, 9]) == (1, 0, 2, -1)
    assert solve_rational(rows, [0, 0, 1]) == (
        Fraction(-1, 2), 0, Fraction(5, 8), Fraction(1, 8),
    )
    assert det([[2, 1, 3], [4, 3, 1], [6, 5, 7]]) == 16
    assert det([row[:3] for row in rows]) == 0
    # a Fraction row is scaled to integers first; nothing else moves
    halved = [rows[0], [Fraction(x, 2) for x in rows[1]], rows[2]]
    assert rational_rank(halved) == 3
    assert solve_rational(halved, [1, Fraction(9, 2), 9]) == (1, 0, 2, -1)


def test_det_argument_forms():
    assert det([(2, 1), (1, 1)]) == det(M([[2, 1], [1, 1]])) == 1
    assert det([]) == 1
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        det(IntMatrix((), 3))
    with pytest.raises(TypeError):
        det([[Fraction(1, 2)]])


def test_lattice_index_pinned():
    assert lattice_index(M([[2, 0], [0, 2]]), identity(2)) == 4
    assert lattice_index(identity(2), identity(2)) == 1
    assert lattice_index(M([[1, 1], [1, -1]]), identity(2)) == 2


def test_lattice_index_infinite_and_outside():
    assert lattice_index(M([[1, 0]]), identity(2)) is None
    with pytest.raises(ValueError):
        lattice_index(identity(2), M([[2, 0], [0, 2]]))  # 1/2-integral coords
    with pytest.raises(ValueError):
        lattice_index(M([[0, 0, 1]]), M([[1, 0, 0], [0, 1, 0]]))


def test_lattice_index_sublattice_of_sublattice():
    # [Z<(2,0),(0,3)> : Z<(4,0),(0,3)>] = 2 inside the smaller full lattice
    assert lattice_index(M([[4, 0], [0, 3]]), M([[2, 0], [0, 3]])) == 2


def test_det_and_rank():
    assert det(M([[2, 1], [1, 1]])) == 1
    assert det(M([[2, 4], [1, 2]])) == 0
    assert det(M([[0, 1], [1, 0]])) == -1
    assert det(IntMatrix((), 0)) == 1
    assert rational_rank(M([[1, 2], [2, 4], [0, 1]])) == 2
    assert rational_rank(IntMatrix((), 4)) == 0


def test_misc_helpers():
    assert gcd_list([4, 6, 0]) == 2
    assert gcd_list([]) == 0
    assert mat_mul(identity(2), M([[1, 2], [3, 4]])).data == ((1, 2), (3, 4))
    t = M([[1, 2, 3]]).transpose()
    assert t.data == ((1,), (2,), (3,))
    assert IntMatrix((), 2).transpose().rows == 2
