"""Tests for the exact linear algebra core."""

import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cohomatlas import linalg as linalg_module
from cohomatlas.linalg import (
    Matrix,
    SpanSolver,
    Subspace,
    disjoint_sum,
    kernel_rows,
    orthocomplement_in,
    rat,
    rref_rows,
    rref_with_transform,
    solve_inclusion_constraint,
    subspace_intersect,
    subspace_sum,
)

from dense_reference import (apply, as_sparse, basis, coords_of, dense, from_coords, identity,
                             mat, msum, product, sparse, to_matrix, transpose, vdot)


# dense vector helpers the package no longer needs, kept for the tests


def zero_vec(n: int) -> tuple:
    return (0,) * n


def unit_vec(n: int, i: int) -> tuple:
    return tuple(int(j == i) for j in range(n))


def vadd(u, v) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def lincomb(coeffs, rows, n: int) -> tuple:
    """sum(coeffs[i] * rows[i]) as a dense vector of length n."""
    out = [0] * n
    for c, row in zip(coeffs, rows):
        if c:
            for j, x in enumerate(row):
                if x:
                    out[j] += c * x
    return tuple(out)


def vec(entries) -> tuple:
    """An exact rational vector."""
    return tuple(rat(x) for x in entries)


def S(ambient, *vectors):
    return Subspace.span(ambient, [sparse(vec(v)) for v in vectors])


def divided(result, n: int):
    """rref_rows's (rows, pivots) as the rational loop gives them: each row
    divided by its pivot value, as a dense tuple of length n.  Asserts first
    that each row is a primitive sparse integer row with a positive pivot."""
    rows, pivots = result
    assert len(rows) == len(pivots)
    out = []
    for row, c in zip(rows, pivots):
        assert all(type(x) is int and x for x in row.values())
        assert row[c] > 0 and math.gcd(*row.values()) == 1
        out.append(tuple(Fraction(row.get(j, 0), row[c]) for j in range(n)))
    return out, pivots


def rational_transform(result, n: int, m: int):
    """rref_with_transform's (reduced, pivots, transform) sparse integer rows
    as the rational loop gives them: each pivot row [rref | T] divided by its
    pivot value, and every row a dense tuple, of length n or m."""
    reduced, pivots, transform = result
    scales = [row[c] for row, c in zip(reduced, pivots)] + [1] * (len(reduced) - len(pivots))

    def divide(rows, width):
        return [tuple(Fraction(row.get(j, 0), d) for j in range(width))
                for row, d in zip(rows, scales)]

    return divide(reduced, n), pivots, divide(transform, m)


def int_iff_integral(x) -> bool:
    """The core's scalar convention: an int when integral, a Fraction only
    when the denominator is not 1, and never a float."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


class TestRref:
    def test_identity_fixed_point(self):
        m = identity(3)
        assert rref_rows(as_sparse(m), 3) == ([{0: 1}, {1: 1}, {2: 1}], [0, 1, 2])
        assert divided(rref_rows(as_sparse(m), 3), 3) == (list(m), [0, 1, 2])

    def test_zero_fixed_point(self):
        m = [(0,) * 4] * 2
        assert rref_rows(as_sparse(m), 4) == ([], [])

    def test_rank_one_two_by_two(self):
        # hand Gaussian elimination: r2 -= r1/2, normalize r1
        m = mat([[2, 4], [1, 2]])
        assert rref_rows(as_sparse(m), 2) == ([{0: 1, 1: 2}], [0])
        assert divided(rref_rows(as_sparse(m), 2), 2) == ([(1, 2)], [0])

    def test_rank_counts_nonzero_rows(self):
        m = mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        _, pivots = rref_rows(as_sparse(m), 3)
        assert len(pivots) == 2

    def test_idempotent(self):
        rng = random.Random(20240)
        for _ in range(25):
            rows = [[rat(rng.randint(-4, 4)) for _ in range(4)] for _ in range(3)]
            r1 = rref_rows(as_sparse(rows), 4)
            assert rref_rows(r1[0], 4) == r1


class TestSubspaceLattice:
    def test_sum_of_axes(self):
        u = S(3, [1, 0, 0])
        v = S(3, [0, 1, 0])
        assert subspace_sum(u, v) == S(3, [1, 0, 0], [0, 1, 0])

    def test_sum_idempotent(self):
        v = S(3, [1, 2, 3], [0, 1, 1])
        assert subspace_sum(v, v) == v

    def test_sum_spans_plane(self):
        # rank of the stacked basis [[1,1],[1,-1]] is 2
        u = S(2, [1, 1])
        v = S(2, [1, -1])
        assert subspace_sum(u, v) == Subspace.full(2)

    def test_intersect_coordinate_planes(self):
        u = S(3, [1, 0, 0], [0, 1, 0])
        v = S(3, [0, 1, 0], [0, 0, 1])
        assert subspace_intersect(u, v) == S(3, [0, 1, 0])

    def test_intersect_with_zero(self):
        v = S(3, [1, 2, 3])
        assert subspace_intersect(v, Subspace.zero(3)) == Subspace.zero(3)

    def test_intersect_line(self):
        # solving x*(e1+e2) + y*e3 = a*e1 + b*e2 forces y=0, x=a=b
        u = S(3, [1, 1, 0], [0, 0, 1])
        v = S(3, [1, 0, 0], [0, 1, 0])
        assert subspace_intersect(u, v) == S(3, [1, 1, 0])

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            subspace_sum(S(2, [1, 0]), S(3, [1, 0, 0]))
        with pytest.raises(ValueError):
            subspace_intersect(S(2, [1, 0]), S(3, [1, 0, 0]))

    def test_dimension_formula_randomized(self):
        rng = random.Random(987)
        for _ in range(40):
            n = rng.randint(1, 5)
            u = S(n, *[[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))])
            v = S(n, *[[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))])
            s = subspace_sum(u, v)
            i = subspace_intersect(u, v)
            assert s.dim + i.dim == u.dim + v.dim
            assert s.contains(u) and s.contains(v)
            assert u.contains(i) and v.contains(i)

    def test_canonical_equality(self):
        a = S(3, [1, 1, 0], [0, 2, 2])
        b = S(3, [2, 2, 0], [1, 2, 1])
        assert a == b
        assert basis(a) == basis(b)


class TestOrthocomplement:
    def test_axis_complement(self):
        w = Subspace.full(2)
        v = S(2, [1, 0])
        assert orthocomplement_in(v, w, to_matrix(identity(2))) == S(2, [0, 1])

    def test_self_complement_is_zero(self):
        w = S(3, [1, 0, 0], [0, 1, 1])
        assert orthocomplement_in(w, w, to_matrix(identity(3))) == Subspace.zero(3)

    def test_gram_schmidt_step(self):
        # w = span{e1, e1+e2}; removing e1 orthogonally leaves span{e2}
        w = S(2, [1, 0], [1, 1])
        v = S(2, [1, 0])
        assert orthocomplement_in(v, w, to_matrix(identity(2))) == S(2, [0, 1])

    def test_not_contained_rejected(self):
        with pytest.raises(ValueError):
            orthocomplement_in(S(2, [0, 1]), S(2, [1, 0]), to_matrix(identity(2)))

    def test_degenerate_form_rejected(self):
        form = to_matrix(mat([[1, 0], [0, 0]]))
        with pytest.raises(ValueError):
            orthocomplement_in(S(2, [1, 0]), Subspace.full(2), form)

    def test_indefinite_form_rejected(self):
        # nondegenerate on Q^2, but not positive definite
        form = to_matrix(mat([[1, 0], [0, -1]]))
        with pytest.raises(ValueError, match="not positive definite"):
            orthocomplement_in(S(2, [1, 0]), Subspace.full(2), form)

    def test_involution(self):
        rng = random.Random(55)
        form = to_matrix(identity(4))
        for _ in range(25):
            w = S(4, *[[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)])
            if w.dim == 0:
                continue
            k = rng.randint(0, w.dim)
            v = Subspace.span(4, as_sparse(basis(w)[:k]))
            c = orthocomplement_in(v, w, form)
            assert subspace_sum(c, v) == w
            assert orthocomplement_in(c, w, form) == v


class TestInclusionSolver:
    # sl2 with ordered basis (H, E, F): [H,E]=2E, [H,F]=-2F, [E,F]=H
    BRACKETS = {
        (0, 1): (0, 2, 0),
        (1, 0): (0, -2, 0),
        (0, 2): (0, 0, -2),
        (2, 0): (0, 0, 2),
        (1, 2): (1, 0, 0),
        (2, 1): (-1, 0, 0),
    }

    def ad(self, x, y):
        out = [rat(0)] * 3
        for (i, j), w in self.BRACKETS.items():
            c = x[i] * y[j]
            if c:
                for k in range(3):
                    out[k] += c * rat(w[k])
        return sparse(out)

    def test_whole_algebra_normalizes_itself(self):
        cands = Subspace.span(3, as_sparse(unit_vec(3, i) for i in range(3)))
        target = Subspace.full(3)
        images = [[self.ad(c, b) for b in basis(target)] for c in basis(cands)]
        assert solve_inclusion_constraint(cands, images, target) == Subspace.full(3)

    def test_injective_into_zero(self):
        cands = Subspace.span(3, as_sparse(unit_vec(3, i) for i in range(3)))
        target = Subspace.zero(3)
        # ad(.)E is injective on span{H, F}: solutions must kill both slots
        images = [[self.ad(c, unit_vec(3, 1)), self.ad(c, unit_vec(3, 2))] for c in basis(cands)]
        sol = solve_inclusion_constraint(cands, images, target)
        assert sol == Subspace.zero(3)

    def test_borel_normalizer(self):
        # {X : [X, E] in span{E}} = span{H, E}; by hand: [aH+bE+cF, E]
        # = 2aE - cH, so c = 0.
        cands = Subspace.span(3, as_sparse(unit_vec(3, i) for i in range(3)))
        target = S(3, [0, 1, 0])
        images = [[self.ad(c, vec([0, 1, 0]))] for c in basis(cands)]
        sol = solve_inclusion_constraint(cands, images, target)
        assert sol == S(3, [1, 0, 0], [0, 1, 0])
        assert sol.dim == 2

    def test_no_candidates_give_the_zero_subspace_of_their_ambient(self):
        assert solve_inclusion_constraint(Subspace.zero(3), [], Subspace.zero(1)) == \
            Subspace.zero(3)


@pytest.mark.parametrize("vectors", [
    [{5: 1}],  # past the end, never a pivot
    [{0: 1, 5: 1}],  # past the end, in a pivot row
    [{0: 1, 5: 1}, {0: 1}],  # past the end, in a row left below the pivots
    [{1: 1}, {-1: 2}],  # a negative index
])
def test_span_rejects_an_index_outside_the_ambient_dimension(vectors):
    with pytest.raises(ValueError, match="vector length does not match ambient dimension"):
        Subspace.span(2, vectors)


@pytest.mark.parametrize("target", [Subspace.zero(2), Subspace.full(2)])
@pytest.mark.parametrize("image", [{5: 1}, {-1: 1}, {0: 1, 2: 1}])
def test_solver_rejects_an_image_outside_the_target_ambient(image, target):
    with pytest.raises(ValueError, match="image dimension does not match target ambient"):
        solve_inclusion_constraint(Subspace.full(1), [[image]], target)


@pytest.mark.parametrize("rows", [
    [{0: 1, 2: 5}, {1: 1}],  # past the end, where the transform block of two rows starts
    [{0: 1, 3: 1}],  # past the end, in a pivot row
    [{3: 1}],  # past the end, never a pivot
    [{-1: 1}],  # a negative index
    [{1: 1}, {-1: 2, 0: 1}],  # a negative index beside an index in range
])
@pytest.mark.parametrize("entry", [
    lambda rows: SpanSolver(rows, 2),
    lambda rows: rref_with_transform(rows, 2),
    lambda rows: rref_rows(rows, 2),
    lambda rows: kernel_rows(rows, 2),
], ids=["SpanSolver", "rref_with_transform", "rref_rows", "kernel_rows"])
def test_eliminations_reject_an_index_outside_their_columns(entry, rows):
    with pytest.raises(ValueError, match="vector length does not match ambient dimension"):
        entry(rows)


@pytest.mark.parametrize("v", [{-1: 1}, {2: 1}, {0: 1, 5: 3}])
def test_matrix_apply_rejects_an_index_outside_its_columns(v):
    m = Matrix(({0: 1}, {1: 2}))
    with pytest.raises(ValueError, match="vector length does not match ambient dimension"):
        m.apply(v)
    assert m.apply({0: 3, 1: 1}) == {0: 3, 1: 2}


def test_pivot_values_and_basis_scales_read_the_canonical_rows():
    sub = Subspace.span(4, [{0: 2, 2: 1}, {1: 3, 3: 1}])
    assert sub.rows == ({0: 2, 2: 1}, {1: 3, 3: 1})
    assert sub.pivot_values == (2, 3)
    assert sub.basis_scales == (3, 2)
    assert Subspace.zero(4).pivot_values == Subspace.zero(4).basis_scales == ()


def test_determinism_bitwise():
    rng = random.Random(4242)
    rows = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(4)]
    runs = []
    for _ in range(2):
        u = S(6, *rows[:2])
        v = S(6, *rows[2:])
        piped = subspace_sum(subspace_intersect(u, v), u)
        runs.append(tuple(basis(piped)))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# properties of the elimination kernel and what is built on it

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)
ENTRY = st.integers(-3, 3)


@st.composite
def row_lists(draw, ncols=None, min_rows=0, max_rows=5):
    """(ncols, rows): a few rows of small integers, as exact vectors."""
    n = draw(st.integers(1, 5)) if ncols is None else ncols
    rows = draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n),
                         min_size=min_rows, max_size=max_rows))
    return n, [vec(r) for r in rows]


@PROPERTY
@given(row_lists(min_rows=1), st.data())
def test_rref_rows_depends_only_on_the_row_space(case, data):
    n, rows = case
    expected = rref_rows(as_sparse(rows), n)
    permuted = data.draw(st.permutations(rows))
    assert rref_rows(as_sparse(permuted), n) == expected
    i = data.draw(st.integers(0, len(rows) - 1))
    scale = data.draw(ENTRY.filter(bool))
    scaled = [[scale * x for x in r] if t == i else r for t, r in enumerate(rows)]
    assert rref_rows(as_sparse(scaled), n) == expected
    coeffs = data.draw(st.lists(st.lists(ENTRY, min_size=len(rows), max_size=len(rows)),
                                max_size=3))
    extra = [lincomb(c, rows, n) for c in coeffs]
    assert rref_rows(as_sparse(rows + extra), n) == expected


def independent(rows, n):
    """The rows that are not in the span of the rows before them."""
    out = []
    for r in rows:
        if not Subspace.span(n, as_sparse(out)).contains_vector(sparse(r)):
            out.append(r)
    return out


@PROPERTY
@given(row_lists())
def test_rref_with_transform_maps_rows_to_reduced_rows(case):
    n, rows = case
    result = rref_with_transform(as_sparse(rows), n)
    assert [lincomb(dense(t, len(rows)), rows, n) for t in result[2]] == \
        [dense(r, n) for r in result[0]]
    reduced, pivots, transform = rational_transform(result, n, len(rows))
    assert [lincomb(t, rows, n) for t in transform] == reduced
    assert (reduced[:len(pivots)], pivots) == divided(rref_rows(as_sparse(rows), n), n)
    assert all(not any(r) for r in reduced[len(pivots):])


@PROPERTY
@given(row_lists(min_rows=1), st.data())
def test_span_solver_coords_round_trip(case, data):
    n, rows = case
    basis = independent(rows, n)
    solver = SpanSolver(as_sparse(basis), n)
    c = vec(data.draw(st.lists(ENTRY, min_size=len(basis), max_size=len(basis))))
    coords = solver.coords(sparse(lincomb(c, basis, n)))
    assert dense(coords, len(c)) == c
    assert all(int_iff_integral(x) for x in coords.values())
    span = Subspace.span(n, as_sparse(basis))
    for u in ({t: 1} for t in range(n)):
        if not span.contains_vector(u):
            with pytest.raises(ValueError):
                solver.coords(u)


@PROPERTY
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(row_lists(n), row_lists(n))))
def test_sum_and_intersection_dimensions(cases):
    (n, rows_u), (_, rows_v) = cases
    u, v = Subspace.span(n, as_sparse(rows_u)), Subspace.span(n, as_sparse(rows_v))
    s, i = subspace_sum(u, v), subspace_intersect(u, v)
    assert s.dim + i.dim == u.dim + v.dim
    assert s.contains(u) and s.contains(v) and u.contains(i) and v.contains(i)


@PROPERTY
@given(row_lists(min_rows=1), st.data())
def test_orthocomplement_dimension_and_orthogonality(case, data):
    n, rows = case
    w = Subspace.span(n, as_sparse(rows))
    k = data.draw(st.integers(0, w.dim))
    coeffs = data.draw(st.lists(st.lists(ENTRY, min_size=w.dim, max_size=w.dim),
                                min_size=k, max_size=k))
    v = Subspace.span(n, as_sparse(from_coords(w, c) for c in coeffs))
    # a positive definite form A^T A + I with a small integer A
    a = mat(data.draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n),
                               min_size=n, max_size=n)))
    form = to_matrix(msum(product(transpose(a), a), identity(n)))
    c = orthocomplement_in(v, w, form)
    assert c.dim == w.dim - v.dim
    assert w.contains(c)
    assert all(vdot(x, apply(form, y)) == 0 for x in basis(c) for y in basis(v))


def determinant(rows):
    """Exact determinant by cofactor expansion along the first row."""
    if not rows:
        return Fraction(1)
    return sum(((-1) ** j * x * determinant([r[:j] + r[j + 1:] for r in rows[1:]])
                for j, x in enumerate(rows[0]) if x), Fraction(0))


@st.composite
def symmetric_forms(draw):
    """Symmetric integer matrices: A^T A + I (definite), A^T A (semidefinite
    when A is singular), A + A^T and A^T A - cI (often indefinite)."""
    n = draw(st.integers(1, 5))
    a = mat(draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n),
                          min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["gram+I", "gram", "sum", "gram-cI"]))
    gram = product(transpose(a), a)
    if kind == "gram+I":
        return msum(gram, identity(n))
    if kind == "gram":
        return gram
    if kind == "sum":
        return msum(a, transpose(a))
    return msum(gram, identity(n, -draw(st.integers(1, 4))))


@PROPERTY
@given(symmetric_forms())
def test_positive_definite_agrees_with_sylvesters_criterion(form):
    rows = [list(r) for r in form]
    minors = [determinant([r[:k] for r in rows[:k]]) for k in range(1, len(form) + 1)]
    assert to_matrix(form).is_positive_definite == all(m > 0 for m in minors)


def test_positive_definite_needs_a_symmetric_matrix():
    # the symmetric part diag(1, 1) + (1/2)(E_12 + E_21) is positive definite
    assert not to_matrix(mat([[1, 1], [0, 1]])).is_positive_definite
    assert to_matrix(mat([[2, 1], [1, 1]])).is_positive_definite


def test_positive_definite_divides_exactly_on_int_entries():
    # the second pivot is (N - 1) - (N - 1)^2 / N = (N - 1) / N > 0; a float
    # quotient rounds (N - 1)^2 / N to N - 1 and the pivot to 0
    n = 10 ** 17
    assert to_matrix(((n, n - 1), (n - 1, n - 1))).is_positive_definite


# ---------------------------------------------------------------------------
# the fraction-free kernel and the sparse paths against the rational loops
# they replaced, kept here as references


def reference_rref_with_transform(rows, ncols):
    """Rational Gauss-Jordan on [rows | I]: (reduced rows, pivots, T rows)."""
    m = len(rows)
    work = [list(r) + list(unit_vec(m, i)) for i, r in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return ([tuple(row[:ncols]) for row in work], pivots,
            [tuple(row[ncols:]) for row in work])


def reference_insertion_with_transform(rows, ncols):
    """Rational elimination by insertion on [rows | I]: each row in turn is
    reduced against the pivot rows so far; a row left nonzero below ncols
    becomes a pivot row with pivot 1 at its leftmost column, which is cleared
    from the earlier pivot rows.  (reduced rows, pivots, T rows), the pivot
    rows in pivot order, then the zero rows in input order."""
    m = len(rows)
    by_pivot, zero = {}, []
    for i, r in enumerate(rows):
        row = list(r) + list(unit_vec(m, i))
        for c, prow in by_pivot.items():
            f = row[c]
            row = [a - f * b for a, b in zip(row, prow)]
        c = next((c for c in range(ncols) if row[c]), None)
        if c is None:
            zero.append(row)
            continue
        inv = 1 / row[c]
        row = [x * inv for x in row]
        for p, prow in by_pivot.items():
            f = prow[c]
            by_pivot[p] = [a - f * b for a, b in zip(prow, row)]
        by_pivot[c] = row
    pivots = sorted(by_pivot)
    work = [by_pivot[c] for c in pivots] + zero
    return ([tuple(row[:ncols]) for row in work], pivots,
            [tuple(row[ncols:]) for row in work])


def reference_rref_rows(rows, ncols):
    reduced, pivots, _ = reference_rref_with_transform(rows, ncols)
    return reduced[:len(pivots)], pivots


def reference_solve_inclusion_constraint(candidates, images, target):
    """The equations as dot products of each image with the normals of
    target; images[a] are the images of the canonical row a of candidates."""
    m, n, amb = candidates.dim, target.ambient_dim, candidates.ambient_dim
    if target.dim == 0:
        normals = [unit_vec(n, i) for i in range(n)]
    else:
        normals = [dense(x, n) for x in kernel_rows(as_sparse(basis(target)), n)]
    equations = [tuple(vdot(images[a][s], nv) for a in range(m))
                 for s in range(len(images[0]) if images else 0) for nv in normals]
    ker = [dense(x, m) for x in kernel_rows(as_sparse(equations), m)] if equations else \
        [unit_vec(m, i) for i in range(m)]
    rows = [dense(row, amb) for row in candidates.rows]
    return Subspace.span(amb, as_sparse(lincomb(x, rows, amb) for x in ker))


def reference_subspace_intersect(u, v):
    """The kernel of the stacked transpose [U^T | -V^T]: kernel elements
    (x|y) satisfy x U = y V, so x U runs over the intersection."""
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(u.ambient_dim)
    p, q = u.dim, v.dim
    bu, bv = basis(u), basis(v)
    stacked = [tuple(bu[i][j] for i in range(p)) + tuple(-bv[i][j] for i in range(q))
               for j in range(u.ambient_dim)]
    ker = [dense(x, p + q) for x in kernel_rows(as_sparse(stacked), p + q)]
    return Subspace.span(u.ambient_dim, as_sparse(from_coords(u, k[:p]) for k in ker))


RATIONAL = st.one_of(st.just(Fraction(0)), st.fractions(-4, 4, max_denominator=6))


def rational_vectors(n, min_size=0, max_size=4):
    return st.lists(st.lists(RATIONAL, min_size=n, max_size=n).map(tuple),
                    min_size=min_size, max_size=max_size)


@st.composite
def rational_rows(draw):
    """(ncols, rows): rationals with mixed denominators, shuffled together with
    zero rows and rows that depend on the others."""
    n = draw(st.integers(1, 6))
    base = draw(rational_vectors(n))
    coeffs = draw(rational_vectors(len(base), max_size=2))
    rows = base + [lincomb(c, base, n) for c in coeffs]
    rows += [zero_vec(n)] * draw(st.integers(0, 2))
    return n, draw(st.permutations(rows))


@PROPERTY
@given(rational_rows())
def test_rref_rows_matches_the_rational_loop(case):
    n, rows = case
    assert divided(rref_rows(as_sparse(rows), n), n) == reference_rref_rows(rows, n)


@PROPERTY
@given(rational_rows())
def test_rref_with_transform_matches_the_rational_loop(case):
    n, rows = case
    reduced, pivots, transform = rational_transform(rref_with_transform(as_sparse(rows), n), n,
                                                    len(rows))
    ref_reduced, ref_pivots, ref_transform = reference_rref_with_transform(rows, n)
    assert (reduced, pivots) == (ref_reduced, ref_pivots)
    r = len(pivots)
    if r == len(rows):
        assert transform == ref_transform
    ref_transform = reference_insertion_with_transform(rows, n)[2]
    assert transform[:r] == ref_transform[:r]
    # the transform rows of zero rows agree up to a nonzero factor
    for t, ref in zip(transform[r:], ref_transform[r:]):
        j = next(j for j, x in enumerate(ref) if x)
        assert t[j] and tuple(Fraction(ref[j]) / t[j] * x for x in t) == ref
    assert [lincomb(t, rows, n) for t in transform] == reduced


@PROPERTY
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(RATIONAL, min_size=n, max_size=n), min_size=n, max_size=n),
    rational_vectors(n, min_size=1, max_size=1))))
def test_matrix_apply_matches_dense_products(case):
    # a Matrix is square, held by its sparse rows
    n, rows, (v,) = case
    rows[0] = [Fraction(0)] * n  # a zero row
    m = to_matrix(rows)
    expected = tuple(sum((a * b for a, b in zip(r, v)), Fraction(0)) for r in rows)
    assert apply(m, v) == expected
    assert all(type(x) in (int, Fraction) for x in m.apply(sparse(v)).values())
    # an integer matrix keeps an integer vector integer
    int_rows = [[x.numerator for x in r] for r in rows]
    ints = to_matrix(int_rows)
    iv = tuple(x.numerator for x in v)
    assert apply(ints, iv) == tuple(sum(a * b for a, b in zip(r, iv)) for r in int_rows)
    assert all(type(x) is int for x in apply(ints, iv))


@PROPERTY
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.sampled_from(["zero", "full", "between"]),
    rational_vectors(n, min_size=1, max_size=3), st.integers(1, 5), st.integers(1, 3),
    st.data())))
def test_inclusion_solver_matches_the_normals_reference(case):
    n, kind, target_rows, m, nslots, data = case
    target = {"zero": Subspace.zero(n), "full": Subspace.full(n),
              "between": Subspace.span(n, as_sparse(target_rows))}[kind]
    candidates = Subspace.span(3, as_sparse(data.draw(rational_vectors(3, min_size=m,
                                                                       max_size=m))))
    images = []
    for _ in candidates.rows:
        slots = []
        for _ in range(nslots):
            inside = data.draw(rational_vectors(target.dim, min_size=1, max_size=1))[0]
            w = lincomb(inside, basis(target), n)
            if data.draw(st.booleans()):  # leave the target in some slots
                w = tuple(a + b for a, b in
                          zip(w, data.draw(rational_vectors(n, min_size=1, max_size=1))[0]))
            slots.append(w)
        images.append(slots)
    expected = reference_solve_inclusion_constraint(candidates, images, target)
    assert solve_inclusion_constraint(candidates, list(map(as_sparse, images)), target) == \
        expected


@PROPERTY
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.sampled_from(["zero", "full", "between"]),
    st.sampled_from(["zero", "full", "between", "nested", "disjoint"]),
    rational_vectors(n, max_size=4), rational_vectors(n, max_size=4), st.data())))
def test_intersection_matches_the_stacked_transpose_reference(case):
    n, kind_u, kind_v, rows_u, rows_v, data = case
    spaces = {"zero": Subspace.zero(n), "full": Subspace.full(n)}
    u = spaces.get(kind_u) or Subspace.span(n, as_sparse(rows_u))
    if kind_v == "nested":  # a subspace of u
        coeffs = data.draw(rational_vectors(u.dim, max_size=3))
        v = Subspace.span(n, as_sparse(from_coords(u, c) for c in coeffs))
    elif kind_v == "disjoint":  # unit vectors off u's pivots meet u in 0 only
        free = [j for j in range(n) if j not in u.pivots]
        picked = data.draw(st.lists(st.sampled_from(free))) if free else []
        v = Subspace.span(n, as_sparse(unit_vec(n, j) for j in picked))
    else:
        v = spaces.get(kind_v) or Subspace.span(n, as_sparse(rows_v))
    expected = reference_subspace_intersect(u, v)
    assert subspace_intersect(u, v) == expected == reference_subspace_intersect(v, u)
    assert subspace_intersect(v, u) == expected
    if kind_v == "nested":
        assert expected == v
    if kind_v == "disjoint":
        assert expected.dim == 0


def test_span_of_int_and_str_entries_keeps_integral_values_as_ints():
    sub = Subspace.span(3, as_sparse([[2, "1/2", 0], ["-4", 3, "0"], [0, 0, 1]]))
    assert all(int_iff_integral(x) for row in basis(sub) for x in row)
    assert sub == Subspace.span(3, as_sparse([vec([2, "1/2", 0]), vec(["-4", 3, "0"]),
                                              unit_vec(3, 2)]))
    line = Subspace.span(2, [{0: 3, 1: 6}])
    assert basis(line) == ((1, 2),)
    assert all(int_iff_integral(x) for x in basis(line)[0])
    half = Subspace.span(2, [{0: "4/3", 1: "2/3"}])
    assert basis(half) == ((1, Fraction(1, 2)),)
    assert all(int_iff_integral(x) for x in basis(half)[0])


@st.composite
def spans_and_vectors(draw):
    """(ncols, rows, vector): rational rows as in ``rational_rows`` and one
    rational vector of the same length."""
    n, rows = draw(rational_rows())
    v = draw(rational_vectors(n, min_size=1, max_size=1))[0]
    return n, rows, v


@PROPERTY
@given(rational_rows(), st.data())
def test_span_is_canonical_under_rescaling_and_permutation(case, data):
    n, rows = case
    sub = Subspace.span(n, as_sparse(rows))
    factors = data.draw(st.lists(st.fractions(-5, 5, max_denominator=7).filter(bool),
                                 min_size=len(rows), max_size=len(rows)))
    rescaled = data.draw(st.permutations([tuple(c * x for x in r) for c, r in zip(factors, rows)]))
    other = Subspace.span(n, as_sparse(rescaled))
    assert other == sub and hash(other) == hash(sub)
    assert other.rows == sub.rows and other.pivots == sub.pivots
    for row, c in zip(sub.rows, sub.pivots):
        assert all(type(x) is int and x for x in row.values())
        assert row[c] > 0 and math.gcd(*row.values()) == 1


@PROPERTY
@given(rational_rows())
def test_basis_is_the_rref_of_the_integer_rows(case):
    n, rows = case
    sub = Subspace.span(n, as_sparse(rows))
    assert rref_rows(sub.rows, n) == (list(sub.rows), list(sub.pivots))
    assert list(basis(sub)) == divided(rref_rows(sub.rows, n), n)[0]
    assert list(basis(sub)) == reference_rref_rows(rows, n)[0]
    assert list(sub.pivots) == reference_rref_rows(rows, n)[1]


@PROPERTY
@given(spans_and_vectors(), st.data())
def test_membership_and_coordinates_match_the_rational_loop(case, data):
    n, rows, v = case
    sub = Subspace.span(n, as_sparse(rows))
    reduced, pivots = reference_rref_rows(rows, n)
    # an arbitrary vector lies in the span iff it does not raise the rank
    inside = len(reference_rref_rows(rows + [v], n)[1]) == len(pivots)
    assert sub.contains_vector(sparse(v)) == inside
    # a member has its reference RREF coefficients as coordinates
    coeffs = data.draw(rational_vectors(len(reduced), min_size=1, max_size=1))[0]
    member = lincomb(coeffs, reduced, n)
    assert sub.contains_vector(sparse(member))
    assert coords_of(sub, member) == coeffs
    # a member plus a unit vector off the pivots is no member
    free = [j for j in range(n) if j not in pivots]
    if free:
        outside = vadd(member, unit_vec(n, data.draw(st.sampled_from(free))))
        assert not sub.contains_vector(sparse(outside))
        with pytest.raises(ValueError):
            coords_of(sub, outside)


# sparse inputs: wide rows with a few nonzero entries, as the models give them

NONZERO = st.sampled_from([Fraction(k, q) for k in (-4, -3, -1, 1, 2, 3) for q in (1, 2, 5, 6)])


@st.composite
def sparse_rows(draw):
    """(ncols, rows, as_str): 20 to 80 columns and rows with 1 to 3 nonzero
    Fractions each, on a few shared columns so that they interact, with zero
    rows and repeated (rescaled) rows mixed in; in the "descending" order
    each row's leading column lies left of those before it, so every new
    pivot is cleared from the earlier pivot rows.  as_str asks for the
    entries as the strings Fraction parses."""
    n = draw(st.integers(20, 80))
    pool = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        cols = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        row = [Fraction(0)] * n
        for c in cols:
            row[c] = draw(NONZERO)
        rows.append(tuple(row))
    for row in draw(st.lists(st.sampled_from(rows), max_size=2)):
        scale = draw(NONZERO)
        rows.append(tuple(scale * x for x in row))
    rows += [tuple([Fraction(0)] * n)] * draw(st.integers(0, 2))
    order = draw(st.sampled_from(["shuffled", "descending"]))
    if order == "shuffled":
        rows = draw(st.permutations(rows))
    else:
        rows.sort(key=lambda r: next((j for j, x in enumerate(r) if x), n), reverse=True)
    return n, rows, draw(st.booleans())


def as_strings(rows):
    return [tuple(str(x) for x in r) for r in rows]


@PROPERTY
@given(sparse_rows())
def test_sparse_rows_reduce_as_the_rational_loop(case):
    n, rows, as_str = case
    given_rows = as_sparse(as_strings(rows) if as_str else rows)
    assert divided(rref_rows(given_rows, n), n) == reference_rref_rows(rows, n)
    reduced, pivots, transform = rational_transform(rref_with_transform(given_rows, n), n,
                                                    len(rows))
    ref_reduced, ref_pivots, ref_transform = reference_rref_with_transform(rows, n)
    assert (reduced, pivots) == (ref_reduced, ref_pivots)
    if len(pivots) == len(rows):
        assert transform == ref_transform
    ref_transform = reference_insertion_with_transform(rows, n)[2]
    assert transform[:len(pivots)] == ref_transform[:len(pivots)]
    sub = Subspace.span(n, given_rows)
    assert (list(basis(sub)), list(sub.pivots)) == reference_rref_rows(rows, n)
    assert all(x for row in sub.rows for x in row.values())


@PROPERTY
@given(sparse_rows(), st.data())
def test_sparse_membership_matches_the_rational_loop(case, data):
    n, rows, as_str = case
    sub = Subspace.span(n, as_sparse(as_strings(rows) if as_str else rows))
    reduced, pivots = reference_rref_rows(rows, n)
    coeffs = data.draw(st.lists(st.sampled_from([Fraction(0), Fraction(1), Fraction(-2, 3)]),
                                min_size=len(reduced), max_size=len(reduced)))
    member = lincomb(coeffs, reduced, n)
    assert sub.contains_vector(sparse(member))
    assert coords_of(sub, member) == tuple(coeffs)
    free = [j for j in range(n) if j not in pivots]
    outside = vadd(member, unit_vec(n, data.draw(st.sampled_from(free))))
    assert not sub.contains_vector(sparse(outside))
    with pytest.raises(ValueError):
        coords_of(sub, outside)
    for row in rows:
        assert sub.contains_vector(sparse(row))


@PROPERTY
@given(sparse_rows(), st.integers(1, 4), st.integers(1, 2), st.data())
def test_sparse_inclusion_solver_matches_the_normals_reference(case, m, nslots, data):
    n, rows, _ = case
    target = Subspace.span(n, as_sparse(rows))
    candidates = Subspace.span(m + 1, as_sparse(unit_vec(m + 1, a) for a in range(m)))
    images = []
    for _ in range(m):
        slots = []
        for _ in range(nslots):
            w = data.draw(st.sampled_from(rows))
            if data.draw(st.booleans()):  # leave the target in some slots
                w = vadd(w, unit_vec(n, data.draw(st.integers(0, n - 1))))
            slots.append(w)
        images.append(slots)
    expected = reference_solve_inclusion_constraint(candidates, images, target)
    assert solve_inclusion_constraint(candidates, list(map(as_sparse, images)), target) == \
        expected


# the kernel basis and the order in which the solver reads it


def reference_kernel_rows(rows, ncols):
    """For each free column f of the rational RREF, the vector that is 1 at
    f, -row[f] at the pivot of each reduced row and 0 elsewhere, scaled to
    the primitive integer vector on its line with a positive entry at f."""
    reduced, pivots = reference_rref_rows(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            x[p] = -Fraction(row[f])
        den = math.lcm(*(v.denominator for v in x))
        ints = [v.numerator * (den // v.denominator) for v in x]
        g = math.gcd(*ints)
        basis.append(tuple(v // g for v in ints))
    return basis


@PROPERTY
@given(st.one_of(rational_rows(), sparse_rows().map(lambda case: case[:2])))
def test_kernel_rows_is_one_primitive_vector_per_free_column(case):
    n, rows = case
    sparse_ker = kernel_rows(as_sparse(rows), n)
    assert all(type(x) is dict and all(x.values()) for x in sparse_ker)
    ker = [dense(x, n) for x in sparse_ker]
    assert ker == reference_kernel_rows(rows, n)
    free = [f for f in range(n) if f not in reference_rref_rows(rows, n)[1]]
    assert len(ker) == len(free)
    for x, f in zip(ker, free):
        assert all(type(v) is int for v in x) and math.gcd(*x) == 1
        assert x[f] > 0 and all(x[g] == 0 for g in free if g != f)
        assert not any(vdot(r, x) for r in rows)


def primitive(v: dict) -> dict:
    """A sparse integer vector divided by the gcd of its entries."""
    g = math.gcd(*v.values())
    return {j: x // g for j, x in v.items()}


@PROPERTY
@given(st.one_of(rational_rows(), sparse_rows().map(lambda case: case[:2])),
       st.integers(1, 4), st.integers(1, 2), st.data())
def test_the_solvers_combinations_are_the_canonical_rows_of_its_answer(case, k, nslots, data):
    n, rows = case
    candidates = Subspace.span(n, as_sparse(rows))
    assume(candidates.dim)
    target = Subspace.span(k, as_sparse(data.draw(rational_vectors(k, max_size=k))))
    images = []
    for _ in candidates.rows:
        slots = []
        for _ in range(nslots):
            w = data.draw(rational_vectors(k, min_size=1, max_size=1))[0]
            if target.dim and data.draw(st.booleans()):  # some images in the target
                coeffs = data.draw(rational_vectors(target.dim, min_size=1, max_size=1))[0]
                w = lincomb(coeffs, basis(target), k)
            slots.append(w)
        images.append(slots)
    combinations = []
    combination = linalg_module.combination

    def recorded(coeffs, rows):
        out = combination(coeffs, rows)
        combinations.append(out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg_module, "combination", recorded)
        answer = solve_inclusion_constraint(candidates, list(map(as_sparse, images)), target)
    assert answer == reference_solve_inclusion_constraint(candidates, images, target)
    if combinations:
        # already reduced, with positive leads, and in the answer's order: the
        # closing span has no row operation left to do
        assert [primitive(c) for c in combinations] == list(answer.rows)
    else:  # no equation, or only the zero solution
        assert answer in (candidates, Subspace.zero(n))


@st.composite
def disjoint_parts(draw):
    """(n, parts): subspaces of Q^n, each spanned by a few small integer rows
    on its own set of columns; the sets interleave and some columns belong
    to no part."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, 4))
    owner = draw(st.lists(st.integers(0, k), min_size=n, max_size=n))  # k: no part
    parts = []
    for g in range(k):
        cols = [j for j in range(n) if owner[j] == g]
        rows = draw(st.lists(st.lists(ENTRY, min_size=len(cols), max_size=len(cols)),
                             max_size=4))
        parts.append(Subspace.span(n, [{j: x for j, x in zip(cols, row) if x} for row in rows]))
    return n, draw(st.permutations(parts))


@PROPERTY
@given(disjoint_parts())
def test_disjoint_sum_is_the_span_of_the_rows(case):
    n, parts = case
    total = disjoint_sum(n, parts)
    reference = Subspace.span(n, [row for part in parts for row in part.rows])
    assert (total.rows, total.pivots) == (reference.rows, reference.pivots)


@PROPERTY
@given(disjoint_parts(), st.data())
def test_disjoint_sum_rejects_parts_whose_supports_meet(case, data):
    n, parts = case
    nonzero = [part for part in parts if part.dim]
    assume(nonzero)
    # a line through a column of one part's support, and maybe another column
    col = data.draw(st.sampled_from(sorted(data.draw(st.sampled_from(nonzero)).support)))
    row = {col: data.draw(st.sampled_from([-2, -1, 1, 3]))}
    row[data.draw(st.integers(0, n - 1))] = 1
    line = Subspace.span(n, [row])
    with pytest.raises(ValueError, match="supports of the summands meet"):
        disjoint_sum(n, parts + [line])
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        disjoint_sum(n + 1, parts)


@PROPERTY
@given(rational_rows(), st.data())
def test_coordinates_are_the_nonzeros_of_the_reference_coordinates(case, data):
    # coords_of reads a member's coordinates over the rational RREF rows, and
    # SpanSolver.coords over an independent list, both as {i: c} over the
    # nonzero coordinates
    n, rows = case
    sub = Subspace.span(n, as_sparse(rows))
    coeffs = data.draw(rational_vectors(sub.dim, min_size=1, max_size=1))[0]
    member = from_coords(sub, coeffs)
    assert sub.coords_of(sparse(member)) == {i: c for i, c in enumerate(coeffs) if c}
    independent_rows = independent(rows, n)
    if independent_rows:
        solver = SpanSolver(as_sparse(independent_rows), n)
        c = data.draw(rational_vectors(len(independent_rows), min_size=1, max_size=1))[0]
        coords = solver.coords(sparse(lincomb(c, independent_rows, n)))
        assert coords == {i: x for i, x in enumerate(c) if x}
        assert all(int_iff_integral(x) for x in coords.values())


# ---------------------------------------------------------------------------
# the kernel eliminates copies, and its answer depends on the span only


@st.composite
def int_rows(draw):
    """(ncols, rows): sparse int rows, some of them repeated, as the entry
    points hand them to the kernel uncopied when they are primitive."""
    n = draw(st.integers(1, 5))
    rows = as_sparse(draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n), max_size=5)))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    return n, rows


@PROPERTY
@given(st.one_of(int_rows(), sparse_rows().map(lambda case: (case[0], as_sparse(case[1])))))
def test_no_entry_point_changes_its_input_rows(case):
    n, rows = case
    candidates = Subspace.span(n, rows)
    images = [[rows[a % len(rows)]] for a in range(candidates.dim)]
    calls = [
        (Subspace.span, (n, rows)),
        (rref_rows, (rows, n)),
        (kernel_rows, (rows, n)),
        (rref_with_transform, (rows, n)),
        (SpanSolver, (as_sparse(independent(rows, n)), n)),
        (solve_inclusion_constraint, (candidates, images, Subspace.span(n, rows[:1]))),
    ]
    for call, args in calls:
        before = copy.deepcopy(args)
        call(*args)
        assert args == before, call.__name__


@PROPERTY
@given(row_lists(), st.data())
def test_span_depends_on_the_row_space_only(case, data):
    # reversed, and with repeats, zero rows and integer combinations of
    # earlier rows inserted, the rows span the same canonical rows
    n, rows = case
    expected = Subspace.span(n, as_sparse(rows))
    assert Subspace.span(n, as_sparse(rows[::-1])) == expected
    padded = []
    for row in rows:
        padded.append(row)
        for kind in data.draw(st.lists(st.sampled_from(["repeat", "zero", "combination"]),
                                       max_size=2)):
            if kind == "repeat":
                padded.append(data.draw(st.sampled_from(padded)))
            elif kind == "zero":
                padded.append(zero_vec(n))
            else:
                coeffs = data.draw(st.lists(ENTRY, min_size=len(padded), max_size=len(padded)))
                padded.append(lincomb(coeffs, padded, n))
    span = Subspace.span(n, as_sparse(padded))
    assert span == expected and span.pivots == expected.pivots
