"""Tests for the exact linear algebra core."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomatlas.linalg import (
    Matrix,
    SpanSolver,
    Subspace,
    gram,
    invariant_eigensplit,
    lincomb,
    orthocomplement_in,
    rat,
    rational_roots,
    rref_rows,
    rref_with_transform,
    solve_inclusion_constraint,
    subspace_intersect,
    subspace_sum,
    unit_vec,
    vec,
)


def S(ambient, *vectors):
    return Subspace.span(ambient, [vec(v) for v in vectors])


class TestRref:
    def test_identity_fixed_point(self):
        m = Matrix.identity(3)
        assert rref_rows(m.rows, 3) == (list(m.rows), [0, 1, 2])

    def test_zero_fixed_point(self):
        m = Matrix.zeros(2, 4)
        assert rref_rows(m.rows, 4) == ([], [])

    def test_rank_one_two_by_two(self):
        # hand Gaussian elimination: r2 -= r1/2, normalize r1
        m = Matrix.from_rows([[2, 4], [1, 2]])
        assert rref_rows(m.rows, 2) == ([(1, 2)], [0])

    def test_rank_counts_nonzero_rows(self):
        m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        _, pivots = rref_rows(m.rows, 3)
        assert len(pivots) == 2

    def test_idempotent(self):
        rng = random.Random(20240)
        for _ in range(25):
            rows = [[rat(rng.randint(-4, 4)) for _ in range(4)] for _ in range(3)]
            r1 = rref_rows(rows, 4)
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
        assert a.basis == b.basis


class TestOrthocomplement:
    def test_axis_complement(self):
        w = Subspace.full(2)
        v = S(2, [1, 0])
        assert orthocomplement_in(v, w, Matrix.identity(2)) == S(2, [0, 1])

    def test_self_complement_is_zero(self):
        w = S(3, [1, 0, 0], [0, 1, 1])
        assert orthocomplement_in(w, w, Matrix.identity(3)) == Subspace.zero(3)

    def test_gram_schmidt_step(self):
        # w = span{e1, e1+e2}; removing e1 orthogonally leaves span{e2}
        w = S(2, [1, 0], [1, 1])
        v = S(2, [1, 0])
        assert orthocomplement_in(v, w, Matrix.identity(2)) == S(2, [0, 1])

    def test_not_contained_rejected(self):
        with pytest.raises(ValueError):
            orthocomplement_in(S(2, [0, 1]), S(2, [1, 0]), Matrix.identity(2))

    def test_degenerate_form_rejected(self):
        form = Matrix.from_rows([[1, 0], [0, 0]])
        with pytest.raises(ValueError):
            orthocomplement_in(S(2, [1, 0]), Subspace.full(2), form)

    def test_involution(self):
        rng = random.Random(55)
        form = Matrix.identity(4)
        for _ in range(25):
            w = S(4, *[[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)])
            if w.dim == 0:
                continue
            k = rng.randint(0, w.dim)
            v = Subspace.span(4, w.basis[:k])
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
        return tuple(out)

    def test_whole_algebra_normalizes_itself(self):
        cands = [unit_vec(3, i) for i in range(3)]
        target = Subspace.full(3)
        images = [[self.ad(c, b) for b in target.basis] for c in cands]
        assert solve_inclusion_constraint(cands, images, target) == Subspace.full(3)

    def test_injective_into_zero(self):
        cands = [unit_vec(3, i) for i in range(3)]
        target = Subspace.zero(3)
        # ad(.)E is injective on span{H, F}: solutions must kill both slots
        images = [[self.ad(c, unit_vec(3, 1)), self.ad(c, unit_vec(3, 2))] for c in cands]
        sol = solve_inclusion_constraint(cands, images, target)
        assert sol == Subspace.zero(3)

    def test_borel_normalizer(self):
        # {X : [X, E] in span{E}} = span{H, E}; by hand: [aH+bE+cF, E]
        # = 2aE - cH, so c = 0.
        cands = [unit_vec(3, i) for i in range(3)]
        target = S(3, [0, 1, 0])
        images = [[self.ad(c, vec([0, 1, 0]))] for c in cands]
        sol = solve_inclusion_constraint(cands, images, target)
        assert sol == S(3, [1, 0, 0], [0, 1, 0])
        assert sol.dim == 2


class TestEigensplit:
    def test_diagonal_operator(self):
        m = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 5]])
        parts = invariant_eigensplit(m.apply, Subspace.full(3))
        assert [(mu, sp.dim) for mu, sp in parts] == [(1, 2), (5, 1)]

    def test_rotation_like_operator_rejected(self):
        m = Matrix.from_rows([[0, -1], [1, 0]])  # eigenvalues +-i
        with pytest.raises(ValueError):
            invariant_eigensplit(m.apply, Subspace.full(2))

    def test_nilpotent_rejected(self):
        m = Matrix.from_rows([[0, 1], [0, 0]])
        with pytest.raises(ValueError):
            invariant_eigensplit(m.apply, Subspace.full(2))

    def test_restricted_to_invariant_subspace(self):
        m = Matrix.from_rows([[2, 0, 0], [0, 3, 0], [0, 0, 3]])
        space = S(3, [1, 0, 0], [0, 1, 1])
        parts = invariant_eigensplit(m.apply, space)
        assert [(mu, sp.dim) for mu, sp in parts] == [(2, 1), (3, 1)]

    def test_fractional_eigenvalues(self):
        m = Matrix.from_rows([[rat(1, 2), 0], [0, rat(-3, 4)]])
        parts = invariant_eigensplit(m.apply, Subspace.full(2))
        assert [mu for mu, _ in parts] == [rat(-3, 4), rat(1, 2)]


class TestRationalRoots:
    def test_integer_roots(self):
        # (t-1)(t+2)t = t^3 + t^2 - 2t
        roots, complete = rational_roots([0, -2, 1, 1])
        assert complete and sorted(roots) == [-2, 0, 1]

    def test_fraction_root(self):
        # (2t - 1)(t + 3) = 2t^2 + 5t - 3
        roots, complete = rational_roots([-3, 5, 2])
        assert complete and sorted(roots) == [-3, rat(1, 2)]

    def test_irrational_detected(self):
        roots, complete = rational_roots([-2, 0, 1])  # t^2 - 2
        assert not complete


def test_determinism_bitwise():
    rng = random.Random(4242)
    rows = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(4)]
    runs = []
    for _ in range(2):
        u = S(6, *rows[:2])
        v = S(6, *rows[2:])
        piped = subspace_sum(subspace_intersect(u, v), u)
        runs.append(tuple(piped.basis))
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
    expected = rref_rows(rows, n)
    permuted = data.draw(st.permutations(rows))
    assert rref_rows(permuted, n) == expected
    i = data.draw(st.integers(0, len(rows) - 1))
    scale = data.draw(ENTRY.filter(bool))
    scaled = [[scale * x for x in r] if t == i else r for t, r in enumerate(rows)]
    assert rref_rows(scaled, n) == expected
    coeffs = data.draw(st.lists(st.lists(ENTRY, min_size=len(rows), max_size=len(rows)),
                                max_size=3))
    extra = [lincomb(c, rows, n) for c in coeffs]
    assert rref_rows(rows + extra, n) == expected


@PROPERTY
@given(row_lists())
def test_rref_with_transform_maps_rows_to_reduced_rows(case):
    n, rows = case
    reduced, pivots, transform = rref_with_transform(rows, n)
    assert [lincomb(t, rows, n) for t in transform] == reduced
    assert (reduced[:len(pivots)], pivots) == rref_rows(rows, n)
    assert all(not any(r) for r in reduced[len(pivots):])


@PROPERTY
@given(row_lists(min_rows=1), st.data())
def test_span_solver_coords_round_trip(case, data):
    n, rows = case
    independent = []
    for r in rows:
        if not Subspace.span(n, independent).contains_vector(r):
            independent.append(r)
    solver = SpanSolver(independent, n)
    c = vec(data.draw(st.lists(ENTRY, min_size=len(independent), max_size=len(independent))))
    assert solver.coords(lincomb(c, independent, n)) == c
    span = Subspace.span(n, independent)
    for u in (unit_vec(n, t) for t in range(n)):
        if not span.contains_vector(u):
            with pytest.raises(ValueError):
                solver.coords(u)


@PROPERTY
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(row_lists(n), row_lists(n))))
def test_sum_and_intersection_dimensions(cases):
    (n, rows_u), (_, rows_v) = cases
    u, v = Subspace.span(n, rows_u), Subspace.span(n, rows_v)
    s, i = subspace_sum(u, v), subspace_intersect(u, v)
    assert s.dim + i.dim == u.dim + v.dim
    assert s.contains(u) and s.contains(v) and u.contains(i) and v.contains(i)


@PROPERTY
@given(row_lists(min_rows=1), st.data())
def test_orthocomplement_dimension_and_orthogonality(case, data):
    n, rows = case
    w = Subspace.span(n, rows)
    k = data.draw(st.integers(0, w.dim))
    coeffs = data.draw(st.lists(st.lists(ENTRY, min_size=w.dim, max_size=w.dim),
                                min_size=k, max_size=k))
    v = Subspace.span(n, [w.from_coords(c) for c in coeffs])
    # a positive definite form A^T A + I with a small integer A
    a = Matrix.from_rows(data.draw(st.lists(st.lists(ENTRY, min_size=n, max_size=n),
                                            min_size=n, max_size=n)))
    form = a.transpose() @ a + Matrix.identity(n)
    c = orthocomplement_in(v, w, form)
    assert c.dim == w.dim - v.dim
    assert w.contains(c)
    assert all(x == 0 for row in gram(form, c.basis, v.basis) for x in row)
