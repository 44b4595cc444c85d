"""Tests for the matrix Lie algebra models."""

import itertools

import pytest

from cohomatlas.linalg import Matrix, Q0, Q1, Subspace, is_zero_vec, rat, unit_vec, vec
from cohomatlas.models import LieModel, build_sl, build_so1n, build_su1n, direct_sum


def leading_minors_positive(g: Matrix) -> bool:
    """Exact positive-definiteness test: all pivots of symmetric elimination > 0."""
    n = g.nrows
    work = [list(r) for r in g.rows]
    for k in range(n):
        piv = work[k][k]
        if piv <= 0:
            return False
        for i in range(k + 1, n):
            f = work[i][k] / piv
            if f:
                for j in range(k, n):
                    work[i][j] -= f * work[k][j]
    return True


def E(n, i, j):
    rows = [[Q0] * n for _ in range(n)]
    rows[i][j] = Q1
    return Matrix(tuple(tuple(r) for r in rows))


class TestSl:
    def test_sl2_dims(self):
        g = build_sl(2)
        assert g.dim == 3
        assert g.a_space.dim == 1

    def test_sl4_dims(self):
        g = build_sl(4)
        assert g.dim == 15
        assert g.a_space.dim == 3

    def test_sl3_nilpotent_part(self):
        g = build_sl(3)
        gens = [g.coords(E(3, 0, 1)), g.coords(E(3, 0, 2)), g.coords(E(3, 1, 2))]
        assert g.n_space == Subspace.span(g.dim, gens)
        assert g.n_space.dim == 3

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            build_sl(1)

    def test_classical_bracket(self):
        g = build_sl(2)
        h = g.coords(Matrix.from_rows([[1, 0], [0, -1]]))
        e = g.coords(E(2, 0, 1))
        assert g.bracket(h, e) == tuple(2 * c for c in e)
        assert is_zero_vec(g.bracket(e, e))

    def test_killing_sl2(self):
        # trace of (ad H)^2 over (H, E, F): eigenvalues 0, 2, -2 -> 8
        g = build_sl(2)
        h = g.coords(Matrix.from_rows([[1, 0], [0, -1]]))
        assert g.killing_form(h, h) == 8

    def test_iwasawa_projection_sl2(self):
        g = build_sl(2)
        x = g.coords(E(2, 1, 0))
        xk, xa, xn = g.iwasawa_project(x)
        assert xk == g.coords(E(2, 1, 0) - E(2, 0, 1))
        assert is_zero_vec(xa)
        assert xn == g.coords(E(2, 0, 1))

    def test_iwasawa_projection_fixes_pieces(self):
        g = build_sl(3)
        a = g.a_space.basis[0]
        assert g.iwasawa_project(a) == (tuple([Q0] * g.dim), a, tuple([Q0] * g.dim))
        n = g.n_space.basis[0]
        assert g.iwasawa_project(n) == (tuple([Q0] * g.dim), tuple([Q0] * g.dim), n)


class TestSo1n:
    def test_so12_dims(self):
        g = build_so1n(2)
        assert g.dim == 3
        assert g.a_space.dim == 1
        assert g.n_space.dim == 1

    def test_so13_root_space(self):
        g = build_so1n(3)
        assert g.dim == 6
        # independent oracle: [H, X_u] = X_u by raw matrix arithmetic for the
        # two generators X_u = E_{0,i} + E_{i,0} + E_{1,i} - E_{i,1}, i = 2, 3
        h = E(4, 0, 1) + E(4, 1, 0)
        for i in (2, 3):
            xu = E(4, 0, i) + E(4, i, 0) + E(4, 1, i) - E(4, i, 1)
            comm = h @ xu - xu @ h
            assert comm == xu
            assert g.n_space.contains_vector(g.coords(xu))
        assert g.n_space.dim == 2

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            build_so1n(1)


class TestSu1n:
    def test_su12_dims(self):
        g = build_su1n(2)
        assert g.dim == 8
        assert g.k_space.dim == 4
        assert g.a_space.dim == 1
        assert g.n_space.dim == 3  # 2 from the short root, 1 from the long one

    def test_complex_structure(self):
        g = build_su1n(2)
        j = g.complex_structure
        assert j @ j == Matrix.identity(j.nrows).scale(-1)
        for b in g.basis:
            assert j @ b == b @ j


class TestProducts:
    def test_single_factor(self):
        f = build_so1n(2)
        p = direct_sum([f])
        assert p.dim == f.dim
        assert p.a_space.dim == 1
        assert p.killing == f.killing

    def test_two_hyperbolic_planes(self):
        p = direct_sum([build_so1n(2), build_so1n(2)])
        assert p.dim == 6
        assert p.a_space.dim == 2

    def test_mixed_product(self):
        p = direct_sum([build_sl(2), build_so1n(3)])
        assert p.dim == 9
        assert p.a_space.dim == 2

    def test_cross_blocks_commute_and_are_orthogonal(self):
        p = direct_sum([build_so1n(2), build_sl(2)])
        b0 = p.factor_block(0)
        b1 = p.factor_block(1)
        for x in b0.basis:
            for y in b1.basis:
                assert is_zero_vec(p.bracket(x, y))
                assert p.killing_form(x, y) == 0
                assert p.inner_product(x, y) == 0

    def test_block_forms_match_factors(self):
        f = build_so1n(3)
        p = direct_sum([f, build_sl(2)])
        for i, x in enumerate(f.basis):
            for j, y in enumerate(f.basis):
                xx = p.embed_vector(0, tuple(Q1 if t == i else Q0 for t in range(f.dim)))
                yy = p.embed_vector(0, tuple(Q1 if t == j else Q0 for t in range(f.dim)))
                assert p.killing_form(xx, yy) == f.killing.entry(i, j)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            direct_sum([])


MODELS = {
    "sl2": lambda: build_sl(2),
    "sl3": lambda: build_sl(3),
    "so12": lambda: build_so1n(2),
    "so13": lambda: build_so1n(3),
    "su12": lambda: build_su1n(2),
    "rh2xsl2": lambda: direct_sum([build_so1n(2), build_sl(2)]),
    "ch2xrh2": lambda: direct_sum([build_su1n(2), build_so1n(2)]),
    "sl2xsl2xrh2": lambda: direct_sum([build_sl(2), build_sl(2), build_so1n(2)]),
}


@pytest.fixture(scope="module", params=sorted(MODELS))
def model(request):
    return MODELS[request.param]()


class TestStructuralInvariants:
    def test_jacobi(self, model):
        g = model
        basis = [tuple(Q1 if t == i else Q0 for t in range(g.dim)) for i in range(g.dim)]
        for x, y, z in itertools.combinations(basis, 3):
            s = [Q0] * g.dim
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                t = g.bracket(a, g.bracket(b, c))
                for k in range(g.dim):
                    s[k] += t[k]
            assert is_zero_vec(s)

    def test_theta_is_automorphism(self, model):
        g = model
        basis = [tuple(Q1 if t == i else Q0 for t in range(g.dim)) for i in range(g.dim)]
        for x, y in itertools.combinations(basis, 2):
            lhs = g.theta_apply(g.bracket(x, y))
            rhs = g.bracket(g.theta_apply(x), g.theta_apply(y))
            assert lhs == rhs

    def test_theta_squares_to_identity(self, model):
        g = model
        assert g.theta @ g.theta == Matrix.identity(g.dim)

    def test_killing_invariance(self, model):
        g = model
        basis = [tuple(Q1 if t == i else Q0 for t in range(g.dim)) for i in range(g.dim)]
        for x in basis[: min(4, g.dim)]:
            for y in basis:
                for z in basis:
                    lhs = g.killing_form(g.bracket(x, y), z)
                    rhs = g.killing_form(y, g.bracket(x, z))
                    assert lhs + rhs == 0

    def test_killing_theta_invariant(self, model):
        g = model
        th = g.theta
        assert th.transpose() @ g.killing @ th == g.killing

    def test_inner_product_positive_definite(self, model):
        g = model
        assert g.inner == g.inner.transpose()
        assert leading_minors_positive(g.inner)

    def test_ad_skew_symmetry_identity(self, model):
        # <ad(X)Y, Z> = -<Y, ad(theta X) Z>
        g = model
        basis = [tuple(Q1 if t == i else Q0 for t in range(g.dim)) for i in range(g.dim)]
        for x in basis[: min(3, g.dim)]:
            tx = g.theta_apply(x)
            for y in basis:
                for z in basis:
                    lhs = g.inner_product(g.bracket(x, y), z)
                    rhs = g.inner_product(y, g.bracket(tx, z))
                    assert lhs + rhs == 0

    def test_k_perp_p_and_iwasawa_sum(self, model):
        g = model
        for x in g.k_space.basis:
            for y in g.p_space.basis:
                assert g.inner_product(x, y) == 0
        assert g.k_space.dim + g.p_space.dim == g.dim
        from cohomatlas.linalg import subspace_sum

        kan = subspace_sum(subspace_sum(g.k_space, g.a_space), g.n_space)
        assert kan.dim == g.dim
        assert g.k_space.dim + g.a_space.dim + g.n_space.dim == g.dim

    def test_brackets_are_matrix_commutators(self, model):
        g = model
        basis = [unit_vec(g.dim, i) for i in range(g.dim)]
        for x, bx in zip(basis, g.basis):
            for y, by in zip(basis, g.basis):
                assert g.matrix(g.bracket(x, y)) == bx @ by - by @ bx

    def test_a_abelian_inside_p(self, model):
        g = model
        assert g.p_space.contains(g.a_space)
        for x in g.a_space.basis:
            for y in g.a_space.basis:
                assert is_zero_vec(g.bracket(x, y))


@pytest.mark.parametrize("factors", [
    lambda: [build_so1n(2), build_so1n(3)],
    lambda: [build_sl(3), build_sl(2)],
    lambda: [build_su1n(2), build_so1n(2)],
], ids=["rh2xrh3", "sl3xsl2", "ch2xrh2"])
def test_assembled_product_matches_the_generic_construction(factors):
    pm = direct_sum(factors())
    ref = LieModel(pm.name, pm.basis, pm.a_space.basis, pm.n_space.basis)
    assert pm._struct == ref._struct
    assert pm.theta == ref.theta
    assert pm.killing == ref.killing
    assert pm.inner == ref.inner
    for space in ("k_space", "p_space", "a_space", "n_space"):
        assert getattr(pm, space) == getattr(ref, space)
    for i, b in enumerate(pm.basis):
        assert pm.coords(b) == ref.coords(b) == unit_vec(pm.dim, i)
    x = tuple(rat(i % 5 - 2, 1 + i % 3) for i in range(pm.dim))
    assert pm.matrix(x) == ref.matrix(x)
    assert pm.coords(pm.matrix(x)) == x
    off_block = pm.factors[0].matrix_size
    with pytest.raises(ValueError):
        pm.coords(E(pm.matrix_size, 0, off_block))  # outside the diagonal blocks
    with pytest.raises(ValueError):
        ref.coords(E(pm.matrix_size, 0, off_block))


def test_normalizer_borel_sl2():
    g = build_sl(2)
    e_line = Subspace.span(g.dim, [g.coords(E(2, 0, 1))])
    nz = g.normalizer_in(Subspace.full(g.dim), e_line)
    h = g.coords(Matrix.from_rows([[1, 0], [0, -1]]))
    expected = Subspace.span(g.dim, [h, g.coords(E(2, 0, 1))])
    assert nz == expected


def test_bracket_escape_detected():
    g = build_sl(2)
    with pytest.raises(ValueError):
        g.coords(Matrix.from_rows([[1, 0], [0, 1]]))  # not traceless
