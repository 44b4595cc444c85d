"""Tests for the matrix Lie algebra models."""

import functools
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomatlas import linalg
from cohomatlas.linalg import Subspace, rat
from cohomatlas.models import LieModel, build_sl, build_so1n, build_su1n, direct_sum

from dense_reference import (apply, as_sparse, basis, bracket, commutator, dense, from_entries,
                             from_matrix, identity, inner_product, mat, matrix_of, msum, product,
                             scaled, sparse, to_entries, transpose, vdot)
from span_reference import theta_image


def is_zero_vec(u) -> bool:
    return not any(u)


def unit_vec(n: int, i: int) -> tuple:
    return tuple(int(j == i) for j in range(n))


def leading_minors_positive(g: tuple) -> bool:
    """Exact positive-definiteness test: all pivots of symmetric elimination > 0."""
    n = len(g)
    work = [[rat(x) for x in r] for r in g]
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


def killing(g, x, y):
    """B(x, y) from the model's Killing Gram matrix."""
    return vdot(dense(sparse(x), g.dim), apply(g.killing, y))


def dense_killing_gram(g) -> tuple:
    """The Killing Gram by the loop over all dim^2 pairs of ad matrices, as
    the reference for the sparse one: B(e_i, e_j) = tr(ad e_i ad e_j)."""
    ads = [g._ad_sparse(i) for i in range(g.dim)]
    return tuple(tuple(sum(c * ads[j].get((l, k), 0) for (k, l), c in ads[i].items())
                       for j in range(g.dim)) for i in range(g.dim))


def E(n, i, j) -> tuple:
    """The dense n x n matrix unit at (i, j)."""
    return from_entries({(i, j): 1}, n)


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
        gens = [g.coords(to_entries(E(3, i, j))) for i, j in ((0, 1), (0, 2), (1, 2))]
        assert g.n_space == Subspace.span(g.dim, gens)
        assert g.n_space.dim == 3

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            build_sl(1)

    def test_classical_bracket(self):
        g = build_sl(2)
        h = g.coords(to_entries(mat([[1, 0], [0, -1]])))
        e = g.coords(to_entries(E(2, 0, 1)))
        assert bracket(g, h, e) == tuple(2 * c for c in dense(e, g.dim))
        assert is_zero_vec(bracket(g, e, e))

    def test_killing_sl2(self):
        # trace of (ad H)^2 over (H, E, F): eigenvalues 0, 2, -2 -> 8
        g = build_sl(2)
        h = g.coords(to_entries(mat([[1, 0], [0, -1]])))
        assert killing(g, h, h) == 8


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
        h = msum(E(4, 0, 1), E(4, 1, 0))
        for i in (2, 3):
            xu = msum(E(4, 0, i), E(4, i, 0), E(4, 1, i), scaled(-1, E(4, i, 1)))
            assert commutator(h, xu) == xu
            assert g.n_space.contains_vector(g.coords(to_entries(xu)))
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
        m = g.matrix_size // 2  # J realifies i: a + ib -> [[a, -b], [b, a]]
        j = mat([[-1 if q == p + m else 1 if p == q + m else 0
                  for q in range(2 * m)] for p in range(2 * m)])
        assert product(j, j) == identity(len(j), -1)
        for b in g.basis:
            b = from_entries(b, g.matrix_size)
            assert product(j, b) == product(b, j)

    def test_basis_is_eliminated_once(self, monkeypatch):
        # su(1,3): a 15-dimensional basis of 8 x 8 real matrices
        shapes = []
        eliminate = linalg.rref_with_transform

        def recorded(rows, ncols):
            rows = list(rows)
            shapes.append((len(rows), ncols))
            return eliminate(rows, ncols)

        monkeypatch.setattr(linalg, "rref_with_transform", recorded)
        build_su1n(3)
        assert shapes.count((15, 64)) == 1


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
        b0, b1 = (p.embed({i: Subspace.full(f.dim)}) for i, f in enumerate(p.factors))
        for x in basis(b0):
            for y in basis(b1):
                assert is_zero_vec(bracket(p, x, y))
                assert killing(p, x, y) == 0
                assert inner_product(p, x, y) == 0

    def test_block_forms_match_factors(self):
        f = build_so1n(3)
        p = direct_sum([f, build_sl(2)])
        for i, x in enumerate(f.basis):
            for j, y in enumerate(f.basis):
                xx = p.embed_vector(0, {i: 1})
                yy = p.embed_vector(0, {j: 1})
                assert killing(p, xx, yy) == from_matrix(f.killing)[i][j]

    def test_coords_inverts_matrix(self):
        p = direct_sum([build_sl(2), build_sl(2)])
        x = tuple(rat(i - 2, 1 + i % 2) for i in range(p.dim))
        assert dense(p.coords(to_entries(matrix_of(p, x))), p.dim) == x
        with pytest.raises(ValueError):
            p.coords(to_entries(E(p.matrix_size, 0, 2)))  # outside the diagonal blocks

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            direct_sum([])

    def test_embed_rejects_a_part_of_another_dimension(self):
        p = direct_sum([build_so1n(2), build_sl(3)])
        with pytest.raises(ValueError, match="does not live on factor 1"):
            p.embed({1: Subspace.full(p.factors[0].dim)})
        with pytest.raises(ValueError, match="does not live on factor 0"):
            p.embed({0: Subspace.zero(p.dim)})


EMBED_FACTORS = (build_sl(2), build_so1n(3), build_sl(3))  # of dimension 3, 6 and 8


@functools.lru_cache(maxsize=None)
def embed_product(choice: tuple):
    """The product of the chosen EMBED_FACTORS, built once per choice."""
    return direct_sum([EMBED_FACTORS[i] for i in choice])


@st.composite
def embed_cases(draw):
    """(product, parts): a product of one to four factors and a part for
    some of its blocks, each empty, full or the span of a few small integer
    rows, in a shuffled order; a block without a part is a gap."""
    choice = draw(st.lists(st.integers(0, len(EMBED_FACTORS) - 1), min_size=1, max_size=4))
    pm = embed_product(tuple(choice))
    parts = {}
    for idx, f in enumerate(pm.factors):
        kind = draw(st.sampled_from(["gap", "empty", "full", "rows"]))
        if kind == "empty":
            parts[idx] = Subspace.zero(f.dim)
        elif kind == "full":
            parts[idx] = Subspace.full(f.dim)
        elif kind == "rows":
            rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=f.dim, max_size=f.dim),
                                 max_size=4))
            parts[idx] = Subspace.span(f.dim, as_sparse(rows))
    order = draw(st.permutations(sorted(parts)))
    return pm, {idx: parts[idx] for idx in order}


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(embed_cases())
def test_embed_is_the_span_of_the_shifted_rows(case):
    pm, parts = case
    shifted = [{j + pm.block_offsets[idx]: x for j, x in row.items()}
               for idx, sub in parts.items() for row in sub.rows]
    expected = Subspace.span(pm.dim, shifted)
    embedded = pm.embed(parts)
    assert embedded.rows == expected.rows
    assert embedded.pivots == expected.pivots


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
        basis = [tuple(int(t == i) for t in range(g.dim)) for i in range(g.dim)]
        for x, y, z in itertools.combinations(basis, 3):
            s = [0] * g.dim
            for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                t = bracket(g, a, bracket(g, b, c))
                for k in range(g.dim):
                    s[k] += t[k]
            assert is_zero_vec(s)

    def test_theta_is_automorphism(self, model):
        g = model
        basis = [tuple(int(t == i) for t in range(g.dim)) for i in range(g.dim)]
        for x, y in itertools.combinations(basis, 2):
            lhs = apply(g.theta, bracket(g, x, y))
            rhs = bracket(g, apply(g.theta, x), apply(g.theta, y))
            assert lhs == rhs

    def test_theta_squares_to_identity(self, model):
        g = model
        th = from_matrix(g.theta)
        assert product(th, th) == identity(g.dim)

    def test_killing_invariance(self, model):
        g = model
        basis = [tuple(int(t == i) for t in range(g.dim)) for i in range(g.dim)]
        for x in basis[: min(4, g.dim)]:
            for y in basis:
                for z in basis:
                    lhs = killing(g, bracket(g, x, y), z)
                    rhs = killing(g, y, bracket(g, x, z))
                    assert lhs + rhs == 0

    def test_killing_theta_invariant(self, model):
        g = model
        th, kf = from_matrix(g.theta), from_matrix(g.killing)
        assert product(product(transpose(th), kf), th) == kf

    def test_inner_product_positive_definite(self, model):
        g = model
        inner = from_matrix(g.inner)
        assert inner == transpose(inner)
        assert leading_minors_positive(inner)

    def test_ad_skew_symmetry_identity(self, model):
        # <ad(X)Y, Z> = -<Y, ad(theta X) Z>
        g = model
        basis = [tuple(int(t == i) for t in range(g.dim)) for i in range(g.dim)]
        for x in basis[: min(3, g.dim)]:
            tx = apply(g.theta, x)
            for y in basis:
                for z in basis:
                    lhs = inner_product(g, bracket(g, x, y), z)
                    rhs = inner_product(g, y, bracket(g, tx, z))
                    assert lhs + rhs == 0

    def test_k_perp_p_and_iwasawa_sum(self, model):
        g = model
        for x in basis(g.k_space):
            for y in basis(g.p_space):
                assert inner_product(g, x, y) == 0
        assert g.k_space.dim + g.p_space.dim == g.dim
        from cohomatlas.linalg import subspace_sum

        kan = subspace_sum(subspace_sum(g.k_space, g.a_space), g.n_space)
        assert kan.dim == g.dim
        assert g.k_space.dim + g.a_space.dim + g.n_space.dim == g.dim

    def test_brackets_are_matrix_commutators(self, model):
        g = model
        basis = [unit_vec(g.dim, i) for i in range(g.dim)]
        dense = [from_entries(b, g.matrix_size) for b in g.basis]
        for x, bx in zip(basis, dense):
            for y, by in zip(basis, dense):
                assert matrix_of(g, bracket(g, x, y)) == commutator(bx, by)

    def test_p_and_k_projections_match_the_dense_projectors(self, model):
        g = model
        ident, th = identity(g.dim), from_matrix(g.theta)
        proj_p = scaled(rat(1, 2), msum(ident, scaled(-1, th)))
        proj_k = scaled(rat(1, 2), msum(ident, th))
        rows = [unit_vec(g.dim, i) for i in range(g.dim)]
        assert g.project_p_subspace(Subspace.span(g.dim, as_sparse(rows))) == g.p_space
        assert g.project_k_subspace(Subspace.span(g.dim, as_sparse(rows))) == g.k_space
        pairs = [tuple(a + b for a, b in zip(rows[i], rows[-1 - i])) for i in range(g.dim // 2)]
        for sub in (pairs, rows[::3]):
            for proj, project in ((proj_p, g.project_p_subspace), (proj_k, g.project_k_subspace)):
                images = [tuple(vdot(row, x) for row in proj) for x in sub]
                assert project(Subspace.span(g.dim, as_sparse(sub))) == \
                    Subspace.span(g.dim, as_sparse(images))

    def test_a_abelian_inside_p(self, model):
        g = model
        assert g.p_space.contains(g.a_space)
        for x in basis(g.a_space):
            for y in basis(g.a_space):
                assert is_zero_vec(bracket(g, x, y))


@pytest.mark.parametrize("factors", [
    lambda: [build_so1n(2), build_so1n(3)],
    lambda: [build_sl(3), build_sl(2)],
    lambda: [build_su1n(2), build_so1n(2)],
], ids=["rh2xrh3", "sl3xsl2", "ch2xrh2"])
def test_assembled_product_matches_the_generic_construction(factors):
    pm = direct_sum(factors())
    ref = LieModel(pm.name, pm.matrix_size, pm.basis,
                   [to_entries(matrix_of(pm, x)) for x in basis(pm.a_space)],
                   [to_entries(matrix_of(pm, x)) for x in basis(pm.n_space)])
    assert pm._struct == ref._struct
    assert pm.theta == ref.theta
    assert pm.killing == ref.killing
    assert pm.inner == ref.inner
    for space in ("k_space", "p_space", "a_space", "n_space"):
        assert getattr(pm, space) == getattr(ref, space)
    for i, b in enumerate(pm.basis):
        assert ref.coords(b) == {i: 1}
    x = tuple(rat(i % 5 - 2, 1 + i % 3) for i in range(pm.dim))
    assert matrix_of(pm, x) == matrix_of(ref, x)
    assert dense(ref.coords(to_entries(matrix_of(pm, x))), pm.dim) == x
    off_block = pm.factors[0].matrix_size
    with pytest.raises(ValueError):
        ref.coords(to_entries(E(pm.matrix_size, 0, off_block)))  # outside the diagonal blocks


@pytest.mark.parametrize("build", [lambda: build_sl(3), lambda: build_so1n(3),
                                   lambda: build_su1n(2)], ids=["sl3", "rh3", "ch2"])
def test_theta_maps_onto_agrees_with_the_spanned_theta_image(build):
    from cohomatlas.roots import decompose

    g = build()
    datum = decompose(g)
    n = g.n_space
    subs = [r.space for r in datum.roots] + [n, theta_image(g, n), g.k_space, g.p_space,
                                              g.a_space, Subspace.span(g.dim, n.rows[:1]),
                                              Subspace.zero(g.dim)]
    verdicts = Counter()
    for sub, other in itertools.product(subs, repeat=2):
        verdict = g.theta_maps_onto(sub, other)
        assert verdict == (theta_image(g, sub) == other)
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_normalizer_borel_sl2():
    g = build_sl(2)
    e = g.coords(to_entries(E(2, 0, 1)))
    nz = g.normalizer_in(Subspace.full(g.dim), Subspace.span(g.dim, [e]))
    h = g.coords(to_entries(mat([[1, 0], [0, -1]])))
    expected = Subspace.span(g.dim, [h, e])
    assert nz == expected


def test_bracket_escape_detected():
    g = build_sl(2)
    with pytest.raises(ValueError):
        g.coords(to_entries(mat([[1, 0], [0, 1]])))  # not traceless


@pytest.mark.parametrize("build", [lambda: build_sl(3), lambda: build_so1n(3),
                                   lambda: build_su1n(2),
                                   lambda: direct_sum([build_sl(2), build_su1n(2)])],
                         ids=["sl3", "so13", "su12", "sl2xsu12"])
def test_brackets_and_theta_of_unit_vectors_stay_integer(build):
    # the shipped structure constants and theta are integral and stored as ints
    g = build()
    units = [tuple(int(i == j) for j in range(g.dim)) for i in range(g.dim)]
    for x in units:
        assert all(type(c) is int for c in apply(g.theta, x))
        for y in units:
            assert all(type(c) is int for c in bracket(g, x, y))


@pytest.mark.parametrize("build, n", [(build_so1n, n) for n in range(2, 9)]
                         + [(build_su1n, n) for n in range(2, 6)])
def test_rank_one_n_is_the_positive_ad_eigenspaces(build, n):
    # the constructor passes its root vectors as n, as build_sl does; ad(h),
    # read on the basis, is diagonal, and n is spanned by the basis vectors
    # of positive weight
    g = build(n)
    (h,) = basis(g.a_space)
    weights = []
    for i in range(g.dim):
        unit = unit_vec(g.dim, i)
        image = bracket(g, h, unit)
        assert image == tuple(image[i] * x for x in unit)
        weights.append(image[i])
    positive = [i for i, mu in enumerate(weights) if mu > 0]
    assert g.n_space == Subspace.span(g.dim, [{i: 1} for i in positive])
    assert sorted({weights[i] for i in positive}) == ([1] if build is build_so1n else [1, 2])


@pytest.mark.parametrize("build, n", [(build_so1n, n) for n in range(2, 6)]
                         + [(build_su1n, n) for n in range(2, 5)])
def test_weight_basis_lies_in_the_algebra(build, n):
    # X^T I + I X = 0 for the realified I = I_{1,n} (on each complex copy),
    # and the complex trace a + ib of X vanishes
    g = build(n)
    m = n + 1
    copies = g.matrix_size // m
    sig = mat([[(-1 if p % m == 0 else 1) if p == q else 0 for q in range(g.matrix_size)]
               for p in range(g.matrix_size)])
    for x in g.basis:
        x = from_entries(x, g.matrix_size)
        assert msum(product(transpose(x), sig), product(sig, x)) == identity(g.matrix_size, 0)
        if copies == 2:
            assert sum(x[p][p] for p in range(m)) == 0
            assert sum(x[p + m][p] for p in range(m)) == 0


@pytest.mark.parametrize("build", [lambda: build_sl(2), lambda: build_sl(5),
                                   lambda: build_so1n(4), lambda: build_su1n(3),
                                   lambda: direct_sum([build_su1n(2), build_sl(3)])],
                         ids=["sl2", "sl5", "rh4", "ch3", "ch2xsl3"])
def test_inner_gram_is_the_dense_product(build):
    # the dense product -K theta as the reference for the sparse one
    g = build()
    assert from_matrix(g.inner) == scaled(-1, product(from_matrix(g.killing), from_matrix(g.theta)))
    assert all(type(x) is int for row in g.inner.rows for x in row.values())


@pytest.mark.parametrize("build", [lambda: build_sl(4), lambda: build_su1n(3),
                                   lambda: build_so1n(4),
                                   lambda: direct_sum([build_sl(3), build_su1n(2)])],
                         ids=["sl4", "su13", "so14", "sl3xch2"])
def test_killing_gram_equals_the_loop_over_all_pairs(build):
    g = build()
    assert from_matrix(g.killing) == dense_killing_gram(g)
    assert all(type(x) is int for row in g.killing.rows for x in row.values())
