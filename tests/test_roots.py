"""Tests for the restricted root decomposition."""

from fractions import Fraction

import pytest

from cohomatlas import linalg, roots
from cohomatlas.cli import parse_space
from cohomatlas.linalg import Matrix, Subspace, kernel_rows, subspace_sum
from cohomatlas.models import LieModel, build_sl, build_so1n, build_su1n, direct_sum
from cohomatlas.roots import decompose

from dense_reference import basis, bracket, inner_product, sparse
from span_reference import theta_image


def is_zero_vec(u) -> bool:
    return not any(u)


def vadd(u, v) -> tuple:
    """The entrywise sum of two dense vectors."""
    return tuple(a + b for a, b in zip(u, v))

BUILDERS = {"sl": build_sl, "rh": build_so1n, "ch": build_su1n}
SMALL_FACTORS = ["sl(2)", "sl(3)", "rh(2)", "rh(3)", "ch(2)"]  # as in test_cli.py


def test_sl3_positive_system():
    g = build_sl(3)
    datum = decompose(g)
    assert datum.rank == 2
    pos = sorted(r.coeffs for r in datum.positive)
    assert pos == [(0, 1), (1, 0), (1, 1)]
    assert all(r.space.dim == 1 for r in datum.roots)


def test_sl_positive_roots_are_consecutive_sums():
    # type A: the positives over simple roots a_1..a_n are the interval sums
    for m in (2, 3, 4, 5):
        datum = decompose(build_sl(m))
        n = m - 1
        got = sorted(r.coeffs for r in datum.positive)
        expected = sorted(
            tuple(1 if j <= i <= k else 0 for i in range(n))
            for j in range(n)
            for k in range(j, n)
        )
        assert got == expected


def test_sl_root_spaces_are_matrix_units():
    g = build_sl(4)
    datum = decompose(g)
    # the root summing a_j..a_k has space spanned by E_{j,k+1}
    for j in range(3):
        for k in range(j, 3):
            coeff = tuple(1 if j <= i <= k else 0 for i in range(3))
            sp = datum.root_with_coeff(coeff).space
            assert sp.dim == 1
            (i,) = sp.rows[0]
            assert list(g.basis[i]) == [(j, k + 1)]


def test_so1n_single_root():
    for n in (2, 3, 4):
        datum = decompose(build_so1n(n))
        assert datum.rank == 1
        assert len(datum.positive) == 1
        assert datum.positive[0].space.dim == n - 1
        assert len(datum.roots) == 2  # {alpha, -alpha}


def test_su1n_bc1_system():
    datum = decompose(build_su1n(2))
    assert datum.rank == 1
    coeffs = sorted(r.coeffs for r in datum.positive)
    assert coeffs == [(1,), (2,)]
    alpha = datum.root_with_coeff((1,))
    two_alpha = datum.root_with_coeff((2,))
    assert alpha.space.dim == 2
    assert two_alpha.space.dim == 1


def test_product_of_hyperbolic_planes():
    p = direct_sum([build_so1n(2), build_so1n(2)])
    datum = decompose(p)
    assert datum.rank == 2
    assert len(datum.simple) == 2
    h1, h2 = (r.root_vector for r in datum.simple)
    assert inner_product(p, h1, h2) == 0
    assert datum.dynkin_edges == frozenset()


def test_mixed_product_multiplicities():
    p = direct_sum([build_sl(2), build_so1n(3)])
    datum = decompose(p)
    mults = [r.space.dim for r in datum.simple]
    assert mults == [1, 2]


@pytest.mark.parametrize("space", [f"{a}*{b}" for a in SMALL_FACTORS for b in SMALL_FACTORS]
                         + ["ch(2)*sl(3)*rh(3)"])
def test_product_roots_are_the_joint_eigenspaces_of_their_covectors(space):
    pm = direct_sum([BUILDERS[name](n) for name, n in parse_space(space).factors])
    datum = decompose(pm)
    # ads[t][j] = [h_t, e_j] for the basis h_t of a and the unit vectors e_j
    ads = [[bracket(pm, h, e) for e in Subspace.full(pm.dim).rows] for h in basis(pm.a_space)]
    for r in datum.roots:
        # {x : [h_t, x] = r(h_t) x for every t}, by elimination
        equations = [tuple(col[k] - (lam if k == j else 0) for j, col in enumerate(ad))
                     for ad, lam in zip(ads, r.covector) for k in range(pm.dim)]
        assert r.space == Subspace.span(pm.dim, kernel_rows(equations, pm.dim))
        combo = [sum(c * s.covector[t] for c, s in zip(r.coeffs, datum.simple))
                 for t in range(len(ads))]
        assert tuple(combo) == r.covector
    # positives by (height, coefficients), then the negatives in matching order
    keys = [(sum(r.coeffs), r.coeffs) for r in datum.positive]
    assert keys == sorted(keys) and datum.roots[:len(keys)] == datum.positive
    assert [tuple(-c for c in r.coeffs) for r in datum.positive] == \
        [r.coeffs for r in datum.roots[len(keys):]]
    # the simple roots come factor by factor, each inside its factor's block
    owners = [idx for idx, phi in enumerate(datum.factor_phis) for _ in phi]
    assert len(owners) == datum.rank
    for r, owner in zip(datum.simple, owners):
        assert pm.embed({owner: Subspace.full(pm.factors[owner].dim)}).contains(r.space)


def test_simple_root_order_is_path_order():
    datum = decompose(build_sl(5))
    # adjacency must be exactly the path a_1 - a_2 - a_3 - a_4
    assert datum.dynkin_edges == frozenset({(0, 1), (1, 2), (2, 3)})


def test_root_vector_defining_relation():
    g = build_sl(3)
    datum = decompose(g)
    for r in datum.roots:
        for h in basis(g.a_space):
            assert datum.evaluate(r, sparse(h)) == inner_product(g, r.root_vector, h)
            # lam(H) is also the bracket eigenvalue on the root space
            x = basis(r.space)[0]
            lhs = bracket(g, h, x)
            lam = datum.evaluate(r, sparse(h))
            assert lhs == tuple(lam * c for c in x)


def test_decomposition_fills_model():
    for g in (build_sl(3), build_so1n(3), build_su1n(2)):
        datum = decompose(g)
        total = datum.zero_space
        for r in datum.roots:
            total = subspace_sum(total, r.space)
        assert total == Subspace.full(g.dim)
        assert datum.zero_space.dim + sum(r.space.dim for r in datum.roots) == g.dim


def test_theta_pairs_opposite_roots():
    datum = decompose(build_su1n(2))
    g = datum.model
    for r in datum.positive:
        neg = datum.root_with_coeff(tuple(-c for c in r.coeffs))
        assert neg.covector == tuple(-c for c in r.covector)
        assert theta_image(g, r.space) == neg.space


def test_bracket_grading():
    g = build_sl(4)
    datum = decompose(g)
    spaces = {r.coeffs: r.space for r in datum.roots}
    for r in datum.roots:
        for s in datum.roots:
            tgt = vadd(r.coeffs, s.coeffs)
            br = g.bracket_span(r.space.rows, s.space.rows)
            if br.dim == 0:
                continue
            if all(not c for c in tgt):
                assert datum.zero_space.contains(br)
            elif tgt in spaces:
                assert spaces[tgt].contains(br)
            else:
                assert br.dim == 0


def test_k0_centralizes_a():
    for g in (build_sl(3), build_so1n(3), build_su1n(2)):
        datum = decompose(g)
        assert datum.k0.dim == datum.zero_space.dim - g.a_space.dim
        for x in basis(datum.k0):
            for h in basis(g.a_space):
                assert is_zero_vec(bracket(g, x, h))
    # sl has trivial k0, su(1,n) does not
    assert decompose(build_sl(3)).k0.dim == 0
    assert decompose(build_su1n(2)).k0.dim == 1


def test_sigma_phi():
    # Sigma_phi: the roots in the span of the simple roots indexed by phi
    datum = decompose(build_sl(4))
    got = sorted(r.coeffs for r in datum.positive if r.in_span([0, 1]))
    assert got == [(0, 1, 0), (1, 0, 0), (1, 1, 0)]
    assert sum(r.in_span([0, 1]) for r in datum.roots) == 6
    # phi = everything / nothing
    assert all(r.in_span(range(3)) for r in datum.roots)
    assert not any(r.in_span([]) for r in datum.roots)


def test_rank_one_recognition():
    # a factor is rank one exactly when its positive system is {a} or {a, 2a}
    for build, expected in ((build_so1n(3), [(1,)]), (build_su1n(2), [(1,), (2,)])):
        datum = decompose(build)
        pos = sorted(r.coeffs for r in datum.positive)
        assert pos == expected
    datum = decompose(build_sl(3))
    assert len(datum.positive) > 2


def int_iff_integral(x) -> bool:
    """An int when integral, a Fraction only when the denominator is not 1,
    and never a float."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


@pytest.mark.parametrize("build", [lambda: build_sl(4), lambda: build_so1n(3),
                                   lambda: build_su1n(2)], ids=["sl4", "rh3", "ch2"])
def test_model_tables_and_root_spaces_keep_integral_values_as_ints(build):
    g = build()
    datum = decompose(g)
    entries = [c for ad_i in g._struct.values() for entry in ad_i.values() for _, c in entry]
    for table in (g.theta, g.killing, g.inner):
        entries += [x for row in table.rows for x in row.values()]
    for r in datum.roots:
        entries += [x for row in basis(r.space) for x in row] + list(r.covector)
        entries += r.root_vector.values()
    assert entries and all(int_iff_integral(x) for x in entries)


def test_a_repeated_factor_is_decomposed_once(monkeypatch):
    calls = []
    original = roots.decompose

    def counting(model):
        calls.append(model.name)
        return original(model)

    monkeypatch.setattr(roots, "decompose", counting)
    factor = build_su1n(2)
    datum = original(direct_sum([factor, factor, build_so1n(2)]))
    assert calls == ["su(1,2)", "so(1,2)"]
    assert datum.factors[0] is datum.factors[1]
    assert datum.rank == 3


@pytest.mark.parametrize("space", ["rh(3)*sl(3)*rh(3)*ch(2)", "sl(2)*sl(2)"])
def test_a_product_datum_is_assembled_with_no_elimination_at_product_size(monkeypatch, space):
    # the factors' root spaces, zero spaces and k0 are shifted into their
    # blocks; only the factors' own decompositions eliminate
    pm = direct_sum([BUILDERS[name](n) for name, n in parse_space(space).factors])
    widths = []
    eliminate = linalg._eliminate

    def recorded(work, ncols):
        widths.append(ncols)
        return eliminate(work, ncols)

    monkeypatch.setattr(linalg, "_eliminate", recorded)
    datum = decompose(pm)
    assert widths and pm.dim not in widths
    assert datum.zero_space.dim + sum(r.space.dim for r in datum.roots) == pm.dim


@pytest.mark.parametrize("build, arg", [(build_sl, 3), (build_so1n, 3), (build_su1n, 2)])
def test_the_grading_identity_holds_on_the_shipped_models(build, arg):
    # [g_lam, g_mu] lies in g_{lam+mu}, computed here from the root records
    datum = decompose(build(arg))
    g = datum.model
    spaces = {r.coeffs: r.space for r in datum.roots}
    spaces[(0,) * datum.rank] = datum.zero_space
    for lam, u in spaces.items():
        for mu, v in spaces.items():
            image = g.bracket_span(u.rows, v.rows)
            target = spaces.get(tuple(x + y for x, y in zip(lam, mu)))
            assert image.dim == 0 or (target is not None and target.contains(image))


@pytest.mark.parametrize("build, arg", [(build_sl, 3), (build_sl, 4), (build_so1n, 3),
                                       (build_su1n, 2)])
def test_decompose_raises_on_one_corrupted_structure_constant(build, arg):
    # the bracket of two basis vectors outside a gains a term on another basis
    # vector; ad(a), theta and n are untouched, so only the grading identity
    # sees it
    g = build(arg)
    decompose(g)
    in_a = {i for row in g.a_space.rows for i in row}
    struct = {i: dict(ad) for i, ad in g._struct.items()}
    i, j, entry = next((i, j, entry) for i, ad in sorted(struct.items()) if i not in in_a
                       for j, entry in sorted(ad.items()) if j not in in_a and entry)
    k = next(k for k in range(g.dim) if k not in in_a and k not in dict(entry)
             and k not in (i, j))
    struct[i][j] = entry + ((k, 1),)
    struct[j][i] = tuple((t, -c) for t, c in struct[i][j])
    g._struct = struct
    with pytest.raises(ValueError, match="does not respect the root grading"):
        decompose(g)


def test_decompose_raises_on_a_basis_that_is_not_a_weight_basis():
    # the boost basis of so(1,3): B_i = E_0i + E_i0, then R_ij = E_ij - E_ji;
    # [B_1, B_2] = -R_12 is no multiple of B_2
    m = 4
    basis = [{(0, i): 1, (i, 0): 1} for i in range(1, m)]
    basis += [{(i, j): 1, (j, i): -1} for i in range(1, m) for j in range(i + 1, m)]
    n_basis = [{(0, i): 1, (i, 0): 1, (1, i): 1, (i, 1): -1} for i in range(2, m)]
    g = LieModel("so(1,3)", m, basis, basis[:1], n_basis)
    assert g.dim == build_so1n(3).dim
    with pytest.raises(ValueError, match="basis vector 1 is not an ad\\(a\\)-eigenvector"):
        decompose(g)


@pytest.mark.parametrize("build, arg", [(build_sl, 3), (build_so1n, 3), (build_su1n, 2)])
def test_decompose_raises_on_an_inner_product_pairing_different_weights(build, arg):
    # <e_0, e_k> = <e_k, e_0> = 1 for e_0 in a and e_k the first basis vector
    # of n: the form stays symmetric, but pairs weight 0 with a root
    g = build(arg)
    decompose(g)
    k = min(i for row in g.n_space.rows for i in row)
    rows = [dict(r) for r in g.inner.rows]
    rows[0][k] = rows[k][0] = 1
    g.inner = Matrix(tuple(rows))
    with pytest.raises(ValueError, match="pairs basis vectors of different weights"):
        decompose(g)


@pytest.mark.parametrize("space", ["sl(2)", "sl(5)", "rh(4)", "ch(3)", "sl(3)*ch(2)*rh(3)"])
def test_coweights_are_dual_to_the_simple_roots(space):
    factors = [BUILDERS[name](n) for name, n in parse_space(space).factors]
    datum = decompose(factors[0] if len(factors) == 1 else direct_sum(factors))
    assert [[datum.evaluate(s, w) for s in datum.simple] for w in datum.coweights] == \
        [[int(i == j) for j in range(datum.rank)] for i in range(datum.rank)]
    assert all(datum.model.a_space.contains_vector(w) for w in datum.coweights)
