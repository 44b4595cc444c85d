"""Tests for parabolic subalgebra data, gradings and nested chains."""

import itertools

import pytest

from cohomatlas import linalg as linalg_module
from cohomatlas.linalg import (
    Subspace,
    orthocomplement_in,
    subspace_intersect,
    subspace_sum,
)
from cohomatlas.actions import nilpotent_construct
from cohomatlas.models import build_sl, build_so1n, build_su1n, direct_sum
from cohomatlas.parabolic import (
    ParabolicDatum,
    build_nested,
    build_parabolic,
    tensor_model,
)
from cohomatlas.roots import decompose
from nested_reference import nested_pieces
from parabolic_reference import in_span, reference_nested, reference_pieces
from span_reference import generator_span


def sl4():
    g = build_sl(4)
    return g, decompose(g)


class TestBuildParabolic:
    def test_full_phi_degenerates(self):
        g, datum = sl4()
        pd = build_parabolic(datum, range(3))
        assert pd.a_phi.dim == 0
        assert pd.n_phi.dim == 0
        assert pd.s == Subspace.full(g.dim)

    def test_empty_phi_is_minimal(self):
        g, datum = sl4()
        pd = build_parabolic(datum, [])
        assert pd.l == datum.zero_space
        assert pd.n_phi == g.n_space
        assert pd.b.dim == 0

    def test_sl4_two_root_block(self):
        g, datum = sl4()
        pd = build_parabolic(datum, [0, 1])
        # three positive roots involve a_3: a_3, a_2+a_3, a_1+a_2+a_3
        assert pd.n_phi.dim == 3
        # s is the sl(3) block: dimension 8, root spaces preserved
        assert pd.s.dim == 8
        for r in datum.positive:
            if r.coeffs[2] == 0:
                assert pd.s.contains(r.space)

    def test_decomposition_identities(self):
        g, datum = sl4()
        for size in range(4):
            for phi in itertools.combinations(range(3), size):
                pd = build_parabolic(datum, phi)
                assert subspace_sum(pd.a_phi, pd.a_upper) == g.a_space
                assert subspace_sum(pd.n_phi, subspace_intersect(pd.s, g.n_space)) == g.n_space
                m = orthocomplement_in(pd.a_phi, pd.l, g.inner)
                assert subspace_sum(m, pd.a_phi) == pd.l
                assert pd.s.dim == pd.b.dim + g.bracket_span(pd.b.rows, pd.b.rows).dim

    def test_levi_is_centralizer_of_a_phi(self):
        g, datum = sl4()
        for phi in ([0], [1], [0, 2], [0, 1]):
            pd = build_parabolic(datum, phi)
            assert g.centralizer_in(Subspace.full(g.dim), pd.a_phi) == pd.l

    def test_levi_normalizes_nilpotent(self):
        g, datum = sl4()
        for phi in ([0], [0, 2], [1, 2]):
            pd = build_parabolic(datum, phi)
            for x in pd.l.rows:
                for y in pd.n_phi.rows:
                    assert pd.n_phi.contains_vector(g.bracket(x, y))

    def test_m_normalizes_a_phi_plus_n_phi(self):
        g, datum = sl4()
        for phi in ([0], [0, 1], [0, 2]):
            pd = build_parabolic(datum, phi)
            an = subspace_sum(pd.a_phi, pd.n_phi)
            for x in orthocomplement_in(pd.a_phi, pd.l, g.inner).rows:
                for y in an.rows:
                    assert an.contains_vector(g.bracket(x, y))

    def test_b_is_lie_triple_system(self):
        g, datum = sl4()
        for size in range(4):
            for phi in itertools.combinations(range(3), size):
                pd = build_parabolic(datum, phi)
                bb = g.bracket_span(pd.b.rows, pd.b.rows)
                bbb = g.bracket_span(bb.rows, pd.b.rows)
                assert pd.b.contains(bbb)

    def test_s_root_spaces_match(self):
        g, datum = sl4()
        pd = build_parabolic(datum, [0, 1])
        for r in datum.positive:
            if r.in_span([0, 1]):
                assert subspace_intersect(pd.s, r.space) == r.space

    def test_q_is_subalgebra(self):
        g, datum = sl4()
        for phi in ([0], [0, 2]):
            pd = build_parabolic(datum, phi)
            assert g.is_subalgebra(subspace_sum(pd.l, pd.n_phi))
            assert g.is_subalgebra(pd.s)

    def test_invalid_phi_rejected(self):
        _, datum = sl4()
        with pytest.raises(ValueError):
            build_parabolic(datum, [7])


class TestGrading:
    def test_sl4_middle_root(self):
        g, datum = sl4()
        pd = build_parabolic(datum, [0, 2])  # removes a_2 (index 1)
        grading = pd.grading
        assert set(grading) == {1}
        assert grading[1].dim == 4  # j(n-j+1) with n=3, j=2 (1-based)
        assert grading[1] == pd.n_phi

    def test_sl4_end_root(self):
        g, datum = sl4()
        pd = build_parabolic(datum, [1, 2])  # removes a_1
        grading = pd.grading
        assert grading[1].dim == 3
        assert set(grading) == {1}

    def test_product_gradings(self):
        p = direct_sum([build_so1n(2), build_su1n(2)])
        datum = decompose(p)
        # removing the real hyperbolic root leaves only grade one
        pd0 = build_parabolic(datum, [1])
        assert set(pd0.grading) == {1}
        # removing the complex hyperbolic root leaves grades one and two
        pd1 = build_parabolic(datum, [0])
        grading = pd1.grading
        assert set(grading) == {1, 2}
        assert grading[1].dim == 2
        assert grading[2].dim == 1

    def test_grades_sum_to_n_phi(self):
        g, datum = sl4()
        for j in range(3):
            phi = [i for i in range(3) if i != j]
            pd = build_parabolic(datum, phi)
            total = Subspace.zero(g.dim)
            for sp in pd.grading.values():
                total = subspace_sum(total, sp)
            assert total == pd.n_phi

    def test_graded_bracket(self):
        g, datum = sl4()
        pd = build_parabolic(datum, [1, 2])
        grading = pd.grading
        for mu, sp1 in grading.items():
            for nu, sp2 in grading.items():
                br = g.bracket_span(sp1.rows, sp2.rows)
                if br.dim == 0:
                    continue
                assert (mu + nu) in grading
                assert grading[mu + nu].contains(br)

    def test_requires_cosimple_phi(self):
        _, datum = sl4()
        pd = build_parabolic(datum, [0])
        assert pd.grading is None
        with pytest.raises(ValueError):
            nilpotent_construct(datum, pd, pd.n_phi)


class TestNested:
    def test_psi_equals_phi(self):
        _, datum = sl4()
        assert nested_pieces(datum, [0, 1], [0, 1])[1].dim == 0

    def test_psi_empty(self):
        g, datum = sl4()
        pd = build_parabolic(datum, [0, 1])
        assert nested_pieces(datum, [], [0, 1])[1] == subspace_intersect(pd.s, g.n_space)

    def test_sl4_chain_dimension(self):
        _, datum = sl4()
        assert nested_pieces(datum, [0], [0, 1])[1].dim == 2  # roots a_2 and a_1+a_2

    def test_nested_identities_all_chains(self):
        g, datum = sl4()
        for phi_size in range(4):
            for phi in itertools.combinations(range(3), phi_size):
                pd = build_parabolic(datum, phi)
                for psi_size in range(phi_size + 1):
                    for psi in itertools.combinations(phi, psi_size):
                        a_np, n_np = nested_pieces(datum, psi, phi)
                        pd_psi = build_parabolic(datum, psi)
                        assert subspace_sum(pd.a_phi, a_np) == pd_psi.a_phi
                        assert subspace_sum(pd.n_phi, n_np) == pd_psi.n_phi

    def test_inclusion_violated(self):
        _, datum = sl4()
        with pytest.raises(ValueError):
            build_nested(datum, [2], [0, 1])


def chains(rank: int):
    """Every pair (psi, phi) of subsets of range(rank) with psi inside phi."""
    subsets = [phi for size in range(rank + 1)
               for phi in itertools.combinations(range(rank), size)]
    return [(psi, phi) for phi in subsets for psi in subsets if set(psi) <= set(phi)]


@pytest.mark.parametrize("build", [lambda: build_sl(4), lambda: build_sl(5),
                                   lambda: direct_sum([build_su1n(2), build_so1n(2)]),
                                   lambda: direct_sum([build_sl(3), build_so1n(3)])],
                         ids=["sl4", "sl5", "ch2xrh2", "sl3xrh3"])
def test_nested_levi_and_roots_span_q_psi_and_s_phi(build):
    # the identities build_parabolic's graded check of s_phi proves:
    # l_np + n_np = q_psi & s_phi with q_psi = l_psi + n_psi, and a_np lies in l_np
    g = build()
    datum = decompose(g)
    for psi, phi in chains(datum.rank):
        levi = build_nested(datum, psi, phi)
        a_np, n_np = nested_pieces(datum, psi, phi)
        pd_psi, pd_phi = build_parabolic(datum, psi), build_parabolic(datum, phi)
        q_psi = subspace_sum(pd_psi.l, pd_psi.n_phi)
        assert subspace_sum(levi, n_np) == subspace_intersect(q_psi, pd_phi.s), (psi, phi)
        assert levi.contains(a_np), (psi, phi)


def test_a_patched_opposite_root_bracket_is_rejected(monkeypatch):
    # the root vectors of the first simple root and of its negative bracket
    # to a spanning vector of a^phi for phi = (0,); a bracket that gains a
    # component in a_phi gives s0 a p-part outside a^phi
    g, datum = sl4()
    pos = datum.simple[0].space.rows[0]
    neg = datum.root_with_coeff((-1, 0, 0)).space.rows[0]
    extra = build_parabolic(datum, (0,)).a_phi.rows[0]
    datum._parabolic_cache.clear()
    bracket = g.bracket

    def patched(x, y):
        out = bracket(x, y)
        if (x, y) == (pos, neg):
            for i, c in extra.items():
                out[i] = out.get(i, 0) + c
        return out

    monkeypatch.setattr(g, "bracket", patched)
    with pytest.raises(ValueError, match="the p-part of s0 is not a\\^phi"):
        build_parabolic(datum, (0,))


SPAN_SPACES = {
    "sl2": lambda: build_sl(2), "sl3": lambda: build_sl(3), "sl4": lambda: build_sl(4),
    "sl5": lambda: build_sl(5), "sl6": lambda: build_sl(6),
    "rh2": lambda: build_so1n(2), "rh3": lambda: build_so1n(3), "rh4": lambda: build_so1n(4),
    "rh5": lambda: build_so1n(5),
    "ch2": lambda: build_su1n(2), "ch3": lambda: build_su1n(3), "ch4": lambda: build_su1n(4),
    "ch2xrh3": lambda: direct_sum([build_su1n(2), build_so1n(3)]),
    "sl3xsl3": lambda: direct_sum([build_sl(3), build_sl(3)]),
}


@pytest.mark.parametrize("build", SPAN_SPACES.values(), ids=SPAN_SPACES.keys())
def test_s_phi_spanned_from_root_spaces_is_b_b_plus_b(build):
    # the old construction as the reference: span([b, b] + b), and s0 = s_phi & g_0
    g = build()
    datum = decompose(g)
    for size in range(datum.rank + 1):
        for phi in itertools.combinations(range(datum.rank), size):
            pd = build_parabolic(datum, phi)
            assert pd.s == subspace_sum(g.bracket_span(pd.b.rows, pd.b.rows), pd.b), phi
            assert pd.s0 == subspace_intersect(pd.s, datum.zero_space), phi


def root_space_sum(start, roots):
    """start plus the root spaces, added one at a time with subspace_sum."""
    out = start
    for r in roots:
        out = subspace_sum(out, r.space)
    return out


@pytest.mark.parametrize("build", [lambda: build_sl(4),
                                   lambda: direct_sum([build_su1n(2), build_so1n(2)])],
                         ids=["sl4", "ch2xrh2"])
def test_pieces_equal_the_incremental_sums(build):
    g = build()
    datum = decompose(g)
    subsets = [phi for size in range(datum.rank + 1)
               for phi in itertools.combinations(range(datum.rank), size)]
    for phi in subsets:
        pd = build_parabolic(datum, phi)
        inside = [r for r in datum.roots if r.in_span(phi)]
        inside_pos = [r for r in datum.positive if r.in_span(phi)]
        assert pd.l == root_space_sum(datum.zero_space, inside)
        assert subspace_intersect(pd.s, g.n_space) == root_space_sum(Subspace.zero(g.dim),
                                                                     inside_pos)
        k_phi, b = datum.k0, orthocomplement_in(pd.a_phi, g.a_space, g.inner)
        assert pd.a_upper == b
        for r in inside_pos:
            k_phi = subspace_sum(k_phi, g.project_k_subspace(r.space))
            b = subspace_sum(b, g.project_p_subspace(r.space))
        assert (pd.k_phi, pd.b) == (k_phi, b)
        for psi in subsets:
            if not set(psi) <= set(phi):
                continue
            psi_pos = {r.coeffs for r in datum.positive if r.in_span(psi)}
            outside = [r for r in inside_pos if r.coeffs not in psi_pos]
            assert nested_pieces(datum, psi, phi)[1] == root_space_sum(Subspace.zero(g.dim),
                                                                       outside)
            assert build_nested(datum, psi, phi) == root_space_sum(
                pd.s0, [r for r in datum.roots if r.in_span(psi)])


class TestTensorModel:
    def test_sl4_middle_root_cover(self):
        g, datum = sl4()
        tm = tensor_model(datum, 1)
        assert (tm.nrows, tm.ncols) == (2, 2)
        expected = {
            (1, 1): (0, 1, 0),
            (2, 1): (1, 1, 0),
            (1, 2): (0, 1, 1),
            (2, 2): (1, 1, 1),
        }
        for key, coeff in expected.items():
            assert datum.root_with_coeff(coeff).space.contains_vector(tm.generators[key])

    def test_dimension_formula(self):
        for m, j in ((3, 0), (4, 1), (5, 2)):
            datum = decompose(build_sl(m))
            tm = tensor_model(datum, j)
            pd = build_parabolic(datum, [i for i in range(m - 1) if i != j])
            jj, n = j + 1, m - 1
            assert len(tm.generators) == jj * (n - jj + 1)
            assert pd.n_phi.dim == jj * (n - jj + 1)
            assert generator_span(tm, tm.generators) == pd.n_phi

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_coordinate_subspaces_place_as_the_span_of_their_generators(self, m):
        datum = decompose(build_sl(m))
        for j in range(datum.rank):
            tm = tensor_model(datum, j)
            top = build_parabolic(datum, [i for i in range(datum.rank) if i != j]).grading[1]
            # the coordinates of the top piece are its unit rows, in column order
            assert tm.columns == top.pivots and all(row == {c: 1} for row, c in
                                                    zip(top.rows, top.pivots))
            assert [tm.generators[i + 1, l + 1] for i, l in tm.cells] == list(top.rows)
            keys = sorted(tm.generators)
            for size in range(len(keys) + 1):
                for subset in itertools.combinations(keys, size):
                    v = tm.coordinates(subset)
                    assert v.ambient_dim == tm.nrows * tm.ncols
                    placed, spanned = tm.place(v), generator_span(tm, subset)
                    assert (placed, placed.pivots) == (spanned, spanned.pivots)

    def test_row_model_for_first_root(self):
        datum = decompose(build_sl(4))
        tm = tensor_model(datum, 0)
        assert tm.nrows == 1 and tm.ncols == 3

    def test_non_sl_rejected(self):
        datum = decompose(build_so1n(3))
        with pytest.raises(ValueError):
            tensor_model(datum, 0)

    def test_product_of_sl_models_rejected(self):
        # the product's name starts with "sl(", but it is not an sl model
        datum = decompose(direct_sum([build_sl(3), build_sl(2)]))
        with pytest.raises(ValueError, match="not a product"):
            tensor_model(datum, 0)


@pytest.mark.parametrize("build", [lambda: build_sl(5),
                                   lambda: direct_sum([build_su1n(2), build_so1n(3)])],
                         ids=["sl5", "ch2xrh3"])
def test_in_span_is_vanishing_on_a_phi(build):
    # a root lies in span(phi) iff its covector vanishes on a_phi, the common
    # kernel of the simple roots in phi
    datum = decompose(build())
    for size in range(datum.rank + 1):
        for phi in itertools.combinations(range(datum.rank), size):
            a_phi = build_parabolic(datum, phi).a_phi
            for r in datum.roots:
                vanishes = all(datum.evaluate(r, h) == 0 for h in a_phi.rows)
                assert r.in_span(phi) == vanishes


REFERENCE_SPACES = {
    "sl4": lambda: build_sl(4), "sl5": lambda: build_sl(5), "rh4": lambda: build_so1n(4),
    "ch3": lambda: build_su1n(3),
    "ch2xrh2": lambda: direct_sum([build_su1n(2), build_so1n(2)]),
    "sl3xrh3": lambda: direct_sum([build_sl(3), build_so1n(3)]),
}


def canonical(piece):
    """A subspace's rows and pivots, or each grade's, for comparison: two
    subspaces compare equal by their rows alone."""
    if isinstance(piece, Subspace):
        return piece.ambient_dim, piece.rows, piece.pivots
    if isinstance(piece, dict):
        return {nu: canonical(sp) for nu, sp in piece.items()}
    return piece


@pytest.mark.parametrize("build", REFERENCE_SPACES.values(), ids=REFERENCE_SPACES.keys())
def test_every_piece_equals_its_span_built_form(build):
    # the spans and solves build_parabolic made before it placed its pieces
    # as direct sums of root spaces are the reference, rows and pivots
    g = build()
    datum = decompose(g)
    for psi, phi in chains(datum.rank):
        ref = reference_pieces(datum, phi)
        if psi == phi:
            pd = build_parabolic(datum, phi)
            for name in ParabolicDatum._fields:
                assert canonical(getattr(pd, name)) == canonical(ref[name]), (phi, name)
            for r in datum.roots:
                assert r.in_span(phi) == in_span(r, phi), (phi, r.coeffs)
        assert canonical(build_nested(datum, psi, phi)) == \
            canonical(reference_nested(datum, psi, ref["s0"])), (psi, phi)


@pytest.mark.parametrize("build", REFERENCE_SPACES.values(), ids=REFERENCE_SPACES.keys())
def test_only_s0_its_p_part_and_a_phi_are_eliminated(monkeypatch, build):
    # once a datum has its coweights and each root's k- and p-parts, a new phi
    # costs three eliminations: s0, p(s0) and the span of the coweights
    # outside phi; the nested Levi piece of a built phi costs none
    datum = decompose(build())
    assert (len(datum.coweights), len(datum.theta_parts)) == (datum.rank, len(datum.positive))
    widths = []
    eliminate = linalg_module._eliminate

    def recorded(work, ncols):
        widths.append(ncols)
        return eliminate(work, ncols)

    monkeypatch.setattr(linalg_module, "_eliminate", recorded)
    for psi, phi in chains(datum.rank):
        before = len(widths)
        built = phi in datum._parabolic_cache
        build_nested(datum, psi, phi)
        assert len(widths) - before == (0 if built else 3), (psi, phi)
