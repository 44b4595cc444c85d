"""Tests for the action-algebra constructors."""

import inspect

import pytest

from cohomatlas import actions as actions_module
from cohomatlas import linalg
from cohomatlas import verify as verify_module
from cohomatlas.catalog import _symplectic_kernel, ce_families, enumerate_sl
from cohomatlas.linalg import (Subspace, solve_inclusion_constraint, subspace_intersect,
                               subspace_sum)
from cohomatlas.models import build_sl, build_so1n, build_su1n, direct_sum
from cohomatlas.actions import (
    ActionSpec,
    _graph,
    _sl2_triple,
    builtin_cei_catalog,
    canonical_extend,
    default_cer_sigma,
    make_cer,
    make_factor_diagonal,
    make_fh,
    make_fs,
    nilpotent_construct,
    product_assemble,
)
from cohomatlas.parabolic import build_parabolic, tensor_model
from cohomatlas.roots import decompose
from cohomatlas.verify import verify
from dense_reference import flatten, mat, matrix_of, msum, product, sparse, to_entries, transpose
from nested_reference import nested_pieces
from span_reference import generator_span, theta_image


def setup_module(module):
    module.SL3 = build_sl(3)
    module.SL3_DATUM = decompose(module.SL3)
    module.SL4 = build_sl(4)
    module.SL4_DATUM = decompose(module.SL4)


def _triples(datum, j, k):
    """The (H, E, F, c) sl2 triples of the j-th and k-th simple roots."""
    return tuple(_sl2_triple(datum.model, datum, datum.simple[i]) for i in (j, k))


def _boundaries(datum, j, k):
    """The rank-one boundary algebras s_j and s_k."""
    return tuple(build_parabolic(datum, [i]).s for i in (j, k))


class TestFoliations:
    def test_fh_sl2_rank_one(self):
        g = build_sl(2)
        spec = make_fh(g, g.a_space)
        assert spec.algebra == g.n_space
        assert spec.algebra.dim == 1

    def test_fh_sl3(self):
        datum = SL3_DATUM
        line = Subspace.span(SL3.dim, [datum.simple[0].root_vector])
        spec = make_fh(SL3, line)
        assert spec.algebra.dim == 4  # 2 + 3 - 1

    def test_fh_product(self):
        p = direct_sum([build_so1n(2), build_so1n(2)])
        line = Subspace.span(p.dim, p.a_space.rows[:1])
        spec = make_fh(p, line)
        assert spec.algebra.dim == 3

    def test_fh_rejects_plane(self):
        with pytest.raises(ValueError):
            make_fh(SL3, SL3.a_space)

    def test_fs_sl3(self):
        spec = make_fs(SL3_DATUM, 0)
        assert spec.algebra.dim == 4
        assert spec.algebra.contains(SL3.a_space)

    def test_fs_so13(self):
        g = build_so1n(3)
        datum = decompose(g)
        spec = make_fs(datum, 0)
        assert spec.algebra.dim == 2  # 1 + 2 - 1


class TestCanonicalExtension:
    def test_full_phi_identity(self):
        datum = SL4_DATUM
        pd = build_parabolic(datum, range(3))
        h = subspace_intersect(pd.s, SL4.k_space)
        spec = canonical_extend(datum, pd, h)
        assert spec.algebra == h

    def test_sl4_single_root_dimensions(self):
        datum = SL4_DATUM
        pd = build_parabolic(datum, [0])
        h = subspace_intersect(pd.s, SL4.k_space)  # so(2)
        assert h.dim == 1
        assert pd.a_phi.dim == 2
        assert pd.n_phi.dim == 5
        spec = canonical_extend(datum, pd, h)
        assert spec.algebra.dim == 8

    def test_extension_composition_collapses(self):
        # iterated extension equals the one-step extension, exactly
        datum = SL4_DATUM
        for psi, phi in (((0,), (0, 1)), ((1,), (0, 1)), ((0,), (0, 2)), ((), (1,))):
            pd_phi = build_parabolic(datum, phi)
            pd_psi = build_parabolic(datum, psi)
            a_np, n_np = nested_pieces(datum, psi, phi)
            if psi:
                h_psi = subspace_intersect(pd_psi.s, SL4.k_space)
            else:
                h_psi = Subspace.zero(SL4.dim)
            inner = subspace_sum(subspace_sum(h_psi, a_np), n_np)
            two_step = canonical_extend(datum, pd_phi, inner).algebra
            one_step = canonical_extend(datum, pd_psi, h_psi).algebra
            assert two_step == one_step

    def test_rejects_algebra_outside_s(self):
        datum = SL4_DATUM
        pd = build_parabolic(datum, [0])
        with pytest.raises(ValueError):
            canonical_extend(datum, pd, SL4.a_space)


class TestCer:
    def test_sl4_distant_pair(self):
        datum = SL4_DATUM
        spec = make_cer(datum, 0, 2)
        # diagonal sl(2): dimension 3, extended by a_phi (1) and n_phi (4)
        assert spec.payload["h_phi"].dim == 3
        assert spec.algebra.dim == 3 + 1 + 4
        assert theta_image(SL4, spec.payload["h_phi"]) == spec.payload["h_phi"]

    def test_rejects_adjacent_pair(self):
        with pytest.raises(ValueError):
            make_cer(SL4_DATUM, 0, 1)

    def test_identical_rank_one_factors(self):
        p = direct_sum([build_so1n(2), build_so1n(2)])
        datum = decompose(p)
        spec = make_cer(datum, 0, 1)
        assert spec.payload["h_phi"].dim == 3
        assert spec.algebra.dim == 3  # phi = everything, nothing to extend

    def test_multiplicity_mismatch_rejected(self):
        p = direct_sum([build_so1n(2), build_so1n(3)])
        datum = decompose(p)
        with pytest.raises(ValueError):
            make_cer(datum, 0, 1)

    def test_factor_diagonal_matches_cer_for_rank_one(self):
        p = direct_sum([build_so1n(2), build_so1n(2)])
        datum = decompose(p)
        cer = make_cer(datum, 0, 1)
        fd = make_factor_diagonal(p, datum, 0, 1)
        assert cer.payload["h_phi"] == fd.payload["h_phi"]
        assert fd.algebra == cer.algebra

    def test_both_routes_carry_the_same_payload_keys(self):
        # a CER row is a canonical extension: its payload is its h_phi, the
        # diagonal, as a CEI row's is; the flats come from the root data
        p = direct_sum([build_so1n(2), build_so1n(2)])
        datum = decompose(p)
        iso = subspace_intersect(build_parabolic(SL4_DATUM, [0]).s, SL4.k_space)
        for spec in (canonical_extend(SL4_DATUM, build_parabolic(SL4_DATUM, [0]), iso),
                     make_cer(datum, 0, 1), make_factor_diagonal(p, datum, 0, 1),
                     make_cer(SL4_DATUM, 0, 2)):
            assert set(spec.payload) == {"h_phi"}

    def test_factor_diagonal_higher_rank(self):
        p = direct_sum([build_sl(3), build_sl(3)])
        datum = decompose(p)
        fd = make_factor_diagonal(p, datum, 0, 1)
        assert fd.algebra.dim == 8
        assert theta_image(p, fd.payload["h_phi"]) == fd.payload["h_phi"]

    def test_default_sigma_theta_equivariant(self):
        diag = default_cer_sigma(SL4_DATUM, 0, 2)
        assert theta_image(SL4, diag) == diag

    def test_graph_of_the_sl2_triple_map(self):
        # c_j = c_k in sl(4), so the triple map needs no rescaling
        (hj, ej, fj, _), (hk, ek, fk, _) = _triples(SL4_DATUM, 0, 2)
        graph = _graph(SL4, *_boundaries(SL4_DATUM, 0, 2), [(hj, hk), (ej, ek), (fj, fk)])
        assert graph == default_cer_sigma(SL4_DATUM, 0, 2)

    def test_closure_note_rejects_a_graph_that_does_not_preserve_the_bracket(self):
        # sigma (h_j, e_j, f_j) -> (2 h_k, e_k, f_k) is theta equivariant,
        # bijective and between commuting pieces, so _graph returns its
        # graph; but sigma [e_j, f_j] = 2 h_k while [e_k, f_k] = h_k, so the
        # graph is no subalgebra, and verify's closure note says so
        (hj, ej, fj, _), (hk, ek, fk, _) = _triples(SL4_DATUM, 0, 2)
        pairs = [(hj, {i: 2 * x for i, x in hk.items()}), (ej, ek), (fj, fk)]
        graph = _graph(SL4, *_boundaries(SL4_DATUM, 0, 2), pairs)
        assert theta_image(SL4, graph) == graph and not SL4.is_subalgebra(graph)
        spec = canonical_extend(SL4_DATUM, build_parabolic(SL4_DATUM, [0, 2]), graph,
                                kind="CER")
        note = verify_module.closure_note(spec, SL4_DATUM)
        assert (note.passed, note.sub_check, note.witness) == \
            (False, "bracket-leaves-algebra", (0, 2))
        assert verify_module.graded_closure_failure(spec, SL4_DATUM) == "h-not-closed"
        # verify reads no slice of an open algebra: it reports the failing
        # note with its witness and the codimension as a cohomogeneity it
        # did not check, so the row's exact checks fail (exit 1, not 2)
        report = verify(spec, SL4_DATUM)
        assert report.notes[0] == note
        assert (report.cohomogeneity, report.cohomogeneity_certainty) == \
            (report.codim_at_o, "not-checked")
        assert not report.all_exact_checks_passed

    def test_graph_rejects_a_map_that_is_not_bijective(self):
        (hj, ej, fj, _), (hk, ek, _, _) = _triples(SL4_DATUM, 0, 2)
        with pytest.raises(ValueError, match="not bijective"):
            _graph(SL4, *_boundaries(SL4_DATUM, 0, 2), [(hj, hk), (ej, ek), (fj, ek)])

    def test_graph_rejects_a_basis_that_does_not_span_the_domain(self):
        (hj, ej, _, _), (hk, ek, fk, _) = _triples(SL4_DATUM, 0, 2)
        with pytest.raises(ValueError, match="does not span the domain"):
            _graph(SL4, *_boundaries(SL4_DATUM, 0, 2), [(hj, hk), (ej, ek), (ej, fk)])

    def test_graph_rejects_a_domain_that_meets_the_image(self):
        s = build_parabolic(SL4_DATUM, [0]).s
        with pytest.raises(ValueError, match="meet"):
            _graph(SL4, s, s, [(x, x) for x in s.rows])

    def test_default_sigma_rejects_adjacent_roots_that_do_not_commute(self):
        # the triple map from s_0 to s_1 is a homomorphism and its graph is
        # a subalgebra, but [s_0, s_1] != 0, so the graph is no diagonal
        with pytest.raises(ValueError, match="do not commute"):
            default_cer_sigma(SL4_DATUM, 0, 1)

    def test_default_sigma_rejects_a_map_that_does_not_commute_with_theta(self, monkeypatch):
        # e_k -> 2t e_k, f_k -> f_k / 2t is still a homomorphism, but theta
        # swaps e and -f, so it no longer commutes with theta
        sqrt = actions_module._rational_sqrt
        monkeypatch.setattr(actions_module, "_rational_sqrt", lambda x: 2 * sqrt(x))
        with pytest.raises(ValueError, match="theta equivariance"):
            default_cer_sigma(SL4_DATUM, 0, 2)


class TestNilpotentConstruction:
    def test_sl4_middle_column_family(self):
        datum = SL4_DATUM
        pd = build_parabolic(datum, [0, 2])  # removes a_2
        tm = tensor_model(datum, 1)
        v = generator_span(tm, [(1, 1), (2, 1)])  # g_{a2} + g_{a1+a2}
        assert v.dim == 2
        spec = nilpotent_construct(datum, pd, v)
        # contains a + (n minus v)
        an = subspace_sum(SL4.a_space, SL4.n_space)
        from cohomatlas.linalg import orthocomplement_in

        target = subspace_sum(
            SL4.a_space, orthocomplement_in(v, SL4.n_space, SL4.inner)
        )
        assert spec.algebra.contains(target)
        (note,) = [n for n in verify(spec, datum).notes if n.name == "normalizer-theta-dual"]
        assert note.passed

    def test_product_split(self):
        p = direct_sum([build_so1n(4), build_so1n(2)])
        datum = decompose(p)
        pd = build_parabolic(datum, [1])  # remove the first factor's root
        f0 = p.factors[0]
        v_inner = Subspace.span(f0.dim, f0.n_space.rows[:2])
        v = p.embed({0: v_inner})
        spec = nilpotent_construct(datum, pd, v)
        # block split: g_2 + N_{(k_1)_0}(v) + a_1 + (n_1 minus v)
        from cohomatlas.linalg import orthocomplement_in

        f0_datum = decompose(f0)
        inner_norm = f0.normalizer_in(f0_datum.k0, v_inner)
        expected = subspace_sum(p.embed({1: Subspace.full(p.factors[1].dim)}),
                                p.embed({0: inner_norm}))
        expected = subspace_sum(expected, p.embed({0: f0.a_space}))
        expected = subspace_sum(
            expected,
            p.embed({0: orthocomplement_in(v_inner, f0.n_space, f0.inner)}),
        )
        assert spec.algebra == expected

    def test_line_rejected(self):
        datum = SL4_DATUM
        pd = build_parabolic(datum, [0, 2])
        tm = tensor_model(datum, 1)
        line = Subspace.span(SL4.dim, [tm.generators[(1, 1)]])
        with pytest.raises(ValueError):
            nilpotent_construct(datum, pd, line)

    def test_outside_first_grade_rejected(self):
        p = direct_sum([build_su1n(2), build_so1n(2)])
        datum = decompose(p)
        pd = build_parabolic(datum, [1])
        # the whole factor nilpotent includes grade two: not allowed as v
        v = p.embed({0: p.factors[0].n_space})
        with pytest.raises(ValueError):
            nilpotent_construct(datum, pd, v)


class TestProductAssembly:
    def test_fh_on_factor(self):
        p = direct_sum([build_so1n(3), build_so1n(2)])
        f = p.factors[0]
        inner = make_fh(f, f.a_space)
        spec = product_assemble(p, 0, inner)
        # codimension one inside the factor, all of the other factor
        assert spec.algebra.dim == inner.algebra.dim + p.factors[1].dim

    def test_extension_contained_in_product_algebra(self):
        # canonical extension over one whole factor sits inside the assembly
        p = direct_sum([build_so1n(2), build_so1n(3)])
        datum = decompose(p)
        f = p.factors[0]
        f_datum = decompose(f)
        inner = make_fs(f_datum, 0)
        spec = product_assemble(p, 0, inner)
        pd = build_parabolic(datum, [0])  # phi = the first factor's root
        h_phi = p.embed({0: inner.algebra})
        ext = canonical_extend(datum, pd, h_phi)
        assert spec.algebra.contains(ext.algebra)

    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_assembly_eliminates_nothing_at_product_size(self, monkeypatch, j):
        # the factor algebra and the other blocks in full are shifted into
        # their blocks, and equal the span of the shifted rows
        p = direct_sum([build_so1n(3), build_sl(3), build_so1n(3)])
        inner = make_fs(decompose(p.factors[j]), 0)
        rows = [{t + off: x for t, x in row.items()}
                for idx, (f, off) in enumerate(zip(p.factors, p.block_offsets))
                for row in (inner.algebra if idx == j else Subspace.full(f.dim)).rows]
        widths = []
        eliminate = linalg._eliminate

        def recorded(work, ncols):
            widths.append(ncols)
            return eliminate(work, ncols)

        monkeypatch.setattr(linalg, "_eliminate", recorded)
        spec = product_assemble(p, j, inner)
        assert p.dim not in widths
        monkeypatch.undo()
        assert spec.algebra == Subspace.span(p.dim, rows)
        assert spec.algebra.dim == inner.algebra.dim + p.dim - p.factors[j].dim

    def test_block_mismatch_rejected(self):
        p = direct_sum([build_so1n(2), build_so1n(3)])
        inner = make_fh(p.factors[1], p.factors[1].a_space)
        with pytest.raises(ValueError):
            product_assemble(p, 0, inner)


def ce_row(datum, label: str, comment: str) -> tuple:
    """(name, spec) of one canonical-extension row of the sl table."""
    (row,) = [(r[1], r[4]) for r in ce_families(datum) if (r[0], r[3]) == (label, comment)]
    return row


class TestBuiltinCatalog:
    """Boundary subalgebras: each CE row of the sl table builds its own, and
    rank-one factors take theirs from builtin_cei_catalog."""

    def test_sl_single_root(self):
        name, spec = ce_row(SL4_DATUM, "CE-row-1", "j=2")
        assert (name, spec.phi) == ("so(2)", (1,))
        assert spec.payload["h_phi"].dim == 1

    def test_sl_interval(self):
        name, spec = ce_row(SL4_DATUM, "CE-row-2", "j=1, k=2")
        assert (name, spec.phi) == ("sl(2)+R", (0, 1))
        assert spec.payload["h_phi"].dim == 4  # sl(2) + center

    def test_sl_triple_interval_has_symplectic_entry(self):
        rows = [ce_row(SL4_DATUM, "CE-row-2", "j=1, k=3"), ce_row(SL4_DATUM, "CE-row-3", "j=1")]
        assert [(name, spec.phi) for name, spec in rows] == [("sl(3)+R", (0, 1, 2)),
                                                             ("sp(2,R)", (0, 1, 2))]
        assert rows[1][1].payload["h_phi"].dim == 10

    def test_sl2_factor_has_its_isotropy_only(self):
        g = build_sl(2)
        entries = builtin_cei_catalog(decompose(g), [0])
        assert entries == [("so(2)", g.k_space)]

    def test_product_datum_rejected(self):
        # the product's name starts with "so(1,", but it has no single matrix block
        datum = decompose(direct_sum([build_so1n(3), build_so1n(3)]))
        with pytest.raises(ValueError, match="not a product"):
            builtin_cei_catalog(datum, [0])

    def test_so1n_block_embeddings(self):
        g = build_so1n(3)
        datum = decompose(g)
        entries = builtin_cei_catalog(datum, [0])
        names = [name for name, _ in entries]
        assert names == ["so(3)", "so(1,1)+so(2)"]
        dims = [s.dim for _, s in entries]
        assert dims == [3, 2]

    def test_su1n_entries(self):
        g = build_su1n(2)
        datum = decompose(g)
        entries = builtin_cei_catalog(datum, [0])
        names = [name for name, _ in entries]
        assert names == ["u(2)", "s(u(1,1)+u(1))", "so(1,2)"]
        dims = dict((n, s.dim) for n, s in entries)
        assert dims["u(2)"] == 4
        assert dims["so(1,2)"] == 3


def dense_matrix_kernel(model, inside, condition):
    """The reference matrix kernel: each row's matrix built dense from the
    basis matrices, and a tuple-valued condition on that dense matrix."""
    values = [condition(matrix_of(model, x)) for x in inside.rows]
    return solve_inclusion_constraint(inside, [[sparse(v)] for v in values],
                                      Subspace.zero(len(values[0])))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_symplectic_kernel_equals_the_dense_matrix_product(n):
    # X^T J + J X by dense matrix products is the reference
    datum = decompose(build_sl(n))
    g = datum.model
    for j in range(datum.rank - 2):
        s_phi = build_parabolic(datum, (j, j + 1, j + 2)).s
        jm = tuple(tuple(1 if (p, q) in ((j, j + 2), (j + 1, j + 3)) else
                         -1 if (q, p) in ((j, j + 2), (j + 1, j + 3)) else 0
                         for q in range(n)) for p in range(n))
        sp2 = _symplectic_kernel(g, s_phi, j)
        assert sp2 == dense_matrix_kernel(
            g, s_phi, lambda x: flatten(msum(product(transpose(x), jm), product(jm, x))))
        assert sp2.dim == 10


@pytest.mark.parametrize("build", [lambda: build_so1n(3), lambda: build_so1n(5),
                                   lambda: build_su1n(2), lambda: build_su1n(4)],
                         ids=["rh3", "rh5", "ch2", "ch4"])
def test_entries_zero_subspaces_equal_the_dense_matrix_reference(monkeypatch, build):
    # every matrix block the rank-one catalog cuts out, read off dense matrices
    calls = []
    entries_zero = actions_module._entries_zero_subspace

    def recorded(model, positions):
        calls.append((model, positions, entries_zero(model, positions)))
        return calls[-1][2]

    monkeypatch.setattr(actions_module, "_entries_zero_subspace", recorded)
    builtin_cei_catalog(decompose(build()), [0])
    assert calls
    for model, positions, sub in calls:
        assert sub == dense_matrix_kernel(model, Subspace.full(model.dim),
                                          lambda x: tuple(x[p][q] for p, q in positions))


def test_a_factor_diagonal_spans_only_its_graph_at_product_size(monkeypatch):
    # the blocks' canonical rows are compared, not spanned; blocks with
    # disjoint supports meet only in 0, and commute when every bracket of
    # their rows vanishes: the one span is the graph's
    p = direct_sum([build_so1n(3), build_sl(3), build_so1n(3)])
    blocks = [p.embed({i: Subspace.full(p.factors[i].dim)}) for i in (0, 2)]
    widths = []
    eliminate = linalg._eliminate

    def recorded(work, ncols):
        widths.append(ncols)
        return eliminate(work, ncols)

    monkeypatch.setattr(linalg, "_eliminate", recorded)
    graph = _graph(p, *blocks, zip(blocks[0].rows, blocks[1].rows))
    assert widths == [p.dim]
    monkeypatch.undo()
    assert graph == Subspace.span(p.dim, [{**x, **y} for x, y in zip(*(b.rows for b in blocks))])
    assert graph.dim == p.factors[0].dim


def test_catalog_entry_phi_is_one_based():
    entries = enumerate_sl(2).entries
    (fh,) = [e for e in entries if e.label == "FH"]
    (fs2,) = [e for e in entries if e.label == "FS" and e.comment == "j=2"]
    assert fs2.to_json()["phi"] == [2]
    assert fh.to_json()["phi"] == []


def test_non_closed_algebra_fails_the_closure_note():
    # E12 and E23 span no subalgebra: [E12, E23] = E13 lies outside
    e12 = SL3.coords(to_entries(mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])))
    e23 = SL3.coords(to_entries(mat([[0, 0, 0], [0, 0, 1], [0, 0, 0]])))
    spec = ActionSpec("FH", SL3, None, Subspace.span(SL3.dim, [e12, e23]))
    report = verify(spec, SL3_DATUM)
    (note,) = [n for n in report.to_json()["notes"] if n["name"] == "bracket-closure"]
    assert note == {"name": "bracket-closure", "passed": False,
                    "sub_check": "bracket-leaves-algebra", "witness": [0, 1]}
    assert not report.all_exact_checks_passed


def test_the_closure_witness_is_the_first_pair_whose_bracket_leaves():
    # h = diag(1, -1, 0), E12 and E23: h normalizes both, and [E12, E23] = E13
    # leaves the span, so the first pair of rows whose bracket leaves is not
    # the first pair of rows
    gens = [SL3.coords(to_entries(mat(rows))) for rows in ([[1, 0, 0], [0, -1, 0], [0, 0, 0]],
                                               [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                                               [[0, 0, 0], [0, 0, 1], [0, 0, 0]])]
    algebra = Subspace.span(SL3.dim, gens)
    pairs = [(a, b) for a in range(algebra.dim) for b in range(a + 1, algebra.dim)]
    leaving = [(a, b) for a, b in pairs
               if not algebra.contains_vector(SL3.bracket(algebra.rows[a], algebra.rows[b]))]
    assert leaving and leaving[0] != pairs[0]
    assert SL3.bracket_leaving_pair(algebra) == leaving[0]
    report = verify(ActionSpec("FH", SL3, None, algebra), SL3_DATUM)
    (note,) = [n for n in report.to_json()["notes"] if n["name"] == "bracket-closure"]
    assert note == {"name": "bracket-closure", "passed": False,
                    "sub_check": "bracket-leaves-algebra", "witness": list(leaving[0])}
    # a subalgebra has no such pair, and its note is its name and verdict only
    fh = make_fh(SL3, Subspace.span(SL3.dim, [SL3_DATUM.simple[0].root_vector]))
    assert SL3.bracket_leaving_pair(fh.algebra) is None
    (note,) = [n for n in verify(fh, SL3_DATUM).to_json()["notes"]
               if n["name"] == "bracket-closure"]
    assert note == {"name": "bracket-closure", "passed": True}


def _payload_specs():
    """One spec of each kind: FH, FS, CEI, CER by the sl2 route and by the
    factor route, NC and Prod."""
    fh = make_fh(SL3, Subspace.span(SL3.dim, [SL3_DATUM.simple[0].root_vector]))
    fs = make_fs(SL3_DATUM, 0)
    iso = subspace_intersect(build_parabolic(SL4_DATUM, [0]).s, SL4.k_space)
    cei = canonical_extend(SL4_DATUM, build_parabolic(SL4_DATUM, [0]), iso)
    cer = make_cer(SL4_DATUM, 0, 2)
    p = direct_sum([build_sl(3), build_sl(3)])
    factor_cer = make_factor_diagonal(p, decompose(p), 0, 1)
    v = generator_span(tensor_model(SL4_DATUM, 1), [(1, 1), (2, 1)])
    nc = nilpotent_construct(SL4_DATUM, build_parabolic(SL4_DATUM, [0, 2]), v)
    rh = direct_sum([build_so1n(3), build_so1n(2)])
    prod = product_assemble(rh, 0, make_fh(rh.factors[0], rh.factors[0].a_space))
    return [fh, fs, cei, cer, factor_cer, nc, prod]


def test_every_payload_key_is_read_by_verify():
    source = inspect.getsource(verify_module)
    specs = _payload_specs()
    assert sorted({s.kind for s in specs}) == ["CEI", "CER", "FH", "FS", "NC", "Prod"]
    for spec in specs:
        for key in spec.payload:
            assert f'"{key}"' in source, (spec.kind, key)
