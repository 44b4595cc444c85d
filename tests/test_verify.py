"""Tests for the verification layer."""

import pytest

from cohomatlas.linalg import Subspace, orthocomplement_in, subspace_sum
from cohomatlas.models import build_sl, build_so1n, build_su1n, direct_sum
from cohomatlas.actions import (
    builtin_cei_catalog,
    canonical_extend,
    make_cer,
    make_factor_diagonal,
    make_fh,
    make_fs,
    nilpotent_construct,
)
from cohomatlas.parabolic import build_parabolic, tensor_model
from cohomatlas.roots import decompose
from cohomatlas import verify as verify_module
from cohomatlas.verify import (
    Failure,
    RationalSampler,
    check_lie_triple,
    check_nc1,
    check_nc2,
    check_polar_certificate,
    nc1_normalizer_tangent,
    orbit_tangent_at_o,
    polar_section,
    slice_cohomogeneity,
    verify,
)


class TestOrbitTangent:
    def test_isotropy_fixes_o(self):
        g = build_sl(3)
        assert orbit_tangent_at_o(g, g.k_space).dim == 0

    def test_solvable_part_is_transitive(self):
        g = build_sl(3)
        an = subspace_sum(g.a_space, g.n_space)
        assert orbit_tangent_at_o(g, an) == g.p_space

    def test_diagonal_tangent_dims(self):
        for build, expected in ((build_so1n(2), 2), (build_so1n(3), 3)):
            p = direct_sum([build, build.__class__ and build])  # same model twice
            # direct_sum of the same object twice embeds two copies
            datum = decompose(p)
            fd = make_factor_diagonal(p, datum, 0, 1)
            assert orbit_tangent_at_o(p, fd.payload["diag"]).dim == expected


class TestSliceCohomogeneity:
    def test_transitive_action(self):
        g = build_sl(3)
        an = subspace_sum(g.a_space, g.n_space)
        assert slice_cohomogeneity(g, an, seed=7, samples=8) == (0, "exact")

    def test_fh_exact_one(self):
        g = build_sl(4)
        spec = make_fh(g, Subspace.span(g.dim, [g.a_space.basis[0]]))
        assert slice_cohomogeneity(g, spec.algebra, seed=7, samples=8) == (1, "exact")

    def test_diagonal_rank_one_pair(self):
        p = direct_sum([build_so1n(2), build_so1n(2)])
        datum = decompose(p)
        fd = make_factor_diagonal(p, datum, 0, 1)
        cohom, certainty = slice_cohomogeneity(p, fd.algebra, seed=7, samples=32)
        assert cohom == 1
        assert certainty == "sampled"

    def test_diagonal_rank_two_pair_rejected_value(self):
        p = direct_sum([build_sl(3), build_sl(3)])
        datum = decompose(p)
        fd = make_factor_diagonal(p, datum, 0, 1)
        cohom, _ = slice_cohomogeneity(p, fd.algebra, seed=7, samples=32)
        assert cohom == 2  # equals the factor rank, so not cohomogeneity one

    def test_stability_across_seeds(self):
        p = direct_sum([build_so1n(3), build_so1n(3)])
        datum = decompose(p)
        fd = make_factor_diagonal(p, datum, 0, 1)
        values = {slice_cohomogeneity(p, fd.algebra, seed=s, samples=32)[0]
                  for s in (7, 11, 13)}
        assert values == {1}


class TestLieTriple:
    def test_whole_p(self):
        g = build_sl(3)
        assert check_lie_triple(g, g.p_space)

    def test_boundary_tangents(self):
        g = build_sl(4)
        datum = decompose(g)
        import itertools

        for size in range(4):
            for phi in itertools.combinations(range(3), size):
                pd = build_parabolic(datum, phi)
                assert check_lie_triple(g, pd.b)

    def test_diagonal_p_part(self):
        p = direct_sum([build_so1n(2), build_so1n(2)])
        datum = decompose(p)
        fd = make_factor_diagonal(p, datum, 0, 1)
        assert check_lie_triple(p, orbit_tangent_at_o(p, fd.payload["diag"]))

    def test_non_triple_rejected_value(self):
        from cohomatlas.linalg import Matrix

        g = build_sl(3)
        # span{E_12 + E_21, diag(0,1,-1)}: the double bracket escapes
        sym = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        dia = Matrix.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, -1]])
        b = Subspace.span(g.dim, [g.coords(sym), g.coords(dia)])
        assert not check_lie_triple(g, b)

    def test_requires_subspace_of_p(self):
        g = build_sl(3)
        with pytest.raises(ValueError):
            check_lie_triple(g, g.k_space)


class TestNc1:
    def test_column_family_passes(self):
        g = build_sl(4)
        datum = decompose(g)
        pd = build_parabolic(datum, [0, 2])
        tm = tensor_model(datum, 1)
        assert check_nc1(g, pd, tm.column(1))

    def test_two_diagonal_components_fail(self):
        g = build_sl(4)
        datum = decompose(g)
        pd = build_parabolic(datum, [0, 2])
        tm = tensor_model(datum, 1)
        v = Subspace.span(
            g.dim,
            [tm.vector({(1, 1): 1, (2, 2): 1}), tm.generators[(1, 2)]],
        )
        assert not check_nc1(g, pd, v)
        # the deficiency is in the boundary flat: a^phi escapes the projection
        proj = nc1_normalizer_tangent(g, pd, v)
        assert not proj.contains(pd.a_upper)

    def test_rank_one_factor_always_passes(self):
        p = direct_sum([build_so1n(4), build_so1n(2)])
        datum = decompose(p)
        pd = build_parabolic(datum, [1])
        f0 = p.factors[0]
        v = p.embed_subspace(0, Subspace.span(f0.dim, f0.n_space.basis[:2]))
        assert check_nc1(p, pd, v)


class TestNc2:
    def test_column_family_contains_rotations(self):
        g = build_sl(4)
        datum = decompose(g)
        pd = build_parabolic(datum, [0, 2])
        tm = tensor_model(datum, 1)
        assert check_nc2(g, pd, tm.column(1), seed=7, samples=32) == ("yes", "contains-so")

    def test_any_subspace_of_real_hyperbolic_root_space(self):
        p = direct_sum([build_so1n(4), build_so1n(2)])
        datum = decompose(p)
        pd = build_parabolic(datum, [1])
        f0 = p.factors[0]
        v = p.embed_subspace(0, Subspace.span(f0.dim, f0.n_space.basis[:2]))
        assert check_nc2(p, pd, v, seed=7, samples=32) == ("yes", "contains-so")

    def test_skew_mixed_family_fails_with_witness(self):
        g = build_sl(4)
        datum = decompose(g)
        pd = build_parabolic(datum, [0, 2])
        tm = tensor_model(datum, 1)
        v = Subspace.span(
            g.dim, [tm.vector({(1, 1): 1, (2, 2): 1}), tm.generators[(1, 2)]]
        )
        verdict, cert = check_nc2(g, pd, v, seed=7, samples=32)
        assert (verdict, cert) == ("no", "failed-witness")

    def test_witness_is_monotone(self):
        g = build_sl(4)
        datum = decompose(g)
        pd = build_parabolic(datum, [0, 2])
        tm = tensor_model(datum, 1)
        v = Subspace.span(
            g.dim, [tm.vector({(1, 1): 1, (2, 2): 1}), tm.generators[(1, 2)]]
        )
        for samples in (8, 32, 128):
            verdict, _ = check_nc2(g, pd, v, seed=11, samples=samples)
            assert verdict == "no"


class TestPolarCertificate:
    def test_hyperbolic_plane_pair(self):
        p = direct_sum([build_so1n(2), build_so1n(2)])
        datum = decompose(p)
        fd = make_factor_diagonal(p, datum, 0, 1)
        assert check_polar_certificate(fd)
        assert polar_section(fd).dim == 1

    def test_higher_rank_pair_still_polar(self):
        p = direct_sum([build_sl(3), build_sl(3)])
        datum = decompose(p)
        fd = make_factor_diagonal(p, datum, 0, 1)
        assert check_polar_certificate(fd)
        assert polar_section(fd).dim == 2

    def test_requires_diagonal_kind(self):
        g = build_sl(3)
        spec = make_fh(g, Subspace.span(g.dim, [g.a_space.basis[0]]))
        with pytest.raises(ValueError):
            check_polar_certificate(spec)


def _failing_section(spec, sub_check):
    """A section candidate whose first failing polar sub-check is sub_check."""
    model, diag = spec.model, spec.payload["diag"]
    if sub_check == "section-not-abelian":
        return Subspace.full(model.dim)
    if sub_check == "section-not-normal-to-orbit":  # a line in the orbit tangent
        return Subspace.span(model.dim, orbit_tangent_at_o(model, diag).basis[:1])
    # a line in k: normal to the orbit, but not orthogonal to the diagonal
    return Subspace.span(model.dim, model.project_k_subspace(diag).basis[:1])


@pytest.mark.parametrize("sub_check", ["section-not-abelian", "section-not-normal-to-orbit",
                                       "diagonal-not-orthogonal"])
def test_failing_polar_certificate_names_sub_check_and_witness(monkeypatch, sub_check):
    g = build_sl(4)
    datum = decompose(g)
    spec = make_cer(datum, 0, 2)
    section = _failing_section(spec, sub_check)
    monkeypatch.setattr(verify_module, "polar_section", lambda s: section)
    result = check_polar_certificate(spec)
    assert not result
    assert isinstance(result, Failure)
    assert result.sub_check == sub_check
    i, j = result.witness
    diag = spec.payload["diag"]
    if sub_check == "section-not-abelian":
        assert any(g.bracket(section.basis[i], section.basis[j]))
    elif sub_check == "section-not-normal-to-orbit":
        tangent = orbit_tangent_at_o(g, diag)
        assert g.inner_product(section.basis[i], tangent.basis[j]) != 0
    else:
        assert g.inner_product(diag.basis[i], section.basis[j]) != 0
    report = verify(spec, datum)
    (note,) = [n for n in report.to_json()["notes"] if n["name"] == "polar-section-certificate"]
    assert note == {"name": "polar-section-certificate", "passed": False,
                    "sub_check": sub_check, "witness": [i, j]}
    assert not report.all_exact_checks_passed


def test_passing_polar_note_has_name_and_verdict_only():
    datum = decompose(build_sl(4))
    report = verify(make_cer(datum, 0, 2), datum)
    (note,) = [n for n in report.to_json()["notes"] if n["name"] == "polar-section-certificate"]
    assert note == {"name": "polar-section-certificate", "passed": True}


class TestVerifyOrchestration:
    def test_fh_report(self):
        g = build_sl(4)
        datum = decompose(g)
        spec = make_fh(g, Subspace.span(g.dim, [g.a_space.basis[0]]))
        report = verify(spec, datum)
        assert report.codim_at_o == 1
        assert report.cohomogeneity == 1
        assert report.cohomogeneity_certainty == "exact"
        assert report.singular_orbit_totally_geodesic == "not-checked"
        assert report.all_exact_checks_passed

    def test_sp2_row_report(self):
        g = build_sl(4)
        datum = decompose(g)
        pd = build_parabolic(datum, [0, 1, 2])
        entries = dict((n, (s, sp)) for n, s, sp in builtin_cei_catalog(datum, [0, 1, 2]))
        sp2, gens = entries["sp(2,R)"]
        spec = canonical_extend(datum, pd, sp2, gens)
        report = verify(spec, datum)
        assert report.codim_at_o == 3
        assert report.cohomogeneity == 1
        assert report.singular_orbit_totally_geodesic == "yes"

    def test_nc_report(self):
        g = build_sl(4)
        datum = decompose(g)
        pd = build_parabolic(datum, [0, 2])
        tm = tensor_model(datum, 1)
        spec = nilpotent_construct(datum, pd, tm.column(1))
        spec.payload["ce_match"] = ((0,), (0, 1))
        report = verify(spec, datum)
        assert report.nc1 == "yes"
        assert report.nc2 == "yes"
        assert report.nc2_certificate == "contains-so"
        assert report.cohomogeneity == 1
        assert report.all_exact_checks_passed
        names = [n for n, _ in report.notes]
        assert "extension-inside-nilpotent-algebra" in names
        assert "solvable-projection-matches-complement" in names

    def test_cer_report(self):
        g = build_sl(4)
        datum = decompose(g)
        spec = make_cer(datum, 0, 2)
        report = verify(spec, datum)
        assert report.codim_at_o == 2
        assert report.cohomogeneity == 1
        assert report.singular_orbit_totally_geodesic == "yes"
        assert dict(report.notes)["polar-section-certificate"]

    def test_product_nc_split_note(self):
        p = direct_sum([build_so1n(4), build_so1n(2)])
        datum = decompose(p)
        pd = build_parabolic(datum, [1])
        f0 = p.factors[0]
        v = p.embed_subspace(0, Subspace.span(f0.dim, f0.n_space.basis[:2]))
        spec = nilpotent_construct(datum, pd, v)
        report = verify(spec, datum)
        assert dict(report.notes)["product-block-split"]
        assert report.nc1 == "yes"
        assert report.nc2 == "yes"


def test_sampler_determinism():
    a = RationalSampler(7)
    b = RationalSampler(7)
    assert [a.coefficient() for _ in range(20)] == [b.coefficient() for _ in range(20)]
    c = RationalSampler(8)
    assert [a.coefficient() for _ in range(5)] != [c.coefficient() for _ in range(5)]
