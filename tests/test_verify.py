"""Tests for the verification layer."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cohomatlas.linalg import (
    SpanSolver,
    Subspace,
    combination,
    orthocomplement_in,
    rat,
    subspace_intersect,
    subspace_sum,
)
from cohomatlas.models import LieModel, build_sl, build_so1n, build_su1n, direct_sum
from cohomatlas.actions import (
    ActionSpec,
    _graph,
    _rational_sqrt,
    _sl2_triple,
    builtin_cei_catalog,
    canonical_extend,
    make_cer,
    make_factor_diagonal,
    make_fh,
    make_fs,
    nilpotent_construct,
)
from cohomatlas import catalog
from cohomatlas.catalog import ce_families
from cohomatlas.cli import RunConfig, parse_space, run
from cohomatlas import parabolic as parabolic_module
from cohomatlas.parabolic import build_parabolic, nilpotent_roots, tensor_model
from cohomatlas.roots import decompose
from cohomatlas import verify as verify_module
from cohomatlas.verify import (
    Note,
    RationalSampler,
    check_lie_triple,
    check_nc1,
    check_nc2,
    check_polar_certificate,
    closure_note,
    extension_composition_ok,
    graded_closure_failure,
    orbit_tangent_at_o,
    polar_section,
    slice_cohomogeneity,
    slice_pieces,
    verify,
)
from dense_reference import (basis, bracket, coords_of, dense, from_coords, inner_product, mat,
                             sparse, to_entries)
from levi_reference import reference_levi_normalizer, restriction_matrices
from nested_reference import nested_pieces
from span_reference import generator_span, theta_image


def vadd(u, v) -> tuple:
    """The entrywise sum of two dense vectors."""
    return tuple(a + b for a, b in zip(u, v))


def skew_mixed_rows(tm) -> list:
    """The rows E_11 + E_22 and E_12 of the 2 x 2 top piece of a tensor model."""
    g = tm.generators
    return [combination((1, 1), (g[1, 1], g[2, 2])), g[1, 2]]


def full_slice(model, algebra) -> tuple:
    """The slice pieces of an action algebra read in p: the algebra, p and
    its orbit tangent at o."""
    return algebra, model.p_space, orbit_tangent_at_o(model, algebra)


def note_named(report, name: str) -> Note:
    """The report's one note with the given name."""
    (note,) = [n for n in report.notes if n.name == name]
    return note


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
            assert orbit_tangent_at_o(p, fd.payload["h_phi"]).dim == expected


class TestSliceCohomogeneity:
    def test_transitive_action(self):
        g = build_sl(3)
        an = subspace_sum(g.a_space, g.n_space)
        assert slice_cohomogeneity(g, *full_slice(g, an), seed=7, samples=8) == (0, "exact")

    def test_fh_exact_one(self):
        g = build_sl(4)
        spec = make_fh(g, Subspace.span(g.dim, g.a_space.rows[:1]))
        assert slice_cohomogeneity(g, *full_slice(g, spec.algebra), seed=7, samples=8) == (1, "exact")

    def test_diagonal_rank_one_pair(self):
        p = direct_sum([build_so1n(2), build_so1n(2)])
        datum = decompose(p)
        fd = make_factor_diagonal(p, datum, 0, 1)
        cohom, certainty = slice_cohomogeneity(p, *full_slice(p, fd.algebra), seed=7, samples=32)
        assert cohom == 1
        assert certainty == "sampled"

    def test_diagonal_rank_two_pair_rejected_value(self):
        p = direct_sum([build_sl(3), build_sl(3)])
        datum = decompose(p)
        fd = make_factor_diagonal(p, datum, 0, 1)
        cohom, _ = slice_cohomogeneity(p, *full_slice(p, fd.algebra), seed=7, samples=32)
        assert cohom == 2  # equals the factor rank, so not cohomogeneity one

    def test_stability_across_seeds(self):
        p = direct_sum([build_so1n(3), build_so1n(3)])
        datum = decompose(p)
        fd = make_factor_diagonal(p, datum, 0, 1)
        values = {slice_cohomogeneity(p, *full_slice(p, fd.algebra), seed=s, samples=32)[0]
                  for s in (7, 11, 13)}
        assert values == {1}

    def test_each_isotropy_normal_bracket_is_computed_once(self, monkeypatch):
        # CE row 1 of sl(3): so(2) isotropy turning a normal plane; one draw
        # spans the orbit direction, so the count is |isotropy| x |normal|
        # closure and triviality brackets plus |isotropy| sampled ones
        g = build_sl(3)
        (spec,) = [r[4] for r in ce_families(decompose(g))
                   if (r[0], r[3]) == ("CE-row-1", "j=1")]
        tangent = orbit_tangent_at_o(g, spec.algebra)
        nu_dim = g.p_space.dim - tangent.dim
        iso_dim = subspace_intersect(spec.algebra, g.k_space).dim
        assert (iso_dim, nu_dim) == (1, 2)
        calls = []
        bracket = g.bracket

        def counted(x, y):
            calls.append(1)
            return bracket(x, y)

        monkeypatch.setattr(g, "bracket", counted)
        assert slice_cohomogeneity(g, *full_slice(g, spec.algebra), seed=7, samples=1) == (1, "sampled")
        assert len(calls) == iso_dim * nu_dim + iso_dim


    def test_trivial_isotropy_solves_for_no_normal_space(self, monkeypatch):
        # FH and FS algebras meet k in 0: the value is the codimension
        g = build_sl(4)
        datum = decompose(g)
        specs = [make_fh(g, Subspace.span(g.dim, g.a_space.rows[:1]))]
        specs += [make_fs(datum, j) for j in range(datum.rank)]

        def refused(*args):
            raise AssertionError("a normal space was solved for")

        monkeypatch.setattr(verify_module, "orthocomplement_in", refused)
        for spec in specs:
            assert slice_cohomogeneity(g, *full_slice(g, spec.algebra), seed=7,
                                       samples=8) == (1, "exact")


CE_BUILDERS = {"sl": build_sl, "rh": build_so1n, "ch": build_su1n}


def ce_specs(space: str) -> list:
    """(datum, spec) for every CEI and CER row of a space: the CE rows of an
    sl table, the built-in boundary subalgebras of a rank-one model
    extended, and the factor diagonals of a product of identical factors."""
    factors = [CE_BUILDERS[f[:2]](int(f[3:-1])) for f in space.split("*")]
    if len(factors) > 1:
        pm = direct_sum(factors)
        datum = decompose(pm)
        return [(datum, make_factor_diagonal(pm, datum, j, k))
                for j, k in itertools.combinations(range(len(factors)), 2)]
    datum = decompose(factors[0])
    if space.startswith("sl"):
        return [(datum, row[4]) for row in ce_families(datum)]
    pd = build_parabolic(datum, (0,))
    return [(datum, canonical_extend(datum, pd, h)) for _, h in builtin_cei_catalog(datum, (0,))]


@pytest.mark.parametrize("space", ["sl(3)", "sl(4)", "sl(5)", "sl(6)", "sl(7)", "rh(2)",
                                   "rh(3)", "rh(5)", "ch(2)", "ch(3)", "ch(4)", "ch(3)*ch(3)",
                                   "rh(3)*rh(3)*rh(3)"])
def test_a_canonical_extension_reads_its_slice_on_the_boundary_component(space):
    # the B_phi pieces against the whole-algebra ones: p(H), p minus p(H), H & k
    specs = ce_specs(space)
    assert specs
    for datum, spec in specs:
        model, algebra = spec.model, spec.algebra
        assert closure_note(spec, datum).passed
        h, ambient, tangent, orbit_dim = slice_pieces(spec, datum, True)
        assert (h, ambient) == (spec.payload["h_phi"], build_parabolic(datum, spec.phi).b)
        full = orbit_tangent_at_o(model, algebra)
        assert orbit_dim == full.dim, (space, spec.phi)
        assert orthocomplement_in(tangent, ambient, model.inner) == \
            orthocomplement_in(full, model.p_space, model.inner), (space, spec.phi)
        assert subspace_intersect(h, model.k_space) == \
            subspace_intersect(algebra, model.k_space), (space, spec.phi)


@pytest.mark.parametrize("space", ["sl(5)", "rh(4)", "ch(3)", "ch(3)*ch(3)"])
def test_a_canonical_extension_solves_for_no_normal_space_in_p(monkeypatch, space):
    ambients = []
    complement = verify_module.orthocomplement_in

    def recorded(v, w, form):
        ambients.append(w)
        return complement(v, w, form)

    monkeypatch.setattr(verify_module, "orthocomplement_in", recorded)
    specs = ce_specs(space)
    for datum, spec in specs:
        verify(spec, datum)
    # b is p itself where phi holds every simple root, so the route is told
    # by the object: the model's p_space is never the ambient
    assert ambients and all(w is not spec.model.p_space for w in ambients)
    # the same algebra as a Prod spec, which has no boundary piece, is read in p
    datum, spec = specs[0]
    verify(spec._replace(kind="Prod"), datum)
    assert ambients[-1] is spec.model.p_space


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
        assert check_lie_triple(p, orbit_tangent_at_o(p, fd.payload["h_phi"]))

    def test_non_triple_rejected_value(self):
        g = build_sl(3)
        # span{E_12 + E_21, diag(0,1,-1)}: the double bracket escapes
        sym = mat([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        dia = mat([[0, 0, 0], [0, 1, 0], [0, 0, -1]])
        b = Subspace.span(g.dim, [g.coords(to_entries(sym)), g.coords(to_entries(dia))])
        assert not check_lie_triple(g, b)

    def test_requires_subspace_of_p(self):
        g = build_sl(3)
        with pytest.raises(ValueError):
            check_lie_triple(g, g.k_space)


def _m_normalizer_tangent(model, pd, v):
    """Reference for NC1: the p-projection of the m_phi-normalizer of
    n_phi minus v, the criterion as Berndt and Tamaru state it."""
    complement = orthocomplement_in(v, pd.n_phi, model.inner)
    m = orthocomplement_in(pd.a_phi, pd.l, model.inner)
    return model.project_p_subspace(model.normalizer_in(m, complement))


def _nc1(datum, pd, v):
    return check_nc1(verify_module.levi_normalizer(datum.model, pd, v))


def _nc1_cases():
    """(datum, pd, candidates): for each j of sl(4), every coordinate
    subspace of the tensor basis of dim >= 2 and 30 seeded probes of the top
    graded piece; the same for the root space of rh(4) in rh(4)*rh(2)."""
    cases = []
    datum = decompose(build_sl(4))
    for j in range(datum.rank):
        tm = tensor_model(datum, j)
        keys = sorted(tm.generators)
        coordinate = [generator_span(tm, subset) for size in range(2, len(keys) + 1)
                      for subset in itertools.combinations(keys, size)]
        cases.append((f"sl4-j{j + 1}", datum,
                      build_parabolic(datum, [i for i in range(datum.rank) if i != j]),
                      coordinate))
    p = direct_sum([build_so1n(4), build_so1n(2)])
    datum = decompose(p)
    pd = build_parabolic(datum, [1])
    rows = pd.grading[1].rows
    coordinate = [Subspace.span(p.dim, subset) for size in range(2, len(rows) + 1)
                  for subset in itertools.combinations(rows, size)]
    cases.append(("rh4xrh2", datum, pd, coordinate))
    out = []
    for name, datum, pd, coordinate in cases:
        top, sampler = pd.grading[1], RationalSampler(7)
        probes = [sampler.subspace_in(top, 2 + t % (top.dim - 1)) for t in range(30)]
        out.append(pytest.param(datum, pd, coordinate + probes, id=name))
    return out


class TestNc1:
    def test_column_family_passes(self):
        g = build_sl(4)
        datum = decompose(g)
        pd = build_parabolic(datum, [0, 2])
        tm = tensor_model(datum, 1)
        assert _nc1(datum, pd, generator_span(tm, [(1, 1), (2, 1)]))

    def test_two_diagonal_components_fail(self):
        g = build_sl(4)
        datum = decompose(g)
        pd = build_parabolic(datum, [0, 2])
        tm = tensor_model(datum, 1)
        v = Subspace.span(g.dim, skew_mixed_rows(tm))
        assert not _nc1(datum, pd, v)
        # the deficiency is in the boundary flat: a^phi escapes the projection
        proj = _m_normalizer_tangent(g, pd, v)
        assert not proj.contains(pd.a_upper)

    def test_rank_one_factor_always_passes(self):
        p = direct_sum([build_so1n(4), build_so1n(2)])
        datum = decompose(p)
        pd = build_parabolic(datum, [1])
        f0 = p.factors[0]
        v = p.embed({0: Subspace.span(f0.dim, f0.n_space.rows[:2])})
        assert _nc1(datum, pd, v)

    @pytest.mark.parametrize("datum, pd, candidates", _nc1_cases())
    def test_levi_normalizer_matches_the_m_normalizer_criterion(self, datum, pd, candidates):
        model = datum.model
        verdicts = []
        for v in candidates:
            expected = _m_normalizer_tangent(model, pd, v).contains(pd.b)
            assert _nc1(datum, pd, v) == expected
            verdicts.append(expected)
        assert True in verdicts


def _operators(model, pd, v) -> list:
    """The NC2 operators of v, read off its Levi solve."""
    return verify_module.levi_normalizer(model, pd, v).operators


class TestNc2:
    def test_column_family_contains_rotations(self):
        g = build_sl(4)
        datum = decompose(g)
        pd = build_parabolic(datum, [0, 2])
        tm = tensor_model(datum, 1)
        v = generator_span(tm, [(1, 1), (2, 1)])
        assert check_nc2(g, v, _operators(g, pd, v), seed=7, samples=32) == (
            "yes", "contains-so")

    def test_any_subspace_of_real_hyperbolic_root_space(self):
        p = direct_sum([build_so1n(4), build_so1n(2)])
        datum = decompose(p)
        pd = build_parabolic(datum, [1])
        f0 = p.factors[0]
        v = p.embed({0: Subspace.span(f0.dim, f0.n_space.rows[:2])})
        assert check_nc2(p, v, _operators(p, pd, v), seed=7, samples=32) == (
            "yes", "contains-so")

    def test_skew_mixed_family_fails_with_witness(self):
        g = build_sl(4)
        datum = decompose(g)
        pd = build_parabolic(datum, [0, 2])
        tm = tensor_model(datum, 1)
        v = Subspace.span(g.dim, skew_mixed_rows(tm))
        verdict, cert = check_nc2(g, v, _operators(g, pd, v), seed=7, samples=32)
        assert (verdict, cert) == ("no", "failed-witness")

    def test_witness_is_monotone(self):
        g = build_sl(4)
        datum = decompose(g)
        pd = build_parabolic(datum, [0, 2])
        tm = tensor_model(datum, 1)
        v = Subspace.span(g.dim, skew_mixed_rows(tm))
        for samples in (8, 32, 128):
            verdict, _ = check_nc2(g, v, _operators(g, pd, v), seed=11, samples=samples)
            assert verdict == "no"

    @pytest.mark.parametrize("op", [((1, 0), (0, 1)), ((0, 1), (0, 0))],
                             ids=["diagonal", "off-diagonal"])
    def test_operator_that_is_not_skew_is_rejected(self, op):
        datum = decompose(build_sl(4))
        v = generator_span(tensor_model(datum, 1), [(1, 1), (2, 1)])
        with pytest.raises(ValueError, match="not skew on v"):
            check_nc2(datum.model, v, [op], seed=7, samples=32)

    def test_an_operator_that_leaves_v_raises(self):
        g = build_sl(4)
        datum = decompose(g)
        pd = build_parabolic(datum, [0, 2])
        v = generator_span(tensor_model(datum, 1), [(1, 1), (2, 1)])
        split = verify_module.levi_normalizer(g, pd, v)
        assert len(split.operators) == 1
        # every row of k_phi as a solution row: the rotation of the columns
        # moves the column of v off it
        cut = pd.l_p.dim
        rows = [{cut + a: 1} for a in range(pd.k_phi.dim)]
        every = verify_module.LeviNormalizer(split.action, rows, split.v, split.images)
        with pytest.raises(ValueError, match="does not map v into itself"):
            every.operators


def _nc2_inputs(space: str, nc_search: bool) -> dict:
    """(model, pd, v, ops) for each distinct v whose operators reach
    check_nc2 while the report of space is made at seed 7, from the oracle
    sweeps and the NC rows alike, with the parabolic datum of its Levi
    solve."""
    inputs, data = {}, {}
    solve = verify_module.levi_normalizer

    def solved(model, pd, v):
        data[id(model), v] = pd
        return solve(model, pd, v)

    def recorded(model, v, ops, seed, samples):
        inputs.setdefault((id(model), v), (model, data[id(model), v], v, ops))
        return check_nc2(model, v, ops, seed, samples)

    with pytest.MonkeyPatch.context() as mp:
        for module in (catalog, verify_module):
            mp.setattr(module, "levi_normalizer", solved)
            mp.setattr(module, "check_nc2", recorded)
        run(parse_space(space), RunConfig(seed=7, nc_search=nc_search, su1n=True))
    return inputs


def _positive_multiple(new, old) -> bool:
    """Whether the int entries new are c times the entries old, for some c > 0."""
    new, old = list(itertools.chain(*new)), list(itertools.chain(*old))
    if not all(type(x) is int for x in new):
        return False
    i = next((i for i, x in enumerate(old) if x), None)
    if i is None:
        return not any(new)
    c = Fraction(new[i]) / old[i]
    return c > 0 and all(x == c * y for x, y in zip(new, old))


@pytest.mark.parametrize("space,nc_search", [("sl(4)", True), ("ch(3)*ch(3)", False),
                                             ("rh(5)*rh(5)", False)])
def test_integer_restrictions_and_gram_are_positive_multiples_of_the_rational_ones(
        space, nc_search):
    inputs = _nc2_inputs(space, nc_search)
    assert inputs
    if nc_search:  # the probes give rows whose pivot values are not 1
        assert any(row[c] != 1 for _, _, v, _ in inputs.values()
                   for row, c in zip(v.rows, v.pivots))
    assert any(ops for _, _, _, ops in inputs.values())
    for model, pd, v, ops in inputs.values():
        norm = model.normalizer_in(pd.k_phi, v)
        ref = restriction_matrices(model, norm, v)
        # the table's operators are the reference's, row for row, up to scale
        assert len(ops) == len(ref) == norm.dim
        for op, ref_op, t in zip(ops, ref, basis(norm)):
            assert _positive_multiple(op, ref_op)
            cols = [coords_of(v, bracket(model, t, w)) for w in basis(v)]
            old = [[col[i] for col in cols] for i in range(v.dim)]
            assert _positive_multiple(ref_op, old)
        old_gram = [[inner_product(model, x, y) for y in basis(v)] for x in basis(v)]
        assert _positive_multiple(verify_module._gram(model, v), old_gram)


def _split_cases():
    """(model, pd, candidates) for the split normalizer solve: each j of
    sl(3), sl(4) and sl(5), with seeded subspaces of the top graded piece
    of every dimension from 2 up, and the v of every NC row of rh(4) and
    ch(3), whose phi is empty."""
    cases = []
    for m in (3, 4, 5):
        datum = decompose(build_sl(m))
        for j in range(datum.rank):
            pd = build_parabolic(datum, [i for i in range(datum.rank) if i != j])
            top, sampler = pd.grading[1], RationalSampler(100 * m + j)
            probes = [sampler.subspace_in(top, d) for d in range(2, top.dim + 1)
                      for _ in range(2)]
            cases.append(pytest.param(datum.model, pd, probes, id=f"sl{m}-j{j + 1}"))
    for name, model in (("rh4", build_so1n(4)), ("ch3", build_su1n(3))):
        datum = decompose(model)
        profile = datum.profile(datum.simple[0])
        vs = [v for _, v in catalog._rank_one_nc_subspaces(model, datum, profile)]
        cases.append(pytest.param(model, build_parabolic(datum, []), vs, id=name))
    return cases


def _same_operators(ops, ref) -> bool:
    """Whether each operator is a positive multiple of the reference's at
    its place."""
    return len(ops) == len(ref) and all(map(_positive_multiple, ops, ref))


def assert_equals_the_bracket_route(model, pd, v):
    """The table route of levi_normalizer gives the reference's pieces."""
    split = verify_module.levi_normalizer(model, pd, v)
    ref = reference_levi_normalizer(model, pd, v)
    assert (split.p_part, split.p_part.pivots) == (ref.p_part, ref.p_part.pivots)
    assert _same_operators(split.operators, restriction_matrices(model, ref.k_part, v))
    assert split.blocks == ref.blocks
    assert split.theta_dual() == ref.theta_dual()
    # NC1 in l & p coordinates is b inside the placed p-part
    assert check_nc1(split) == ref.p_part.contains(pd.b)


@pytest.mark.parametrize("model, pd, candidates", _split_cases())
def test_the_split_solve_gives_both_blocks_and_the_theta_dual(model, pd, candidates):
    assert candidates
    for v in candidates:
        split = verify_module.levi_normalizer(model, pd, v)
        dual = model.normalizer_in(pd.l, orthocomplement_in(v, pd.n_phi, model.inner))
        # the k-block's operators are those of N_{k_phi}(v), row for row
        norm = model.normalizer_in(pd.k_phi, v)
        assert _same_operators(split.operators, restriction_matrices(model, norm, v))
        # the p-block spans p(N_l(n_phi minus v))
        assert split.p_part == model.project_p_subspace(dual)
        # negating the p-block gives N_l(n_phi minus v) = theta N_l(v)
        assert split.theta_dual() == dual
        assert len(split.blocks) == dual.dim == split.p_part.dim + len(split.operators)
        assert_equals_the_bracket_route(model, pd, v)


@pytest.mark.parametrize("seed", [7, 1007, 2007])
def test_the_table_route_equals_the_bracket_route_on_every_oracle_candidate(seed):
    evaluated = []

    def recorded(model, pd, v):
        evaluated.append((model, pd, v))
        return verify_module.levi_normalizer(model, pd, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catalog, "levi_normalizer", recorded)
        run(parse_space("sl(4)"), RunConfig(seed=seed, nc_search=True))
    assert len(evaluated) > 100
    for model, pd, v in evaluated:
        assert_equals_the_bracket_route(model, pd, v)


def test_the_table_is_built_once_per_datum(monkeypatch):
    datum = decompose(build_sl(5))
    g = datum.model
    pd = build_parabolic(datum, [0, 2, 3])
    sampler = RationalSampler(5)
    probes = [sampler.subspace_in(pd.grading[1], d) for d in (2, 3, 4, 5) for _ in range(5)]
    brackets = []
    original_bracket = LieModel.bracket

    def counted(model, x, y):
        brackets.append(model)
        return original_bracket(model, x, y)

    monkeypatch.setattr(LieModel, "bracket", counted)
    first = verify_module.levi_normalizer(g, pd, probes[0])
    # one bracket per row of l and unit row of g_1
    assert len(brackets) == pd.l.dim * pd.grading[1].dim
    for v in probes[1:]:
        verify_module.levi_normalizer(g, pd, v)
    assert len(brackets) == pd.l.dim * pd.grading[1].dim
    # a p-part placed at model width still takes no bracket
    assert first.p_part.dim and len(brackets) == pd.l.dim * pd.grading[1].dim


def test_a_first_graded_piece_without_unit_rows_raises():
    datum = decompose(build_sl(4))
    g = datum.model
    pd = build_parabolic(datum, [0, 2])
    top = pd.grading[1]
    # the first row mixes in a column of a, left of every column of g_1
    mixed = Subspace.span(g.dim, [{0: 1, top.pivots[0]: 1}] + list(top.rows[1:]))
    assert mixed.dim == top.dim and mixed.rows[0] == {0: 1, top.pivots[0]: 1}
    bad = pd._replace(grading={**pd.grading, 1: mixed})
    v = Subspace.span(g.dim, top.rows[1:3])
    with pytest.raises(ValueError, match="no unit rows"):
        verify_module.levi_normalizer(g, bad, v)


def test_the_split_solve_needs_a_split_levi_piece_and_v_in_the_first_grade():
    datum = decompose(build_sl(4))
    g = datum.model
    pd = build_parabolic(datum, [0, 2])
    v = generator_span(tensor_model(datum, 1), [(1, 1), (2, 1)])
    short = pd._replace(k_phi=Subspace.span(g.dim, pd.k_phi.rows[1:]))
    with pytest.raises(ValueError, match="do not split l"):
        verify_module.levi_normalizer(g, short, v)
    # a root space inside phi is grade 0
    outside = Subspace.span(g.dim, datum.simple[0].space.rows + v.rows[:1])
    with pytest.raises(ValueError, match="first graded piece"):
        verify_module.levi_normalizer(g, pd, outside)


class TestNc2ShortCut:
    def _skew_mixed(self):
        g = build_sl(4)
        datum = decompose(g)
        pd = build_parabolic(datum, [0, 2])
        tm = tensor_model(datum, 1)
        v = Subspace.span(g.dim, skew_mixed_rows(tm))
        return g, pd, v

    def test_a_zero_normalizer_fails_at_once_with_the_witness_verdict(self, monkeypatch):
        g, pd, v = self._skew_mixed()
        assert g.normalizer_in(pd.k_phi, v).dim == 0
        assert _operators(g, pd, v) == []
        expected = check_nc2(g, v, [], seed=7, samples=1)
        assert expected == ("no", "failed-witness")

        def unused(*args):
            raise AssertionError("no Gram, operator or sample for a zero normalizer")

        for name in ("_gram", "RationalSampler"):
            monkeypatch.setattr(verify_module, name, unused)
        assert check_nc2(g, v, [], seed=7, samples=32) == expected

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_sample_is_rejected(self, samples):
        g, pd, v = self._skew_mixed()
        with pytest.raises(ValueError, match="at least one sample"):
            check_nc2(g, v, _operators(g, pd, v), seed=7, samples=samples)


def diagonal_tangent(spec) -> Subspace:
    """The orbit tangent p(h_phi) at o of a CER row's diagonal."""
    return orbit_tangent_at_o(spec.model, spec.payload["h_phi"])


class TestPolarCertificate:
    def test_hyperbolic_plane_pair(self):
        p = direct_sum([build_so1n(2), build_so1n(2)])
        datum = decompose(p)
        fd = make_factor_diagonal(p, datum, 0, 1)
        assert check_polar_certificate(fd, datum, diagonal_tangent(fd)).passed
        assert polar_section(fd, datum).dim == 1

    def test_higher_rank_pair_still_polar(self):
        p = direct_sum([build_sl(3), build_sl(3)])
        datum = decompose(p)
        fd = make_factor_diagonal(p, datum, 0, 1)
        assert check_polar_certificate(fd, datum, diagonal_tangent(fd)).passed
        assert polar_section(fd, datum).dim == 2

    def test_requires_diagonal_kind(self):
        g = build_sl(3)
        spec = make_fh(g, Subspace.span(g.dim, g.a_space.rows[:1]))
        with pytest.raises(ValueError, match="applies to diagonal actions"):
            check_polar_certificate(spec, decompose(g), orbit_tangent_at_o(g, spec.algebra))


@pytest.mark.parametrize("wrong", ["off-sigma-line", "too-wide"])
def test_polar_section_rejects_an_image_flat_sigma_does_not_map_onto(wrong):
    # sl(4), roots 1 and 3.  off-sigma-line: sigma (H_j, E_j, F_j) ->
    # (E_k, H_k, F_k) maps the domain flat onto the line of E_k, off the
    # image flat, so the diagonal meets the flats a^phi only in 0.
    # too-wide: the sl2 sigma extended over all three roots, whose flats a
    # are wider than sigma's domain and image flats together.
    datum = decompose(build_sl(4))
    (hj, ej, fj), (hk, ek, fk) = _sl2_sigma(datum, 0, 2)
    boundaries = [build_parabolic(datum, [i]).s for i in (0, 2)]
    if wrong == "off-sigma-line":
        phi, pairs = [0, 2], [(hj, ek), (ej, hk), (fj, fk)]
    else:
        phi, pairs = [0, 1, 2], [(hj, hk), (ej, ek), (fj, fk)]
    graph = _graph(datum.model, *boundaries, [tuple(map(sparse, xy)) for xy in pairs])
    pd = build_parabolic(datum, phi)
    spec = canonical_extend(datum, pd, graph, kind="CER")
    assert 2 * subspace_intersect(graph, pd.a_upper).dim != pd.a_upper.dim
    with pytest.raises(ValueError, match="onto the image flat"):
        polar_section(spec, datum)


def _sigma_section(model, domain_basis, images, a_dom):
    """The section built from sigma as a map, the reference: each H of the
    domain flat goes through its coordinates in sigma's domain basis."""
    solver = SpanSolver(domain_basis, model.dim)
    images = [sparse(x) for x in images]
    sigma_a = [dense(combination(solver.coords(sparse(h)), images), model.dim)
               for h in basis(a_dom)]
    diagonal = Subspace.span(model.dim, [vadd(h, sh) for h, sh in zip(basis(a_dom), sigma_a)])
    flats = Subspace.span(model.dim, list(basis(a_dom)) + sigma_a)
    return orthocomplement_in(diagonal, flats, model.inner)


def _sl2_sigma(datum, j, k):
    """sigma of the sl2 route on bases: (H_j, E_j, F_j) -> (H_k, t E_k, F_k / t),
    as dense vectors."""
    hj, ej, fj, cj = _sl2_triple(datum.model, datum, datum.simple[j])
    hk, ek, fk, ck = _sl2_triple(datum.model, datum, datum.simple[k])
    t = _rational_sqrt(rat(cj) / ck)
    sigma = ((hj, ej, fj), (hk, {i: t * x for i, x in ek.items()}, {i: x / t for i, x in fk.items()}))
    return tuple(tuple(dense(v, datum.model.dim) for v in side) for side in sigma)


@pytest.mark.parametrize("space", ["sl(5)", "sl(3)*sl(2)", "rh(3)*rh(3)", "ch(2)*ch(2)",
                                   "sl(3)*rh(2)*rh(2)"])
def test_polar_section_matches_the_section_built_from_sigma(monkeypatch, space):
    # each CER row's diagonal is recorded with its datum, the roots of
    # sigma's domain, and sigma as a map on bases
    sigmas = []

    def cer(datum, j, k):
        spec = make_cer(datum, j, k)
        sigmas.append((spec, datum, [j], *_sl2_sigma(datum, j, k)))
        return spec

    def factor_diagonal(pm, datum, j, k):
        spec = make_factor_diagonal(pm, datum, j, k)
        block_j, block_k = (pm.embed({i: Subspace.full(pm.factors[i].dim)}) for i in (j, k))
        sigmas.append((spec, datum, datum.factor_phis[j], basis(block_j), basis(block_k)))
        return spec

    monkeypatch.setattr(catalog, "make_cer", cer)
    monkeypatch.setattr(catalog, "make_factor_diagonal", factor_diagonal)
    entries = run(parse_space(space), RunConfig(su1n=True)).result.entries
    assert len(sigmas) == sum(e.spec.kind == "CER" for e in entries) > 0
    for spec, datum, domain_roots, domain_basis, images in sigmas:
        model = spec.model
        assert spec.payload["h_phi"] == Subspace.span(model.dim, map(vadd, domain_basis, images))
        a_dom = build_parabolic(datum, domain_roots).a_upper
        reference = _sigma_section(model, domain_basis, images, a_dom)
        assert polar_section(spec, datum) == reference


def graph_plus_other_factors(spec, j: int, k: int):
    """The reference shape of a factor diagonal: its graph plus the factors
    other than j and k whole, where the canonical extension holds only their
    AN part a_phi + n_phi."""
    pm, graph = spec.model, spec.payload["h_phi"]
    rest = pm.embed({i: Subspace.full(f.dim) for i, f in enumerate(pm.factors) if i not in (j, k)})
    algebra = Subspace.span(pm.dim, graph.rows + rest.rows)
    return spec._replace(algebra=algebra)


REPORT_FIELDS = ("orbit_dim_at_o", "codim_at_o", "cohomogeneity", "cohomogeneity_certainty",
                 "singular_orbit_totally_geodesic", "nc1", "nc2", "nc2_certificate")


@pytest.mark.parametrize("space", ["rh(3)*rh(3)*rh(3)", "sl(3)*rh(2)*rh(2)",
                                   "ch(3)*ch(3)*rh(4)", "rh(2)*rh(2)*rh(2)*rh(2)"])
def test_factor_diagonal_is_orbit_equivalent_to_the_graph_plus_the_other_factors(
        monkeypatch, space):
    # the two shapes differ by k of the other factors, isotropy that acts
    # trivially on the normal space: equal orbit tangents and normal spaces
    # at o, and equal reports but for the bracket-closure note, which the
    # reference fails by its shape alone
    built = []

    def factor_diagonal(pm, datum, j, k):
        spec = make_factor_diagonal(pm, datum, j, k)
        built.append((spec, datum, j, k))
        return spec

    monkeypatch.setattr(catalog, "make_factor_diagonal", factor_diagonal)
    assert run(parse_space(space), RunConfig(su1n=True)).exit_code == 0
    assert built
    for spec, datum, j, k in built:
        pm = spec.model
        reference = graph_plus_other_factors(spec, j, k)
        assert reference.algebra.dim > spec.algebra.dim
        assert reference.algebra.contains(spec.algebra) and pm.is_subalgebra(reference.algebra)
        tangents = [orbit_tangent_at_o(pm, s.algebra) for s in (spec, reference)]
        assert tangents[0] == tangents[1]
        normals = [orthocomplement_in(t, pm.p_space, pm.inner) for t in tangents]
        assert normals[0] == normals[1]
        new, old = (verify(s, datum) for s in (spec, reference))
        for name in REPORT_FIELDS:
            assert getattr(new, name) == getattr(old, name), (space, j, k, name)
        assert new.notes[0] == Note("bracket-closure", True)
        assert old.notes[0] == Note("bracket-closure", False, "algebra-not-its-pieces")
        assert new.notes[1:] == old.notes[1:]
        assert any(n.name == "polar-section-certificate" for n in new.notes)


def _failing_section(spec, sub_check):
    """A section candidate whose first failing polar sub-check is sub_check."""
    model, diag = spec.model, spec.payload["h_phi"]
    if sub_check == "section-not-abelian":
        return Subspace.full(model.dim)
    if sub_check == "section-not-normal-to-orbit":  # a line in the orbit tangent
        return Subspace.span(model.dim, orbit_tangent_at_o(model, diag).rows[:1])
    # a line in k: normal to the orbit, but not orthogonal to the diagonal
    return Subspace.span(model.dim, model.project_k_subspace(diag).rows[:1])


@pytest.mark.parametrize("sub_check", ["section-not-abelian", "section-not-normal-to-orbit",
                                       "diagonal-not-orthogonal"])
def test_failing_polar_certificate_names_sub_check_and_witness(monkeypatch, sub_check):
    g = build_sl(4)
    datum = decompose(g)
    spec = make_cer(datum, 0, 2)
    section = _failing_section(spec, sub_check)
    monkeypatch.setattr(verify_module, "polar_section", lambda s, d: section)
    result = check_polar_certificate(spec, datum, diagonal_tangent(spec))
    assert not result.passed
    assert result.sub_check == sub_check
    i, j = result.witness
    diag = spec.payload["h_phi"]
    if sub_check == "section-not-abelian":
        assert any(bracket(g, basis(section)[i], basis(section)[j]))
    elif sub_check == "section-not-normal-to-orbit":
        tangent = orbit_tangent_at_o(g, diag)
        assert inner_product(g, basis(section)[i], basis(tangent)[j]) != 0
    else:
        assert inner_product(g, basis(diag)[i], basis(section)[j]) != 0
    report = verify(spec, datum)
    (note,) = [n for n in report.to_json()["notes"] if n["name"] == "polar-section-certificate"]
    assert note == {"name": "polar-section-certificate", "passed": False,
                    "sub_check": sub_check, "witness": [i, j]}
    assert not report.all_exact_checks_passed


def diagonal_spec(sigma: str) -> tuple:
    """(spec, datum) of a CER row of either sigma: the sl2-triple diagonal of
    sl(5) over roots 1 and 3, or the factor diagonal of rh(3)*rh(3)."""
    if sigma == "sl2-triple":
        datum = decompose(build_sl(5))
        return make_cer(datum, 0, 2), datum
    pm = direct_sum([build_so1n(3), build_so1n(3)])
    datum = decompose(pm)
    return make_factor_diagonal(pm, datum, 0, 1), datum


@pytest.mark.parametrize("fails_closure", [False, True], ids=["on-B_phi", "in-p"])
@pytest.mark.parametrize("sigma", ["sl2-triple", "factor-diagonal"])
def test_verify_projects_a_diagonal_once(monkeypatch, sigma, fails_closure):
    # the polar certificate reads the p(h) that the slice, or on the p route
    # verify itself, has already computed
    spec, datum = diagonal_spec(sigma)
    if fails_closure:  # a graded proof that fails alone leaves the slice in p
        monkeypatch.setattr(verify_module, "graded_closure_failure",
                            lambda spec, datum: "algebra-not-its-pieces")
    projected = []
    project = LieModel.project_p_subspace

    def recorded(self, sub):
        projected.append(sub)
        return project(self, sub)

    monkeypatch.setattr(LieModel, "project_p_subspace", recorded)
    report = verify(spec, datum)
    h = spec.payload["h_phi"]
    assert sum(sub is h for sub in projected) == 1
    assert note_named(report, "polar-section-certificate").passed
    assert report.singular_orbit_totally_geodesic == "yes"


def test_extension_composition_solves_only_the_outer_a_piece(monkeypatch):
    # a_psi is the row's own a_phi, which its parabolic datum holds; only the
    # a-piece of phi = psi plus the first missing root is solved for
    datum = decompose(build_sl(5))
    specs = [row[4] for row in ce_families(datum)]  # builds each row's parabolic datum
    piece, solved = verify_module.a_piece, []

    def recorded(datum, phi):
        solved.append(tuple(phi))
        return piece(datum, phi)

    monkeypatch.setattr(verify_module, "a_piece", recorded)
    monkeypatch.setattr(parabolic_module, "a_piece", recorded)
    composed = 0
    for spec in specs:
        solved.clear()
        report = verify(spec, datum)
        if 0 < len(spec.phi) < datum.rank:
            missing = [i for i in range(datum.rank) if i not in spec.phi]
            assert solved == [tuple(sorted(spec.phi + (missing[0],)))]
            assert note_named(report, "extension-composition").passed
            composed += 1
    assert composed == len(specs) - 1  # all but the CE-row-2 row over every root


def test_passing_polar_note_has_name_and_verdict_only():
    datum = decompose(build_sl(4))
    report = verify(make_cer(datum, 0, 2), datum)
    (note,) = [n for n in report.to_json()["notes"] if n["name"] == "polar-section-certificate"]
    assert note == {"name": "polar-section-certificate", "passed": True}


def _whole_algebra_composition_ok(datum, psi, phi, h_psi) -> bool:
    """The extension-composition identity on whole algebras: h_psi plus the
    iterated extension psi -> phi -> everything spans h_psi plus the
    one-step extension over psi."""
    a_np, n_np = nested_pieces(datum, psi, phi)
    pd_phi = build_parabolic(datum, phi)
    pd_psi = build_parabolic(datum, psi)
    d = datum.model.dim
    two_step = Subspace.span(d, h_psi.rows + a_np.rows + n_np.rows
                             + pd_phi.a_phi.rows + pd_phi.n_phi.rows)
    one_step = Subspace.span(d, h_psi.rows + pd_psi.a_phi.rows + pd_psi.n_phi.rows)
    return two_step == one_step


def composition_notes_checked(result) -> int:
    """Check the extension-composition note of every row that the table
    verified in its own datum against the whole-algebra identity, and return
    how many rows carry it.  A product's rows lifted from a factor's table
    carry that table's notes, and are checked there."""
    datum = result.datum
    checked = 0
    for entry in result.entries:
        spec = entry.spec
        if entry.comment.startswith("factor ") or spec.kind not in ("CEI", "CER") \
                or not 0 < len(spec.phi) < datum.rank:
            continue
        missing = [i for i in range(datum.rank) if i not in spec.phi]
        phi = tuple(sorted(spec.phi + (missing[0],)))
        h_psi = spec.payload["h_phi"]
        old = _whole_algebra_composition_ok(datum, spec.phi, phi, h_psi)
        assert extension_composition_ok(datum, build_parabolic(datum, spec.phi),
                                        phi).passed is old is True
        assert note_named(entry.report, "extension-composition").passed
        checked += 1
    carrying = [e for e in result.entries if not e.comment.startswith("factor ")
                and any(n.name == "extension-composition" for n in e.report.notes)]
    assert checked == len(carrying)
    return checked


@pytest.mark.parametrize("space", ["sl(5)", "sl(3)*rh(2)*rh(2)"])
def test_extension_composition_agrees_with_the_whole_algebra_identity(space):
    result = run(parse_space(space), RunConfig()).result
    # sl(5)'s rows, and the product's CER rows across factors
    assert composition_notes_checked(result) > 0
    # a Prod row carries the notes of its row in its sl factor's table
    prod = {e.comment: e.report.notes for e in result.entries if e.label == "Prod"}
    rows = {}
    for idx, fd in enumerate(result.datum.factors):
        if fd.rank > 1:
            table = catalog.sl_table(fd)
            assert composition_notes_checked(table) > 0
            rows.update((f"factor {idx + 1}: {e.label}[{e.comment}]", e.report.notes)
                        for e in table.entries if e.label != "FH")
    assert prod == rows
    assert bool(prod) == (space != "sl(5)")


def composition_note_with_a_psi(monkeypatch, a_psi):
    """The extension-composition note of the first sl(4) CE-row-1 row, which
    passes, recomputed with a_psi(a) in place of the row's own a-piece a."""
    datum = decompose(build_sl(4))
    spec = next(row[4] for row in ce_families(datum) if row[0] == "CE-row-1")
    assert note_named(verify(spec, datum), "extension-composition").passed
    compose = verify_module.extension_composition_ok

    def patched(datum, pd, phi):
        assert pd.phi == spec.phi
        return compose(datum, pd._replace(a_phi=a_psi(pd.a_phi, datum.model)), phi)

    monkeypatch.setattr(verify_module, "extension_composition_ok", patched)
    report = verify(spec, datum)
    assert not report.all_exact_checks_passed
    return note_named(report, "extension-composition").to_json()


def test_extension_composition_note_fails_when_a_nested_piece_is_short(monkeypatch):
    # a_np is a_psi minus a_phi: an a_psi without its first row misses the
    # first row of a_phi
    short = composition_note_with_a_psi(
        monkeypatch, lambda a, g: Subspace.span(g.dim, a.rows[1:]))
    assert short == {"name": "extension-composition", "passed": False,
                     "sub_check": "a-piece-not-contained", "witness": [0]}


def test_extension_composition_note_fails_when_a_nested_piece_is_long(monkeypatch):
    # all of a holds a_phi, with a nested piece past the nested rank |phi| - |psi|
    long = composition_note_with_a_psi(monkeypatch, lambda a, g: g.a_space)
    assert long == {"name": "extension-composition", "passed": False,
                    "sub_check": "a-piece-dimension", "witness": []}


def test_extension_composition_note_names_a_root_on_one_side_only(monkeypatch):
    # without its first nested root, the two-step side misses a root of n_psi
    datum = decompose(build_sl(4))
    psi, phi = (0,), (0, 1)
    dropped = nilpotent_roots(datum, psi, phi)[0]

    def patched(datum, psi_, phi_=None):
        roots = nilpotent_roots(datum, psi_, phi_)
        return roots[1:] if (psi_, phi_) == (psi, phi) else roots

    monkeypatch.setattr(verify_module, "nilpotent_roots", patched)
    assert extension_composition_ok(datum, build_parabolic(datum, psi), phi).to_json() == {
        "name": "extension-composition", "passed": False, "sub_check": "root-sets-differ",
        "witness": [datum.positive.index(dropped)]}


def sl4_nc_spec():
    """The sl(4) nilpotent construction over phi = {a_1, a_3} with v the
    middle column g_{a2} + g_{a1+a2} of the top graded piece."""
    datum = decompose(build_sl(4))
    v = generator_span(tensor_model(datum, 1), [(1, 1), (2, 1)])
    return datum, nilpotent_construct(datum, build_parabolic(datum, [0, 2]), v)


@pytest.mark.parametrize("sub_check", ["theta-dual-not-in-normalizer",
                                       "normalizer-not-in-theta-dual"])
def test_theta_dual_note_names_a_row_on_one_side_only(sub_check):
    datum, spec = sl4_nc_spec()
    g, normalizer, v = datum.model, spec.payload["normalizer"], spec.payload["v"]
    assert note_named(verify(spec, datum), "normalizer-theta-dual").to_json() == {
        "name": "normalizer-theta-dual", "passed": True}
    theta_dual = theta_image(g, g.normalizer_in(build_parabolic(datum, spec.phi).l, v))
    assert theta_dual == normalizer
    if sub_check == "theta-dual-not-in-normalizer":
        bad = Subspace.span(g.dim, normalizer.rows[1:])
        side, other = theta_dual, bad
    else:
        bad = subspace_sum(normalizer, v)
        side, other = bad, theta_dual
    report = verify(spec._replace(payload={**spec.payload, "normalizer": bad}),
                    datum)
    note = note_named(report, "normalizer-theta-dual")
    (i,) = note.witness
    assert note.to_json() == {"name": "normalizer-theta-dual", "passed": False,
                              "sub_check": sub_check, "witness": [i]}
    assert not other.contains_vector(side.rows[i])
    assert all(other.contains_vector(row) for row in side.rows[:i])
    assert not report.all_exact_checks_passed


def composition_pairs(datum) -> list:
    """The distinct (psi, phi) pairs whose extension composition ``verify``
    checks on the canonical-extension rows of an sl table: psi is the row's
    roots and phi adds the first simple root that psi misses."""
    pairs = []
    for row in ce_families(datum):
        psi = row[4].phi
        if 0 < len(psi) < datum.rank:
            missing = [i for i in range(datum.rank) if i not in psi]
            pairs.append((psi, tuple(sorted(psi + (missing[0],)))))
    return list(dict.fromkeys(pairs))


@pytest.mark.parametrize("m", [4, 5, 6, 7])
def test_nested_data_of_every_composition_pair_pass_their_identities(m):
    # extension_composition_ok builds no nested data for these pairs; the
    # two span identities it decides from the a-pieces and root sets hold
    datum = decompose(build_sl(m))
    pairs = composition_pairs(datum)
    assert len(pairs) == {4: 6, 5: 12, 6: 20, 7: 30}[m]
    for psi, phi in pairs:
        a_np, n_np = nested_pieces(datum, psi, phi)
        pd_phi, pd_psi = build_parabolic(datum, phi), build_parabolic(datum, psi)
        assert subspace_sum(a_np, pd_phi.a_phi) == pd_psi.a_phi
        assert subspace_sum(n_np, pd_phi.n_phi) == pd_psi.n_phi
        assert a_np.dim == len(phi) - len(psi)
        assert extension_composition_ok(datum, pd_psi, phi) == Note("extension-composition", True)


def test_extension_composition_builds_no_parabolic_data(monkeypatch):
    # it is handed psi's parabolic datum, and builds none for phi
    datum = decompose(build_sl(6))
    pairs = [(build_parabolic(datum, psi), phi) for psi, phi in composition_pairs(datum)]
    cached = dict(datum._parabolic_cache)

    def refuse(*args, **kwargs):
        raise AssertionError("extension composition built parabolic data")

    for module in (verify_module, parabolic_module):
        for name in ("build_parabolic", "build_nested"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert all(extension_composition_ok(datum, pd, phi).passed for pd, phi in pairs)
    assert datum._parabolic_cache == cached


CLOSURE_SPACES = ["sl(5)", "sl(7)", "ch(3)*ch(3)", "rh(3)*rh(3)", "sl(3)*rh(2)*rh(2)",
                  "sl(4)*ch(3)*rh(3)"]


@pytest.mark.parametrize("space", CLOSURE_SPACES)
def test_every_row_is_closed_by_its_graded_proof(monkeypatch, space):
    # every spec a table verifies, in the run's datum or a factor's, passes
    # its graded proof with no pair loop over its algebra, and the generic
    # check agrees; so does every listed row, lifted ones at product size.
    # The pair loop runs only over a CEI or CER row's boundary piece h.
    verified, pair_calls, inside = [], [], []
    leaving = LieModel.bracket_leaving_pair

    def counted_pairs(self, sub):
        if inside:
            spec = inside[-1]
            h = spec.payload.get("h_phi")
            if sub is not h:
                pair_calls.append(sub)
        return leaving(self, sub)

    def recorded(spec, datum, **kwargs):
        verified.append((spec, datum))
        inside.append(spec)
        try:
            return verify(spec, datum, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(LieModel, "bracket_leaving_pair", counted_pairs)
    monkeypatch.setattr(catalog, "verify", recorded)
    result = run(parse_space(space), RunConfig(su1n=True)).result
    monkeypatch.undo()
    assert result.all_identities_passed
    assert pair_calls == []
    assert verified
    for spec, datum in verified:
        assert graded_closure_failure(spec, datum) is None, (space, spec.kind, spec.phi)
        assert spec.model.is_subalgebra(spec.algebra)
    for entry in result.entries:
        assert note_named(entry.report, "bracket-closure").passed
        assert entry.spec.model.is_subalgebra(entry.spec.algebra)


def _closure_note(spec, datum) -> dict:
    return closure_note(spec, datum).to_json()


def test_closure_note_fails_for_a_boundary_subalgebra_that_is_not_closed():
    # the graded proof of a CEI or CER row checks the closure of h itself:
    # E12 and E23 lie in s_phi = sl(3) but [E12, E23] = E13, and over
    # phi = (0, 1) the algebra is h, so the pair loop names the leaving pair
    datum = decompose(build_sl(3))
    g = datum.model
    h = Subspace.span(g.dim, [datum.simple[0].space.rows[0], datum.simple[1].space.rows[0]])
    pd = build_parabolic(datum, (0, 1))
    assert pd.s.contains(h) and not g.is_subalgebra(h)
    spec = ActionSpec("CEI", g, (0, 1), h, {"h_phi": h})
    assert canonical_extend(datum, pd, h) == spec
    assert graded_closure_failure(spec, datum) == "h-not-closed"
    assert _closure_note(spec, datum) == {"name": "bracket-closure", "passed": False,
                                          "sub_check": "bracket-leaves-algebra",
                                          "witness": [0, 1]}
    report = verify(spec, datum)
    assert not report.all_exact_checks_passed
    assert report.singular_orbit_totally_geodesic == "not-checked"  # theta h is not h


def test_the_lie_triple_check_runs_only_when_the_closure_note_fails(monkeypatch):
    # p(n) of sl(3), the symmetric off-diagonal matrices, is theta invariant
    # and not closed, and [[E12 + E21, E13 + E31], E23 + E32] is diagonal, so
    # it is no Lie triple either
    datum = decompose(build_sl(3))
    g = datum.model
    h = g.project_p_subspace(g.n_space)
    spec = ActionSpec("CEI", g, (0, 1), h, {"h_phi": h})
    assert theta_image(g, h) == h and not check_lie_triple(g, h)
    calls = []

    def counted(model, b):
        calls.append(b)
        return check_lie_triple(model, b)

    monkeypatch.setattr(verify_module, "check_lie_triple", counted)
    report = verify(spec, datum)
    assert note_named(report, "bracket-closure").sub_check == "bracket-leaves-algebra"
    assert report.singular_orbit_totally_geodesic == "no"
    assert calls == [h]
    # every row of a table passes its closure note, so none runs the check
    calls.clear()
    assert all(e.report.all_exact_checks_passed
               for e in catalog.sl_table(decompose(build_sl(4)), seed=7, samples=32).entries)
    assert calls == []


def test_closure_note_fails_for_a_boundary_subalgebra_outside_the_levi_piece():
    # h = g_{alpha_2} over phi = {alpha_1}: the algebra a_phi + n_phi is closed,
    # so the pair loop finds nothing and the note names the condition
    datum = decompose(build_sl(4))
    spec = next(row[4] for row in ce_families(datum) if row[0] == "CE-row-1")
    assert spec.phi == (0,)
    h = datum.simple[1].space
    pd = build_parabolic(datum, spec.phi)
    algebra = Subspace.span(datum.model.dim, h.rows + pd.a_phi.rows + pd.n_phi.rows)
    bad = spec._replace(algebra=algebra, payload={"h_phi": h})
    assert graded_closure_failure(bad, datum) == "h-outside-levi"
    assert _closure_note(bad, datum) == {"name": "bracket-closure", "passed": False,
                                         "sub_check": "h-outside-levi", "witness": []}


def test_closure_note_fails_for_an_algebra_that_is_not_the_sum_of_its_pieces():
    datum = decompose(build_sl(4))
    g = datum.model
    spec = next(row[4] for row in ce_families(datum) if row[0] == "CE-row-1")
    assert graded_closure_failure(spec, datum) is None
    # a + n is closed but is not so(2) + a_phi + n_phi: the condition is named
    borel = spec._replace(algebra=subspace_sum(g.a_space, g.n_space))
    assert _closure_note(borel, datum) == {"name": "bracket-closure", "passed": False,
                                           "sub_check": "algebra-not-its-pieces",
                                           "witness": []}
    # without the highest root space the brackets leave: the first leaving
    # pair is the witness
    top = datum.positive[-1].space
    pd = build_parabolic(datum, spec.phi)
    rest = [r for r in pd.n_phi.rows if not top.contains_vector(r)]
    short = Subspace.span(g.dim, spec.payload["h_phi"].rows + pd.a_phi.rows + tuple(rest))
    assert short.dim == spec.algebra.dim - 1
    pair = g.bracket_leaving_pair(short)
    assert pair is not None
    assert _closure_note(spec._replace(algebra=short), datum) == {
        "name": "bracket-closure", "passed": False, "sub_check": "bracket-leaves-algebra",
        "witness": list(pair)}


@pytest.mark.parametrize("v_name, witness", [("v=R^2", None), ("v=C^1", [3, 4])])
def test_closure_note_fails_for_an_nc_complement_that_misses_grade_two(v_name, witness):
    # ch(3): n_phi is grade 1 (dim 4) plus grade 2 (dim 1); keep only the
    # complement's grade-1 part
    datum = decompose(build_su1n(3))
    (spec,) = [e.spec for e in catalog.rank_one_table(datum, seed=7, samples=32).entries
               if e.label == "NC" and e.name == v_name]
    assert graded_closure_failure(spec, datum) is None
    pd = build_parabolic(datum, spec.phi)
    assert set(pd.grading) == {1, 2}
    c1 = subspace_intersect(spec.payload["complement"], pd.grading[1])
    algebra = subspace_sum(spec.payload["normalizer"], c1)
    bad = spec._replace(algebra=algebra,
                        payload={**spec.payload, "complement": c1})
    assert graded_closure_failure(bad, datum) == "complement-misses-a-grade"
    expected = {"name": "bracket-closure", "passed": False}
    if witness is None:
        expected.update(sub_check="complement-misses-a-grade", witness=[])
    else:
        expected.update(sub_check="bracket-leaves-algebra", witness=witness)
    assert _closure_note(bad, datum) == expected


class TestVerifyOrchestration:
    def test_fh_report(self):
        g = build_sl(4)
        datum = decompose(g)
        spec = make_fh(g, Subspace.span(g.dim, g.a_space.rows[:1]))
        report = verify(spec, datum)
        assert report.codim_at_o == 1
        assert report.cohomogeneity == 1
        assert report.cohomogeneity_certainty == "exact"
        assert report.singular_orbit_totally_geodesic == "not-checked"
        assert report.all_exact_checks_passed

    def test_sp2_row_report(self):
        datum = decompose(build_sl(4))
        (spec,) = [row[4] for row in ce_families(datum) if row[0] == "CE-row-3"]
        assert spec.payload["h_phi"].dim == 10
        report = verify(spec, datum)
        assert report.codim_at_o == 3
        assert report.cohomogeneity == 1
        assert report.singular_orbit_totally_geodesic == "yes"

    def test_nc_report(self):
        g = build_sl(4)
        datum = decompose(g)
        pd = build_parabolic(datum, [0, 2])
        tm = tensor_model(datum, 1)
        spec = nilpotent_construct(datum, pd, generator_span(tm, [(1, 1), (2, 1)]))
        report = verify(spec, datum)
        assert report.nc1 == "yes"
        assert report.nc2 == "yes"
        assert report.nc2_certificate == "contains-so"
        assert report.cohomogeneity == 1
        assert report.all_exact_checks_passed

    def test_cer_report(self):
        g = build_sl(4)
        datum = decompose(g)
        spec = make_cer(datum, 0, 2)
        report = verify(spec, datum)
        assert report.codim_at_o == 2
        assert report.cohomogeneity == 1
        assert report.singular_orbit_totally_geodesic == "yes"
        assert note_named(report, "polar-section-certificate").passed

    def test_cei_spec_without_its_boundary_subalgebra_raises(self):
        # every CEI constructor writes h_phi, so a spec without it is an error
        datum = decompose(build_sl(3))
        spec = next(row[4] for row in ce_families(datum) if row[0] == "CE-row-1")
        assert spec.kind == "CEI" and len(spec.phi) < datum.rank
        with pytest.raises(KeyError):
            verify(spec._replace(payload={}), datum)


def test_sampling_a_subspace_larger_than_the_space_raises():
    sub = Subspace.span(4, [(1, 0, 2, 0), (0, 1, 0, 3)])
    sampler = RationalSampler(7)
    draws = []
    coefficient = sampler.coefficient

    def bounded():  # a draw budget, so a loop that never ends fails
        draws.append(None)
        assert len(draws) < 1000, "subspace_in keeps drawing"
        return coefficient()

    sampler.coefficient = bounded
    for dim in (3, 5, -1):
        with pytest.raises(ValueError):
            sampler.subspace_in(sub, dim)
    assert sampler.subspace_in(sub, 2) == sub
    assert sampler.subspace_in(sub, 0) == Subspace.zero(4)
    with pytest.raises(ValueError):
        sampler.subspace_in(Subspace.zero(4), 1)


def reference_subspace_in(sampler, sub, dim):
    """The loop that ``subspace_in`` replaced: draw vectors in the ambient
    coordinates and span them, again until they are independent.  Returns
    the span and the number of rank-deficient draws."""
    redraws = 0
    while True:
        cand = Subspace.span(sub.ambient_dim, [sampler.vector_in(sub) for _ in range(dim)])
        if cand.dim == dim:
            return cand, redraws
        redraws += 1


def _sampled_spaces():
    """The top graded pieces of sl(4) for j = 1 and j = 2, and a plane of
    the root space of so(1,4) whose canonical rows have pivot values 2 and 3."""
    datum = decompose(build_sl(4))
    tops = [build_parabolic(datum, [i for i in range(3) if i != j]).grading[1] for j in (0, 1)]
    rh4 = build_so1n(4)
    b = basis(rh4.n_space)
    plane = Subspace.span(rh4.dim, [vadd([2 * x for x in b[0]], b[2]),
                                    vadd([3 * x for x in b[1]], b[2])])
    assert sorted(row[c] for row, c in zip(plane.rows, plane.pivots)) == [2, 3]
    return [pytest.param(tops[0], id="sl4-j1"), pytest.param(tops[1], id="sl4-j2"),
            pytest.param(plane, id="rh4-plane")]


@pytest.mark.parametrize("sub", _sampled_spaces())
def test_subspace_in_draws_as_the_ambient_loop(sub):
    redraws = 0
    for seed in range(12):
        sampler, reference = RationalSampler(seed), RationalSampler(seed)
        for dim in list(range(sub.dim + 1)) * 4:
            expected, n = reference_subspace_in(reference, sub, dim)
            got = sampler.subspace_in(sub, dim)
            assert got == expected and got.pivots == expected.pivots
            assert sampler.state == reference.state
            redraws += n
    assert redraws  # some draws were rank deficient and drawn again


RATIONAL = st.one_of(st.just(Fraction(0)), st.fractions(-4, 4, max_denominator=6))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(RATIONAL, min_size=n, max_size=n), min_size=1, max_size=5))),
    st.integers(0, 2 ** 16))
def test_vector_in_is_a_positive_multiple_of_the_reference_draw(case, seed):
    # the draw over the canonical rows is L times sum(c_i basis_i) for the
    # coefficients c_i the same seed draws, so its span and every sampled
    # verdict stay those of the rational basis
    n, rows = case
    sub = Subspace.span(n, rows)
    assume(sub.dim)
    sampler, reference = RationalSampler(seed), RationalSampler(seed)
    for _ in range(3):
        got = dense(sampler.vector_in(sub), n)
        expected = from_coords(sub, reference.nonzero_coefficients(sub.dim))
        j = next(j for j, x in enumerate(expected) if x)
        ratio = Fraction(got[j]) / expected[j]
        assert ratio > 0 and got == tuple(ratio * x for x in expected)
        assert all(type(x) is int for x in got)
    assert sampler.state == reference.state


def test_sampler_determinism():
    a = RationalSampler(7)
    b = RationalSampler(7)
    assert [a.coefficient() for _ in range(20)] == [b.coefficient() for _ in range(20)]
    c = RationalSampler(8)
    assert [a.coefficient() for _ in range(5)] != [c.coefficient() for _ in range(5)]
