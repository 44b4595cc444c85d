"""Tests for the classification tables and the helpers they share."""

import itertools
import json
import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import comb

import pytest

from cohomatlas import catalog, roots
from cohomatlas import verify as verify_module
from cohomatlas.catalog import (_complex_structure_on_root_space, _rank_one_nc_subspaces,
                                ce_families, enumerate_sl, known_extension_tangents)
from cohomatlas.cli import RunConfig, main, parse_space, run
from cohomatlas.linalg import (Matrix, Subspace, orthocomplement_in, subspace_intersect,
                               subspace_sum)
from cohomatlas.models import (LieModel, ProductModel, build_sl, build_so1n, build_su1n,
                               direct_sum)
from cohomatlas.parabolic import build_nested, build_parabolic, tensor_model
from cohomatlas.actions import (ActionSpec, builtin_cei_catalog, canonical_extend, make_fs,
                                nilpotent_construct)
from cohomatlas.roots import decompose
from cohomatlas.verify import RationalSampler, levi_normalizer, orbit_tangent_at_o, verify

from census import expected_cer_rows
from dense_reference import basis, bracket, coords_of, dense
from oracle_reference import reference_block_rotation_certificate, reference_sweep


def paper_row_counts(n: int) -> Counter:
    """Rows per label of the paper's table for sl(n+1), rank n."""
    return Counter({"FH": 1, "FS": n, "CE-row-1": n, "CE-row-2": n * (n - 1) // 2,
                    "CE-row-3": max(n - 2, 0), "CE-row-4": (n - 1) * (n - 2) // 2})


def block(pm: ProductModel, idx: int) -> Subspace:
    """The idx-th block of pm in full."""
    return pm.embed({idx: Subspace.full(pm.factors[idx].dim)})


def other_blocks(pm: ProductModel, skip) -> tuple:
    """The rows of every block of pm whose index is not in skip, in full."""
    return pm.embed({i: Subspace.full(f.dim) for i, f in enumerate(pm.factors)
                     if i not in skip}).rows


def restrict(pm: ProductModel, idx: int, sub: Subspace) -> Subspace:
    """A subspace of the idx-th block of pm, in the factor's coordinates."""
    start = pm.block_offsets[idx]
    stop = start + pm.factors[idx].dim
    rows = []
    for b in sub.rows:
        if any(not start <= j < stop for j in b):
            raise ValueError("vector is not supported on the requested factor")
        rows.append({j - start: x for j, x in b.items()})
    return Subspace.span(pm.factors[idx].dim, rows)


def test_factor_lookup_puts_each_simple_root_in_its_factor():
    pm = direct_sum([build_sl(3), build_so1n(2)])
    datum = decompose(pm)
    owners = [idx for idx, phi in enumerate(datum.factor_phis) for _ in phi]
    assert sorted(owners) == [0, 0, 1]
    assert datum.factor_phis == ((0, 1), (2,))
    for r, owner in zip(datum.simple, owners):
        assert block(pm, owner).contains(r.space)


@pytest.mark.parametrize("build, arg, profile", [
    (build_sl, 2, (1, 0)),
    (build_so1n, 2, (1, 0)),
    (build_so1n, 3, (2, 0)),
    (build_so1n, 4, (3, 0)),
    (build_su1n, 2, (2, 1)),
    (build_su1n, 3, (4, 1)),
], ids=["sl2", "rh2", "rh3", "rh4", "ch2", "ch3"])
def test_rank_one_root_profile(build, arg, profile):
    datum = decompose(build(arg))
    assert datum.profile(datum.simple[0]) == profile


def test_profile_in_a_product_is_the_factor_profile():
    pm = direct_sum([build_su1n(2), build_so1n(3)])
    datum = decompose(pm)
    profiles = {idx: datum.profile(datum.simple[i])
                for idx, phi in enumerate(datum.factor_phis) for i in phi}
    assert profiles == {0: (2, 1), 1: (2, 0)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_has_the_papers_row_counts(n):
    result = enumerate_sl(n)
    assert result.all_identities_passed
    labels = Counter(e.label for e in result.entries)
    assert labels == paper_row_counts(n)
    family_labels = Counter(row[0] for row in ce_families(result.datum))
    assert family_labels == Counter({k: v for k, v in labels.items() if k.startswith("CE-")})


@pytest.mark.parametrize("n", [2, 3])
def test_every_table_ce_tangent_is_known_to_the_oracle(n):
    result = enumerate_sl(n)
    datum, model = result.datum, result.model
    ce_tangents = [orbit_tangent_at_o(model, e.spec.algebra)
                   for e in result.entries if e.label.startswith("CE-")]
    assert ce_tangents
    known = known_extension_tangents(result)
    assert all(t in known for t in ce_tangents)
    # the oracle also knows each interval extended from its other end drop
    for e in result.entries:
        if e.label == "CE-row-2":
            phi = e.spec.phi
            ext = canonical_extend(datum, build_parabolic(datum, phi),
                                   build_nested(datum, phi[1:], phi))
            assert orbit_tangent_at_o(model, ext.algebra) in known


def test_oracle_extends_each_interval_once_per_run(monkeypatch):
    inside, extended = [], []

    def counted_extend(*args, **kwargs):
        if inside:
            extended.append(args)
        return canonical_extend(*args, **kwargs)

    def counted_tangents(*args):
        inside.append(True)
        try:
            return known_extension_tangents(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(catalog, "canonical_extend", counted_extend)
    for name, module in list(sys.modules.items()):
        if name.startswith("cohomatlas") and \
                getattr(module, "known_extension_tangents", None) is known_extension_tangents:
            monkeypatch.setattr(module, "known_extension_tangents", counted_tangents)
    result = run(parse_space("sl(4)"), RunConfig(nc_search=True)).result
    intervals = [e for e in result.entries if e.label == "CE-row-2"]
    assert len(result.oracle) == 3 and len(intervals) == 3
    # one other-end extension per interval, not one per interval and sweep
    assert len(extended) == len(intervals)


def new_notes(result, add):
    """(name, passed) of the notes that ``add()`` appends to the result."""
    start = len(result.identities)
    add()
    return [(n.name, n.passed) for n in result.identities[start:]]


def test_a_row_above_cohomogeneity_one_is_gated_and_not_listed():
    result = enumerate_sl(1)
    row = result.entries[-1]
    notes = new_notes(result, lambda: result.add(
        "FS", row.name, row.boundary, "gated", row.spec,
        report=row.report._replace(cohomogeneity=2)))
    assert notes == [("exact-checks:FS[gated]", True),
                     ("cohomogeneity-one-gate:FS[gated]", False)]
    assert result.entries[-1] is row
    assert not result.all_identities_passed


def test_a_row_with_a_wrong_expected_codim_is_listed_and_its_note_fails():
    result = enumerate_sl(2)
    row = next(e for e in result.entries if e.label == "CE-row-1")
    notes = new_notes(result, lambda: result.add(
        row.label, row.name, row.boundary, row.comment, row.spec,
        expected_codim=row.report.codim_at_o + 1, report=row.report))
    assert notes == [("exact-checks:CE-row-1[j=1]", True),
                     ("codim-matches-expected:CE-row-1[j=1]", False)]
    assert result.entries[-1].spec is row.spec
    assert not result.all_identities_passed


def test_the_oracle_stage_notes_each_sweep_of_the_table():
    result = enumerate_sl(2)
    notes = new_notes(result, lambda: catalog.nc_oracle(result))
    assert sorted(result.oracle) == ["j=1", "j=2"]
    assert notes == [("oracle-known-tangent-match:j=1", True),
                     ("oracle-known-tangent-match:j=2", True)]


def test_a_passing_candidate_off_the_known_tangents_fails_its_sweep(monkeypatch):
    def sweep(result, j, tangents):
        return {"records": [
            {"passes": False, "matches_known_tangent": None, "sources": ["coordinate"],
             "subset": [[1, 1]], "dim": 1},
            {"passes": True, "matches_known_tangent": j != 0, "sources": ["coordinate", "probe"],
             "subset": [[1, 1], [1, 2]], "dim": 2},
            {"passes": True, "matches_known_tangent": j != 0, "sources": ["probe"],
             "subset": None, "dim": 2}]}

    monkeypatch.setattr(catalog, "nc_oracle_search", sweep)
    result = enumerate_sl(2)
    notes = new_notes(result, lambda: catalog.nc_oracle(result))
    assert notes == [("oracle-known-tangent-match:j=1", False),
                     ("oracle-known-tangent-match:j=2", True)]
    assert result.oracle["j=1"] == sweep(result, 0, set())
    # the failing note names the first unmatched record; a passing one keeps
    # its two keys
    failed, passed = (n.to_json() for n in result.identities[-2:])
    assert failed == {"name": "oracle-known-tangent-match:j=1", "passed": False,
                      "sub_check": "unmatched-candidate",
                      "witness": [1, ["coordinate", "probe"], [[1, 1], [1, 2]], 2]}
    assert passed == {"name": "oracle-known-tangent-match:j=2", "passed": True}


def test_the_oracle_rejects_a_levi_part_that_meets_the_nilradical(monkeypatch):
    # the oracle never spans N_l(c) + c; its one check per sweep that l and
    # n_phi meet only in 0 must raise as nilpotent_construct does
    result = enumerate_sl(3)
    datum = result.datum
    tangents = known_extension_tangents(result)
    pd = build_parabolic(datum, [1, 2])
    bad = pd._replace(l=subspace_sum(pd.l, pd.n_phi))
    v = Subspace.span(datum.model.dim, pd.grading[1].rows[:2])
    with pytest.raises(ValueError) as built:
        nilpotent_construct(datum, bad, v)
    build = catalog.build_parabolic
    monkeypatch.setattr(catalog, "build_parabolic",
                        lambda d, phi: bad if tuple(phi) == pd.phi else build(d, phi))
    with pytest.raises(ValueError) as searched:
        catalog.nc_oracle_search(result, 0, tangents)
    assert str(searched.value) == str(built.value)
    assert str(built.value) == "normalizer overlaps the nilpotent complement"


def test_only_rank_one_factors_read_the_builtin_catalog(monkeypatch):
    calls = Counter()

    def counted(datum, phi):
        calls[datum.model.name] += 1
        return builtin_cei_catalog(datum, phi)

    monkeypatch.setattr(catalog, "builtin_cei_catalog", counted)
    assert enumerate_sl(3).all_identities_passed
    assert calls == Counter()
    assert catalog.enumerate_product(direct_sum([build_so1n(3), build_so1n(3)])) \
        .all_identities_passed
    assert calls == Counter({"so(1,3)": 2})


def evaluated_records(records: list) -> list:
    """The records of a sweep whose candidate was evaluated: the first
    candidate of each tensor shape, and every other candidate of dim >= 2."""
    firsts = {}
    for rec in records:
        if rec["dim"] >= 2 and rec["tensor_shape"]:
            firsts.setdefault(tuple(rec["tensor_shape"]), rec)
    return list(firsts.values()) + [rec for rec in records
                                    if rec["dim"] >= 2 and rec["tensor_shape"] is None]


def test_oracle_builds_the_table_once_and_each_candidate_once(monkeypatch):
    families = Counter()
    complements = []
    solves = []

    def counted_families(datum):
        families["calls"] += 1
        return ce_families(datum)

    def recorded(v, w, form):
        complements.append(w)
        return orthocomplement_in(v, w, form)

    def counted_split(model, pd, v):
        solves.append(v)
        return levi_normalizer(model, pd, v)

    monkeypatch.setattr(catalog, "ce_families", counted_families)
    monkeypatch.setattr(catalog, "levi_normalizer", counted_split)
    for name, module in list(sys.modules.items()):
        if name.startswith("cohomatlas") and getattr(module, "orthocomplement_in", None) \
                is orthocomplement_in:
            monkeypatch.setattr(module, "orthocomplement_in", recorded)
    result = run(parse_space("sl(4)"), RunConfig(nc_search=True)).result
    datum = result.datum
    assert families["calls"] == 1
    # one split solve per evaluated candidate: once per tensor shape, on its
    # first candidate, and once for each other candidate of dim >= 2; n_phi
    # minus v is taken only for an evaluated candidate that passes
    n_phis = {build_parabolic(datum, [i for i in range(datum.rank) if i != j]).n_phi
              for j in range(datum.rank)}
    evaluated = passing = 0
    for sweep in result.oracle.values():
        checked = [rec for rec in sweep["records"] if rec["dim"] >= 2]
        shapes = {tuple(rec["tensor_shape"]) for rec in checked if rec["tensor_shape"]}
        evaluated += len(shapes) + sum(rec["tensor_shape"] is None for rec in checked)
        passing += sum(rec["passes"] for rec in evaluated_records(sweep["records"]))
        assert len(shapes) < sum(rec["tensor_shape"] is not None for rec in checked)
    assert len(solves) == evaluated
    assert 0 < sum(1 for w in complements if w in n_phis) == passing < evaluated


def test_each_evaluated_candidate_makes_exactly_one_bracket_solve(monkeypatch):
    result = enumerate_sl(3)
    tangents = known_extension_tangents(result)
    calls = Counter()
    bracket_into = LieModel._bracket_into
    solve = verify_module.kernel_rows

    def counted_bracket_into(model, domain, of, target):
        calls["bracket_into"] += 1
        return bracket_into(model, domain, of, target)

    def counted_solve(rows, ncols):
        calls["solve"] += 1
        return solve(rows, ncols)

    def counted_split(model, pd, v):
        calls["split"] += 1
        return levi_normalizer(model, pd, v)

    monkeypatch.setattr(LieModel, "_bracket_into", counted_bracket_into)
    monkeypatch.setattr(verify_module, "kernel_rows", counted_solve)
    monkeypatch.setattr(catalog, "levi_normalizer", counted_split)
    sweeps = [catalog.nc_oracle_search(result, j, tangents) for j in range(result.datum.rank)]
    evaluated = sum(len(evaluated_records(sweep["records"])) for sweep in sweeps)
    # no normalizer or centralizer solve, and one split solve per evaluation
    assert calls["bracket_into"] == 0
    assert calls["solve"] == calls["split"] == evaluated > 0


def test_the_sl5_oracle_at_seed_7_exits_0_with_its_pinned_counts(monkeypatch):
    splits = Counter()

    def counted_split(model, pd, v):
        splits[pd.phi] += 1
        return levi_normalizer(model, pd, v)

    monkeypatch.setattr(catalog, "levi_normalizer", counted_split)
    run_result = run(parse_space("sl(5)"), RunConfig(seed=7, nc_search=True))
    assert run_result.exit_code == 0
    oracle = run_result.result.oracle
    assert {j: sweep["distinct_candidates"] for j, sweep in oracle.items()} == {
        "j=1": 148, "j=2": 224, "j=3": 224, "j=4": 148}
    assert {j: sum(rec["passes"] for rec in sweep["records"]) for j, sweep in oracle.items()} \
        == {"j=1": 143, "j=2": 11, "j=3": 11, "j=4": 143}
    assert all(sweep["so_block_certificate"] for sweep in oracle.values())
    # one evaluation per tensor shape, and one per other candidate of dim >= 2
    assert splits == Counter({(1, 2, 3): 3, (0, 2, 3): 207, (0, 1, 3): 207, (0, 1, 2): 3})
    checked = [rec for sweep in oracle.values() for rec in sweep["records"] if rec["dim"] >= 2]
    assert Counter(rec["nc2_certificate"] for rec in checked if not rec["passes"]) == Counter(
        {"failed-witness": 412})


@pytest.mark.parametrize("n, j, dim, fits", [(3, 1, 3, False), (4, 1, 5, False),
                                             (4, 2, 5, False), (4, 1, 4, True)])
def test_a_dimension_with_no_fitting_shape_spans_nothing(monkeypatch, n, j, dim, fits):
    # a 2 x 2 block has no shape of dim 3, a 2 x 3 or 3 x 2 block none of
    # dim 5, but a 2 x 3 block has the shape (2, 2) of dim 4
    datum = decompose(build_sl(n + 1))
    tm = tensor_model(datum, j)
    v = tm.coordinates(sorted(tm.generators)[:dim])
    spans = []
    span = Subspace.span.__func__

    def counted(cls, ambient_dim, vectors):
        spans.append(ambient_dim)
        return span(cls, ambient_dim, vectors)

    monkeypatch.setattr(Subspace, "span", classmethod(counted))
    shape = catalog._tensor_shape(tm, v)
    assert (spans == []) == (not fits)
    if not fits:
        assert shape is None


@pytest.mark.parametrize("m", [4, 5])
@pytest.mark.parametrize("seed", [7, 8])
def test_the_tensor_coordinate_probes_are_the_probes_of_the_first_graded_piece(m, seed):
    # the oracle draws its probes in the coordinates of the top piece; placed
    # at model width they are the draws of the same stream inside g_1
    datum = decompose(build_sl(m))
    for j in range(datum.rank):
        tm = tensor_model(datum, j)
        dim = tm.nrows * tm.ncols
        top = build_parabolic(datum, [i for i in range(datum.rank) if i != j]).grading[1]
        in_coordinates, in_top = RationalSampler(seed), RationalSampler(seed)
        for t in range(catalog.ORACLE_PROBES):
            vdim = min(2 + t % max(1, dim - 1), dim)
            v = tm.place(in_coordinates.subspace_in(Subspace.full(dim), vdim))
            w = in_top.subspace_in(top, vdim)
            assert (v, v.pivots) == (w, w.pivots)
        assert in_coordinates.state == in_top.state


ORACLE_SEEDS = [0, 3, 7, 8, 13, 1007, 2007]


def sweeps(seed: int) -> list:
    """(j, tensor model, new records, reference records) of every sweep of
    the sl(4) table at seed."""
    result = enumerate_sl(3, seed=seed)
    tangents = known_extension_tangents(result)
    return [(j, tensor_model(result.datum, j),
             catalog.nc_oracle_search(result, j, tangents)["records"],
             reference_sweep(result, j, tangents)) for j in range(result.datum.rank)]


def false_alarms(seed: int) -> dict:
    """{j + 1: [(record, reference record)]} over the records that pass and
    match no known tangent in the reference sweep."""
    return {j + 1: [(rec, ref) for rec, ref in zip(records, reference)
                    if ref["passes"] and not ref["matches_known_tangent"]]
            for j, _, records, reference in sweeps(seed)}


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_the_class_sweep_keeps_every_verdict_of_the_full_sweep(seed):
    for j, _, records, reference in sweeps(seed):
        assert len(records) == len(reference)
        for rec, ref in zip(records, reference):
            for key in ("sources", "count", "subset", "dim", "nc1", "nc2", "nc2_certificate",
                        "passes"):
                assert rec[key] == ref[key], (j, key)
            # only a false alarm of the full sweep may change its match
            if rec["matches_known_tangent"] != ref["matches_known_tangent"]:
                assert ref["passes"] and ref["matches_known_tangent"] is False
                assert rec["matches_known_tangent"] is True
            assert rec["passes"] == (rec["matched_by"] is not None)


def test_the_seed_7_false_alarms_are_tensor_patterns():
    alarms = false_alarms(7)
    assert {j: len(pairs) for j, pairs in alarms.items()} == {1: 85, 2: 0, 3: 85}
    for j, shape in ((1, [1, 2]), (3, [2, 1])):
        for rec, _ in alarms[j]:
            assert rec["matches_known_tangent"] is True
            assert (rec["matched_by"], rec["tensor_shape"]) == ("tensor-pattern", shape)


def test_the_seed_8_probe_is_the_tensor_pattern_span_e1_e2_times_1_minus_1():
    (pair,) = false_alarms(8)[2]
    rec, ref = pair
    assert rec["sources"] == ["probe"] and rec["dim"] == 2
    assert (rec["matches_known_tangent"], rec["matched_by"], rec["tensor_shape"]) == (
        True, "tensor-pattern", [2, 1])
    # v = span(e1, e2) (x) (1, -1) in the 2 x 2 top block of j=2
    tm = tensor_model(enumerate_sl(3, seed=8).datum, 1)
    g = {key: dense(row, tm.ambient_dim) for key, row in tm.generators.items()}
    assert ref["space"] == Subspace.span(len(g[1, 1]), [
        [x - y for x, y in zip(g[i, 1], g[i, 2])] for i in (1, 2)])


@pytest.mark.parametrize("space, rows", [
    ("sl(3)*sl(3)", 4), ("sl(3)*rh(2)", 2), ("sl(3)*rh(3)", 0), ("rh(3)*rh(3)", 1),
    ("rh(2)*sl(2)", 1), ("ch(2)*ch(2)", 1), ("ch(2)*rh(3)", 0), ("sl(3)*rh(2)*rh(2)", 5)])
def test_cer_rows_are_the_cross_factor_pairs_of_same_type_rank_one_pieces(space, rows):
    # the product reduction: each simple root of sl(k) and rh(2) gives an RH^2
    # piece, rh(n) an RH^n and ch(n) a CH^n piece, and each pair of pieces
    # of one type in different factors gives one CER row
    assert expected_cer_rows(space) == rows
    run_result = run(parse_space(space), RunConfig(su1n=True))
    assert run_result.exit_code == 0
    assert sum(e.label == "CER" for e in run_result.result.entries) == rows


def structured_planes(tm) -> list:
    """(name, plane) for the conformal plane {[[x, -y], [y, x]]} and the
    traceless symmetric plane {[[x, y], [y, -x]]} in every 2 x 2 square of
    the top piece, rows r < s and columns c < d, in its coordinates."""
    index = {cell: t for t, cell in enumerate(tm.cells)}
    planes = []
    for r, s in itertools.combinations(range(tm.nrows), 2):
        for c, d in itertools.combinations(range(tm.ncols), 2):
            x = {index[r, c]: 1, index[s, d]: 1}
            y = {index[r, d]: -1, index[s, c]: 1}
            planes.append(("conformal", Subspace.span(len(index), [x, y])))
            x = {index[r, c]: 1, index[s, d]: -1}
            y = {index[r, d]: 1, index[s, c]: 1}
            planes.append(("symmetric", Subspace.span(len(index), [x, y])))
    return planes


@pytest.mark.parametrize("m, j", [(4, 2), (5, 2), (5, 3)])
def test_one_oracle_evaluation_decides_the_structured_planes(m, j):
    # the diagonal SO(2) of a 2 x 2 square preserves both planes and rotates
    # each of them, so NC2 passes with the rotation algebra; their
    # normalizers are too small for NC1.  No plane is a tensor pattern.  A
    # candidate that passes both conditions must match a known tangent
    result = enumerate_sl(m - 1, seed=7)
    datum = result.datum
    tangents = known_extension_tangents(result)
    tm = tensor_model(datum, j - 1)
    pd = build_parabolic(datum, [i for i in range(datum.rank) if i != j - 1])

    def evaluate(v):
        return catalog.evaluate_nc_candidate(result.model, pd, tm.place(v), tangents,
                                             result.seed, result.samples)

    planes = structured_planes(tm)
    assert len(planes) == 2 * comb(tm.nrows, 2) * comb(tm.ncols, 2)
    for name, v in planes:
        assert catalog._tensor_shape(tm, v) is None
        out = evaluate(v)
        assert (out["nc1"], out["nc2"], out["nc2_certificate"], out["passes"]) == (
            "no", "yes", "contains-so", False), name
    # the sweep evaluates the first coordinate subset of each tensor shape
    firsts = {}
    keys = sorted(tm.generators)
    for size in range(2, len(keys) + 1):
        for subset in itertools.combinations(keys, size):
            v = tm.coordinates(subset)
            firsts.setdefault(catalog._tensor_shape(tm, v), v)
    firsts.pop(None, None)
    passing = [out for out in map(evaluate, firsts.values()) if out["passes"]]
    assert passing and all(out["matches_known_tangent"] for out in passing)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_k_phi_rotates_each_top_block_by_so_a_times_so_b(n):
    datum = decompose(build_sl(n + 1))
    for j in range(n):
        tm = tensor_model(datum, j)
        a, b = tm.nrows, tm.ncols
        assert (a, b) == (j + 1, n - j)
        pd = build_parabolic(datum, [i for i in range(n) if i != j])
        assert catalog.block_rotation_certificate(datum.model, pd, tm)
        assert reference_block_rotation_certificate(datum.model, pd, tm)
        assert pd.k_phi.dim == a * (a - 1) // 2 + b * (b - 1) // 2
        # a k_phi short of one rotation does not certify
        short = pd._replace(k_phi=Subspace.span(datum.model.dim, pd.k_phi.rows[1:]))
        assert not catalog.block_rotation_certificate(datum.model, short, tm)
        assert not reference_block_rotation_certificate(datum.model, short, tm)


def test_the_rotation_certificate_needs_the_top_piece_of_its_datum():
    datum = decompose(build_sl(4))
    pd = build_parabolic(datum, [0, 2])
    with pytest.raises(ValueError, match="not the first graded piece"):
        catalog.block_rotation_certificate(datum.model, pd, tensor_model(datum, 0))


@pytest.mark.parametrize("n", [3, 4])
def test_a_sweep_brackets_only_for_its_table(n, monkeypatch):
    # the certificate builds the table of ad(l) on g_1, and no evaluation
    # brackets again: dim l x dim g_1 brackets per sweep
    result = enumerate_sl(n)
    tangents = known_extension_tangents(result)
    datum = result.datum
    original_bracket = LieModel.bracket
    for j in range(n):
        pd = build_parabolic(datum, [i for i in range(n) if i != j])
        brackets = []

        def counted(model, x, y):
            brackets.append(model)
            return original_bracket(model, x, y)

        with monkeypatch.context() as mp:
            mp.setattr(LieModel, "bracket", counted)
            sweep = catalog.nc_oracle_search(result, j, tangents)
        assert sweep["so_block_certificate"] is True
        assert len(brackets) == pd.l.dim * pd.grading[1].dim


def test_without_the_rotation_certificate_every_candidate_is_evaluated(monkeypatch):
    result = enumerate_sl(3)
    tangents = known_extension_tangents(result)
    monkeypatch.setattr(catalog, "block_rotation_certificate", lambda model, pd, tm: False)
    evaluated = []

    def counted(model, pd, v):
        evaluated.append(v)
        return levi_normalizer(model, pd, v)

    monkeypatch.setattr(catalog, "levi_normalizer", counted)
    sweep = catalog.nc_oracle_search(result, 0, tangents)
    assert sweep["so_block_certificate"] is False
    checked = [rec for rec in sweep["records"] if rec["dim"] >= 2]
    assert len(evaluated) == len(set(evaluated)) == len(checked)
    assert all(rec["tensor_shape"] for rec in checked)
    assert "tensor-pattern" not in {rec["matched_by"] for rec in checked}


def test_a_product_decides_theta_root_pairing_at_factor_size(monkeypatch):
    sl3 = build_sl(3)
    datum = decompose(direct_sum([sl3, build_so1n(3), sl3]))
    widths = []
    theta_maps_onto = LieModel.theta_maps_onto

    def recorded(model, sub, other):
        widths.append(model.dim)
        return theta_maps_onto(model, sub, other)

    monkeypatch.setattr(LieModel, "theta_maps_onto", recorded)
    result = catalog.EnumerationResult(datum, 7, 32)
    assert ("theta-root-pairing", True) in [(n.name, n.passed) for n in result.identities]
    # once per positive root of each distinct factor datum, none at product width
    factors = list(dict.fromkeys(datum.factors))
    assert len(factors) == 2
    assert sorted(widths) == sorted(fd.model.dim for fd in factors for _ in fd.positive)
    catalog.EnumerationResult(datum.factors[0], 7, 32)
    assert len(widths) == sum(len(fd.positive) for fd in factors)
    # the product's verdict is its factors'
    bad = decompose(direct_sum([build_sl(3), build_so1n(3)]))
    bad.factors[1].theta_pairs_roots = False
    (note,) = [n for n in catalog.EnumerationResult(bad, 7, 32).identities
               if n.name == "theta-root-pairing"]
    assert not note.passed


@pytest.mark.parametrize("build", [build_sl, build_so1n], ids=["sl3xsl3", "rh3xrh3"])
def test_product_enumeration_decomposes_each_factor_once(monkeypatch, build):
    pm = direct_sum([build(3), build(3)])
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(catalog, "build_sl", counted("build_sl", catalog.build_sl))
    # every module that imported decompose by name holds its own binding
    wrapped = counted("decompose", decompose)
    for name, module in list(sys.modules.items()):
        if name.startswith("cohomatlas") and getattr(module, "decompose", None) is decompose:
            monkeypatch.setattr(module, "decompose", wrapped)
    result = catalog.enumerate_product(pm)
    assert result.all_identities_passed
    assert calls["decompose"] == len(pm.factors) + 1
    assert calls["build_sl"] == 0


@pytest.mark.parametrize("factors", [lambda: [build_so1n(3), build_so1n(3)],
                                     lambda: [build_sl(3), build_sl(2)]],
                         ids=["rh3xrh3", "sl3xsl2"])
def test_product_enumeration_splits_no_product_size_space(monkeypatch, factors):
    # the weights are read off each factor's basis, never the product's
    pm = direct_sum(factors())
    split_dims = []
    original = roots._basis_weights

    def recorded(model):
        split_dims.append(model.dim)
        return original(model)

    monkeypatch.setattr(roots, "_basis_weights", recorded)
    result = catalog.enumerate_product(pm)
    assert result.all_identities_passed
    assert set(split_dims) == {f.dim for f in pm.factors}
    assert pm.dim not in split_dims


@pytest.mark.parametrize("space", ["sl(2)*rh(2)", "rh(2)*sl(2)"], ids=["sl2xrh2", "rh2xsl2"])
def test_homothetic_rank_one_factors_get_their_diagonal_row(space):
    # both factors model RH^2; the diagonal goes through the sl2-triple sigma
    run_result = run(parse_space(space), RunConfig())
    result = run_result.result
    cer = [e for e in result.entries if e.label == "CER"]
    assert [e.comment for e in cer] == ["j=1, k=2"]
    assert cer[0].report.all_exact_checks_passed
    assert cer[0].report.cohomogeneity == 1
    assert result.all_identities_passed
    assert json.loads(run_result.json_text)["skipped"] == []


@pytest.mark.parametrize("constructor, space", [("make_cer", "sl(2)*rh(2)"),
                                                ("make_factor_diagonal", "rh(2)*rh(2)")])
def test_a_cer_constructor_error_propagates(monkeypatch, capsys, constructor, space):
    # no product row is skipped silently: the error ends the run, as any
    # other constructor's does, with an error line and exit status 2
    def failing(*args):
        raise ValueError("no diagonal here")

    monkeypatch.setattr(catalog, constructor, failing)
    with pytest.raises(ValueError, match="no diagonal here"):
        run(parse_space(space), RunConfig())
    assert main(["--space", space]) == 2
    assert capsys.readouterr() == ("", "error: no diagonal here\n")


@pytest.mark.parametrize("space", ["rh(3)*rh(3)", "ch(2)*ch(2)"])
def test_product_cei_rows_carry_a_boundary_subalgebra(monkeypatch, space):
    tables = []
    original = catalog.rank_one_table

    def recorded(datum, **kwargs):
        tables.append(original(datum, **kwargs))
        return tables[-1]

    monkeypatch.setattr(catalog, "rank_one_table", recorded)
    result = run(parse_space(space), RunConfig(su1n=True)).result
    pm = result.model
    (table,) = tables  # the two factors are one model
    rows = [e for e in table.entries if e.label == "CEI"]
    assert rows
    for e in rows:
        # the factor row's h_phi lies in the factor's s_phi, and the row is
        # lifted to h_phi plus the other factor in each factor of the product
        assert build_parabolic(table.datum, e.spec.phi).s.contains(e.spec.payload["h_phi"])
        for idx in range(2):
            (lifted,) = [p for p in result.entries
                         if p.comment == f"factor {idx + 1}: {e.name}"]
            assert lifted.spec.kind == "CEI"
            assert lifted.spec.algebra == Subspace.span(
                pm.dim, pm.embed({idx: e.spec.payload["h_phi"]}).rows
                + other_blocks(pm, (idx,)))


def test_one_sl5_run_decides_each_form_once(monkeypatch):
    decided = []
    complements = Counter()
    decide = Matrix.__dict__["is_positive_definite"].func

    def counted(form):
        decided.append(form)  # holds the form, so no id is reused
        return decide(form)

    def recorded(v, w, form):
        complements[id(form)] += 1
        return orthocomplement_in(v, w, form)

    prop = cached_property(counted)
    prop.__set_name__(Matrix, "is_positive_definite")
    monkeypatch.setattr(Matrix, "is_positive_definite", prop)
    for name, module in list(sys.modules.items()):
        if name.startswith("cohomatlas") and getattr(module, "orthocomplement_in", None) \
                is orthocomplement_in:
            monkeypatch.setattr(module, "orthocomplement_in", recorded)
    run(parse_space("sl(5)"), RunConfig())
    assert Counter(map(id, decided)) == Counter({i: 1 for i in complements})
    assert sum(complements.values()) > len(decided)


def test_single_sl_factor_product_lists_fh_once():
    # the factor's FH row folds into the product-level one; the rest are Prod rows
    result = catalog.enumerate_product(direct_sum([build_sl(3)]))
    labels = Counter(e.label for e in result.entries)
    assert labels == Counter({"FH": 1, "Prod": len(result.entries) - 1})
    assert result.all_identities_passed


def product_split_ok(datum, algebra: Subspace, fidx: int, v: Subspace) -> bool:
    """The NC algebra over v in the fidx-th factor of a product equals the
    other blocks plus the factor-level pieces N_(k0)(v) + a + (n minus v).

    The factor's k0 is read off the product datum: the centralizer of a in
    k of a product is the direct sum of the factors' centralizers.
    """
    model = datum.model
    factor = model.factors[fidx]
    v_inner = restrict(model, fidx, v)
    f_k0 = restrict(model, fidx, subspace_intersect(datum.k0, block(model, fidx)))
    pieces = (factor.normalizer_in(f_k0, v_inner), factor.a_space,
              orthocomplement_in(v_inner, factor.n_space, factor.inner))
    rows = [b for piece in pieces for b in model.embed({fidx: piece}).rows]
    return algebra == Subspace.span(model.dim, rows + list(other_blocks(model, (fidx,))))


def product_size_reference(datum, fidx: int, entry):
    """The spec that the product-size construction builds for a lifted row of
    a rank-one factor, and for an NC row its v: FS by ``make_fs`` on the
    product datum, CEI as h_phi plus the other factors, NC over the product
    parabolic that omits the factor's root."""
    pm = datum.model
    fd = datum.factors[fidx]
    (root,) = datum.factor_phis[fidx]
    if entry.label == "FS":
        return make_fs(datum, root), None
    if entry.label == "CEI":
        (sub,) = [sub for name, sub in builtin_cei_catalog(fd, [0]) if name == entry.name]
        h_phi = pm.embed({fidx: sub})
        algebra = Subspace.span(pm.dim, h_phi.rows + other_blocks(pm, (fidx,)))
        return ActionSpec("CEI", pm, (root,), algebra, {"h_phi": h_phi}), None
    profile = fd.profile(fd.simple[0])
    (v,) = [pm.embed({fidx: v}) for desc, v in
            _rank_one_nc_subspaces(fd.model, fd, profile) if f"v={desc}" == entry.name]
    pd = build_parabolic(datum, [i for i in range(datum.rank) if i != root])
    return nilpotent_construct(datum, pd, v), v


CORE_FIELDS = ("orbit_dim_at_o", "codim_at_o", "cohomogeneity", "cohomogeneity_certainty")
RANK_ONE_FIELDS = ("singular_orbit_totally_geodesic", "nc1", "nc2", "nc2_certificate")


@pytest.mark.parametrize("seed", [7, 8])
@pytest.mark.parametrize("space", ["rh(3)*rh(3)", "ch(2)*ch(2)", "sl(3)*sl(3)", "sl(4)*ch(2)",
                                   "sl(3)*rh(2)*sl(2)", "sl(4)*ch(3)*rh(3)"])
def test_every_lifted_row_matches_product_level_verify(space, seed):
    result = run(parse_space(space), RunConfig(seed=seed, su1n=True)).result
    datum = result.datum
    # FH and CER rows are verified at product size; every other row is lifted
    lifted = [e for e in result.entries if e.label not in ("FH", "CER")]
    assert lifted and all(e.comment.startswith("factor ") for e in lifted)
    assert {e.label for e in lifted} <= {"FS", "CEI", "NC", "Prod"}
    nc_rows = 0
    for e in lifted:
        fidx = int(e.comment.split(":")[0].split()[1]) - 1
        if e.label == "Prod":
            # product_assemble spans a Prod row's algebra at product size
            reference, v, fields = e.spec, None, CORE_FIELDS
        else:
            reference, v = product_size_reference(datum, fidx, e)
            fields = CORE_FIELDS + RANK_ONE_FIELDS
        expected = verify(reference, datum, seed=seed, samples=32)
        for name in fields:
            assert getattr(e.report, name) == getattr(expected, name), (e.comment, name)
        assert datum.model.is_subalgebra(reference.algebra), e.comment
        # a CEI reference holds the other factors whole, so it is not
        # h + a_phi + n_phi and fails the graded closure proof; is_subalgebra
        # decides its closure instead
        reference_notes = {n.name: n for n in expected.notes}
        if e.label == "CEI":
            assert reference_notes["bracket-closure"].sub_check == "algebra-not-its-pieces"
        for n in e.report.notes:
            if n.name in reference_notes and (e.label, n.name) != ("CEI", "bracket-closure"):
                assert n.passed == reference_notes[n.name].passed, (e.comment, n.name)
        if v is not None:
            nc_rows += 1
            assert e.spec.algebra == reference.algebra
            assert product_split_ok(datum, e.spec.algebra, fidx, v)
    assert nc_rows == sum(e.label == "NC" for e in result.entries)


@pytest.mark.parametrize("space", ["rh(8)*rh(8)", "ch(3)*ch(3)", "ch(4)*ch(4)"])
def test_each_rank_one_row_is_verified_once_at_factor_size(monkeypatch, space):
    tables, kinds = [], Counter()
    original = catalog.rank_one_table

    def recorded(datum, **kwargs):
        tables.append(datum)
        return original(datum, **kwargs)

    def counted(spec, datum, **kwargs):
        kinds[spec.kind, isinstance(spec.model, ProductModel)] += 1
        return verify(spec, datum, **kwargs)

    monkeypatch.setattr(catalog, "rank_one_table", recorded)
    monkeypatch.setattr(catalog, "verify", counted)
    result = run(parse_space(space), RunConfig(su1n=True)).result
    assert result.all_identities_passed
    assert len(tables) == 1
    assert {kind for kind, product in kinds if product} == {"FH", "CER"}
    # each factor row is verified once and listed once per factor
    factor_rows = sum(n for (kind, product), n in kinds.items() if not product)
    assert factor_rows * 2 == sum(e.label not in ("FH", "CER") for e in result.entries)


def test_prod_rows_are_not_verified_at_product_size(monkeypatch):
    kinds = Counter()

    def counted(spec, datum, **kwargs):
        kinds[spec.kind] += 1
        return verify(spec, datum, **kwargs)

    monkeypatch.setattr(catalog, "verify", counted)
    result = catalog.enumerate_product(direct_sum([build_sl(3), build_sl(3)]))
    assert result.all_identities_passed
    assert sum(e.label == "Prod" for e in result.entries) == 10
    assert kinds["Prod"] == 0
    # the factor tables and the product-level rows are still verified
    assert kinds["FH"] == 3 and kinds["FS"] == 4


def test_identical_sl_factors_share_one_table(monkeypatch):
    # sl(3)*sl(3) builds one factor model and one datum, so one table
    calls = []
    original = catalog.sl_table

    def counted(datum, **kwargs):
        calls.append(datum)
        return original(datum, **kwargs)

    monkeypatch.setattr(catalog, "sl_table", counted)
    result = run(parse_space("sl(3)*sl(3)"), RunConfig()).result
    assert len(calls) == 1
    assert result.datum.factors[0] is result.datum.factors[1] is calls[0]
    assert sum(e.label == "Prod" for e in result.entries) == 10


@pytest.mark.parametrize("space", ["sl(3)*sl(3)", "ch(3)*ch(3)", "sl(4)*ch(3)*rh(3)"])
def test_the_nested_parabolic_check_runs_once_per_distinct_factor(monkeypatch, space):
    # the spot check is the only caller with psi = (): once per distinct
    # factor datum, over all its roots, and never in the product's datum
    calls = []
    original = catalog.build_nested

    def recorded(datum, psi, phi):
        calls.append((datum, tuple(psi), tuple(phi)))
        return original(datum, psi, phi)

    monkeypatch.setattr(catalog, "build_nested", recorded)
    result = run(parse_space(space), RunConfig(su1n=True)).result
    factors = list(dict.fromkeys(result.datum.factors))
    assert all(datum is not result.datum for datum, _, _ in calls)
    assert [(d, phi) for d, psi, phi in calls if psi == ()] == [
        (fd, tuple(range(fd.rank))) for fd in factors]
    (note,) = [n for n in result.identities if n.name == "nested-parabolic-intersection"]
    assert note.passed


def test_the_nested_parabolic_note_fails_when_a_factor_check_raises(monkeypatch):
    original = catalog.build_nested

    def failing(datum, psi, phi):
        if psi == ():
            raise ValueError("s_phi is not graded by the roots inside phi")
        return original(datum, psi, phi)

    monkeypatch.setattr(catalog, "build_nested", failing)
    result = catalog.enumerate_product(direct_sum([build_so1n(3), build_so1n(2)]))
    (note,) = [n for n in result.identities if n.name == "nested-parabolic-intersection"]
    assert not note.passed and not result.all_identities_passed


def reference_complex_structure(factor, f_datum) -> tuple:
    """Z as it was read off the coordinates of the rational RREF rows: the
    first row of the center of k0 on whose root space ad(Z)^2 is c I, c < 0,
    as a dense vector."""
    center = factor.centralizer_in(f_datum.k0, f_datum.k0)
    sp = f_datum.root_with_coeff((1,)).space
    for z in basis(center):
        square = [coords_of(sp, bracket(factor, z, bracket(factor, z, b))) for b in basis(sp)]
        c = square[0][0]
        if c < 0 and all(x == (c if i == k else 0)
                         for i, row in enumerate(square) for k, x in enumerate(row)):
            return z
    raise ValueError("no complex structure found on the root space")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_complex_structure_is_a_positive_multiple_of_the_reference(n):
    factor = build_su1n(n)
    datum = decompose(factor)
    z = dense(_complex_structure_on_root_space(factor, datum), factor.dim)
    expected = reference_complex_structure(factor, datum)
    j = next(j for j, x in enumerate(expected) if x)
    ratio = Fraction(z[j]) / expected[j]
    assert ratio > 0 and z == tuple(ratio * x for x in expected)
