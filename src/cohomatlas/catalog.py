"""Enumeration of the cohomogeneity one classification tables.

``sl_table`` emits one representative per family for the root datum of a
split real special linear model (``enumerate_sl`` builds it from the
rank): the two foliations, the isotropy extension over a single root, the
Levi-plus-center extension over an interval of roots, the symplectic
extension over three consecutive roots, and the diagonal extension over a
distant pair.

``enumerate_product`` handles products: one horospherical row at product
level, per-factor rows (solvable foliation, reductive boundary subalgebras,
nilpotent constructions on rank-one factors, or the whole factor table for
split special linear factors wrapped as product actions), and diagonal rows
for matching pairs of rank-one boundary pieces.

``nc_oracle_search`` is the independent brute-force oracle: it sweeps every
coordinate subspace of the top graded piece in the tensor basis plus a
seeded batch of random subspaces, records the two nilpotent-construction
conditions for each, and checks every passing candidate's singular-orbit
tangent against the canonical-extension tangents of the table's families
(closed under block coordinate permutations).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from .linalg import Matrix, Q0, Subspace
from .models import LieModel, ProductModel, build_sl
from .actions import (
    ActionSpec,
    builtin_cei_catalog,
    canonical_extend,
    make_cer,
    make_factor_diagonal,
    make_fh,
    make_fs,
    nilpotent_construct,
    product_assemble,
)
from .parabolic import build_nested, build_parabolic, tensor_model
from .roots import RootDatum, decompose
from .verify import RationalSampler, check_nc1, check_nc2, orbit_tangent_at_o, verify


MAX_SL_RANK = 8
MAX_ORACLE_RANK = 3


@dataclass(frozen=True)
class CatalogEntry:
    label: str  # FH | FS | CE-row-1..4 | CEI | CER | NC | Prod
    name: str  # subalgebra description
    boundary: str  # boundary component description
    comment: str
    spec: ActionSpec
    codim: int
    report: object

    def to_json(self) -> dict:
        spec_json = self.spec.to_json()
        return {
            "label": self.label,
            "kind": self.spec.kind,
            "name": self.name,
            "boundary": self.boundary,
            "comment": self.comment,
            "phi": spec_json["data"].get("phi", []),
            "codim": self.codim,
            "report": self.report.to_json(),
        }


@dataclass
class EnumerationResult:
    model: LieModel
    datum: RootDatum
    entries: List[CatalogEntry]
    identities: List[Tuple[str, bool]]
    skipped: List[Tuple[str, str]] = field(default_factory=list)
    oracle: Optional[list] = None

    @property
    def all_identities_passed(self) -> bool:
        return all(ok for _, ok in self.identities)


def _structural_identities(model: LieModel, datum: RootDatum) -> list:
    total = datum.zero_space.dim + sum(sp.dim for sp in datum.spaces.values())
    kan = model.k_space.dim + model.a_space.dim + model.n_space.dim
    pairing = all(
        model.theta_image(datum.space(r)) == datum.spaces[tuple(-c for c in r.covector)]
        for r in datum.positive
    )
    return [
        ("iwasawa-direct-sum", kan == model.dim),
        ("root-space-sum", total == model.dim),
        ("theta-root-pairing", pairing),
    ]


def _emit(entries, identities, datum, label, name, boundary, comment, spec,
          expected_codim, seed, samples):
    report = verify(spec, datum, seed=seed, samples=samples)
    tag = f"{label}[{comment}]" if comment else label
    identities.append((f"exact-checks:{tag}", report.all_exact_checks_passed))
    if expected_codim is not None:
        identities.append((f"codim-matches-expected:{tag}",
                           report.codim_at_o == expected_codim))
    if report.cohomogeneity != 1:
        identities.append((f"cohomogeneity-one-gate:{tag}", False))
        return
    entries.append(CatalogEntry(
        label=label,
        name=name,
        boundary=boundary,
        comment=comment,
        spec=spec,
        codim=report.codim_at_o,
        report=report,
    ))


# ---------------------------------------------------------------------------
# split special linear models


def _fh(datum: RootDatum) -> ActionSpec:
    """The horospherical foliation of one representative line in a."""
    line = Subspace.span(datum.model.dim, [datum.simple[0].root_vector])
    return make_fh(datum.model, line)


def _named_extension(datum: RootDatum, phi: tuple, name: str) -> ActionSpec:
    """Canonical extension of the built-in boundary subalgebra called name."""
    sub, gens = {nm: (s, g) for nm, s, g in builtin_cei_catalog(datum, phi)}[name]
    return canonical_extend(datum, build_parabolic(datum, phi), sub, gens,
                            payload={"name": name})


def ce_families(datum: RootDatum) -> Iterator[tuple]:
    """The table's canonical-extension rows for an sl model, in table order,
    one (label, name, boundary, comment, spec, expected codim) per row."""
    n = datum.rank
    # CE row 1: isotropy extension over each single root
    for j in range(n):
        yield ("CE-row-1", "so(2)", "RH^2", f"j={j + 1}",
               _named_extension(datum, (j,), "so(2)"), 2)
    # CE row 2: Levi-plus-center extension over each interval of length >= 2
    for j in range(n):
        for k in range(j + 1, n):
            name = f"sl({k - j + 1})+R"
            yield ("CE-row-2", name, f"SL({k - j + 2},R)/SO({k - j + 2})",
                   f"j={j + 1}, k={k + 1}",
                   _named_extension(datum, tuple(range(j, k + 1)), name), k - j + 1)
    # CE row 3: symplectic extension over each three-root interval
    for j in range(n - 2):
        yield ("CE-row-3", "sp(2,R)", "SL(4,R)/SO(4)", f"j={j + 1}",
               _named_extension(datum, (j, j + 1, j + 2), "sp(2,R)"), 3)
    # CE row 4: diagonal extension over each distant pair
    for j in range(n):
        for k in range(j + 2, n):
            yield ("CE-row-4", "diag sl(2)", "RH^2 x RH^2", f"j={j + 1}, k={k + 1}",
                   make_cer(datum, j, k), 2)


def enumerate_sl(n: int, *, seed: int = 7, samples: int = 32) -> EnumerationResult:
    """Classification table families for the rank-n split special linear model."""
    if not 1 <= n <= MAX_SL_RANK:
        raise ValueError(f"rank must be between 1 and {MAX_SL_RANK}")
    return sl_table(decompose(build_sl(n + 1)), seed=seed, samples=samples)


def sl_table(datum: RootDatum, *, seed: int = 7, samples: int = 32) -> EnumerationResult:
    """Classification table families for the root datum of a split special
    linear model."""
    model = datum.model
    n = datum.rank
    entries: list = []
    identities = _structural_identities(model, datum)

    _emit(entries, identities, datum, "FH", "(a-line)+n", "-",
          "one representative line", _fh(datum), None, seed, samples)
    # FS: one entry per simple root (one line up to orbit equivalence)
    for j in range(n):
        _emit(entries, identities, datum, "FS", "a+(n-line)", "-",
              f"j={j + 1}", make_fs(datum, j), None, seed, samples)
    for label, name, boundary, comment, spec, codim in ce_families(datum):
        _emit(entries, identities, datum, label, name, boundary, comment, spec,
              codim, seed, samples)
    return EnumerationResult(model, datum, entries, identities)


# ---------------------------------------------------------------------------
# products


def _complex_structure_on_root_space(factor: LieModel, f_datum: RootDatum):
    """ad(Z) for Z spanning the center of k0; squares to a negative scalar."""
    center = factor.centralizer_in(f_datum.k0, f_datum.k0)
    alpha = f_datum.root_with_coeff((1,))
    sp = f_datum.space(alpha)
    for z in center.basis:
        sq = None
        ok = True
        for b in sp.basis:
            img = factor.bracket(z, factor.bracket(z, b))
            coeffs = sp.coords_of(img)
            expected = sp.coords_of(b)
            ratio = None
            for c, e in zip(coeffs, expected):
                if e:
                    ratio = c / e
                    break
            if ratio is None or any(c != ratio * e for c, e in zip(coeffs, expected)):
                ok = False
                break
            if sq is None:
                sq = ratio
            elif sq != ratio:
                ok = False
                break
        if ok and sq is not None and sq < 0:
            return z
    raise ValueError("no complex structure found on the root space")


def _rank_one_nc_subspaces(factor: LieModel, f_datum: RootDatum, profile) -> list:
    """(description, subspace) representatives of protohomogeneous subspaces."""
    alpha = f_datum.root_with_coeff((1,))
    sp = f_datum.space(alpha)
    out = []
    if profile[1] == 0:
        # real hyperbolic: every subspace works; one coordinate rep per dim
        for m in range(2, sp.dim + 1):
            out.append((f"R^{m}", Subspace.span(factor.dim, sp.basis[:m])))
        return out
    # complex hyperbolic: totally real and complex coordinate representatives
    z = _complex_structure_on_root_space(factor, f_datum)
    real_rows = []
    for b in sp.basis:
        cand = real_rows + [b]
        span_with_j = Subspace.span(
            factor.dim, cand + [factor.bracket(z, r) for r in cand]
        )
        if span_with_j.dim == 2 * len(cand):
            real_rows.append(b)
    nn = len(real_rows)  # complex dimension of the root space
    for m in range(2, nn + 1):
        out.append((f"R^{m}", Subspace.span(factor.dim, real_rows[:m])))
    for m in range(1, nn + 1):
        rows = []
        for b in real_rows[:m]:
            rows.append(b)
            rows.append(factor.bracket(z, b))
        out.append((f"C^{m}", Subspace.span(factor.dim, rows)))
    return out


def _hyperbolic_name(profile: tuple) -> str:
    """RH^n or CH^n: the rank-one space of a root with profile (m_a, m_2a)."""
    m_a, m_2a = profile
    if m_2a == 0:
        return f"RH^{m_a + 1}"
    return f"CH^{(m_a // 2) + 1}"


def enumerate_product(pm: ProductModel, *, seed: int = 7, samples: int = 32) -> EnumerationResult:
    """Classification families for a product of shipped factor models."""
    datum = decompose(pm)
    entries: list = []
    identities = _structural_identities(pm, datum)
    skipped: list = []
    owners = [pm.factor_of(r.root_vector) for r in datum.simple]
    if None in owners:
        raise ValueError("simple root does not belong to a factor")
    factor_indices = [[i for i, o in enumerate(owners) if o == idx]
                      for idx in range(len(pm.factors))]
    f_data = [decompose(f) for f in pm.factors]
    profiles = [fd.profile(fd.simple[0]) if fd.rank == 1 else None for fd in f_data]

    # nested-parabolic spot check per factor
    nested_ok = True
    try:
        for idx in range(len(pm.factors)):
            phi = tuple(sorted(factor_indices[idx]))
            build_nested(datum, (), phi)
            if phi:
                build_nested(datum, phi[:1], phi)
    except ValueError:
        nested_ok = False
    identities.append(("nested-parabolic-intersection", nested_ok))

    # FH once, at product level
    _emit(entries, identities, datum, "FH", "(a-line)+n", "-",
          "one representative line", _fh(datum), None, seed, samples)

    multi_factor = len(pm.factors) > 1

    for idx, factor in enumerate(pm.factors):
        fd = f_data[idx]
        profile = profiles[idx]
        tag = f"factor {idx + 1}"
        if profile is not None:
            (i_root,) = factor_indices[idx]
            # FS per factor
            _emit(entries, identities, datum, "FS", "a+(n-line)", "-",
                  f"{tag}: j={i_root + 1}", make_fs(datum, i_root), None,
                  seed, samples)
            # CEI rows from the built-in reductive catalog
            rest = pm.other_factor_rows((idx,))
            for name, sub, gens in builtin_cei_catalog(fd, [0]):
                algebra = Subspace.span(pm.dim, pm.embed_subspace(idx, sub).basis + rest)
                spanning = tuple(pm.embed_vector(idx, g) for g in gens) + rest
                spec = ActionSpec("CEI", pm, (i_root,), algebra, spanning,
                                  {"h_phi": algebra, "name": name, "factor": idx})
                _emit(entries, identities, datum, "CEI", name,
                      _hyperbolic_name(profile), f"{tag}: {name}", spec,
                      None, seed, samples)
            # NC rows per protohomogeneous representative
            pd = build_parabolic(datum, [i for i in range(datum.rank) if i != i_root])
            for desc, v_inner in _rank_one_nc_subspaces(factor, fd, profile):
                v = pm.embed_subspace(idx, v_inner)
                spec = nilpotent_construct(datum, pd, v)
                _emit(entries, identities, datum, "NC", f"v={desc}",
                      _hyperbolic_name(profile), f"{tag}: dim v={v.dim}",
                      spec, None, seed, samples)
        elif factor.name.startswith("sl("):
            inner_result = sl_table(fd, seed=seed, samples=samples)
            for inner in inner_result.entries:
                if multi_factor and inner.label == "FH":
                    continue  # folds into the product-level FH row
                spec = product_assemble(pm, idx, inner.spec)
                label = "Prod" if multi_factor else inner.label
                _emit(entries, identities, datum, label,
                      inner.name, inner.boundary,
                      f"{tag}: {inner.label}[{inner.comment}]", spec, None,
                      seed, samples)
            for name, ok in inner_result.identities:
                identities.append((f"{tag}:{name}", ok))
        else:
            raise ValueError(f"unsupported factor model {factor.name}")

    # CER: pairs of rank-one boundary pieces from different factors
    for idx_j in range(len(pm.factors)):
        for idx_k in range(idx_j + 1, len(pm.factors)):
            for a in factor_indices[idx_j]:
                for b in factor_indices[idx_k]:
                    profile = datum.profile(datum.simple[a])
                    if profile != datum.profile(datum.simple[b]):
                        continue
                    whole_j = profiles[idx_j] is not None
                    whole_k = profiles[idx_k] is not None
                    try:
                        if whole_j and whole_k:
                            if pm.factors[idx_j].name != pm.factors[idx_k].name:
                                skipped.append(
                                    (f"CER[{a + 1},{b + 1}]",
                                     "factors are homothetic but not identical"))
                                continue
                            spec = make_factor_diagonal(pm, datum, idx_j, idx_k)
                        else:
                            spec = make_cer(datum, a, b)
                    except ValueError as exc:
                        skipped.append((f"CER[{a + 1},{b + 1}]", str(exc)))
                        continue
                    _emit(entries, identities, datum, "CER",
                          "diag", f"{_hyperbolic_name(profile)} x {_hyperbolic_name(profile)}",
                          f"j={a + 1}, k={b + 1}",
                          spec, None, seed, samples)

    return EnumerationResult(pm, datum, entries, identities, skipped=skipped)


# ---------------------------------------------------------------------------
# brute-force oracle for the nilpotent construction on sl models


def _permutation_maps(model: LieModel, j: int) -> list:
    """Coordinate maps of Ad(P) for block permutations of {0..j} and {j+1..n}."""
    size = model.matrix_size
    blocks = (list(range(j + 1)), list(range(j + 1, size)))
    maps = []
    for pa in itertools.permutations(blocks[0]):
        for pb in itertools.permutations(blocks[1]):
            perm = list(pa) + list(pb)
            if perm == list(range(size)):
                maps.append(None)  # identity
                continue
            cols = []
            for b in model.basis:
                rows = [[Q0] * size for _ in range(size)]
                for r in range(size):
                    br = b.rows[r]
                    for c in range(size):
                        if br[c]:
                            rows[perm[r]][perm[c]] = br[c]
                cols.append(model.coords(Matrix(tuple(tuple(x) for x in rows))))
            maps.append(Matrix(tuple(tuple(cols[jj][ii] for jj in range(model.dim))
                                     for ii in range(model.dim))))
    return maps


def known_extension_tangents(datum: RootDatum, j: int) -> list:
    """Singular-orbit tangents of the table's canonical-extension families,
    each interval also extended from its other end drop psi = phi[1:],
    closed under the block coordinate permutations fixing the grading."""
    model = datum.model
    specs = []
    for label, _, _, _, spec, _ in ce_families(datum):
        specs.append(spec)
        if label == "CE-row-2":
            nd = build_nested(datum, spec.phi[1:], spec.phi)
            specs.append(canonical_extend(datum, build_parabolic(datum, spec.phi), nd.l_np))
    tangents = {orbit_tangent_at_o(model, spec.algebra) for spec in specs}

    out = set(tangents)
    for pmap in _permutation_maps(model, j):
        if pmap is None:
            continue
        for t in tangents:
            out.add(Subspace.span(model.dim, [pmap.apply(row) for row in t.basis]))
    return sorted(out, key=lambda s: s.basis)


def nc_oracle_search(datum: RootDatum, j: int, *, probes: int = 200,
                     seed: int = 7, samples: int = 32) -> dict:
    """Brute-force sweep of candidate subspaces of the top graded piece.

    Covers every coordinate subspace of the tensor basis (all 2^dim subsets,
    dimension capped at 6) plus seeded random subspaces; duplicates collapse
    into one record with a hit count, so the probe budget stays auditable.
    Each distinct candidate gets exact NC1, the three-stage NC2, and, when
    both pass, a comparison of its singular-orbit tangent against the known
    canonical-extension tangents.
    """
    model = datum.model
    n = datum.rank
    if n > MAX_ORACLE_RANK:
        raise ValueError(f"oracle search is desk scale only (rank <= {MAX_ORACLE_RANK})")
    tm = tensor_model(datum, j)
    dim = tm.nrows * tm.ncols
    if dim > 6:
        raise ValueError("oracle dimension bound exceeded")
    phi = tuple(i for i in range(n) if i != j)
    pd = build_parabolic(datum, phi)
    known = known_extension_tangents(datum, j)

    keys = sorted(tm.generators)
    candidates = []
    for size in range(len(keys) + 1):
        for subset in itertools.combinations(keys, size):
            candidates.append(("coordinate", sorted(subset),
                               tm.subspace(subset) if subset else Subspace.zero(model.dim)))
    sampler = RationalSampler(seed)
    top = pd.grading[1]
    for t in range(probes):
        vdim = 2 + (t % max(1, dim - 1))
        vdim = min(vdim, dim)
        candidates.append(("probe", None, sampler.subspace_in(top, vdim)))

    records = []
    by_space = {}
    for source, subset, v in candidates:
        rec = by_space.get(v)
        if rec is not None:
            rec["count"] += 1
            if source not in rec["sources"]:
                rec["sources"].append(source)
            continue
        rec = {
            "sources": [source],
            "count": 1,
            "subset": [list(k) for k in subset] if subset else None,
            "dim": v.dim,
            "nc1": None,
            "nc2": None,
            "nc2_certificate": None,
            "passes": False,
            "matches_known_tangent": None,
        }
        by_space[v] = rec
        records.append(rec)
        if v.dim < 2:
            rec["nc1"] = rec["nc2"] = "not-checked"
            continue
        ok1 = check_nc1(model, pd, v)
        verdict, cert = check_nc2(model, pd, v, seed, samples)
        rec["nc1"] = "yes" if ok1 else "no"
        rec["nc2"] = verdict
        rec["nc2_certificate"] = cert
        if ok1 and verdict == "yes":
            rec["passes"] = True
            spec = nilpotent_construct(datum, pd, v)
            tangent = orbit_tangent_at_o(model, spec.algebra)
            rec["matches_known_tangent"] = tangent in known
    return {
        "records": records,
        "probes": probes,
        "coordinate_subsets": 2 ** dim,
        "distinct_candidates": len(records),
    }
