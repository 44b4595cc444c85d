"""Exact and sampled certificates for constructed actions.

The exact side: orbit tangents at the base point, Lie triple checks,
normalizer tangent criteria for the nilpotent construction, rotation-algebra
certificates, and the named subspace identities (extension composition,
product block split, solvable projection).  The sampled side: the
cohomogeneity of the slice representation, estimated as the generic isotropy
orbit corank over seed-fixed rational sample vectors; sampled verdicts are
always labeled as such and never silently treated as exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .linalg import (
    SpanSolver,
    Subspace,
    is_zero_vec,
    orthocomplement_in,
    rat,
    subspace_intersect,
    subspace_sum,
    vadd,
)
from .models import LieModel, ProductModel
from .actions import ActionSpec, SigmaMap, canonical_extend
from .parabolic import ParabolicDatum, build_nested, build_parabolic
from .roots import RootDatum

_MASK = (1 << 64) - 1


class RationalSampler:
    """Deterministic rational sample vectors with entries in -3..3."""

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK

    def _next(self) -> int:
        self.state = (6364136223846793005 * self.state + 1442695040888963407) & _MASK
        return self.state >> 33

    def coefficient(self):
        return rat(self._next() % 7 - 3)

    def vector_in(self, sub: Subspace) -> tuple:
        if sub.dim == 0:
            raise ValueError("cannot sample from the zero subspace")
        while True:
            coeffs = [self.coefficient() for _ in range(sub.dim)]
            if any(coeffs):
                return sub.from_coords(coeffs)

    def subspace_in(self, sub: Subspace, dim: int) -> Subspace:
        while True:
            rows = [self.vector_in(sub) for _ in range(dim)]
            cand = Subspace.span(sub.ambient_dim, rows)
            if cand.dim == dim:
                return cand


@dataclass(frozen=True)
class Failure:
    """A failed exact check: the sub-check that failed and a witness, given
    as basis indices into the subspaces that sub-check compares.  Falsy, so
    it stands in a note wherever False does."""

    sub_check: str
    witness: tuple

    def __bool__(self) -> bool:
        return False


def _note_json(name: str, passed) -> dict:
    out = {"name": name, "passed": bool(passed)}
    if isinstance(passed, Failure):
        out["sub_check"] = passed.sub_check
        out["witness"] = list(passed.witness)
    return out


@dataclass(frozen=True)
class VerificationReport:
    kind: str
    orbit_dim_at_o: int
    codim_at_o: int
    cohomogeneity: int
    cohomogeneity_certainty: str  # "exact" | "sampled"
    singular_orbit_totally_geodesic: str  # "yes" | "no" | "not-checked"
    nc1: str  # "yes" | "no" | "not-checked"
    nc2: str
    nc2_certificate: Optional[str]
    seed: int
    samples: int
    notes: tuple = field(default_factory=tuple)  # (name, bool or Failure) pairs

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "orbit_dim_at_o": self.orbit_dim_at_o,
            "codim_at_o": self.codim_at_o,
            "cohomogeneity": self.cohomogeneity,
            "cohomogeneity_certainty": self.cohomogeneity_certainty,
            "singular_orbit_totally_geodesic": self.singular_orbit_totally_geodesic,
            "nc1": self.nc1,
            "nc2": self.nc2,
            "nc2_certificate": self.nc2_certificate,
            "seed": self.seed,
            "samples": self.samples,
            "notes": [_note_json(n, p) for n, p in self.notes],
        }

    @property
    def all_exact_checks_passed(self) -> bool:
        return all(p for _, p in self.notes)


# ---------------------------------------------------------------------------
# tangent and slice machinery


def orbit_tangent_at_o(model: LieModel, h: Subspace) -> Subspace:
    """Tangent space of the orbit through the base point: the p-part of h."""
    return model.project_p_subspace(h)


def slice_cohomogeneity(model: LieModel, h: Subspace, seed: int, samples: int,
                        tangent: Optional[Subspace] = None):
    """Cohomogeneity of the isotropy action on the normal space at o.

    Returns (value, certainty).  Exact when the normal space is at most a
    line or the isotropy algebra acts trivially; otherwise the generic orbit
    rank is sampled and the verdict is labeled "sampled".  tangent is the
    orbit tangent at o when the caller has it already.
    """
    if tangent is None:
        tangent = orbit_tangent_at_o(model, h)
    nu = orthocomplement_in(tangent, model.p_space, model.inner)
    isotropy = subspace_intersect(h, model.k_space)
    for t in isotropy.basis:
        for x in nu.basis:
            if not nu.contains_vector(model.bracket(t, x)):
                raise ValueError("slice closure violated: isotropy does not preserve "
                                 "the normal space at o")
    if nu.dim == 0:
        return 0, "exact"
    trivial = all(
        is_zero_vec(model.bracket(t, x)) for t in isotropy.basis for x in nu.basis
    )
    if trivial or nu.dim <= 1:
        return nu.dim, "exact"
    sampler = RationalSampler(seed)
    best = 0
    for _ in range(samples):
        xi = sampler.vector_in(nu)
        orbit_dir = Subspace.span(model.dim, [model.bracket(t, xi) for t in isotropy.basis])
        best = max(best, orbit_dir.dim)
        if best == nu.dim - 1:
            break
    return nu.dim - best, "sampled"


def check_lie_triple(model: LieModel, b: Subspace) -> bool:
    """True iff [[b, b], b] is contained in b (exact)."""
    if not model.p_space.contains(b):
        raise ValueError("Lie triple check expects a subspace of p")
    bb = model.bracket_span(b.basis, b.basis)
    bbb = model.bracket_span(bb.basis, b.basis)
    return b.contains(bbb)


# ---------------------------------------------------------------------------
# nilpotent construction conditions


def nc1_normalizer_tangent(model: LieModel, pd: ParabolicDatum, v: Subspace) -> Subspace:
    """p-projection of the m_phi-normalizer of (n_phi minus v)."""
    complement = orthocomplement_in(v, pd.n_phi, model.inner)
    norm = model.normalizer_in(pd.m, complement)
    return model.project_p_subspace(norm)


def check_nc1(model: LieModel, pd: ParabolicDatum, v: Subspace) -> bool:
    """Tangent criterion: the projected normalizer covers the boundary tangent."""
    return nc1_normalizer_tangent(model, pd, v).contains(pd.b)


def _restriction_matrices(model: LieModel, domain: Subspace, v: Subspace):
    mats = []
    for t in domain.basis:
        cols = [v.coords_of(model.bracket(t, w)) for w in v.basis]
        mats.append(tuple(tuple(cols[j][i] for j in range(v.dim)) for i in range(v.dim)))
    return mats


def check_nc2(model: LieModel, pd: ParabolicDatum, v: Subspace, seed: int, samples: int):
    """Transitivity on the unit sphere of v, as a three-stage verdict.

    (a) exact sufficient: the restriction of the k_phi-normalizer spans the
        full rotation algebra of (v, <,>)         -> ("yes", "contains-so")
    (b) exact necessary failure: some sampled nonzero u in v has
        span({u} + normalizer.u) proper in v      -> ("no", "failed-witness")
    (c) otherwise, full tangent span at all samples -> ("yes", "sampled-tangent")
    """
    if v.dim < 2:
        raise ValueError("NC2 needs dim v >= 2")
    norm = model.normalizer_in(pd.k_phi, v)
    mats = _restriction_matrices(model, norm, v)
    m = v.dim
    # the restricted operators are skew for the inner product on v
    gv = [[model.inner_product(x, y) for y in v.basis] for x in v.basis]
    for r in mats:
        for i in range(m):
            for j in range(m):
                lhs = sum((r[t][i] * gv[t][j] for t in range(m)), rat(0))
                rhs = sum((gv[i][t] * r[t][j] for t in range(m)), rat(0))
                if lhs + rhs != 0:
                    raise ValueError("normalizer restriction is not skew on v")
    op_span = Subspace.span(m * m, [tuple(x for row in r for x in row) for r in mats])
    if op_span.dim == m * (m - 1) // 2:
        return "yes", "contains-so"
    sampler = RationalSampler(seed)
    for _ in range(samples):
        # work in restricted coordinates throughout
        uc = tuple(sampler.coefficient() for _ in range(m))
        while not any(uc):
            uc = tuple(sampler.coefficient() for _ in range(m))
        rows = [uc] + [
            tuple(sum((r[i][j] * uc[j] for j in range(m)), rat(0)) for i in range(m))
            for r in mats
        ]
        tangent = Subspace.span(m, rows)
        if tangent.dim < m:
            return "no", "failed-witness"
    return "yes", "sampled-tangent"


# ---------------------------------------------------------------------------
# polar certificate for diagonal actions


def polar_section(spec: ActionSpec) -> Subspace:
    """The candidate flat section: the orthogonal complement of the diagonal
    {H + sigma H : H in the domain flat} inside the flat plus its sigma image.

    It is {H - sigma H} when sigma is an isometry; between homothetic
    factors it is not, and only the orthogonal complement is normal to the
    diagonal.
    """
    sigma: SigmaMap = spec.payload["sigma"]
    a_dom: Subspace = spec.payload["a_section_domain"]
    model = spec.model
    solver = SpanSolver(sigma.domain_basis, model.dim)
    images = [sigma.apply(solver, h) for h in a_dom.basis]
    diagonal = Subspace.span(model.dim, [vadd(h, sh) for h, sh in zip(a_dom.basis, images)])
    flats = Subspace.span(model.dim, list(a_dom.basis) + images)
    return orthocomplement_in(diagonal, flats, model.inner)


def check_polar_certificate(spec: ActionSpec) -> bool | Failure:
    """Exact polarity certificate for a diagonal action.

    (i) the section candidate is abelian, (ii) it is normal to the orbit
    tangent at o, (iii) the diagonal algebra is orthogonal to the section
    plus its derived span.  Returns True, or the Failure of the first
    condition that fails with the basis indices of a witness pair.
    """
    if spec.kind != "CER":
        raise ValueError("polar certificate applies to diagonal actions")
    model = spec.model
    diag: Subspace = spec.payload["diag"]
    section = polar_section(spec)
    for i, x in enumerate(section.basis):
        for j, y in enumerate(section.basis):
            if not is_zero_vec(model.bracket(x, y)):
                return Failure("section-not-abelian", (i, j))
    tangent = orbit_tangent_at_o(model, diag)
    for i, x in enumerate(section.basis):
        for j, y in enumerate(tangent.basis):
            if model.inner_product(x, y) != 0:
                return Failure("section-not-normal-to-orbit", (i, j))
    derived = model.bracket_span(section.basis, section.basis)
    target = subspace_sum(section, derived)
    for i, x in enumerate(diag.basis):
        for j, y in enumerate(target.basis):
            if model.inner_product(x, y) != 0:
                return Failure("diagonal-not-orthogonal", (i, j))
    return True


# ---------------------------------------------------------------------------
# named subspace identities


def extension_composition_ok(datum: RootDatum, psi, phi, h_psi: Subspace) -> bool:
    """Iterated extension psi -> phi -> everything equals the one-step one."""
    nd = build_nested(datum, psi, phi)
    pd_phi = build_parabolic(datum, phi)
    pd_psi = build_parabolic(datum, psi)
    inner = subspace_sum(subspace_sum(h_psi, nd.a_np), nd.n_np)
    two_step = subspace_sum(subspace_sum(inner, pd_phi.a_phi), pd_phi.n_phi)
    one_step = subspace_sum(subspace_sum(h_psi, pd_psi.a_phi), pd_psi.n_phi)
    return two_step == one_step


def extension_containment_ok(datum: RootDatum, psi, phi, nc_spec: ActionSpec) -> bool:
    """The extended Levi-plus-center algebra sits inside the NC algebra."""
    nd = build_nested(datum, psi, phi)
    pd_phi = build_parabolic(datum, phi)
    ext = canonical_extend(datum, pd_phi, nd.l_np)
    return nc_spec.algebra.contains(ext.algebra)


def projection_identity_ok(datum: RootDatum, psi, phi, v: Subspace) -> bool:
    """Solvable projection of the extended algebra equals a + (n minus v)."""
    model = datum.model
    nd = build_nested(datum, psi, phi)
    pd_phi = build_parabolic(datum, phi)
    ext = canonical_extend(datum, pd_phi, nd.l_np)
    projected = model.project_an_subspace(ext.algebra)
    expected = subspace_sum(
        model.a_space, orthocomplement_in(v, model.n_space, model.inner)
    )
    return projected == expected


def product_split_ok(datum: RootDatum, spec: ActionSpec) -> bool:
    """NC algebra on a product equals other blocks + factor-level pieces.

    The factor's k0 is read off the product datum: the centralizer of a in
    k of a product is the direct sum of the factors' centralizers.
    """
    model = spec.model
    if not isinstance(model, ProductModel):
        raise ValueError("product split applies to product models")
    v: Subspace = spec.payload["v"]
    fidx = model.factor_of(datum.simple[spec.payload["j"]].root_vector)
    if fidx is None:
        return False
    factor = model.factors[fidx]
    v_inner = model.restrict_subspace(fidx, v)
    f_k0 = model.restrict_subspace(fidx, subspace_intersect(datum.k0, model.factor_block(fidx)))
    pieces = (factor.normalizer_in(f_k0, v_inner), factor.a_space,
              orthocomplement_in(v_inner, factor.n_space, factor.inner))
    rows = [model.embed_vector(fidx, b) for piece in pieces for b in piece.basis]
    expected = Subspace.span(model.dim, rows + list(model.other_factor_rows((fidx,))))
    return spec.algebra == expected


# ---------------------------------------------------------------------------
# orchestration


def verify(spec: ActionSpec, datum: Optional[RootDatum] = None, *,
           seed: int = 7, samples: int = 32) -> VerificationReport:
    """Fill a full report for one constructed action."""
    model = spec.model
    tangent = orbit_tangent_at_o(model, spec.algebra)
    orbit_dim = tangent.dim
    dim_m = model.p_space.dim
    codim = dim_m - orbit_dim
    cohom, certainty = slice_cohomogeneity(model, spec.algebra, seed, samples, tangent)
    if cohom > codim:
        raise ValueError("cohomogeneity exceeds the orbit codimension")

    notes = [("bracket-closure", model.is_subalgebra(spec.algebra, spec.spanning))]
    tg = "not-checked"
    nc1 = nc2 = "not-checked"
    nc2_cert = None

    if spec.kind in ("CEI", "CER"):
        inner_h = spec.payload.get("diag") if spec.kind == "CER" else spec.payload.get("h_phi")
        if inner_h is not None and model.theta_image(inner_h) == inner_h:
            tg = "yes" if check_lie_triple(model, model.project_p_subspace(inner_h)) else "no"
        if spec.kind == "CER":
            notes.append(("polar-section-certificate", check_polar_certificate(spec)))
        if datum is not None and spec.phi is not None and 0 < len(spec.phi) < datum.rank:
            missing = [i for i in range(datum.rank) if i not in spec.phi]
            phi2 = tuple(sorted(set(spec.phi) | {missing[0]}))
            if inner_h is not None:
                notes.append(
                    ("extension-composition",
                     extension_composition_ok(datum, spec.phi, phi2, inner_h))
                )

    if spec.kind == "NC":
        if datum is None:
            raise ValueError("verifying an NC action needs the root datum")
        pd = build_parabolic(datum, spec.phi)
        v = spec.payload["v"]
        nc1 = "yes" if check_nc1(model, pd, v) else "no"
        nc2, nc2_cert = check_nc2(model, pd, v, seed, samples)
        notes.append(("normalizer-theta-dual", spec.payload.get("theta_dual_ok", False)))
        if isinstance(model, ProductModel):
            notes.append(("product-block-split", product_split_ok(datum, spec)))
        ce_match = spec.payload.get("ce_match")
        if ce_match is not None:
            psi, phi = ce_match
            notes.append(
                ("extension-inside-nilpotent-algebra",
                 extension_containment_ok(datum, psi, phi, spec))
            )
            notes.append(
                ("solvable-projection-matches-complement",
                 projection_identity_ok(datum, psi, phi, v))
            )

    return VerificationReport(
        kind=spec.kind,
        orbit_dim_at_o=orbit_dim,
        codim_at_o=codim,
        cohomogeneity=cohom,
        cohomogeneity_certainty=certainty,
        singular_orbit_totally_geodesic=tg,
        nc1=nc1,
        nc2=nc2,
        nc2_certificate=nc2_cert,
        seed=seed,
        samples=samples,
        notes=tuple(notes),
    )
