"""Exact and sampled certificates for constructed actions.

``verify`` is the one place that certifies a constructed action; a product's
row from one factor is certified at factor size and lifted with its
certificate (``catalog.enumerate_product``).  The exact side: bracket
closure of the constructed algebra, orbit tangents at the base point, Lie
triple checks, normalizer tangent criteria for the nilpotent construction,
the theta-dual check of its normalizer, rotation-algebra certificates, and
the extension composition identity.  Each named exact check is one ``Note``
of the row's report, the record the run-level identities of ``catalog``
use too.  The sampled side: the cohomogeneity of the slice representation,
estimated as the generic isotropy orbit corank over seed-fixed rational
sample vectors; sampled verdicts are always labeled as such and never
silently treated as exact.

Bracket closure is decided from the grading, not pair by pair.
``decompose`` checks once per simple datum that [g_lam, g_mu] lies in
g_{lam+mu}; each kind's algebra is then closed when its pieces pass a few
containments and dimension counts (``graded_closure_failure``).  The one
piece the grading does not decide is the boundary subalgebra h of a CEI or
CER row, which is h + a_phi + n_phi with h as its payload "h_phi"; its
closure is checked there and by no constructor.  Only when a condition
fails does ``closure_note`` run the pair loop, to name the first pair of
algebra rows whose bracket leaves.  A theta invariant h that the note
certifies closed has a Lie triple p(h) = h & p, so the Lie triple check
runs only when the note fails.  The extension composition identity
likewise compares a-pieces and sets of positive roots, and spans nothing.

The slice is read after the closure note, and not at all when the note
names a pair of rows whose bracket leaves the algebra.  A canonical
extension h + a_phi + n_phi whose note passed has the slice of h on the
boundary component B_phi, whose tangent is b: its orbit tangent, normal
space and isotropy are p(h) plus a_phi and p(n_phi), b minus p(h), and
h & k (``slice_pieces``), so nothing is solved for inside all of p.  Every
other action is read in p.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

from .linalg import (
    Subspace,
    _integer_row,
    combination,
    kernel_rows,
    orthocomplement_in,
    rref_rows,
    subspace_intersect,
    subspace_sum,
)
from .models import LieModel
from .actions import ActionSpec
from .parabolic import ParabolicDatum, a_piece, build_parabolic, nilpotent_roots
from .roots import RootDatum

_MASK = (1 << 64) - 1


class RationalSampler:
    """Deterministic rational samples from coefficients in -3..3; every draw is sparse."""

    def __init__(self, seed: int):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK

    def _next(self) -> int:
        self.state = (6364136223846793005 * self.state + 1442695040888963407) & _MASK
        return self.state >> 33

    def coefficient(self):
        return self._next() % 7 - 3

    def nonzero_coefficients(self, m: int) -> dict:
        """m coefficients c_0, ..., c_(m-1), drawn in order and again until
        one is nonzero, as the sparse row {i: c_i} of the nonzero ones."""
        while True:
            coeffs = {i: c for i in range(m) if (c := self.coefficient())}
            if coeffs:
                return coeffs

    def vector_in(self, sub: Subspace) -> dict:
        """L sum(c_i h_i) for drawn coefficients c_i, the h_i the rational RREF
        rows of sub and L as in ``Subspace.basis_scales``: the row r_i = d_i h_i
        is scaled by L / d_i, so the draw is an integer vector, sparse."""
        if sub.dim == 0:
            raise ValueError("cannot sample from the zero subspace")
        coeffs = self.nonzero_coefficients(sub.dim)
        return combination({i: c * sub.basis_scales[i] for i, c in coeffs.items()}, sub.rows)

    def subspace_in(self, sub: Subspace, dim: int) -> Subspace:
        """The span of dim vectors drawn as ``vector_in`` draws them, drawn
        again until they are independent.

        The draws, sparse coefficient rows, are spanned in the coordinates of
        the rational RREF rows B of sub: with C the drawn coefficients,
        RREF(C B) = RREF(C) B, because B is in RREF with unit pivots.  A
        reduced row r of C, primitive with a positive pivot, maps to
        sum(r_q (L / d_q) row_q) over the rows of sub, where d_q is the pivot
        value of row_q and L their lcm: that is L times r B, so divided by its
        gcd it is the canonical row of the span.  When sub is all of Q^n, B is
        the identity and the reduced rows are the span's.
        """
        if not 0 <= dim <= sub.dim:
            raise ValueError(f"cannot sample a {dim}-dimensional subspace "
                             f"of a {sub.dim}-dimensional one")
        if dim == 0:
            return Subspace.zero(sub.ambient_dim)
        while True:
            draws = [self.nonzero_coefficients(sub.dim) for _ in range(dim)]
            reduced, pivots = rref_rows(draws, sub.dim)
            if len(pivots) == dim:
                break
        if dim == sub.dim:
            return sub
        if sub.dim == sub.ambient_dim:
            return Subspace(sub.ambient_dim, tuple(reduced), tuple(pivots))
        rows = tuple(_integer_row(combination({q: x * sub.basis_scales[q] for q, x in r.items()},
                                              sub.rows))
                     for r in reduced)
        return Subspace(sub.ambient_dim, rows, tuple(sub.pivots[c] for c in pivots))


class Note(NamedTuple):
    """One exact check of a row or of a run: its name and verdict, and for a
    failed check that names them, the sub-check that failed and a witness,
    given as basis indices into the subspaces that sub-check compares."""

    name: str
    passed: bool
    sub_check: Optional[str] = None
    witness: tuple = ()

    @classmethod
    def first_failure(cls, name: str, failures: list) -> "Note":
        """Failed with the first (sub_check, witness) of failures, or passed."""
        return cls(name, False, *failures[0]) if failures else cls(name, True)

    def to_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.sub_check is not None:
            out["sub_check"] = self.sub_check
            out["witness"] = list(self.witness)
        return out


class VerificationReport(NamedTuple):
    kind: str
    orbit_dim_at_o: int
    codim_at_o: int
    cohomogeneity: int
    cohomogeneity_certainty: str  # "exact" | "sampled" | "not-checked"
    singular_orbit_totally_geodesic: str  # "yes" | "no" | "not-checked"
    nc1: str  # "yes" | "no" | "not-checked"
    nc2: str
    nc2_certificate: Optional[str]
    seed: int
    samples: int
    notes: tuple = ()  # of Note, one per exact check

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
            "notes": [n.to_json() for n in self.notes],
        }

    @property
    def all_exact_checks_passed(self) -> bool:
        return all(n.passed for n in self.notes)


# ---------------------------------------------------------------------------
# tangent and slice machinery


def orbit_tangent_at_o(model: LieModel, h: Subspace) -> Subspace:
    """Tangent space of the orbit through the base point: the p-part of h."""
    return model.project_p_subspace(h)


def slice_cohomogeneity(model: LieModel, h: Subspace, ambient: Subspace, tangent: Subspace,
                        seed: int, samples: int):
    """Cohomogeneity of the isotropy action on the normal space at o.

    The normal space is ambient minus tangent (orthogonal complement, with
    tangent inside ambient) and the isotropy algebra is h & k: ambient p,
    tangent p(H) and h = H for an action algebra H, or the boundary pieces
    of ``slice_pieces``.  Returns (value, certainty).  The isotropy is
    computed first, and when it is 0 the value is dim ambient - dim tangent,
    exact, with no normal space solved for: a trivial isotropy fixes every
    normal vector and preserves the normal space.
    Otherwise the isotropy must preserve the normal space (the slice
    closure check), and the value is exact when the normal space is at most
    a line or the isotropy acts trivially on it; else the generic orbit
    rank is sampled and the verdict is labeled "sampled".
    """
    isotropy = subspace_intersect(h, model.k_space)
    if isotropy.dim == 0:
        return ambient.dim - tangent.dim, "exact"
    nu = orthocomplement_in(tangent, ambient, model.inner)
    images = [model.bracket(t, x) for t in isotropy.rows for x in nu.rows]
    if not all(nu.contains_vector(y) for y in images):
        raise ValueError("slice closure violated: isotropy does not preserve "
                         "the normal space at o")
    if nu.dim <= 1 or not any(images):
        return nu.dim, "exact"
    sampler = RationalSampler(seed)
    best = 0
    for _ in range(samples):
        xi = sampler.vector_in(nu)
        orbit_dir = Subspace.span(model.dim, [model.bracket(t, xi) for t in isotropy.rows])
        best = max(best, orbit_dir.dim)
        if best == nu.dim - 1:
            break
    return nu.dim - best, "sampled"


def slice_pieces(spec: ActionSpec, datum: RootDatum, closed: bool) -> tuple:
    """(h, ambient, tangent, orbit_dim) for ``slice_cohomogeneity`` and the
    orbit through o: the slice at o is ambient minus tangent, acted on by
    h & k, and orbit_dim is the dimension of the orbit.

    A CEI or CER row whose closure note passed (``closed``) and whose p(h)
    lies in b, for h its payload "h_phi", is read on the boundary component
    B_phi: (h, b, p(h), dim p(h) + dim a_phi + dim n_phi).  The passing note
    certifies H = h + a_phi + n_phi.  p = a_phi + b + p(n_phi) is an
    orthogonal sum: ``decompose`` checks that the inner product pairs only
    equal weights, a_phi and a^phi are orthogonal in a, and p(g_lam) lies
    in g_lam + g_-lam; the sum fills p, as p = a + p(n) and n & k = 0 by the
    model's Iwasawa decomposition.  So p(H) = p(h) + a_phi + p(n_phi), of
    dimension dim p(h) + dim a_phi + dim n_phi, and its normal space is b
    minus p(h).  And H & k = h & k: the p-parts of x_h + x_a + x_n in k add
    to 0 in that direct sum, so x_a = 0 and x_n lies in n & k = 0.  Every
    row built by ``actions.canonical_extend`` has p(h) in b = s_phi & p.

    Every other action, and a canonical extension that fails either
    condition, is read in p: (H, p, p(H), dim p(H)).
    """
    model = spec.model
    if closed and spec.kind in ("CEI", "CER"):
        pd = build_parabolic(datum, spec.phi)
        h = spec.payload["h_phi"]
        tangent = orbit_tangent_at_o(model, h)
        if pd.b.contains(tangent):
            return h, pd.b, tangent, tangent.dim + pd.a_phi.dim + pd.n_phi.dim
    tangent = orbit_tangent_at_o(model, spec.algebra)
    return spec.algebra, model.p_space, tangent, tangent.dim


def check_lie_triple(model: LieModel, b: Subspace) -> bool:
    """True iff [[b, b], b] is contained in b (exact)."""
    if not model.p_space.contains(b):
        raise ValueError("Lie triple check expects a subspace of p")
    bb = model.bracket_span(b.rows, b.rows)
    bbb = model.bracket_span(bb.rows, b.rows)
    return b.contains(bbb)


# ---------------------------------------------------------------------------
# nilpotent construction conditions


class LeviAction:
    """ad(l) on the first graded piece g_1 of a parabolic datum, over the
    split rows of l, those of l & p first (``levi_normalizer``): dim l x
    dim g_1 brackets, taken once per datum, as ``_levi_action`` caches it
    by the pieces it reads.  Raises unless the canonical rows of g_1 are
    unit rows.  Its three readers: ``levi_normalizer`` (each candidate's
    Levi equations), ``LeviNormalizer.operators`` (NC2, through the solve's
    images) and ``catalog.block_rotation_certificate`` (its k_phi block,
    ``k_phi_operators``)."""

    def __init__(self, model: LieModel, l_p: Subspace, k_phi: Subspace, g1: Subspace,
                 b: Subspace):
        if any(row != {c: 1} for row, c in zip(g1.rows, g1.pivots)):
            raise ValueError("the first graded piece has no unit rows")
        self.l_p, self.k_phi = l_p, k_phi
        self.coordinate = {c: t for t, c in enumerate(g1.pivots)}  # g_1 coordinate of a pivot
        split = l_p.rows + k_phi.rows
        last = len(split) - 1
        # table[s][t][last - a]: coordinate t of [x_a, e_s], the unknowns
        # numbered as ``solve_inclusion_constraint`` numbers them
        self.table = tuple({} for _ in g1.pivots)
        for a, x in enumerate(split):
            for s, c in enumerate(g1.pivots):
                for col, y in model.bracket(x, {c: 1}).items():
                    self.table[s].setdefault(self.coordinate[col], {})[last - a] = y
        # each row of b in the coordinates of the rows of l & p, times L
        self.b_coords = tuple({q: y[c] * f for q, (c, f)
                               in enumerate(zip(l_p.pivots, l_p.basis_scales)) if c in y}
                              for y in b.rows)

    def k_phi_operators(self) -> list:
        """ad(y) on g_1 for each row y of k_phi, the unknowns 0, ...,
        dim k_phi - 1, flattened: coordinate t of [y, e_s] at s dim g_1 + t."""
        n = len(self.table)
        return [{s * n + t: col[u] for s, column in enumerate(self.table)
                 for t, col in column.items() if u in col} for u in range(self.k_phi.dim)]


_levi_action = lru_cache(maxsize=16)(LeviAction)


class LeviNormalizer:
    """N_l(v) in the split basis l = (l & p) + k_phi (``levi_normalizer``):
    the solution rows, in RREF over the split rows of l, v in g_1
    coordinates and the images the solve formed, and what is read off them.
    The pieces at model width are placed on first use."""

    def __init__(self, action: LeviAction, rows: list, v: Subspace, images: list):
        self.action = action
        self.rows = rows  # sparse, {a: coefficient of split row a}
        self.v = v  # in g_1 coordinates
        self.images = images  # per row W_k of v: {t: coordinate t of [x, W_k] over the unknowns}

    @cached_property
    def p_coords(self) -> Subspace:
        """The l & p blocks of the solutions, in the coordinates of the rows
        of l & p: the blocks of the rows whose pivot lies there."""
        cut = self.action.l_p.dim
        rows = tuple(_integer_row({a: x for a, x in row.items() if a < cut})
                     for row in self.rows if min(row) < cut)
        return Subspace(cut, rows, tuple(min(row) for row in rows))

    @cached_property
    def blocks(self) -> tuple:
        """(l & p block, k_phi block) of each solution row, placed."""
        lp, kp = self.action.l_p, self.action.k_phi
        cut = lp.dim
        return tuple((combination({a: x for a, x in row.items() if a < cut}, lp.rows),
                      combination({a - cut: x for a, x in row.items() if a >= cut}, kp.rows))
                     for row in self.rows)

    @cached_property
    def p_part(self) -> Subspace:
        """p(N_l(v)), which is p(N_l(n_phi minus v)): p_coords, placed."""
        lp = self.action.l_p
        rows = tuple(_integer_row(combination(row, lp.rows)) for row in self.p_coords.rows)
        return Subspace(lp.ambient_dim, rows, tuple(min(row) for row in rows))

    @cached_property
    def operators(self) -> list:
        """ad(y) restricted to v for each y spanning N_l(v) & k = N_{k_phi}(v),
        as the rows of a positive integer multiple of its matrix in the
        coordinates of v, over its rational RREF rows (``Subspace.coords_of``):
        y is a solution row whose pivot lies in the
        k_phi block, and the coordinate t of [y, W_k] is y applied to the
        image formed for W_k, so no bracket is taken.  Raises if one leaves v."""
        v, cut = self.v, self.action.l_p.dim
        last = cut + self.action.k_phi.dim - 1
        scales, ops = v.basis_scales, []
        for y in (row for row in self.rows if min(row) >= cut):
            cols = [{t: x for t, col in image.items()
                     if (x := sum(c * y.get(last - u, 0) for u, c in col.items()))}
                    for image in self.images]
            if any(map(v._residual, cols)):
                raise ValueError("the normalizer does not map v into itself")
            ops.append(tuple(tuple(f * w.get(p, 0) for w, f in zip(cols, scales))
                             for p in v.pivots))
        return ops

    def theta_dual(self) -> Subspace:
        """theta N_l(v) = N_l(n_phi minus v): the solution rows with their
        l & p blocks negated, spanned."""
        return Subspace.span(self.action.l_p.ambient_dim,
                             [combination({0: -1, 1: 1}, pk) for pk in self.blocks])


def levi_normalizer(model: LieModel, pd: ParabolicDatum, v: Subspace) -> LeviNormalizer:
    """N_l(v) for a subspace v of the first graded piece g_1, by one solve
    over the split basis of l whose equations are read off a table of
    ad(l) on g_1, and what the nilpotent construction reads off it.

    *Split basis.*  l is theta stable, so it is the direct sum of its p-part
    l & p (``pd.l_p``) and its k-part k_phi = l & k; their rows together are
    dim l independent rows, since p & k = 0, and this raises unless they
    number dim l.  Number the unknowns over the split rows, those of l & p
    first, and solve for the combinations that map v into itself: in RREF
    over the unknowns, as ``linalg.solve_inclusion_constraint`` numbers and
    reads them.  The rows whose pivot lies in the k_phi block are zero on
    the l & p block, and in RREF they span the solutions there, N_l(v) & k
    = N_{k_phi}(v).  The l & p blocks of the other rows are independent and
    span the l & p blocks of all solutions, p(N_l(v)).  That block is in
    RREF and combines the canonical rows of l & p, so its combinations are
    the canonical rows of p(N_l(v)): nothing is spanned again.  theta is -1
    on p and +1 on k, so negating the l & p block of every solution row
    gives theta N_l(v).

    *The table.*  Every shipped basis is a weight basis, so g_1, a sum of
    root spaces, is spanned by basis vectors: its canonical rows are unit
    rows e_s, in increasing column order, and the g_1 coordinates of a
    vector of g_1 are its entries at the pivots of g_1.  This raises unless
    they are unit rows.  l preserves g_1, so ad(x_a) e_s lies in g_1 for
    every split row x_a, and the table T[(t, s)], the coordinate t of
    [x_a, e_s] as a sparse row over the unknowns, is dim l x dim g_1
    brackets, built once per datum.  Let v have canonical rows W_k with
    pivots p_k and pivot values d_k, in g_1 coordinates, and D the lcm of
    the d_k.  For each free column f of v, z_f = D e_f - sum_k (D / d_k)
    W_k[f] e_{p_k} is the residual functional of ``Subspace._residual`` at
    f, and the equation (f, k) is sum over (t, s) of z_f[t] W_k[s] T[(t,
    s)]: the residual of [x, W_k] against v at f.  Those are all the
    equations of the solve, since a residual is zero at the pivots of v and
    off g_1, so no bracket is taken per v.  NC2 reads the images [x, W_k]
    again (``LeviNormalizer.operators``).

    *theta duality.*  For x in l, w in n_phi and u in v, <[x, w], u> =
    -<w, [theta x, u]>, because <X, Y> = -B(X, theta Y), B is ad invariant
    and theta is an automorphism.  l preserves each grade, so [x, c] lies
    in n_phi for c = n_phi minus v, and [theta x, v] lies in g_1.  Hence x
    normalizes c iff [x, c] is orthogonal to v iff [theta x, v] is
    orthogonal to c iff theta x normalizes v: N_l(c) = theta N_l(v), and
    p(N_l(c)) = p(N_l(v)) since p(theta X) = -p(X).  ``verify`` certifies
    the identity for every NC row (the ``normalizer-theta-dual`` note).
    """
    if pd.grading is None:
        raise ValueError("v must lie inside the first graded piece")
    lp, kp = pd.l_p, pd.k_phi
    if lp.dim + kp.dim != pd.l.dim:
        raise ValueError("l & p and k_phi do not split l")
    action = _levi_action(model, lp, kp, pd.grading[1], pd.b)
    try:
        rows = tuple({action.coordinate[c]: x for c, x in row.items()} for row in v.rows)
    except KeyError:
        raise ValueError("v must lie inside the first graded piece") from None
    # v in g_1 coordinates, and z[f]: the residual functional z_f of v at each free column f
    coords = Subspace(len(action.table), rows, tuple(min(row) for row in rows))
    z = {f: {f: v._scale} for f in range(len(action.table)) if f not in coords.pivots}
    for row, p, scale in zip(rows, coords.pivots, v.basis_scales):
        for f, x in row.items():
            if f in z:
                z[f][p] = -scale * x
    equations, images = [], []
    for row in rows:
        image = {}  # coordinate t of [x, W_k], as a sparse row over the unknowns
        images.append(image)
        for s, x in row.items():
            for t, col in action.table[s].items():
                acc = image.setdefault(t, {})
                for a, y in col.items():
                    acc[a] = acc.get(a, 0) + x * y
        for zf in z.values():
            eq = {}
            for t, w in zf.items():
                for a, y in image.get(t, {}).items():
                    eq[a] = eq.get(a, 0) + w * y
            equations.append({a: y for a, y in eq.items() if y})
    last = lp.dim + kp.dim - 1
    ker = kernel_rows(equations, last + 1)
    return LeviNormalizer(action, [{last - u: c for u, c in x.items()} for x in reversed(ker)],
                          coords, images)


def check_nc1(split: LeviNormalizer) -> bool:
    """Tangent criterion: p(N_l(n_phi minus v)) covers the boundary tangent b.

    p(N_l(c)) for the complement c = n_phi minus v is p(N_l(v)) by theta
    duality (``levi_normalizer``), with c never built.  b lies in l & p, and
    the rows of l & p are independent, so b lies in p(N_l(v)) iff the
    coordinates of its rows over them, read once per datum, lie in the span
    of the solution's l & p blocks.  This is the criterion for the
    m_phi-normalizer: c is graded and a_phi acts on each graded piece by a
    scalar, so N_l(c) = N_m(c) + a_phi and p(N_l(c)) = p(N_m(c)) + a_phi.
    Both b and p(N_m(c)) lie in m, which is theta invariant and orthogonal
    to a_phi, so b lies in p(N_l(c)) iff it lies in p(N_m(c)).
    """
    return all(map(split.p_coords.contains_vector, split.action.b_coords))


def _gram(model: LieModel, v: Subspace) -> tuple:
    """L^2 times the Gram matrix of the rational RREF rows of v for the
    inner product, with L as in ``Subspace.basis_scales``, as its rows: an
    integer matrix for the shipped models."""
    scales = v.basis_scales
    images = [model.inner.apply(row) for row in v.rows]
    return tuple(
        tuple(f * g * sum(x * im.get(j, 0) for j, x in row.items())
              for im, g in zip(images, scales))
        for row, f in zip(v.rows, scales))


def check_nc2(model: LieModel, v: Subspace, ops: list, seed: int, samples: int):
    """Transitivity on the unit sphere of v of the k_phi-normalizer
    N_{k_phi}(v), given by ops, its restrictions to v, which both callers
    read off the Levi solve of NC1 (``LeviNormalizer.operators``), as a
    three-stage verdict.

    (a) exact sufficient: the operators span the
        full rotation algebra of (v, <,>)         -> ("yes", "contains-so")
    (b) exact necessary failure: some sampled nonzero u in v has
        span({u} + ops.u) proper in v             -> ("no", "failed-witness")
    (c) otherwise, full tangent span at all samples -> ("yes", "sampled-tangent")

    A normalizer of dimension 0, with no operator, gives (b) at once: (a)
    fails, since so(v) is not 0 for dim v >= 2, and the first sample's
    tangent is the line of u.  That needs a first sample, so samples must
    be at least 1.

    The operators R, each given by its rows, and the Gram matrix G are
    integer multiples of their matrices in the coordinates of v, over its
    rational RREF rows, by positive factors: no Fraction is built, and none
    of the verdicts above changes under positive scalings of R or G.  The
    sampled vectors are in those coordinates.
    """
    if v.dim < 2:
        raise ValueError("NC2 needs dim v >= 2")
    if samples < 1:
        raise ValueError("NC2 needs at least one sample")
    if not ops:
        return "no", "failed-witness"
    m = v.dim
    # the restricted operators are skew for the inner product on v: R^T G + G R
    # = 0, and with G symmetric that is M + M^T = 0 for M = G R
    gram = _gram(model, v)
    for op in ops:
        gr = [[sum(g * op[k][j] for k, g in enumerate(row)) for j in range(m)] for row in gram]
        if any(gr[i][j] + gr[j][i] for i in range(m) for j in range(i, m)):
            raise ValueError("normalizer restriction is not skew on v")
    op_span = Subspace.span(m * m, [{i * m + j: x for i, row in enumerate(op)
                                     for j, x in enumerate(row) if x} for op in ops])
    if op_span.dim == m * (m - 1) // 2:
        return "yes", "contains-so"
    sampler = RationalSampler(seed)
    for _ in range(samples):
        # work in restricted coordinates throughout
        uc = sampler.nonzero_coefficients(m)
        tangent = Subspace.span(m, [uc] + [{i: y for i, row in enumerate(op)
                                            if (y := sum(row[j] * u for j, u in uc.items()))}
                                           for op in ops])
        if tangent.dim < m:
            return "no", "failed-witness"
    return "yes", "sampled-tangent"


# ---------------------------------------------------------------------------
# polar certificate for diagonal actions


def polar_section(spec: ActionSpec, datum: RootDatum) -> Subspace:
    """The candidate flat section of a diagonal over phi: the orthogonal
    complement of the diagonal {H + sigma H} = h_phi & flats inside flats.

    The flats are a^phi (``a_upper``), the sum of the two boundary pieces'
    flats, which sigma must map onto each other.  The diagonal embeds into
    each of them, so that holds iff it has half the dimension of their sum.
    The section is {H - sigma H} when sigma is an isometry; between
    homothetic factors it is not, and only the orthogonal complement is
    normal to the diagonal.
    """
    flats = build_parabolic(datum, spec.phi).a_upper
    diagonal = subspace_intersect(spec.payload["h_phi"], flats)
    if 2 * diagonal.dim != flats.dim:
        raise ValueError("sigma does not map the domain flat onto the image flat")
    return orthocomplement_in(diagonal, flats, spec.model.inner)


def check_polar_certificate(spec: ActionSpec, datum: RootDatum, tangent: Subspace) -> Note:
    """Exact polarity certificate for a diagonal action, whose diagonal h_phi
    has the orbit tangent p(h_phi) at o given as tangent.

    (i) the section candidate is abelian, (ii) it is normal to the orbit
    tangent at o, (iii) the diagonal algebra is orthogonal to the section
    plus its derived span.  The note fails on the first condition that
    fails, with the basis indices of a witness pair.
    """
    if spec.kind != "CER":
        raise ValueError("polar certificate applies to diagonal actions")
    name = "polar-section-certificate"
    model = spec.model
    diag: Subspace = spec.payload["h_phi"]
    section = polar_section(spec, datum)
    for i, x in enumerate(section.rows):
        for j, y in enumerate(section.rows):
            if model.bracket(x, y):
                return Note(name, False, "section-not-abelian", (i, j))
    for i, x in enumerate(section.rows):
        for j, y in enumerate(tangent.rows):
            if model.inner_product(x, y) != 0:
                return Note(name, False, "section-not-normal-to-orbit", (i, j))
    derived = model.bracket_span(section.rows, section.rows)
    target = subspace_sum(section, derived)
    for i, x in enumerate(diag.rows):
        for j, y in enumerate(target.rows):
            if model.inner_product(x, y) != 0:
                return Note(name, False, "diagonal-not-orthogonal", (i, j))
    return Note(name, True)


# ---------------------------------------------------------------------------
# named subspace identities


def _rows_outside(sub_check: str, sub: Subspace, other: Subspace) -> list:
    """(sub_check, (i,)) for each basis row i of sub that other misses."""
    return [(sub_check, (i,)) for i, row in enumerate(sub.rows) if not other.contains_vector(row)]


def extension_composition_ok(datum: RootDatum, pd: ParabolicDatum, phi: tuple) -> Note:
    """Iterated extension psi -> phi -> everything equals the one-step one,
    piece by piece: a_np + a_phi = a_psi and n_np + n_phi = n_psi, for psi
    = pd.phi inside the sorted phi.  Adding any h_psi to both sides keeps
    them equal.

    a-part: a_np is a_psi & a^phi, the orthogonal complement of a_phi in
    a_psi when a_phi lies in a_psi, so the sum is a_psi exactly when a_phi
    lies in a_psi; the nested rank of s_phi makes dim a_np = |phi| - |psi|.
    a_psi is read from pd, the parabolic datum ``verify`` has already built
    for a row over psi, so only a_phi is solved for.
    n-part: the roots that span n_np and n_phi together are the roots that
    span n_psi (``nilpotent_roots``), and distinct root spaces are
    independent, so equal root sets span equal pieces.  Nothing is spanned.
    A failed note names a row of a_phi outside a_psi, the dimension count,
    or the index in ``datum.positive`` of a root on one side only.
    """
    psi, a_psi, a_phi = pd.phi, pd.a_phi, a_piece(datum, phi)
    failures = _rows_outside("a-piece-not-contained", a_phi, a_psi)
    if a_psi.dim - a_phi.dim != len(phi) - len(psi):
        failures.append(("a-piece-dimension", ()))
    nested, outer, whole = ({r.coeffs for r in nilpotent_roots(datum, *args)}
                            for args in ((psi, phi), (phi,), (psi,)))
    failures += [("root-sets-differ", (i,)) for i, r in enumerate(datum.positive)
                 if (r.coeffs in nested or r.coeffs in outer) != (r.coeffs in whole)]
    return Note.first_failure("extension-composition", failures)


# ---------------------------------------------------------------------------
# bracket closure from the root grading


def graded_closure_failure(spec: ActionSpec, datum: RootDatum) -> Optional[str]:
    """The first condition of the graded closure proof of the spec's kind
    that fails, or None when the proof holds.

    Every condition is a containment or a dimension count.  With the
    grading identity [g_lam, g_mu] in g_{lam+mu}, which ``decompose`` checks
    once per simple datum, each kind's algebra is closed when its conditions
    hold:

    * FH: n lies in the algebra, which lies in a + n.  So the algebra is n
      plus a subspace of a, and a is abelian and normalizes n.
    * FS: a lies in the algebra, which lies in a + n and holds every
      positive root space but g_{alpha_j}.  [n, n] has no simple root.
    * CEI and CER over phi, a factor diagonal included: h in l_phi, h
      closed (checked pair by pair here, the one closure check of h, which
      the grading does not decide), and the algebra is h + a_phi + n_phi.
      a_phi commutes with l_phi, and l_phi, a_phi and n_phi each carry
      n_phi into itself.
    * NC: the algebra is N + c with N in l and c in n_phi containing every
      grade >= 2.  ``nilpotent_construct`` built N as N_l(c), which
      normalizes c and is closed because l is, and [c, c] lies in the
      grades >= 2.
    """
    model, algebra, payload = spec.model, spec.algebra, spec.payload
    if spec.kind in ("FH", "FS"):
        if not subspace_sum(model.a_space, model.n_space).contains(algebra):
            return "algebra-outside-a-plus-n"
        if spec.kind == "FH":
            return None if algebra.contains(model.n_space) else "n-not-in-algebra"
        if not algebra.contains(model.a_space):
            return "a-not-in-algebra"
        (j,) = spec.phi
        simple = datum.simple[j].coeffs
        if not all(algebra.contains(r.space) for r in datum.positive if r.coeffs != simple):
            return "root-space-not-in-algebra"
        return None
    if spec.kind in ("CEI", "CER"):
        pd = build_parabolic(datum, spec.phi)
        h = payload["h_phi"]
        if not pd.l.contains(h):
            return "h-outside-levi"
        if not model.is_subalgebra(h):
            return "h-not-closed"
        pieces = (h, pd.a_phi, pd.n_phi)
    elif spec.kind == "NC":
        pd = build_parabolic(datum, spec.phi)
        normalizer, complement = payload["normalizer"], payload["complement"]
        if not pd.l.contains(normalizer):
            return "normalizer-outside-levi"
        if pd.grading is None or not pd.n_phi.contains(complement) or not all(
                complement.contains(sp) for nu, sp in pd.grading.items() if nu >= 2):
            return "complement-misses-a-grade"
        pieces = (normalizer, complement)
    else:
        raise ValueError(f"no graded closure proof for kind {spec.kind}")
    if algebra.dim == sum(p.dim for p in pieces) and all(map(algebra.contains, pieces)):
        return None
    return "algebra-not-its-pieces"


def closure_note(spec: ActionSpec, datum: RootDatum) -> Note:
    """The bracket-closure note.  A kind with a graded proof passes when the
    proof holds.  When it fails, and for a Prod spec, which has no pieces,
    the pair loop decides: the note fails with the first pair of algebra
    rows whose bracket leaves, and otherwise a failed proof fails the note
    with the name of its condition and a Prod spec passes."""
    graded = spec.kind != "Prod"
    failed = graded_closure_failure(spec, datum) if graded else None
    if graded and failed is None:
        return Note("bracket-closure", True)
    pair = spec.model.bracket_leaving_pair(spec.algebra)
    if pair is not None:
        return Note("bracket-closure", False, "bracket-leaves-algebra", pair)
    return Note("bracket-closure", not graded, failed)


# ---------------------------------------------------------------------------
# orchestration


def verify(spec: ActionSpec, datum: RootDatum, *,
           seed: int = 7, samples: int = 32) -> VerificationReport:
    """Fill a full report for one constructed action over its root datum.

    The closure note comes first.  When it names a pair of rows whose
    bracket leaves the algebra, the slice is not computed: an open algebra
    has no slice representation to read, so the report gives the orbit
    codimension as the cohomogeneity, "not-checked", and the failing note
    names its witness.  A note that fails on a condition of the graded
    proof alone leaves a closed algebra, whose slice is read in p."""
    model = spec.model
    closure = closure_note(spec, datum)
    h, ambient, tangent, orbit_dim = slice_pieces(spec, datum, closure.passed)
    codim = model.p_space.dim - orbit_dim
    if closure.sub_check == "bracket-leaves-algebra":
        cohom, certainty = codim, "not-checked"
    else:
        cohom, certainty = slice_cohomogeneity(model, h, ambient, tangent, seed, samples)
        if cohom > codim:
            raise ValueError("cohomogeneity exceeds the orbit codimension")

    notes = [closure]
    tg = "not-checked"
    nc1 = nc2 = "not-checked"
    nc2_cert = None

    if spec.kind in ("CEI", "CER"):
        inner_h = spec.payload["h_phi"]
        # a slice read on B_phi has p(h) as its tangent already
        p_h = tangent if h is inner_h else orbit_tangent_at_o(model, inner_h)
        if model.theta_maps_onto(inner_h, inner_h):
            # p(h) = h & p, and a passing note certifies that h is closed, so
            # [[h & p, h & p], h & p] lies in h and in p
            lie_triple = closure.passed or check_lie_triple(model, p_h)
            tg = "yes" if lie_triple else "no"
        if spec.kind == "CER":
            notes.append(check_polar_certificate(spec, datum, p_h))
        if 0 < len(spec.phi) < datum.rank:
            missing = [i for i in range(datum.rank) if i not in spec.phi]
            phi2 = tuple(sorted(set(spec.phi) | {missing[0]}))
            notes.append(extension_composition_ok(datum, build_parabolic(datum, spec.phi),
                                                  phi2))

    if spec.kind == "NC":
        # one solve for N_l(v) gives NC1, NC2 and theta N_l(v), which the note
        # compares with the payload's N_l(n_phi minus v), built on its own
        pd = build_parabolic(datum, spec.phi)
        v, normalizer = spec.payload["v"], spec.payload["normalizer"]
        split = levi_normalizer(model, pd, v)
        nc1 = "yes" if check_nc1(split) else "no"
        nc2, nc2_cert = check_nc2(model, v, split.operators, seed, samples)
        theta_dual = split.theta_dual()
        notes.append(Note.first_failure("normalizer-theta-dual", (
            _rows_outside("theta-dual-not-in-normalizer", theta_dual, normalizer)
            + _rows_outside("normalizer-not-in-theta-dual", normalizer, theta_dual))))

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
