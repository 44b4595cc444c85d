"""Enumeration of the cohomogeneity one classification tables.

An ``EnumerationResult`` is a table as it is built, with one seed and
sample count: its ``add`` verifies a row, notes its exact checks, expected
codimension and cohomogeneity one gate, and lists it if the gate passes.

``sl_table`` adds one representative per family for the root datum of a
split real special linear model (``enumerate_sl`` builds it from the
rank): the two foliations, the isotropy extension over a single root, the
Levi-plus-center extension over an interval of roots, the symplectic
extension over three consecutive roots, and the diagonal extension over a
distant pair.  Each extension row builds only its own boundary subalgebra
(s_phi & k, the Levi piece of s_phi for phi minus its last root, or the
sp(2,R) kernel in s_phi) and hands it to ``canonical_extend``.

``rank_one_table`` adds a rank-one model's rows: the solvable foliation,
the extensions of the ``builtin_cei_catalog`` boundary subalgebras, and
the nilpotent constructions.  ``enumerate_product`` builds one table per
distinct factor datum (``sl_table`` above rank one) and lifts each row but
FH into the product one way, with the factor row's certificate; it adds
one horospherical row and diagonal rows for matching pairs of rank-one
boundary pieces at product level.

``nc_oracle_search`` is the independent brute-force oracle: it sweeps every
coordinate subspace of the top graded piece in the tensor basis plus a
seeded batch of random subspaces, records the two nilpotent-construction
conditions for each, and checks every passing candidate's singular-orbit
tangent against the tangents of the canonical-extension rows that the
table lists.  With the j-th root removed the top piece is the a x b
matrices, a = j + 1 and b = n - j, and K_phi acts on it by X -> A X B^T.
A candidate v = U (x) W is a tensor pattern of shape (dim U, dim W), and
all candidates of one shape are K_phi-conjugate once K_phi contains SO(a) x
SO(b), which each sweep certifies exactly (``block_rotation_certificate``)
off the table of ad(l) on g_1 that its evaluations read: then one
evaluation per shape serves every candidate of that shape, and only the
other candidates are evaluated one by one.  ``nc_oracle`` computes the
known tangents once per run (``known_extension_tangents``), sweeps each
simple root, and notes whether every passing candidate of the sweep matched
one, naming the first that did not.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, List, NamedTuple, Optional

from .linalg import Subspace, orthocomplement_in, rat, subspace_intersect, subspace_sum
from .models import LieModel, ProductModel, build_sl
from .actions import (
    NC_OVERLAP,
    ActionSpec,
    builtin_cei_catalog,
    canonical_extend,
    make_cer,
    make_factor_diagonal,
    make_fh,
    make_fs,
    matrix_kernel,
    nilpotent_construct,
    product_assemble,
)
from .parabolic import (ParabolicDatum, TensorModel, build_nested, build_parabolic,
                        tensor_model)
from .roots import RootDatum, decompose
from .verify import (Note, RationalSampler, VerificationReport, _levi_action, check_nc1,
                     check_nc2, levi_normalizer, orbit_tangent_at_o, verify)


MAX_SL_RANK = 8
MAX_ORACLE_RANK = 4
ORACLE_PROBES = 200  # seeded random candidates per oracle sweep


class CatalogEntry(NamedTuple):
    label: str  # FH | FS | CE-row-1..4 | CEI | CER | NC | Prod
    name: str  # subalgebra description
    boundary: str  # boundary component description
    comment: str
    spec: ActionSpec
    report: VerificationReport

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "kind": self.spec.kind,
            "name": self.name,
            "boundary": self.boundary,
            "comment": self.comment,
            "phi": [i + 1 for i in self.spec.phi] if self.spec.phi is not None else [],
            "codim": self.report.codim_at_o,
            "report": self.report.to_json(),
        }


class EnumerationResult:
    """A classification table as it is built; it opens with the structural
    identities of its datum."""

    def __init__(self, datum: RootDatum, seed: int, samples: int):
        self.datum = datum
        self.seed = seed
        self.samples = samples
        self.entries: List[CatalogEntry] = []
        self.oracle: Optional[dict] = None
        model = datum.model
        total = datum.zero_space.dim + sum(r.space.dim for r in datum.roots)
        kan = model.k_space.dim + model.a_space.dim + model.n_space.dim
        self.identities: List[Note] = [
            Note("iwasawa-direct-sum", kan == model.dim),
            Note("root-space-sum", total == model.dim),
            Note("theta-root-pairing", datum.theta_pairs_roots),
        ]

    @property
    def model(self) -> LieModel:
        return self.datum.model

    @property
    def all_identities_passed(self) -> bool:
        return all(n.passed for n in self.identities)

    def add(self, label, name, boundary, comment, spec, expected_codim=None, report=None):
        """Verify a row unless its report is given; note its checks; list it
        if its action has cohomogeneity one."""
        if report is None:
            report = verify(spec, self.datum, seed=self.seed, samples=self.samples)
        tag = f"{label}[{comment}]" if comment else label
        self.identities.append(Note(f"exact-checks:{tag}", report.all_exact_checks_passed))
        if expected_codim is not None:
            self.identities.append(Note(f"codim-matches-expected:{tag}",
                                        report.codim_at_o == expected_codim))
        if report.cohomogeneity != 1:
            self.identities.append(Note(f"cohomogeneity-one-gate:{tag}", False))
            return
        self.entries.append(CatalogEntry(label, name, boundary, comment, spec, report))


# ---------------------------------------------------------------------------
# split special linear models


def _fh(datum: RootDatum) -> ActionSpec:
    """The horospherical foliation of one representative line in a."""
    line = Subspace.span(datum.model.dim, [datum.simple[0].root_vector])
    return make_fh(datum.model, line)


def _symplectic_kernel(model: LieModel, s_phi: Subspace, lo: int) -> Subspace:
    """sp(2,R) inside s_phi: {X : X^T J + J X = 0} for the standard
    symplectic form J on the coordinates lo, ..., lo + 3, summed over the
    nonzero entries of X and J."""
    jmat = {}
    for p in (lo, lo + 1):
        jmat[p, p + 2] = 1
        jmat[p + 2, p] = -1

    def condition(mat: dict) -> dict:
        out = {}
        for (r, c), x in mat.items():
            for (p, q), y in jmat.items():
                if p == r:  # X^T J at (c, q)
                    out[c, q] = out.get((c, q), 0) + x * y
                if q == r:  # J X at (p, c)
                    out[p, c] = out.get((p, c), 0) + y * x
        return out

    return matrix_kernel(model, s_phi, condition)


def _extend(datum: RootDatum, phi: tuple, h_phi: Subspace) -> ActionSpec:
    """Canonical extension over phi of a theta invariant boundary subalgebra,
    for the CE rows of an sl table and the CEI rows of a rank-one one.
    verify reads theta invariance to decide whether a Lie-triple verdict
    applies, so a subalgebra without it is rejected here; ``canonical_extend``
    checks that it lies in s_phi, and verify that it closes."""
    if not datum.model.theta_maps_onto(h_phi, h_phi):
        raise ValueError("boundary subalgebra is not theta invariant")
    return canonical_extend(datum, build_parabolic(datum, phi), h_phi)


def ce_families(datum: RootDatum) -> Iterator[tuple]:
    """The table's canonical-extension rows for an sl model, in table order,
    one (label, name, boundary, comment, spec, expected codim) per row."""
    model = datum.model
    n = datum.rank
    # CE row 1: isotropy extension over each single root, by s_phi & k
    for j in range(n):
        iso = subspace_intersect(build_parabolic(datum, (j,)).s, model.k_space)
        yield ("CE-row-1", "so(2)", "RH^2", f"j={j + 1}", _extend(datum, (j,), iso), 2)
    # CE row 2: Levi-plus-center extension over each interval of length >= 2,
    # by the Levi piece of s_phi for psi = phi minus its last root
    for j in range(n):
        for k in range(j + 1, n):
            phi = tuple(range(j, k + 1))
            levi = build_nested(datum, phi[:-1], phi)
            yield ("CE-row-2", f"sl({k - j + 1})+R", f"SL({k - j + 2},R)/SO({k - j + 2})",
                   f"j={j + 1}, k={k + 1}", _extend(datum, phi, levi), k - j + 1)
    # CE row 3: symplectic extension over each three-root interval
    for j in range(n - 2):
        phi = (j, j + 1, j + 2)
        sp2 = _symplectic_kernel(model, build_parabolic(datum, phi).s, j)
        yield ("CE-row-3", "sp(2,R)", "SL(4,R)/SO(4)", f"j={j + 1}", _extend(datum, phi, sp2), 3)
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
    result = EnumerationResult(datum, seed, samples)
    result.add("FH", "(a-line)+n", "-", "one representative line", _fh(datum))
    # FS: one entry per simple root (one line up to orbit equivalence)
    for j in range(datum.rank):
        result.add("FS", "a+(n-line)", "-", f"j={j + 1}", make_fs(datum, j))
    for row in ce_families(datum):
        result.add(*row)
    return result


# ---------------------------------------------------------------------------
# products


def _complex_structure_on_root_space(factor: LieModel, f_datum: RootDatum) -> dict:
    """Z, a row of the center of k0, with ad(Z)^2 = c I, c < 0, on the root
    space: ad(Z)^2 r = c r for every canonical row r of the root space."""
    center = factor.centralizer_in(f_datum.k0, f_datum.k0)
    sp = f_datum.root_with_coeff((1,)).space
    p = sp.pivots[0]
    for z in center.rows:
        squares = [factor.bracket(z, factor.bracket(z, r)) for r in sp.rows]
        if not all(map(sp.contains_vector, squares)):
            raise ValueError("ad(Z)^2 does not preserve the root space")
        c = rat(squares[0].get(p, 0)) / sp.rows[0][p]
        if c < 0 and all(sq == {j: c * x for j, x in r.items()}
                         for sq, r in zip(squares, sp.rows)):
            return z
    raise ValueError("no complex structure found on the root space")


def _rank_one_nc_subspaces(factor: LieModel, f_datum: RootDatum, profile) -> list:
    """(description, subspace) representatives of protohomogeneous subspaces."""
    sp = f_datum.root_with_coeff((1,)).space
    out = []
    if profile[1] == 0:
        # real hyperbolic: every subspace works; one coordinate rep per dim
        for m in range(2, sp.dim + 1):
            out.append((f"R^{m}", Subspace.span(factor.dim, sp.rows[:m])))
        return out
    # complex hyperbolic: totally real and complex coordinate representatives
    z = _complex_structure_on_root_space(factor, f_datum)
    real_rows = []
    for b in sp.rows:
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


def rank_one_table(datum: RootDatum, *, seed: int, samples: int) -> EnumerationResult:
    """Classification families for the root datum of a rank-one model."""
    result = EnumerationResult(datum, seed, samples)
    profile = datum.profile(datum.simple[0])
    space = _hyperbolic_name(profile)
    result.add("FS", "a+(n-line)", "-", "j=1", make_fs(datum, 0))
    for name, sub in builtin_cei_catalog(datum, [0]):
        result.add("CEI", name, space, name, _extend(datum, (0,), sub))
    for desc, v in _rank_one_nc_subspaces(datum.model, datum, profile):
        result.add("NC", f"v={desc}", space, f"dim v={v.dim}",
                   nilpotent_construct(datum, build_parabolic(datum, []), v))
    return result


def enumerate_product(pm: ProductModel, *, seed: int = 7, samples: int = 32) -> EnumerationResult:
    """Classification families for a product of shipped factor models."""
    datum = decompose(pm)
    result = EnumerationResult(datum, seed, samples)
    factor_phis = datum.factor_phis
    tables = {}  # identical factors share one datum, and so one table

    # nested-parabolic spot check once per distinct factor datum, in its own
    # datum, whose nested data the product's embed.  Its verdict is the graded
    # check of s_phi in build_parabolic, which proves q_{psi,phi} = q_psi & s_phi
    nested_ok = True
    try:
        for fd in dict.fromkeys(datum.factors):
            whole = tuple(range(fd.rank))
            build_nested(fd, (), whole)
            build_nested(fd, whole[:1], whole)
    except ValueError:
        nested_ok = False
    result.identities.append(Note("nested-parabolic-intersection", nested_ok))

    # FH once, at product level
    result.add("FH", "(a-line)+n", "-", "one representative line", _fh(datum))

    # H = H_i + (g_j, j != i) has H_i's normal space, slice representation and
    # checks, because the g_j are ideals that commute with g_i; its orbit grows
    # by their p.  An sl factor's rows are listed as Prod rows.
    for idx, (factor, fd) in enumerate(zip(pm.factors, datum.factors)):
        if fd not in tables:
            table = rank_one_table if fd.rank == 1 else sl_table
            tables[fd] = table(fd, seed=seed, samples=samples)
        tag = f"factor {idx + 1}"
        rest_p = pm.p_space.dim - factor.p_space.dim
        for inner in tables[fd].entries:
            if inner.label == "FH":
                continue  # folds into the product-level FH row
            if fd.rank == 1:
                label, kind, comment = inner.label, inner.spec.kind, inner.comment
            else:
                label, kind, comment = "Prod", "Prod", f"{inner.label}[{inner.comment}]"
            spec = product_assemble(pm, idx, inner.spec)._replace(kind=kind)
            report = inner.report._replace(kind=kind,
                                           orbit_dim_at_o=inner.report.orbit_dim_at_o + rest_p)
            result.add(label, inner.name, inner.boundary, f"{tag}: {comment}", spec, report=report)
        result.identities.extend(n._replace(name=f"{tag}:{n.name}")
                                 for n in tables[fd].identities)

    # CER: pairs of rank-one boundary pieces from different factors; the
    # reports list them factor pair by factor pair.  A constructor error
    # propagates, as every other row's does
    for (idx_j, phi_j), (idx_k, phi_k) in itertools.combinations(enumerate(factor_phis), 2):
        same = len(phi_j) == 1 and pm.factors[idx_j].name == pm.factors[idx_k].name
        for a, b in itertools.product(phi_j, phi_k):
            profile = datum.profile(datum.simple[a])
            if profile != datum.profile(datum.simple[b]):
                continue
            spec = make_factor_diagonal(pm, datum, idx_j, idx_k) if same \
                else make_cer(datum, a, b)
            space = _hyperbolic_name(profile)
            result.add("CER", "diag", f"{space} x {space}", f"j={a + 1}, k={b + 1}", spec)
    return result


# ---------------------------------------------------------------------------
# brute-force oracle for the nilpotent construction on sl models


def known_extension_tangents(result: EnumerationResult) -> set:
    """Singular-orbit tangents of the canonical-extension rows of an sl
    table, each CE-row-2 interval also extended from its other end drop
    psi = phi[1:].  They do not depend on the removed root, so one set
    serves every sweep of nc_oracle_search."""
    datum, model = result.datum, result.model
    specs = []
    for entry in result.entries:
        if entry.label.startswith("CE-"):
            specs.append(entry.spec)
        if entry.label == "CE-row-2":
            phi = entry.spec.phi
            levi = build_nested(datum, phi[1:], phi)
            specs.append(canonical_extend(datum, build_parabolic(datum, phi), levi))
    return {orbit_tangent_at_o(model, spec.algebra) for spec in specs}


def _tensor_shape(tm: TensorModel, v: Subspace) -> Optional[tuple]:
    """(dim U, dim W) if v = U (x) W, else None, for v given in the
    coordinates of the top piece (``TensorModel.coordinates``).

    Read each X in v as a matrix, coordinate t in the cell ``tm.cells[t]``;
    U is the span of the columns of all X in v and W the span of their rows.
    v lies in U (x) W, so the two are equal iff dim v = dim U dim W.  The
    columns and rows of the basis of v span U and W.  With one row, or one
    column, U = R^1 and W = v, or the other way round, so every v is a
    tensor pattern and nothing is spanned.  Nor is anything spanned when
    dim v is no product p q with p <= nrows and q <= ncols, since dim U <=
    nrows and dim W <= ncols."""
    if tm.nrows == 1:
        return 1, v.dim
    if tm.ncols == 1:
        return v.dim, 1
    if not any(v.dim % p == 0 and v.dim // p <= tm.ncols for p in range(1, tm.nrows + 1)):
        return None
    cells = tm.cells
    cols, rows = {}, {}
    for k, vector in enumerate(v.rows):
        for t, x in vector.items():
            r, c = cells[t]
            cols.setdefault((k, c), {})[r] = x
            rows.setdefault((k, r), {})[c] = x
    p = Subspace.span(tm.nrows, cols.values()).dim
    if v.dim % p:
        return None
    q = Subspace.span(tm.ncols, rows.values()).dim
    return (p, q) if p * q == v.dim else None


def block_rotation_certificate(model: LieModel, pd: ParabolicDatum, tm: TensorModel) -> bool:
    """Whether k_phi restricted to the top piece spans so(a) (x) 1 + 1 (x)
    so(b), the algebra of X -> A X - X B with A, B skew, on the top piece
    read as a x b matrices (a = tm.nrows, b = tm.ncols).

    The restrictions of the rows of k_phi are the k_phi block of the cached
    table of ad(l) on g_1 (``verify.LeviAction``), the top piece, whose
    coordinate t is the cell ``tm.cells[t]``: the sweep's evaluations read
    the same table.  Their span, each operator flattened, is compared with
    the span of the elementary rotations E_rs - E_sr acting on either side,
    of dimension a(a - 1)/2 + b(b - 1)/2.  When they agree, the identity
    component of K_phi acts on the top piece as SO(a) x SO(b) by X -> A X
    B^T."""
    action = _levi_action(model, pd.l_p, pd.k_phi, pd.grading[1], pd.b)
    if tuple(action.coordinate) != tm.columns:
        raise ValueError("the top piece is not the first graded piece")
    index = {cell: t for t, cell in enumerate(tm.cells)}
    n = len(index)
    # (E_rs - E_sr) E_ic and E_ic (E_cd - E_dc), flattened as k_phi_operators flattens
    rotations = [{index[i, c] * n + index[r + s - i, c]: 1 if i == s else -1
                  for i, c in index if i in (r, s)}
                 for r, s in itertools.combinations(range(tm.nrows), 2)]
    rotations += [{index[i, e] * n + index[i, c + d - e]: 1 if e == c else -1
                   for i, e in index if e in (c, d)}
                  for c, d in itertools.combinations(range(tm.ncols), 2)]
    return Subspace.span(n * n, action.k_phi_operators()) == Subspace.span(n * n, rotations)


def evaluate_nc_candidate(model: LieModel, pd: ParabolicDatum, v: Subspace, tangents: set,
                          seed: int, samples: int) -> dict:
    """The oracle's verdicts on one candidate v of the top piece, dim v >= 2,
    at model width: its record's "nc1", "nc2", "nc2_certificate", "passes"
    and, when it passes, "matches_known_tangent".

    One solve, N_l(v) over the split basis l = (l & p) + k_phi
    (``levi_normalizer``), decides both conditions.  The NC algebra's
    normalizer is N = N_l(c) for the complement c = n_phi minus v, and N =
    theta N_l(v) by theta duality, so p(N) = p(N_l(v)) is spanned by the
    solve's l & p blocks, which decide NC1 exactly in l & p coordinates
    (``check_nc1``), and its k_phi rows, applied to the images the solve
    formed, restrict N_{k_phi}(v) to v (``LeviNormalizer.operators``), on
    which NC2 runs its stages.  Neither N nor c is built for a candidate
    that fails either condition.  When both pass, c is solved for and the
    singular-orbit tangent, p(N) + p(c), is looked up in tangents."""
    split = levi_normalizer(model, pd, v)
    ok1 = check_nc1(split)
    verdict, cert = check_nc2(model, v, split.operators, seed, samples)
    out = {"nc1": "yes" if ok1 else "no", "nc2": verdict, "nc2_certificate": cert,
           "passes": ok1 and verdict == "yes"}
    if out["passes"]:
        complement = orthocomplement_in(v, pd.n_phi, model.inner)
        tangent = subspace_sum(split.p_part, model.project_p_subspace(complement))
        out["matches_known_tangent"] = tangent in tangents
    return out


@lru_cache(maxsize=16)
def _oracle_probes(seed: int, dim: int) -> tuple:
    """The ORACLE_PROBES seeded random subspaces of Q^dim, the top piece in
    its coordinates, that a sweep draws, of dimensions cycling from 2 up.
    They depend on the seed and dim alone, so the mirror sweeps j and n - 1
    - j, whose top pieces are a x b and b x a matrices, share one draw."""
    sampler = RationalSampler(seed)
    top = Subspace.full(dim)
    return tuple(sampler.subspace_in(top, min(2 + t % max(1, dim - 1), dim))
                 for t in range(ORACLE_PROBES))


def nc_oracle_search(result: EnumerationResult, j: int, tangents: set) -> dict:
    """Brute-force sweep of candidate subspaces of the top graded piece,
    checked against the rows of the sl table result, whose tangents are
    ``known_extension_tangents(result)``.  The probes and the sampled NC2
    stage use the table's seed and sample count.

    Covers every coordinate subspace of the tensor basis (all 2^dim subsets,
    dimension capped at 6) plus ORACLE_PROBES seeded random subspaces;
    duplicates collapse into one record with a hit count, so the probe
    budget stays auditable.

    Candidates live in the coordinates of the top piece g_1, whose
    canonical rows are the generators, unit rows in column order: a
    coordinate subset is its unit rows and a probe is drawn inside
    Q^(a b) (``TensorModel.coordinates``), which makes the draws and the
    reduced rows of a draw inside g_1, so nothing is spanned per subset.
    Only an evaluated candidate is placed at model width, relabelled with
    no elimination (``TensorModel.place``), and evaluated by
    ``evaluate_nc_candidate``, whose equations are read off the table of
    ad(l) on g_1 that the sweep's certificate builds, dim l x dim g_1
    brackets, the only brackets of the sweep.  The NC algebra N + c is
    never spanned: the sum is direct for every candidate once l and n_phi
    meet only in 0, because N lies in l and c in n_phi, and that is checked
    once per sweep.

    Candidates fall into shape classes.  A record's ``tensor_shape`` is (p,
    q) when v = U (x) W with dim U = p and dim W = q (``_tensor_shape``).
    K_phi = S(O(a) x O(b)) acts on the a x b top piece by X -> A X B^T, and
    SO(a) x SO(b) is transitive on pairs (U, W) of given dimensions, so all
    candidates of one shape are K_phi-conjugate.  Conjugation by K_phi
    fixes the parabolic data and the inner product, so NC1, transitivity
    on the unit sphere of v (NC2) and the known-tangent match are the same
    along a class.  The sweep proves
    K_phi contains SO(a) x SO(b) once (``block_rotation_certificate``, noted
    as ``so_block_certificate``); then each shape is evaluated once, on its
    first candidate, which is a coordinate rectangle because the coordinate
    subsets come first, and every later candidate of that shape copies its
    verdicts.  Without the certificate every candidate is evaluated.  A
    passing record notes how its match was proven: ``tangent``, its own
    tangent is known, or ``tensor-pattern``, its shape's first candidate
    matched.  ``check_nc2`` seeds its own sampler on every call, so the
    skipped evaluations move no other record.
    """
    datum = result.datum
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
    if subspace_intersect(pd.l, pd.n_phi).dim:
        raise ValueError(NC_OVERLAP)
    certified = block_rotation_certificate(model, pd, tm)

    keys = sorted(tm.generators)
    candidates = []
    for size in range(len(keys) + 1):
        for subset in itertools.combinations(keys, size):
            candidates.append(("coordinate", sorted(subset), tm.coordinates(subset)))
    candidates += [("probe", None, v) for v in _oracle_probes(result.seed, dim)]

    records = []
    by_space = {}
    by_shape = {}  # (p, q) -> the record of the first candidate of that shape
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
            "tensor_shape": None,
            "nc1": None,
            "nc2": None,
            "nc2_certificate": None,
            "passes": False,
            "matches_known_tangent": None,
            "matched_by": None,
        }
        by_space[v] = rec
        records.append(rec)
        if v.dim < 2:
            rec["nc1"] = rec["nc2"] = "not-checked"
            continue
        shape = _tensor_shape(tm, v)
        rec["tensor_shape"] = list(shape) if shape else None
        first = by_shape.get(shape) if certified else None
        if first is not None:
            for key in ("nc1", "nc2", "nc2_certificate", "passes", "matches_known_tangent"):
                rec[key] = first[key]
            if first["matches_known_tangent"]:
                rec["matched_by"] = "tensor-pattern"
            continue
        if shape:
            by_shape[shape] = rec
        rec.update(evaluate_nc_candidate(model, pd, tm.place(v), tangents, result.seed,
                                         result.samples))
        if rec["matches_known_tangent"]:
            rec["matched_by"] = "tangent"
    return {
        "records": records,
        "probes": ORACLE_PROBES,
        "coordinate_subsets": 2 ** dim,
        "distinct_candidates": len(records),
        "so_block_certificate": certified,
    }


def nc_oracle(result: EnumerationResult) -> None:
    """Sweep every simple root of an sl table with ``nc_oracle_search`` into
    ``result.oracle``, computing the known tangents once, and note for each
    sweep whether every passing candidate matched one of them; a failing
    note names the first passing record that did not match, as its (index,
    sources, subset, dim)."""
    tangents = known_extension_tangents(result)
    result.oracle = {}
    for j in range(result.datum.rank):
        sweep = nc_oracle_search(result, j, tangents)
        result.oracle[f"j={j + 1}"] = sweep
        result.identities.append(Note.first_failure(
            f"oracle-known-tangent-match:j={j + 1}",
            [("unmatched-candidate", (k, r["sources"], r["subset"], r["dim"]))
             for k, r in enumerate(sweep["records"])
             if r["passes"] and not r["matches_known_tangent"]][:1]))
