"""Constructors for the Lie algebras of the cohomogeneity one action families.

Each constructor returns an :class:`ActionSpec`: the action kind, the
model, the defining roots, and the resulting subalgebra as an exact
subspace of the ambient model.  An action is its algebra: closure under the
bracket is a property of that subspace, which ``verify`` alone certifies
from the algebra's pieces and the root grading
(``verify.graded_closure_failure``), the closure of a boundary subalgebra
h_phi included.  Constructors check their inputs and build; none checks
closure.  The payload holds only the subspaces ``verify`` reads: a CEI or
CER payload holds h_phi, an NC payload v, the normalizer and the
complement, not the omitted root.  A diagonal {X + sigma X} is its graph
(``_graph``), never a linear map.  Kinds:

* ``FH``   codimension one horospherical foliation, (a minus line) + n
* ``FS``   solvable foliation, a + (n minus a line in a simple root space)
* ``CEI``  canonical extension of a reductive boundary subalgebra
* ``CER``  canonical extension of a diagonal subalgebra over two orthogonal
           rank-one boundary pieces, two whole rank-one factors included
* ``NC``   nilpotent construction from a subspace of the top graded piece
* ``Prod`` factor action assembled with the remaining full factors

Every CEI and CER row is ``canonical_extend(datum, pd, h_phi)``, the one
place that checks a boundary subalgebra lies in s_phi and meets
a_phi + n_phi only in 0.  The sl table builds each row's boundary
subalgebra itself (``cohomatlas.catalog.ce_families``);
``builtin_cei_catalog`` names those of rank-one factors.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional

from .linalg import (
    Subspace,
    combination,
    orthocomplement_in,
    rat,
    solve_inclusion_constraint,
    subspace_intersect,
    subspace_sum,
)
from .models import LieModel, ProductModel
from .parabolic import ParabolicDatum, build_parabolic
from .roots import RootDatum


class ActionSpec(NamedTuple):
    """A constructed action: kind, model, defining roots, resulting
    subalgebra, and the payload that :func:`cohomatlas.verify.verify` reads.

    The default payload is one empty dict shared by every FH, FS and Prod
    spec; nothing writes to a payload, and a changed one is a new dict
    (``spec._replace(payload={**spec.payload, ...})``)."""

    kind: str
    model: LieModel
    phi: Optional[tuple]
    algebra: Subspace
    payload: dict = {}


# ---------------------------------------------------------------------------
# foliations


def make_fh(model: LieModel, line: Subspace) -> ActionSpec:
    """Horospherical foliation algebra (a minus line) + n."""
    if line.dim != 1:
        raise ValueError("FH needs a one dimensional subspace of a")
    if not model.a_space.contains(line):
        raise ValueError("FH line must lie in a")
    a_rest = orthocomplement_in(line, model.a_space, model.inner)
    algebra = subspace_sum(a_rest, model.n_space)
    if algebra.dim != model.a_space.dim + model.n_space.dim - 1:
        raise ValueError("FH dimension bookkeeping failed")
    return ActionSpec("FH", model, None, algebra)


def make_fs(datum: RootDatum, j: int) -> ActionSpec:
    """Solvable foliation algebra a + (n minus a line in the j-th simple root
    space), for one representative line: the first basis row of that space."""
    model = datum.model
    if not 0 <= j < datum.rank:
        raise ValueError("FS needs a simple root index")
    line = Subspace.span(model.dim, datum.simple[j].space.rows[:1])
    n_rest = orthocomplement_in(line, model.n_space, model.inner)
    algebra = subspace_sum(model.a_space, n_rest)
    if algebra.dim != model.a_space.dim + model.n_space.dim - 1:
        raise ValueError("FS dimension bookkeeping failed")
    return ActionSpec("FS", model, (j,), algebra)


# ---------------------------------------------------------------------------
# canonical extension


def canonical_extend(
    datum: RootDatum,
    pd: ParabolicDatum,
    h_phi: Subspace,
    kind: str = "CEI",
) -> ActionSpec:
    """Extend a boundary subalgebra h_phi over phi: h_phi + a_phi + n_phi,
    with the payload {"h_phi": h_phi}.

    h_phi must lie in s_phi, and the three pieces must be in direct sum.
    That h_phi closes under the bracket is certified by ``verify``'s
    bracket-closure note, not here.
    """
    model = datum.model
    if not pd.s.contains(h_phi):
        raise ValueError("boundary subalgebra must lie in s_phi")
    algebra = Subspace.span(model.dim, h_phi.rows + pd.a_phi.rows + pd.n_phi.rows)
    if algebra.dim != h_phi.dim + pd.a_phi.dim + pd.n_phi.dim:
        raise ValueError("extension pieces are not in direct sum")
    return ActionSpec(kind, model, pd.phi, algebra, {"h_phi": h_phi})


# ---------------------------------------------------------------------------
# diagonal subalgebras


def _graph(model: LieModel, domain: Subspace, image: Subspace, pairs) -> Subspace:
    """The graph {x + sigma x} of the bijection sigma: x -> y over the (x, y)
    pairs of sparse vectors, between independent commuting
    subalgebras.  There the bracket of x + sigma x and y + sigma y is
    [x, y] + [sigma x, sigma y], so sigma preserves the bracket iff its
    graph is a subalgebra.  That is not checked here: the graph is a CER
    row's h_phi, whose closure ``verify`` certifies (``h-not-closed`` in
    ``verify.graded_closure_failure``).

    Rows that are a subspace's canonical rows span it, and subspaces with
    disjoint supports meet only in 0, so neither is spanned again; the two
    sides commute when every bracket of their rows vanishes."""
    xs, ys = (list(side) for side in zip(*pairs))
    if not _spans(model, xs, domain):
        raise ValueError("sigma domain basis does not span the domain")
    if not _spans(model, ys, image):
        raise ValueError("sigma is not bijective onto the target algebra")
    if not domain.support.isdisjoint(image.support) and \
            subspace_sum(domain, image).dim != 2 * domain.dim:
        raise ValueError("sigma domain and image meet")
    if any(model.bracket(x, y) for x in domain.rows for y in image.rows):
        raise ValueError("sigma domain and image do not commute")
    return Subspace.span(model.dim, [combination({0: 1, 1: 1}, xy) for xy in zip(xs, ys)])


def _spans(model: LieModel, vectors: list, sub: Subspace) -> bool:
    """Whether the sparse vectors are a basis of sub."""
    return len(vectors) == sub.dim and (
        vectors == list(sub.rows) or Subspace.span(model.dim, vectors) == sub)


def _sl2_triple(model: LieModel, datum: RootDatum, root) -> tuple:
    """Canonical (H, E, F) with [H,E]=2E, [H,F]=-2F, [E,F]=H for a (1,0)
    root, as sparse vectors, with E the canonical row of its root space, and
    the value c = root(H_raw) that normalizes H_raw = [E, -theta E]."""
    sp = root.space
    if sp.dim != 1:
        raise ValueError("sl2 triple needs a multiplicity one root")
    e = sp.rows[0]
    f_raw = {i: -x for i, x in model.theta.apply(e).items()}
    h_raw = model.bracket(e, f_raw)
    if not model.a_space.contains_vector(h_raw):
        raise ValueError("bracket of the root pair leaves a (unsupported model)")
    c = datum.evaluate(root, h_raw)
    if c <= 0:
        raise ValueError("degenerate root normalization")
    scale = rat(2) / c
    return _scaled(scale, h_raw), e, _scaled(scale, f_raw), c


def _scaled(t, v: dict) -> dict:
    """t * v for a sparse vector v and a nonzero scalar t."""
    return {i: t * x for i, x in v.items()}


def _rational_sqrt(x):
    """Exact square root of a positive rational, or None."""
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        return None
    return rat(rn, rd)


def default_cer_sigma(datum: RootDatum, j: int, k: int) -> Subspace:
    """The graph of the canonical isomorphism between two rank-one boundary
    algebras of multiplicity (1,0) roots: the sl2-triple map, rescaled so the
    graph is theta invariant (requires an exact rational square root)."""
    model = datum.model
    pd_j = build_parabolic(datum, [j])
    pd_k = build_parabolic(datum, [k])
    if any(datum.profile(datum.simple[idx]) != (1, 0) for idx in (j, k)):
        raise ValueError("no canonical sigma for this pair of boundary algebras")
    hj, ej, fj_, cj = _sl2_triple(model, datum, datum.simple[j])
    hk, ek, fk_, ck = _sl2_triple(model, datum, datum.simple[k])
    t = _rational_sqrt(rat(cj) / ck)
    if t is None:
        raise ValueError("boundary algebras are homothetic but admit no rational "
                         "theta-equivariant identification")
    pairs = [(hj, hk), (ej, _scaled(t, ek)), (fj_, _scaled(rat(1) / t, fk_))]
    graph = _graph(model, pd_j.s, pd_k.s, pairs)
    if not model.theta_maps_onto(graph, graph):
        raise ValueError("default sigma failed theta equivariance")
    return graph


def make_cer(datum: RootDatum, j: int, k: int) -> ActionSpec:
    """Diagonal subalgebra over two orthogonal simple roots, canonically extended."""
    if j == k:
        raise ValueError("CER needs two distinct simple roots")
    if tuple(sorted((j, k))) in datum.dynkin_edges:
        raise ValueError("CER roots must be orthogonal in the Dynkin diagram")
    profile_j, profile_k = datum.profile(datum.simple[j]), datum.profile(datum.simple[k])
    if profile_j[0] != profile_k[0]:
        raise ValueError("CER multiplicities do not match")
    if profile_j != profile_k:
        raise ValueError("CER double root multiplicities do not match")
    graph = default_cer_sigma(datum, j, k)
    return canonical_extend(datum, build_parabolic(datum, [j, k]), graph, kind="CER")


def make_factor_diagonal(pm: ProductModel, datum: RootDatum, j: int, k: int) -> ActionSpec:
    """Whole-factor diagonal {X + sigma X}, with sigma the coordinate
    translation between two identical factors, canonically extended over
    their roots: a_phi + n_phi is the AN part of the other factors.  The
    graph plus the other factors whole is orbit equivalent to it: both are
    transitive on the other factors with the same p-projection, and their
    isotropies differ by k of the other factors, trivial on the normal space."""
    if j == k or not (0 <= j < len(pm.factors) and 0 <= k < len(pm.factors)):
        raise ValueError("factor diagonal needs two distinct factor indices")
    if pm.factors[j].name != pm.factors[k].name:
        raise ValueError("no canonical sigma between non-identical factors")
    block_j, block_k = (pm.embed({i: Subspace.full(pm.factors[i].dim)}) for i in (j, k))
    graph = _graph(pm, block_j, block_k, zip(block_j.rows, block_k.rows))
    pd = build_parabolic(datum, datum.factor_phis[j] + datum.factor_phis[k])
    return canonical_extend(datum, pd, graph, kind="CER")


# ---------------------------------------------------------------------------
# nilpotent construction


NC_OVERLAP = "normalizer overlaps the nilpotent complement"


def nc_summands(datum: RootDatum, pd: ParabolicDatum, v: Subspace) -> tuple:
    """(N_l(c), c) for the complement c = n_phi minus v of a subspace v of the
    top grade: the two summands of the nilpotent construction's algebra."""
    model = datum.model
    if pd.grading is None:
        raise ValueError("nilpotent construction needs phi omitting exactly one root")
    if v.dim < 2:
        raise ValueError("nilpotent construction needs dim v >= 2")
    if not pd.grading[1].contains(v):
        raise ValueError("v must lie inside the first graded piece")
    complement = orthocomplement_in(v, pd.n_phi, model.inner)
    return model.normalizer_in(pd.l, complement), complement


def nilpotent_construct(datum: RootDatum, pd: ParabolicDatum, v: Subspace) -> ActionSpec:
    """Normalizer-plus-complement algebra N_l(c) + c from a subspace v of the
    top grade, with c = n_phi minus v; the sum must be direct."""
    normalizer, complement = nc_summands(datum, pd, v)
    algebra = subspace_sum(normalizer, complement)
    if algebra.dim != normalizer.dim + complement.dim:
        raise ValueError(NC_OVERLAP)
    return ActionSpec("NC", datum.model, pd.phi, algebra,
                      {"v": v, "normalizer": normalizer, "complement": complement})


# ---------------------------------------------------------------------------
# product assembly


def product_assemble(pm: ProductModel, j: int, inner: ActionSpec) -> ActionSpec:
    """Factor action on the j-th block plus all remaining full factors, placed
    by ``pm.embed`` with no span.  Its roots are the factor action's, shifted
    past the simple roots of the earlier factors, one per dimension of their
    a."""
    if not 0 <= j < len(pm.factors):
        raise ValueError("factor index out of range")
    algebra = pm.embed({i: inner.algebra if i == j else Subspace.full(f.dim)
                        for i, f in enumerate(pm.factors)})
    shift = sum(f.a_space.dim for f in pm.factors[:j])
    phi = None if inner.phi is None else tuple(i + shift for i in inner.phi)
    return ActionSpec("Prod", pm, phi, algebra)


# ---------------------------------------------------------------------------
# built-in reductive boundary subalgebras


def matrix_kernel(model: LieModel, inside: Subspace, condition) -> Subspace:
    """{x in inside : condition(matrix(x)) = 0} for a linear condition that
    maps a matrix, as its sparse entries {(row, column): value}, to a matrix
    of the model's size in the same form.  Each row of inside gives its
    matrix from the basis matrices' entries (``LieModel.basis``)."""
    size = model.matrix_size
    entries = model.basis
    values = []
    for row in inside.rows:
        mat = {}
        for i, c in row.items():
            for pq, x in entries[i].items():
                mat[pq] = mat.get(pq, 0) + c * x
        image = condition({pq: x for pq, x in mat.items() if x})
        values.append([{p * size + q: x for (p, q), x in image.items() if x}])
    return solve_inclusion_constraint(inside, values, Subspace.zero(size * size))


def _entries_zero_subspace(model: LieModel, positions) -> Subspace:
    """{x in g : matrix(x) vanishes at the given positions}."""
    return matrix_kernel(model, Subspace.full(model.dim),
                         lambda mat: {pq: mat[pq] for pq in positions if pq in mat})


def builtin_cei_catalog(datum: RootDatum, phi: Iterable[int]) -> list:
    """Named maximal reductive boundary subalgebras over a single root.

    Returns (name, subalgebra) pairs.  The first is the isotropy algebra
    s_phi & k, so(m + 1) or u(m / 2 + 1) for a root of multiplicity m
    without or with a double; the so(1,n) and su(1,n) models add the
    entries that their matrix blocks cut out.  Each entry is a theta
    invariant subalgebra of s_phi, checked where it is extended:
    ``canonical_extend`` checks s_phi, ``catalog._extend`` theta invariance,
    and ``verify`` closure.
    """
    if datum.factors:
        raise ValueError("the built-in catalog is defined for a simple rank-one model, "
                         "not a product")
    model = datum.model
    pd = build_parabolic(datum, phi)
    (root,) = [datum.simple[i] for i in pd.phi]
    m_a, m_2a = datum.profile(root)
    iso = subspace_intersect(pd.s, model.k_space)
    out = [(f"u({m_a // 2 + 1})" if m_2a else f"so({m_a + 1})", iso)]

    if model.name.startswith("so(1,"):
        n = model.matrix_size - 1
        for k in range(1, n - 1):
            cross = [(p, q) for p in range(k + 1) for q in range(k + 1, n + 1)]
            cross += [(q, p) for p, q in cross]
            out.append((f"so(1,{k})+so({n - k})", _entries_zero_subspace(model, cross)))
    elif model.name.startswith("su(1,"):
        m = model.matrix_size // 2
        n = m - 1
        for k in range(1, n):
            cross = []
            for p in range(k + 1):
                for q in range(k + 1, m):
                    for pp, qq in ((p, q), (q, p)):
                        cross.extend([(pp, qq), (pp, qq + m), (pp + m, qq), (pp + m, qq + m)])
            out.append((f"s(u(1,{k})+u({n - k}))", _entries_zero_subspace(model, cross)))
        imag = [(p, q + m) for p in range(m) for q in range(m)]
        out.append((f"so(1,{n})", _entries_zero_subspace(model, imag)))
    return out
