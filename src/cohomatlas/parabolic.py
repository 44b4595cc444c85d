"""Parabolic subalgebra data attached to subsets of simple roots.

For a subset phi of the simple roots (given as 0-based indices into
``datum.simple``) this module materializes the pieces the rest of the
pipeline reads: the Levi piece l and its p-part l & p, the abelian piece
a_phi, the nilpotent piece n_phi, the compact piece k_phi = l & k, the
split piece a^phi, the boundary tangent b (a Lie triple system), the
boundary isometry algebra s = [b,b] + b, the coarse grading of n_phi when
phi omits exactly one simple root, and the nested Levi piece for chains
psi inside phi.  For sl models ``tensor_model`` indexes the top graded
piece as a matrix space.

Which roots go into a piece is decided by ``Root.in_span``, which reads a
root's coefficients over the simple roots, and a grade is a root's
coefficient outside phi.  Everything is an exact Subspace of the model.

Every piece but s0, a^phi and a_phi is a direct sum placed by
``disjoint_sum``, with no elimination, because its summands have disjoint
supports.  The model basis is a weight basis, so each weight space, g_0
included, is spanned by its own set of basis vectors, and distinct weights
have disjoint sets; every vector of a weight space is zero off its set.
So l = g_0 + the root spaces inside phi, n_phi, each grade, s_phi = s0 +
the root spaces inside phi and the nested Levi piece s0 + the root spaces
inside psi are direct sums, s0 lying in g_0.  theta pairs g_lam with
g_-lam (``decompose`` checks it), so the k- and p-parts of g_lam lie in
g_lam + g_-lam, disjoint for distinct positive roots and from g_0: k_phi =
k0 + the k-parts, l & p = a + the p-parts and b = a^phi + the p-parts of
the positive roots inside phi are direct sums too.  l is theta stable and
g_0 = a + k0 with k0 in k, so l & p and k_phi are the p- and k-parts of l,
and l is their direct sum.  Each root's k- and p-parts are spanned once
per datum (``RootDatum.theta_parts``).

The boundary isometry algebra is spanned from the root grading, never as
[b, b]: ``build_parabolic`` spans s0 from the dual vectors H_alpha of the
simple roots in phi and the brackets [g_lam, g_-lam] of the positive roots
inside phi, and reads a^phi as p(s0), which it checks has dimension |phi|;
its docstring proves that s_phi is [b, b] + b.  These two are the only
eliminations of a new phi besides a_phi, the span of the fundamental
coweights outside phi (``a_piece``).  s_phi is graded by the roots inside
phi by construction, so the nested parabolic q_{psi,phi} = q_psi & s_phi
is s0 plus the spaces of the roots inside phi that are positive or inside
psi, and ``build_nested`` places its Levi piece from the root sets and
checks nothing further.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .linalg import Subspace, cached_property, disjoint_sum
from .roots import RootDatum


class ParabolicDatum(NamedTuple):
    phi: tuple  # sorted 0-based indices into datum.simple
    l: Subspace  # Levi: g_0 + sum of root spaces inside span(phi)
    l_p: Subspace  # l & p: a + p-projected root spaces inside span(phi)
    a_phi: Subspace  # common kernel of the roots in phi, inside a
    n_phi: Subspace  # positive root spaces outside span(phi)
    k_phi: Subspace  # k_0 + projected root spaces inside span(phi)
    a_upper: Subspace  # a minus a_phi
    b: Subspace  # boundary tangent: a_upper + p-projections
    s: Subspace  # [b, b] + b
    s0: Subspace  # s intersect g_0
    grading: Optional[dict]  # nu -> Subspace, only when phi omits one root


def _check_phi(datum: RootDatum, phi: Iterable[int]) -> tuple:
    phi = tuple(sorted(set(int(i) for i in phi)))
    for i in phi:
        if not 0 <= i < datum.rank:
            raise ValueError(f"simple root index {i} out of range")
    return phi


def a_piece(datum: RootDatum, phi: tuple) -> Subspace:
    """a_phi = {H in a : alpha(H) = 0 for alpha in phi}, the common kernel in
    a of the simple roots indexed by the sorted tuple phi: the span of the
    fundamental coweights omega_i for i outside phi, since alpha_j(omega_i)
    = delta_ij and the coweights are a basis of a.  So dim a_phi = rank -
    |phi|.  ``build_parabolic`` reads its a_phi here, and
    ``verify.extension_composition_ok`` compares two of them."""
    return Subspace.span(datum.model.dim, [w for i, w in enumerate(datum.coweights)
                                           if i not in phi])


def nilpotent_roots(datum: RootDatum, psi: tuple, phi: Optional[tuple] = None) -> list:
    """The positive roots outside the span of psi and, when phi is given,
    inside the span of phi: the roots whose spaces span n_psi, or for psi
    inside phi the nilpotent piece of q_psi & s_phi."""
    return [r for r in datum.positive
            if not r.in_span(psi) and (phi is None or r.in_span(phi))]


def build_parabolic(datum: RootDatum, phi: Iterable[int]) -> ParabolicDatum:
    """All parabolic pieces for a subset of simple roots (cached per datum).

    The pieces other than s0, a^phi and a_phi are direct sums of root
    spaces, their k- and p-parts, g_0, a, k0, s0 and a^phi; the module
    docstring proves that their supports are disjoint.

    s_phi, the isometry algebra of the boundary component B_phi, is spanned
    from its root spaces: s0 = a^phi + [g_lam, g_-lam] over the positive
    roots lam inside phi, and s_phi = s0 + the root spaces inside phi, which
    costs sum (dim g_lam)^2 brackets.  a^phi = span{H_alpha : alpha in phi}
    is the orthogonal complement of a_phi in a, since <H_alpha, H> =
    alpha(H), and it is read as p(s0): s0 is spanned from the H_alpha, which
    lie in a inside p, so p(s0) contains a^phi, and the one check made
    here, dim p(s0) = |phi|, makes p(s0) = a^phi.  With ``decompose``'s
    checks, the grading [g_lam, g_mu] in g_{lam+mu} and theta g_lam =
    g_-lam, this is [b, b] + b:

    * s_phi is a subalgebra.  Brackets of root spaces inside phi lie in a
      root space inside phi, or in s0 for opposite roots.  s0 lies in g_0,
      so it carries each g_lam into itself; a^phi commutes with [X, Y] for
      X in g_lam and Y in g_-lam, since lam(H) - lam(H) = 0; and by the
      Jacobi identity [[X, Y], [Z, W]] = [[[X, Y], Z], W] + [Z, [[X, Y], W]]
      lies in [g_mu, g_-mu], inside s0, for Z in g_mu and W in g_-mu.
    * s_phi is theta stable, since theta is -1 on a and
      theta [X, Y] = [theta X, theta Y] lies in [g_-lam, g_lam].  So
      s_phi & p = p(s_phi) = p(s0) + the p-parts of the root spaces inside
      phi = b, where p(theta X) = -p(X) and p(s0) = a^phi are used.
    * Hence b is a Lie triple system, [[b, b], b] in s_phi & p = b, and
      [b, b] + b is a subalgebra inside s_phi.
    * Conversely, for X in g_lam with lam inside phi and H in a^phi,
      [H, X - theta X] = lam(H) (X + theta X), and the dual vector H_lam
      lies in a^phi (lam vanishes on a_phi) with lam(H_lam) = |lam|^2 > 0.
      So g_lam lies in [b, b] + b, then so does [g_lam, g_-lam], and
      a^phi lies in b: s_phi lies in [b, b] + b.
    """
    phi = _check_phi(datum, phi)
    cached = datum._parabolic_cache.get(phi)
    if cached is not None:
        return cached

    model = datum.model
    d = model.dim
    inside = [r.space for r in datum.roots if r.in_span(phi)]
    outside_pos = nilpotent_roots(datum, phi)

    # datum.roots lists the negatives in the order of the positives
    negative = datum.roots[len(datum.positive):]
    s0 = Subspace.span(d, [datum.simple[i].root_vector for i in phi] + [
        model.bracket(x, y) for r, n in zip(datum.positive, negative) if r.in_span(phi)
        for x in r.space.rows for y in n.space.rows])
    a_upper = model.project_p_subspace(s0)
    if a_upper.dim != len(phi):
        raise ValueError("the p-part of s0 is not a^phi")
    parts = [kp for r, kp in zip(datum.positive, datum.theta_parts) if r.in_span(phi)]

    grading = None
    if len(phi) == datum.rank - 1:
        # the grade of a root is its coefficient on the one root outside phi
        grading = {}
        for r in outside_pos:
            nu = sum(c for i, c in enumerate(r.coeffs) if i not in phi)
            grading.setdefault(nu, []).append(r.space)
        grading = {nu: disjoint_sum(d, spaces) for nu, spaces in grading.items()}

    pd = ParabolicDatum(
        phi=phi,
        l=disjoint_sum(d, [datum.zero_space] + inside),
        l_p=disjoint_sum(d, [model.a_space] + [p for _, p in parts]),
        a_phi=a_piece(datum, phi),
        n_phi=disjoint_sum(d, [r.space for r in outside_pos]),
        k_phi=disjoint_sum(d, [datum.k0] + [k for k, _ in parts]),
        a_upper=a_upper,
        b=disjoint_sum(d, [a_upper] + [p for _, p in parts]),
        s=disjoint_sum(d, [s0] + inside),
        s0=s0,
        grading=grading,
    )
    datum._parabolic_cache[phi] = pd
    return pd


def build_nested(datum: RootDatum, psi: Iterable[int], phi: Iterable[int]) -> Subspace:
    """The Levi piece of q_psi & s_phi for psi inside phi: s0 of s_phi plus
    the root spaces inside psi, a direct sum.  With the root spaces of
    ``nilpotent_roots(datum, psi, phi)`` it spans q_psi & s_phi, because
    ``build_parabolic`` has checked that s_phi is graded by the roots inside
    phi."""
    psi = _check_phi(datum, psi)
    phi = _check_phi(datum, phi)
    if not set(psi) <= set(phi):
        raise ValueError("psi must be contained in phi")
    s0 = build_parabolic(datum, phi).s0
    return disjoint_sum(datum.model.dim,
                        [s0] + [r.space for r in datum.roots if r.in_span(psi)])


# ---------------------------------------------------------------------------
# tensor picture of the top grade for sl models


class TensorModel:
    """Identification of n_{Lambda minus one root} with a matrix space.

    For the sl(n+1) model with the j-th simple root removed (0-based), the
    nilpotent piece is spanned by the generators indexed by pairs (i, l),
    1 <= i <= j+1, 1 <= l <= n-j, where (i, l) corresponds to the root
    summing the simple roots from position j+1-i to j+l-1 (0-based).
    """

    def __init__(self, nrows: int, ncols: int, generators: dict, ambient_dim: int):
        self.nrows = nrows
        self.ncols = ncols
        self.generators = generators  # (i, l) -> unit row {column: 1} of the model
        self.ambient_dim = ambient_dim  # the model's dimension

    @cached_property
    def _cells(self) -> dict:
        """(i - 1, l - 1) of generator (i, l), keyed by its pivot column."""
        return {min(g): (i - 1, l - 1) for (i, l), g in self.generators.items()}

    @cached_property
    def columns(self) -> tuple:
        """The pivot columns of the generators, increasing.  The generators
        are unit vectors and span the top piece, so they are its canonical
        rows, and the coordinate t of a vector of the top piece is its entry
        at columns[t]."""
        return tuple(sorted(self._cells))

    @cached_property
    def cells(self) -> tuple:
        """The cell (i - 1, l - 1) of each coordinate of the top piece."""
        return tuple(self._cells[c] for c in self.columns)

    def coordinates(self, keys: Iterable[tuple]) -> Subspace:
        """The span of the generators of keys, in the coordinates of the top
        piece: the unit rows of their coordinates, with no elimination."""
        index = {(i + 1, l + 1): t for t, (i, l) in enumerate(self.cells)}
        coords = sorted(index[k] for k in keys)
        return Subspace(len(self.cells), tuple({t: 1} for t in coords), tuple(coords))

    def place(self, v: Subspace) -> Subspace:
        """A subspace given in the coordinates of the top piece, at model
        width: each coordinate t relabelled as the column columns[t].  The
        relabelling keeps the column order, so the rows stay canonical and
        nothing is eliminated."""
        cols = self.columns
        return Subspace(self.ambient_dim,
                        tuple({cols[t]: x for t, x in row.items()} for row in v.rows),
                        tuple(cols[t] for t in v.pivots))


def tensor_model(datum: RootDatum, j: int) -> TensorModel:
    """The indexed generator basis of the top nilpotent piece of an sl model."""
    if datum.factors:
        raise ValueError("tensor model is defined for a simple sl model, not a product")
    if not datum.model.name.startswith("sl("):
        raise ValueError("tensor model is defined for sl models only")
    n = datum.rank
    if not 0 <= j < n:
        raise ValueError("removed root index out of range")
    nrows = j + 1
    ncols = n - j
    gens = {}
    for i in range(1, nrows + 1):
        for l in range(1, ncols + 1):
            lo, hi = j + 1 - i, j + l - 1
            coeff = tuple(1 if lo <= t <= hi else 0 for t in range(n))
            sp = datum.root_with_coeff(coeff).space
            if sp.dim != 1 or len(sp.support) != 1:
                raise ValueError("sl root spaces must be spanned by one basis vector")
            gens[(i, l)] = sp.rows[0]
    return TensorModel(nrows=nrows, ncols=ncols, generators=gens, ambient_dim=datum.model.dim)
