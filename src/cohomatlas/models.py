"""Matrix models of the ambient real semisimple Lie algebras.

A model fixes a basis of g inside N x N rational matrices, each basis
matrix stored once as its nonzero entries {(row, column): value}
(``LieModel.basis``), and precomputes everything coordinate computations
need: sparse structure constants, the Cartan involution theta(X) = -X^T in
coordinates, the Killing form B (by the ad-trace definition), the inner
product <X,Y> = -B(X, theta Y), and the Iwasawa pieces k, a, n together
with p.  The one ``SpanSolver`` of the flattened entries gives the
coordinates of each commutator and of each -b^T.  theta, B and <,> are
``linalg.Matrix``es held by their sparse rows, and a product shifts its
factors' entries and rows into its blocks: no dense table is built.

Shipped families:

* ``build_sl(m)``       traceless real m x m matrices,
* ``build_so1n(n)``     the Lorentz algebra so(1,n),
* ``build_su1n(n)``     su(1,n) realified to 2(n+1) x 2(n+1) real matrices
                        commuting with the realification J of iI,
* ``direct_sum``        block-diagonal products of the above, built from
                        the factors (``ProductModel``).

Every shipped basis is a weight basis: a, then a basis of k_0, then root
vectors, each basis vector an eigenvector of ad(a), and n is spanned by
basis vectors.  ``roots.decompose`` reads the restricted root grading off
the structure constants and raises on a basis that is not of this kind;
``LieModel`` itself accepts any basis.

Coordinates are exact rationals: ints where integral, Fractions otherwise,
the convention of ``cohomatlas.linalg``.  A vector is sparse, {index:
value} over its nonzero entries, as everywhere in the package: ``coords``
returns one, ``bracket`` and ``inner_product`` take them, the bracket
returns one, and theta images and projections go from subspace rows to
``linalg`` with theta applied through its column entries.  The structure
constants and theta of every shipped model are integral and stored as
ints, so the bracket and theta image of an integer vector stay integer, and
the Killing and inner-product rows built from them hold ints too.  Every
operation is pure, and models are immutable after construction.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .linalg import (
    Matrix,
    SpanSolver,
    Subspace,
    cached_property,
    disjoint_sum,
    solve_inclusion_constraint,
)


class LieModel:
    """A concrete matrix model of a real semisimple Lie algebra."""

    def __init__(self, name: str, matrix_size: int, basis: Sequence[dict],
                 a: Sequence[dict], n: Sequence[dict]):
        """basis, a and n are matrix_size x matrix_size matrices, each given
        by its nonzero entries {(row, column): value}; a and n lie in the
        span of basis and are converted to coordinates and spanned."""
        self.name = name
        self.matrix_size = matrix_size
        self.basis = tuple(basis)
        self.dim = len(self.basis)

        self._struct = self._structure_constants()
        self.theta = self._theta_matrix()
        self.killing = self._killing_gram()
        self._set_iwasawa(Subspace.span(self.dim, map(self.coords, a)),
                          Subspace.span(self.dim, map(self.coords, n)))

    def _set_iwasawa(self, a_space: Subspace, n_space: Subspace) -> None:
        """k, p and the inner product from theta and the Killing form, and the
        given a and n; k + a + n must be direct.  Since theta^2 = I,
        k = span(x + theta x) and p = span(x - theta x) are its +1 and -1
        eigenspaces and k + p is the whole algebra."""
        full = Subspace.full(self.dim)
        if any(self.theta.apply(self.theta.apply(e)) != e for e in full.rows):
            raise ValueError("theta is not an involution on this basis")
        self.k_space = self.project_k_subspace(full)
        self.p_space = self.project_p_subspace(full)
        self.inner = self._inner_gram()
        self.a_space = a_space
        self.n_space = n_space

        iwasawa = self.k_space.rows + self.a_space.rows + self.n_space.rows
        if len(iwasawa) != self.dim or Subspace.span(self.dim, iwasawa).dim != self.dim:
            raise ValueError("k + a + n is not a direct sum of full dimension")

    # -- construction helpers ------------------------------------------------

    @cached_property
    def _solver(self) -> SpanSolver:
        """Coordinates in the basis matrices, flattened, built on first use."""
        n = self.matrix_size
        return SpanSolver([{p * n + q: x for (p, q), x in b.items()} for b in self.basis],
                          n * n)

    def coords(self, entries: dict) -> dict:
        """Coordinates {i: c} of a matrix, given by its nonzero entries
        {(row, column): value}, in the model basis; raises if outside."""
        n = self.matrix_size
        return self._solver.coords({p * n + q: x for (p, q), x in entries.items()})

    def _structure_constants(self):
        """{i: {j: ((k, c), ...)}} with [e_i, e_j] = sum c * e_k, over the
        nonzero brackets only, from the entries of the basis matrices
        grouped by row."""
        n = self.matrix_size
        rows_of = [{} for _ in self.basis]
        for rows, b in zip(rows_of, self.basis):
            for (r, c), x in b.items():
                rows.setdefault(r, []).append((c, x))
        table = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                comm = {}
                for left, right, sign in ((rows_of[i], rows_of[j], 1),
                                          (rows_of[j], rows_of[i], -1)):
                    for r, entries in left.items():
                        for s, x in entries:
                            for c, y in right.get(s, ()):
                                comm[r * n + c] = comm.get(r * n + c, 0) + sign * x * y
                comm = {t: x for t, x in comm.items() if x}
                if not comm:
                    continue
                entry = tuple(sorted(self._solver.coords(comm).items()))
                table.setdefault(i, {})[j] = entry
                table.setdefault(j, {})[i] = tuple((k, -c) for k, c in entry)
        return table

    def _theta_matrix(self) -> Matrix:
        """Column j is the coordinates of -b_j^T."""
        rows = [{} for _ in range(self.dim)]
        for j, b in enumerate(self.basis):
            for i, x in self.coords(_minus_transpose(b)).items():
                rows[i][j] = x
        return Matrix(tuple(rows))

    def _ad_sparse(self, i: int):
        """ad(e_i) as {(k, j): c} with [e_i, e_j] = sum_k c * e_k."""
        return {(k, j): c for j, entry in self._struct.get(i, {}).items() for k, c in entry}

    def _killing_gram(self) -> Matrix:
        """B(e_i, e_j) = tr(ad e_i ad e_j) = sum over (k, l) of ad_i[k, l] *
        ad_j[l, k], with the structure constants indexed by (k, l): each
        index pair pairs the constants at (k, l) with those at (l, k), so
        only pairs that meet are summed."""
        by_index = {}
        for i in range(self.dim):
            for kl, c in self._ad_sparse(i).items():
                by_index.setdefault(kl, []).append((i, c))
        rows = [{} for _ in range(self.dim)]
        for (k, l), left in by_index.items():
            right = by_index.get((l, k))
            if right:
                for i, c in left:
                    row = rows[i]
                    for j, d in right:
                        row[j] = row.get(j, 0) + c * d
        return Matrix(tuple({j: x for j, x in row.items() if x} for row in rows))

    def _inner_gram(self) -> Matrix:
        """<X, Y> = -B(X, theta Y), the product -K theta summed over the
        nonzero entries of K and theta only: on a weight basis theta is a
        signed permutation."""
        theta_rows = self.theta.rows
        rows = []
        for killing_row in self.killing.rows:
            row = {}
            for k, x in killing_row.items():
                for j, y in theta_rows[k].items():
                    row[j] = row.get(j, 0) - x * y
            rows.append({j: x for j, x in row.items() if x})
        return Matrix(tuple(rows))

    # -- algebra operations --------------------------------------------------

    def bracket(self, x: dict, y: dict) -> dict:
        """The bracket of two sparse vectors, as a sparse vector: the
        structure constants of the pairs of their nonzero entries, summed."""
        out = {}
        table = self._struct
        for i, xi in x.items():
            ad_i = table.get(i)
            if ad_i:
                for j, yj in y.items():
                    entry = ad_i.get(j)
                    if entry:
                        f = xi * yj
                        for k, c in entry:
                            out[k] = out.get(k, 0) + f * c
        return {k: c for k, c in out.items() if c}

    def inner_product(self, x: dict, y: dict):
        """<x, y> for two sparse vectors, summed over the supports of x and
        of the form's image of y."""
        return sum(x[i] * z for i, z in self.inner.apply(y).items() if i in x)

    def theta_maps_onto(self, sub: Subspace, other: Subspace) -> bool:
        """Whether theta(sub) = other, decided by containment with no span:
        theta is a bijection, so theta(sub) has the dimension of sub, and
        it equals other iff the dimensions agree and other contains theta
        of every row of sub.  With other = sub this is theta invariance."""
        return sub.dim == other.dim and all(
            other.contains_vector(self.theta.apply(b)) for b in sub.rows)

    def _theta_span(self, sub: Subspace, sign: int) -> Subspace:
        """The span of x + sign * theta x over the rows of sub."""
        vectors = []
        for b in sub.rows:
            v = dict(b)
            for i, x in self.theta.apply(b).items():
                v[i] = v.get(i, 0) + sign * x
            vectors.append({i: x for i, x in v.items() if x})
        return Subspace.span(self.dim, vectors)

    def project_p_subspace(self, sub: Subspace) -> Subspace:
        """The span of the p-components (x - theta x) / 2 of the rows."""
        return self._theta_span(sub, -1)

    def project_k_subspace(self, sub: Subspace) -> Subspace:
        """The span of the k-components (x + theta x) / 2 of the rows."""
        return self._theta_span(sub, 1)

    def bracket_span(self, u: Sequence[dict], v: Sequence[dict]) -> Subspace:
        """Span of pairwise brackets of two generating sets of sparse vectors."""
        return Subspace.span(self.dim, [self.bracket(x, y) for x in u for y in v])

    def is_subalgebra(self, sub: Subspace) -> bool:
        """True iff the brackets of the basis of sub lie in sub."""
        return self.bracket_leaving_pair(sub) is None

    def bracket_leaving_pair(self, sub: Subspace) -> Optional[tuple]:
        """The indices (a, b), a < b, of the first pair of ``sub.rows`` whose
        bracket leaves sub, or None if sub is a subalgebra."""
        gens = sub.rows
        for a in range(len(gens)):
            for b in range(a + 1, len(gens)):
                if not sub.contains_vector(self.bracket(gens[a], gens[b])):
                    return a, b
        return None

    def normalizer_in(self, domain: Subspace, of: Subspace) -> Subspace:
        """{X in domain : [X, of] subset of of}, computed exactly."""
        return self._bracket_into(domain, of, of)

    def centralizer_in(self, domain: Subspace, of: Subspace) -> Subspace:
        return self._bracket_into(domain, of, Subspace.zero(self.dim))

    def _bracket_into(self, domain: Subspace, of: Subspace, target: Subspace) -> Subspace:
        """{X in domain : [X, of] subset of target}."""
        images = [[self.bracket(x, w) for w in of.rows] for x in domain.rows]
        return solve_inclusion_constraint(domain, images, target)


def _minus_transpose(entries: dict) -> dict:
    """The entries of -b^T for a matrix b given by its entries."""
    return {(q, p): -x for (p, q), x in entries.items()}


def _shifted_rows(blocks: Sequence[Matrix], offsets: Sequence[int]) -> Matrix:
    """The block-diagonal matrix of square blocks: each block's rows in
    turn, their columns shifted by the block's offset."""
    return Matrix(tuple({j + off: x for j, x in row.items()}
                        for block, off in zip(blocks, offsets) for row in block.rows))


# ---------------------------------------------------------------------------
# concrete families


def build_sl(n_plus_1: int) -> LieModel:
    """Traceless (n+1) x (n+1) real matrices, in the weight basis of the
    H_i = E_ii - E_{i+1,i+1}, which span a (k_0 is zero), then the matrix
    units above the diagonal, which span n, then those below it."""
    if n_plus_1 < 2:
        raise ValueError("sl model needs size >= 2")
    m = n_plus_1
    basis = [{(i, i): 1, (i + 1, i + 1): -1} for i in range(m - 1)]  # H_i
    uppers = [(i, j) for i in range(m) for j in range(m) if i < j]
    lowers = [(i, j) for i in range(m) for j in range(m) if i > j]
    basis += [{ij: 1} for ij in uppers + lowers]
    return LieModel(f"sl({m})", m, basis, basis[:m - 1], basis[m - 1:m - 1 + len(uppers)])


def build_so1n(n: int) -> LieModel:
    """so(1,n) = {X : X^T I_{1,n} + I_{1,n} X = 0} with I_{1,n} = diag(-1,1..1),
    in a weight basis.

    With B_i = E_0i + E_i0 and R_ij = E_ij - E_ji, a = R h for the boost
    h = B_1, and [h, B_i] = R_1i, [h, R_1i] = B_i.  The basis is h, then the
    R_ij for 2 <= i < j, which span k_0 and commute with h, then the root
    vectors B_i + R_1i of weight 1, which span n, then B_i - R_1i of weight
    -1, the negatives of their theta images, for 2 <= i <= n.
    """
    if n < 2:
        raise ValueError("so(1,n) model needs n >= 2")
    m = n + 1

    def root_vector(i, sign):
        return {(0, i): 1, (i, 0): 1, (1, i): sign, (i, 1): -sign}

    basis = [{(0, 1): 1, (1, 0): 1}]
    basis += [{(i, j): 1, (j, i): -1} for i in range(2, m) for j in range(i + 1, m)]
    n_basis = [root_vector(i, 1) for i in range(2, m)]
    basis += n_basis + [root_vector(i, -1) for i in range(2, m)]
    return LieModel(f"so(1,{n})", m, basis, basis[:1], n_basis)


def build_su1n(n: int) -> LieModel:
    """su(1,n) = {X : X^H I_{1,n} + I_{1,n} X = 0, tr X = 0} realified via
    a + ib -> [[a, -b], [b, a]], in a weight basis; J is the realification
    of iI.

    a = R h for h = E_01 + E_10.  The basis is h; then k_0 = u(n-1): i(E_00 +
    E_11 - 2E_22), then E_ij - E_ji and i(E_ij + E_ji) for 2 <= i < j <= n,
    then i(E_ii - E_{i+1,i+1}) for 2 <= i < n; then the root vectors that
    span n: i(E_00 - E_01 + E_10 - E_11) of weight 2, and E_0i + E_i0 + E_1i
    - E_i1 and i(E_0i - E_i0 + E_1i + E_i1) of weight 1 for 2 <= i <= n;
    then their theta images -X^T.
    """
    if n < 2:
        raise ValueError("su(1,n) model needs n >= 2")
    m = n + 1

    def realify(real: dict, imag: dict) -> dict:
        """a + ib -> [[a, -b], [b, a]] for complex m x m entries a + ib."""
        big = dict(real)
        big.update({(p + m, q + m): x for (p, q), x in real.items()})
        big.update({(p, q + m): -x for (p, q), x in imag.items()})
        big.update({(p + m, q): x for (p, q), x in imag.items()})
        return big

    h = realify({(0, 1): 1, (1, 0): 1}, {})
    k0 = [realify({}, {(0, 0): 1, (1, 1): 1, (2, 2): -2})]
    for i in range(2, m):
        for j in range(i + 1, m):
            k0 += [realify({(i, j): 1, (j, i): -1}, {}), realify({}, {(i, j): 1, (j, i): 1})]
    k0 += [realify({}, {(i, i): 1, (i + 1, i + 1): -1}) for i in range(2, n)]
    n_basis = [realify({}, {(0, 0): 1, (0, 1): -1, (1, 0): 1, (1, 1): -1})]
    for i in range(2, m):
        n_basis.append(realify({(0, i): 1, (i, 0): 1, (1, i): 1, (i, 1): -1}, {}))
        n_basis.append(realify({}, {(0, i): 1, (i, 0): -1, (1, i): 1, (i, 1): 1}))
    basis = [h] + k0 + n_basis + [_minus_transpose(x) for x in n_basis]
    return LieModel(f"su(1,{n})", 2 * m, basis, [h], n_basis)


class ProductModel(LieModel):
    """Block-diagonal direct sum of factor models, assembled from the factors.

    The basis is the factors' basis entries shifted into the diagonal
    blocks; coordinates run factor by factor from ``block_offsets``.  The
    structure constants and the rows of theta and the Killing form are the
    factors' own, shifted by the block offsets, and a, n are the factors'
    side by side: cross-factor brackets and Killing entries are zero.  Each
    factor has already checked that its brackets close and that its own k +
    a + n is direct.  The product, like any model, checks that theta^2 = I,
    takes k and p from theta, and checks that k + a + n is direct.  Its root
    data is assembled from the factors' root data in the same way, by
    ``decompose``.

    ``embed`` is the one way factor subspaces enter the product: a and n
    here, root spaces, zero space and k0 in ``roots._product_datum``, and
    lifted rows and factor diagonals in ``actions``.  It eliminates nothing.
    """

    def __init__(self, factors: Sequence[LieModel]):
        if not factors:
            raise ValueError("direct_sum needs at least one factor")
        self.factors = tuple(factors)
        sizes = [f.matrix_size for f in factors]
        dims = [f.dim for f in factors]
        self.block_offsets = offsets = tuple(sum(dims[:i]) for i in range(len(factors)))
        self.name = "*".join(f.name for f in factors)
        self.matrix_size = sum(sizes)
        self.dim = sum(dims)

        starts = [sum(sizes[:i]) for i in range(len(factors))]
        self.basis = tuple({(p + start, q + start): x for (p, q), x in b.items()}
                           for f, start in zip(factors, starts) for b in f.basis)
        self._struct = {
            i + off: {j + off: tuple((k + off, c) for k, c in entry) for j, entry in ad_i.items()}
            for f, off in zip(factors, offsets)
            for i, ad_i in f._struct.items()
        }
        self.theta = _shifted_rows([f.theta for f in factors], offsets)
        self.killing = _shifted_rows([f.killing for f in factors], offsets)
        self._set_iwasawa(self.embed(dict(enumerate(f.a_space for f in factors))),
                          self.embed(dict(enumerate(f.n_space for f in factors))))

    def embed(self, parts: dict) -> Subspace:
        """The direct sum of {factor index: factor subspace}: each part's
        canonical rows and pivots shifted into its factor's block, and the
        blocks' rows merged by ``disjoint_sum``.  A part's rows are its RREF
        rows, and shifting keeps them so; distinct blocks are disjoint.
        """
        shifted = []
        for idx, sub in parts.items():
            start = self.block_offsets[idx]
            if sub.ambient_dim != self.factors[idx].dim:
                raise ValueError(f"a part of dimension {sub.ambient_dim} does not live on "
                                 f"factor {idx}, of dimension {self.factors[idx].dim}")
            rows = tuple({j + start: x for j, x in row.items()} for row in sub.rows)
            shifted.append(Subspace(self.dim, rows, tuple(p + start for p in sub.pivots)))
        return disjoint_sum(self.dim, shifted)

    def embed_vector(self, idx: int, v: dict) -> dict:
        """A sparse vector of the idx-th factor, in the product's coordinates."""
        start = self.block_offsets[idx]
        return {i + start: x for i, x in v.items()}


def direct_sum(models: Sequence[LieModel]) -> ProductModel:
    """Block-diagonal assembly of the factors, with their structure constants,
    theta, Killing form and k/a/n/p placed block by block (see
    :class:`ProductModel`).  ``decompose`` assembles the product's root data
    from the factors' root data, without splitting the product: its roots
    are the orthogonal disjoint union of the factors' roots."""
    return ProductModel(models)

