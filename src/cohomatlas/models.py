"""Matrix models of the ambient real semisimple Lie algebras.

A model fixes a basis of g inside N x N rational matrices and precomputes
everything coordinate computations need: sparse structure constants, the
Cartan involution theta(X) = -X^T in coordinates, the Killing form B (by the
ad-trace definition), the inner product <X,Y> = -B(X, theta Y), and the
Iwasawa pieces k, a, n together with p.

Shipped families:

* ``build_sl(m)``       traceless real m x m matrices,
* ``build_so1n(n)``     the Lorentz algebra so(1,n),
* ``build_su1n(n)``     su(1,n) realified to 2(n+1) x 2(n+1) real matrices
                        commuting with a stored complex structure J,
* ``direct_sum``        block-diagonal products of the above.

All coordinate vectors are tuples over the exact rational scalar type; every
operation is pure, and models are immutable after construction.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .linalg import (
    Matrix,
    Q0,
    Q1,
    SpanSolver,
    Subspace,
    invariant_eigensplit,
    kernel_rows,
    rat,
    solve_inclusion_constraint,
    unit_vec,
    vdot,
)


class LieModel:
    """A concrete matrix model of a real semisimple Lie algebra."""

    def __init__(self, name: str, basis: Sequence[Matrix], a_vectors, n_vectors=None):
        self.name = name
        self.basis = tuple(basis)
        self.dim = len(self.basis)
        self.matrix_size = self.basis[0].nrows

        self._solver = _basis_solver(self.basis)

        self._struct = self._structure_constants()
        self.theta = self._theta_matrix()
        self.killing = self._killing_gram()

        eig = invariant_eigensplit(self.theta.apply, Subspace.full(self.dim))
        by_val = dict((mu, sp) for mu, sp in eig)
        if set(by_val) - {rat(1), rat(-1)}:
            raise ValueError("theta is not an involution on this basis")
        self.k_space = by_val.get(rat(1), Subspace.zero(self.dim))
        self.p_space = by_val.get(rat(-1), Subspace.zero(self.dim))
        self._set_iwasawa(a_vectors, n_vectors)

    def _set_iwasawa(self, a_vectors, n_vectors) -> None:
        """The inner product, a, n, the Iwasawa solver and the p/k projections,
        from theta, the Killing form and k; n defaults to the positive
        ad-eigenvectors of the first basis vector of a."""
        self.inner = self._inner_gram()
        self.a_space = Subspace.span(self.dim, a_vectors)
        if n_vectors is None:
            n_vectors = self._positive_ad_eigenvectors()
        self.n_space = Subspace.span(self.dim, n_vectors)

        iwasawa = list(self.k_space.basis) + list(self.a_space.basis) + list(self.n_space.basis)
        if len(iwasawa) != self.dim:
            raise ValueError("k + a + n does not have full dimension")
        self._iwasawa = SpanSolver(iwasawa, self.dim)
        self._proj_p = (Matrix.identity(self.dim) - self.theta).scale(rat(1, 2))
        self._proj_k = (Matrix.identity(self.dim) + self.theta).scale(rat(1, 2))

    # -- construction helpers ------------------------------------------------

    def coords(self, mat: Matrix) -> tuple:
        """Coordinates of a matrix in the model basis; raises if outside."""
        return self._solver.coords(mat.flatten())

    def matrix(self, x: Sequence) -> Matrix:
        n = self.matrix_size
        rows = [[Q0] * n for _ in range(n)]
        for c, b in zip(x, self.basis):
            if c:
                for i in range(n):
                    br = b.rows[i]
                    for j in range(n):
                        if br[j]:
                            rows[i][j] += c * br[j]
        return Matrix(tuple(tuple(r) for r in rows))

    def _structure_constants(self):
        """{(i, j): ((k, c), ...)} with [e_i, e_j] = sum c * e_k, from the
        nonzero entries of the basis matrices."""
        n = self.matrix_size
        rows_of = [{r: tuple((c, x) for c, x in enumerate(row) if x)
                    for r, row in enumerate(b.rows) if any(row)} for b in self.basis]
        table = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                comm = {}
                for left, right, sign in ((rows_of[i], rows_of[j], Q1),
                                          (rows_of[j], rows_of[i], -Q1)):
                    for r, entries in left.items():
                        for s, x in entries:
                            for c, y in right.get(s, ()):
                                comm[r * n + c] = comm.get(r * n + c, Q0) + sign * x * y
                if not any(comm.values()):
                    continue
                flat = [Q0] * (n * n)
                for t, x in comm.items():
                    flat[t] = x
                entry = tuple((k, c) for k, c in enumerate(self._solver.coords(flat)) if c)
                table[(i, j)] = entry
                table[(j, i)] = tuple((k, -c) for k, c in entry)
        return table

    def _theta_matrix(self) -> Matrix:
        cols = [self.coords(-b.transpose()) for b in self.basis]
        return Matrix(tuple(tuple(cols[j][i] for j in range(self.dim)) for i in range(self.dim)))

    def _ad_sparse(self, i: int):
        """ad(e_i) as {(k, j): c} with [e_i, e_j] = sum_k c * e_k."""
        out = {}
        for j in range(self.dim):
            entry = self._struct.get((i, j))
            if entry:
                for k, c in entry:
                    out[(k, j)] = c
        return out

    def _killing_gram(self) -> Matrix:
        ads = [self._ad_sparse(i) for i in range(self.dim)]
        rows = []
        for i in range(self.dim):
            row = []
            ai = ads[i]
            for j in range(self.dim):
                aj = ads[j]
                s = Q0
                if len(ai) <= len(aj):
                    for (k, l), c in ai.items():
                        d = aj.get((l, k))
                        if d:
                            s += c * d
                else:
                    for (k, l), c in aj.items():
                        d = ai.get((l, k))
                        if d:
                            s += c * d
                row.append(s)
            rows.append(tuple(row))
        return Matrix(tuple(rows))

    def _inner_gram(self) -> Matrix:
        # <X, Y> = -B(X, theta Y)
        return -(self.killing @ self.theta)

    def _positive_ad_eigenvectors(self):
        h = self.a_space.basis[0]
        parts = invariant_eigensplit(lambda x: self.bracket(h, x), Subspace.full(self.dim))
        vecs = []
        for mu, sp in parts:
            if mu > 0:
                vecs.extend(sp.basis)
        return vecs

    # -- algebra operations --------------------------------------------------

    def bracket(self, x: Sequence, y: Sequence) -> tuple:
        out = [Q0] * self.dim
        xs = [(i, c) for i, c in enumerate(x) if c]
        ys = [(j, c) for j, c in enumerate(y) if c]
        table = self._struct
        for i, xi in xs:
            for j, yj in ys:
                entry = table.get((i, j))
                if entry:
                    f = xi * yj
                    for k, c in entry:
                        out[k] += f * c
        return tuple(out)

    def killing_form(self, x: Sequence, y: Sequence):
        return vdot(x, self.killing.apply(y))

    def inner_product(self, x: Sequence, y: Sequence):
        return vdot(x, self.inner.apply(y))

    def theta_apply(self, x: Sequence) -> tuple:
        return self.theta.apply(x)

    def theta_image(self, sub: Subspace) -> Subspace:
        return Subspace.span(self.dim, [self.theta.apply(b) for b in sub.basis])

    def project_p_subspace(self, sub) -> Subspace:
        rows = sub.basis if isinstance(sub, Subspace) else sub
        return Subspace.span(self.dim, [self._proj_p.apply(b) for b in rows])

    def project_k_subspace(self, sub) -> Subspace:
        rows = sub.basis if isinstance(sub, Subspace) else sub
        return Subspace.span(self.dim, [self._proj_k.apply(b) for b in rows])

    def iwasawa_project(self, x: Sequence):
        """Unique decomposition x = x_k + x_a + x_n."""
        c = self._iwasawa.coords(x)
        dk, da = self.k_space.dim, self.a_space.dim
        return (self.k_space.from_coords(c[:dk]), self.a_space.from_coords(c[dk:dk + da]),
                self.n_space.from_coords(c[dk + da:]))

    def project_an_subspace(self, sub: Subspace) -> Subspace:
        """Span of the a+n Iwasawa components of a subspace."""
        rows = []
        for b in sub.basis:
            _, xa, xn = self.iwasawa_project(b)
            rows.append(tuple(p + q for p, q in zip(xa, xn)))
        return Subspace.span(self.dim, rows)

    def bracket_span(self, u: Iterable, v: Iterable) -> Subspace:
        """Span of pairwise brackets of two generating sets."""
        vl = list(v)
        rows = [self.bracket(x, y) for x in u for y in vl]
        return Subspace.span(self.dim, rows)

    def is_subalgebra(self, sub: Subspace, spanning: Sequence = None) -> bool:
        gens = list(spanning) if spanning is not None else list(sub.basis)
        for a in range(len(gens)):
            for b in range(a + 1, len(gens)):
                if not sub.contains_vector(self.bracket(gens[a], gens[b])):
                    return False
        return True

    def normalizer_in(self, domain: Subspace, of: Subspace) -> Subspace:
        """{X in domain : [X, of] subset of of}, computed exactly."""
        return self._bracket_into(domain, of, of)

    def centralizer_in(self, domain: Subspace, of: Subspace) -> Subspace:
        return self._bracket_into(domain, of, Subspace.zero(self.dim))

    def _bracket_into(self, domain: Subspace, of: Subspace, target: Subspace) -> Subspace:
        """{X in domain : [X, of] subset of target}."""
        cands = list(domain.basis)
        images = [[self.bracket(c, w) for w in of.basis] for c in cands]
        return solve_inclusion_constraint(cands, images, target)


def _block_diagonal(blocks: Sequence[Matrix]) -> Matrix:
    """The block-diagonal matrix with the given square blocks."""
    size = sum(b.nrows for b in blocks)
    rows, off = [], 0
    for b in blocks:
        left, right = (Q0,) * off, (Q0,) * (size - off - b.nrows)
        rows.extend(left + tuple(r) + right for r in b.rows)
        off += b.nrows
    return Matrix(tuple(rows))


def _basis_solver(basis: Sequence[Matrix]) -> SpanSolver:
    """Coordinates relative to a list of independent basis matrices."""
    n = basis[0].nrows
    return SpanSolver([b.flatten() for b in basis], n * n)


# ---------------------------------------------------------------------------
# concrete families


def _basis_entry(n: int, i: int, j: int) -> Matrix:
    rows = [[Q0] * n for _ in range(n)]
    rows[i][j] = Q1
    return Matrix(tuple(tuple(r) for r in rows))


def build_sl(n_plus_1: int) -> LieModel:
    """Traceless (n+1) x (n+1) real matrices; a = diagonal, n = strictly upper."""
    if n_plus_1 < 2:
        raise ValueError("sl model needs size >= 2")
    m = n_plus_1
    basis = []
    for i in range(m - 1):  # H_i = E_ii - E_{i+1,i+1}
        h = [[Q0] * m for _ in range(m)]
        h[i][i] = Q1
        h[i + 1][i + 1] = -Q1
        basis.append(Matrix(tuple(tuple(r) for r in h)))
    uppers = [(i, j) for i in range(m) for j in range(m) if i < j]
    lowers = [(i, j) for i in range(m) for j in range(m) if i > j]
    for i, j in uppers:
        basis.append(_basis_entry(m, i, j))
    for i, j in lowers:
        basis.append(_basis_entry(m, i, j))
    d = m * m - 1
    a_vecs = [unit_vec(d, i) for i in range(m - 1)]
    n_vecs = [unit_vec(d, m - 1 + t) for t in range(len(uppers))]
    return LieModel(f"sl({m})", basis, a_vecs, n_vecs)


def build_so1n(n: int) -> LieModel:
    """so(1,n) = {X : X^T I_{1,n} + I_{1,n} X = 0} with I_{1,n} = diag(-1,1..1)."""
    if n < 2:
        raise ValueError("so(1,n) model needs n >= 2")
    m = n + 1
    basis = []
    for i in range(1, m):  # boosts E_{0i} + E_{i0}, span p
        b = [[Q0] * m for _ in range(m)]
        b[0][i] = Q1
        b[i][0] = Q1
        basis.append(Matrix(tuple(tuple(r) for r in b)))
    for i in range(1, m):  # rotations E_{ij} - E_{ji}, span k
        for j in range(i + 1, m):
            k = [[Q0] * m for _ in range(m)]
            k[i][j] = Q1
            k[j][i] = -Q1
            basis.append(Matrix(tuple(tuple(r) for r in k)))
    d = len(basis)
    a_vecs = [unit_vec(d, 0)]  # a = R (E_01 + E_10)
    return LieModel(f"so(1,{n})", basis, a_vecs)


def build_su1n(n: int) -> LieModel:
    """su(1,n) realified: 2(n+1) x 2(n+1) real matrices commuting with J.

    The complex model {X : X^H I_{1,n} + I_{1,n} X = 0, tr X = 0} is solved
    exactly over the real and imaginary entry variables, then realified via
    a + ib -> [[a, -b], [b, a]].  J is the realification of iI.
    """
    if n < 2:
        raise ValueError("su(1,n) model needs n >= 2")
    m = n + 1
    sig = [-1] + [1] * n
    nvars = 2 * m * m  # x_{pq} then y_{pq}, row-major

    def xv(p, q):
        return p * m + q

    def yv(p, q):
        return m * m + p * m + q

    rows = []
    for p in range(m):
        for q in range(m):
            # (X^H I + I X)_{pq} = 0 : real and imaginary parts
            r = [Q0] * nvars
            r[xv(q, p)] += rat(sig[q])
            r[xv(p, q)] += rat(sig[p])
            rows.append(tuple(r))
            r = [Q0] * nvars
            r[yv(q, p)] -= rat(sig[q])
            r[yv(p, q)] += rat(sig[p])
            rows.append(tuple(r))
    tr_re = [Q0] * nvars
    tr_im = [Q0] * nvars
    for p in range(m):
        tr_re[xv(p, p)] = Q1
        tr_im[yv(p, p)] = Q1
    rows.append(tuple(tr_re))
    rows.append(tuple(tr_im))

    basis = []
    for sol in kernel_rows(rows, nvars):
        real = [[sol[xv(p, q)] for q in range(m)] for p in range(m)]
        imag = [[sol[yv(p, q)] for q in range(m)] for p in range(m)]
        big = [[Q0] * (2 * m) for _ in range(2 * m)]
        for p in range(m):
            for q in range(m):
                big[p][q] = real[p][q]
                big[p][q + m] = -imag[p][q]
                big[p + m][q] = imag[p][q]
                big[p + m][q + m] = real[p][q]
        basis.append(Matrix(tuple(tuple(r) for r in big)))

    # a = R * realify(E_01 + E_10)
    h0 = [[Q0] * (2 * m) for _ in range(2 * m)]
    h0[0][1] = h0[1][0] = Q1
    h0[m][m + 1] = h0[m + 1][m] = Q1
    h0_mat = Matrix(tuple(tuple(r) for r in h0))

    a_coords = _basis_solver(basis).coords(h0_mat.flatten())
    model = LieModel(f"su(1,{n})", basis, [a_coords])
    j_rows = [[Q0] * (2 * m) for _ in range(2 * m)]
    for p in range(m):
        j_rows[p][p + m] = -Q1
        j_rows[p + m][p] = Q1
    model.complex_structure = Matrix(tuple(tuple(r) for r in j_rows))
    return model


class ProductModel(LieModel):
    """Block-diagonal direct sum of factor models, assembled from the factors.

    The basis is the factors' bases placed on the diagonal blocks at
    ``matrix_offsets``; coordinates run factor by factor from
    ``block_offsets``.  The structure constants, theta, the Killing form and
    k/p are the factors' own, shifted by the block offsets, and a, n are
    the factors' side by side: cross-factor brackets and Killing entries are
    zero.  Each factor has already checked that its brackets close, that
    theta is an involution with eigenspaces k and p, and that its own
    k + a + n is direct.  The product checks only theta^2 = I,
    dim k + dim p = dim, and that k + a + n is direct.
    """

    def __init__(self, factors: Sequence[LieModel]):
        if not factors:
            raise ValueError("direct_sum needs at least one factor")
        self.factors = tuple(factors)
        sizes = [f.matrix_size for f in factors]
        dims = [f.dim for f in factors]
        self.matrix_offsets = tuple(sum(sizes[:i]) for i in range(len(factors)))
        self.block_offsets = tuple(sum(dims[:i]) for i in range(len(factors)))
        self.name = "*".join(f.name for f in factors)
        self.matrix_size = sum(sizes)
        self.dim = sum(dims)

        zeros = [Matrix.zeros(s, s) for s in sizes]
        self.basis = tuple(_block_diagonal(zeros[:idx] + [b] + zeros[idx + 1:])
                           for idx, f in enumerate(factors) for b in f.basis)
        self._struct = {
            (i + off, j + off): tuple((k + off, c) for k, c in entry)
            for f, off in zip(factors, self.block_offsets)
            for (i, j), entry in f._struct.items()
        }
        self.theta = _block_diagonal([f.theta for f in factors])
        if self.theta @ self.theta != Matrix.identity(self.dim):
            raise ValueError("theta is not an involution on this basis")
        self.killing = _block_diagonal([f.killing for f in factors])
        self.k_space = self._embed_spaces(f.k_space for f in factors)
        self.p_space = self._embed_spaces(f.p_space for f in factors)
        if self.k_space.dim + self.p_space.dim != self.dim:
            raise ValueError("k + p does not have full dimension")
        a_vecs = self._embed_spaces(f.a_space for f in factors).basis
        n_vecs = self._embed_spaces(f.n_space for f in factors).basis
        self._set_iwasawa(a_vecs, n_vecs)

    def _embed_spaces(self, spaces: Iterable[Subspace]) -> Subspace:
        """The span of one subspace per factor, each embedded in its block."""
        return Subspace.span(self.dim, [self.embed_vector(idx, b)
                                        for idx, sp in enumerate(spaces) for b in sp.basis])

    def coords(self, mat: Matrix) -> tuple:
        """The factors' coordinates of the diagonal blocks; raises if mat is
        not block diagonal or a block lies outside its factor."""
        blocks = [Matrix(tuple(row[o:o + f.matrix_size]
                               for row in mat.rows[o:o + f.matrix_size]))
                  for f, o in zip(self.factors, self.matrix_offsets)]
        if _block_diagonal(blocks) != mat:
            raise ValueError("vector does not lie in the span")
        return tuple(c for f, b in zip(self.factors, blocks) for c in f.coords(b))

    def factor_slice(self, idx: int):
        start = self.block_offsets[idx]
        return start, start + self.factors[idx].dim

    def embed_vector(self, idx: int, v: Sequence) -> tuple:
        start = self.block_offsets[idx]
        return (Q0,) * start + tuple(v) + (Q0,) * (self.dim - start - len(v))

    def embed_subspace(self, idx: int, sub: Subspace) -> Subspace:
        return Subspace.span(self.dim, [self.embed_vector(idx, b) for b in sub.basis])

    def factor_block(self, idx: int) -> Subspace:
        start, stop = self.factor_slice(idx)
        return Subspace.span(self.dim, [unit_vec(self.dim, i) for i in range(start, stop)])

    def factor_of(self, v: Sequence) -> Optional[int]:
        """Index of the factor whose block supports v, or None if none does."""
        for idx in range(len(self.factors)):
            start, stop = self.factor_slice(idx)
            if all(start <= t < stop for t, c in enumerate(v) if c):
                return idx
        return None

    def other_factor_rows(self, skip: Iterable[int]) -> tuple:
        """Basis rows of the blocks of every factor whose index is not in skip."""
        skip = set(skip)
        return tuple(unit_vec(self.dim, t) for idx in range(len(self.factors)) if idx not in skip
                     for t in range(*self.factor_slice(idx)))

    def restrict_vector(self, idx: int, v: Sequence) -> tuple:
        start, stop = self.factor_slice(idx)
        if any(c for i, c in enumerate(v) if c and not (start <= i < stop)):
            raise ValueError("vector is not supported on the requested factor")
        return tuple(v[start:stop])

    def restrict_subspace(self, idx: int, sub: Subspace) -> Subspace:
        """A subspace of the idx-th block, in the factor's coordinates."""
        return Subspace.span(self.factors[idx].dim,
                             [self.restrict_vector(idx, b) for b in sub.basis])


def direct_sum(models: Sequence[LieModel]) -> ProductModel:
    """Block-diagonal assembly of the factors, with their structure constants,
    theta, Killing form and k/a/n/p placed block by block (see
    :class:`ProductModel`); root data becomes the orthogonal disjoint union."""
    return ProductModel(models)

