"""Exact rational linear algebra: matrices, canonical subspaces, constraint solving.

Everything downstream (brackets, root spaces, normalizer systems) reduces to
the two types here.  All arithmetic is exact; no operation ever rounds, so
re-running any pipeline yields bit-identical results.  An exact scalar is an
int when it is integral and a Fraction only when it has a real denominator:
sums start at the int 0, reduced rows are ints wherever their pivot divides
the entry, and kernels are primitive integer vectors.  A quotient is taken
as ``Rat(x) / y``, never ``x / y``, since two ints would divide to a float.

Subspaces are canonicalized eagerly: the stored ``rows`` are the reduced row
echelon form of whatever spanning set was supplied, each scaled to the
primitive integer row with a positive pivot, so two subspaces are equal iff
their ``rows`` tuples are equal.  ``basis``, the RREF with pivots 1, is
derived from them on first use, for the callers that need values.

Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968): each row is
scaled to a primitive integer row, row operations stay in the integers and
divide each result by its gcd.  Every integer row stays a nonzero multiple
of the row a rational Gauss-Jordan loop would hold, so pivots and reduced
rows are the same as that loop's.  A subspace keeps its rows in integers
between eliminations, and membership is a pivot lookup in integers: in RREF
the coefficient of the row with pivot p is v[p].  ``Matrix.apply`` runs
over the nonzero entries of each row only; theta is a signed permutation
and the Killing and inner-product Grams are sparse in the shipped bases.

Each linear-algebra job has one solver.  ``solve_inclusion_constraint``
serves normalizers, centralizers, intersections, orthogonal complements and
kernels: it reduces each image against the target's RREF rows (the zero
subspace for a kernel) and solves for the combinations whose residuals
vanish.  ``SpanSolver`` gives coordinates in a chosen independent list.  A
form's positive definiteness, which every orthogonal complement needs, is
decided once per form matrix (``Matrix.is_positive_definite``).

The one eigensplit, ``invariant_eigensplit``, needs no characteristic
polynomial.  With d the common denominator of the action matrix A, every
rational eigenvalue of A is k/d for an integer k, and |k| is at most the
largest absolute row sum of dA; it takes the kernel of dA - kI for each such
k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as Rat
from functools import cached_property
from typing import Callable, Iterable, Sequence


def rat(x, y=None):
    """Coerce to the exact rational scalar type."""
    if y is None:
        return Rat(x)
    return Rat(x, y)


def zero_vec(n: int) -> tuple:
    return (0,) * n


def unit_vec(n: int, i: int) -> tuple:
    return tuple(int(j == i) for j in range(n))


def vadd(u, v):
    return tuple(a + b if b else a for a, b in zip(u, v))


def vsub(u, v):
    return tuple(a - b if b else a for a, b in zip(u, v))


def vdot(u, v):
    s = 0
    for a, b in zip(u, v):
        if a and b:
            s += a * b
    return s


def is_zero_vec(u) -> bool:
    return not any(u)


def lincomb(coeffs: Sequence, rows: Sequence[Sequence], n: int) -> tuple:
    """sum(coeffs[i] * rows[i]) as a vector of length n."""
    out = [0] * n
    for c, row in zip(coeffs, rows):
        if c:
            for j, x in enumerate(row):
                if x:
                    out[j] += c * x
    return tuple(out)


# ---------------------------------------------------------------------------
# row reduction


def _primitive(row: list) -> list:
    """The integer row divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_row(row: Sequence) -> list:
    """The primitive integer row on the line of a row of exact rationals:
    ints, Fractions or strings that Fraction parses."""
    try:
        return _primitive(list(row))
    except TypeError:  # math.gcd takes ints only
        row = [x if isinstance(x, (int, Rat)) else Rat(x) for x in row]
    den = math.lcm(*(x.denominator for x in row))
    if den == 1:
        return _primitive([x.numerator for x in row])
    return _primitive([x.numerator * (den // x.denominator) for x in row])


def _rational_row(row: list, pivot: int) -> tuple:
    """The integer row divided by its pivot: an int where the pivot divides
    the entry, a Fraction otherwise."""
    if pivot == 1:
        return tuple(row)
    return tuple(x // pivot if x % pivot == 0 else Rat(x, pivot) for x in row)


def _eliminate(work: list, ncols: int) -> list:
    """Fraction-free Gauss-Jordan on the first ncols columns of the integer
    rows in work, in place.

    The pivot of column c is the first row at or below the current one with
    a nonzero entry there.  Eliminating it from row i replaces row i by
    a * row_i - b * pivot_row with a/b = pivot/entry in lowest terms, then
    divides by the gcd of the result.  Returns the pivot columns; the first
    len(pivots) rows end up with zeros above and below their pivots, each a
    nonzero multiple of its reduced row.
    """
    pivots = []
    r = 0
    nrows = len(work)
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        p = prow[c]
        for i in range(nrows):
            f = work[i][c]
            if f and i != r:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                work[i] = _primitive([a * x - b * y for x, y in zip(work[i], prow)])
        pivots.append(c)
        r += 1
    return pivots


def rref_rows(rows: Sequence[Sequence], ncols: int):
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).  Rows are fully
    normalized: pivots are 1 with zeros above and below.
    """
    work = [row for row in map(_integer_row, rows) if any(row)]
    pivots = _eliminate(work, ncols)
    return [_rational_row(row, row[c]) for row, c in zip(work, pivots)], pivots


def rref_with_transform(rows: Sequence[Sequence], ncols: int):
    """RREF plus the transform T with T @ rows == rref (zero rows kept last).

    Returns (reduced rows incl. zero rows, pivots, T rows).  The transform
    rows of the zero rows span the relations among the input rows, but each
    is fixed only up to a nonzero factor.
    """
    m = len(rows)
    work = [_integer_row(list(r) + [int(i == t) for t in range(m)]) for i, r in enumerate(rows)]
    pivots = _eliminate(work, ncols)
    full = [_rational_row(row, row[c]) for row, c in zip(work, pivots)]
    full += [_rational_row(row, 1) for row in work[len(pivots):]]
    return [row[:ncols] for row in full], pivots, [row[ncols:] for row in full]


def kernel_rows(rows: Sequence[Sequence], ncols: int) -> list:
    """Basis of {x : R x = 0} for the matrix with the given rows: one
    primitive integer vector per free column f, positive at f and zero at
    the other free columns."""
    red, pivots = rref_rows(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [0] * ncols
        x[f] = 1
        for i, p in enumerate(pivots):
            x[p] = -red[i][f]
        basis.append(tuple(_integer_row(x)))
    return basis


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class Matrix:
    """Immutable exact matrix, row-major, of ints and Fractions."""

    rows: tuple

    @classmethod
    def zeros(cls, r: int, c: int) -> "Matrix":
        return cls(tuple(zero_vec(c) for _ in range(r)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.rows))) if self.rows else self

    def __matmul__(self, other: "Matrix") -> "Matrix":
        bt = list(zip(*other.rows))
        return Matrix(tuple(tuple(vdot(r, c) for c in bt) for r in self.rows))

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(tuple(vadd(a, b) for a, b in zip(self.rows, other.rows)))

    def __neg__(self) -> "Matrix":
        return Matrix(tuple(tuple(-x for x in r) for r in self.rows))

    @cached_property
    def row_entries(self) -> tuple:
        """Per row, the (column, value) pairs of its nonzero entries."""
        return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in self.rows)

    @cached_property
    def is_positive_definite(self) -> bool:
        """Whether this is a symmetric positive definite form.

        Symmetric elimination down the diagonal, in order, over the nonzero
        entries of the upper triangle: the k-th pivot is the ratio of the
        k-th and (k-1)-th leading principal minors, so all pivots are
        positive iff all those minors are (Sylvester's criterion).
        """
        if self.rows != self.transpose().rows:
            return False
        upper = [{j: x for j, x in entries if j >= i} for i, entries in enumerate(self.row_entries)]
        for k, row in enumerate(upper):
            p = row.get(k, 0)
            if p <= 0:
                return False
            for i, x in row.items():
                if i > k:
                    f = Rat(x) / p
                    target = upper[i]
                    for j, y in row.items():
                        if j >= i:
                            target[j] = target.get(j, 0) - f * y
        return True

    def apply(self, v: Sequence) -> tuple:
        """Matrix-vector product (v as a column).  Each sum starts at the int
        0, so an integer matrix maps integer vectors to integer vectors."""
        out = []
        for entries in self.row_entries:
            s = 0
            for j, x in entries:
                y = v[j]
                if y:
                    s += x * y
            out.append(s)
        return tuple(out)

    def flatten(self) -> tuple:
        return tuple(x for r in self.rows for x in r)


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n as its canonical row-space basis: the RREF rows, each
    stored as the primitive integer row with a positive pivot."""

    ambient_dim: int
    rows: tuple  # primitive integer RREF rows with positive pivots, no zero rows
    pivots: tuple = field(compare=False)

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        work = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
            row = _integer_row(v)
            if any(row):
                work.append(row)
        pivots = _eliminate(work, ambient_dim)
        rows = tuple(tuple(row) if row[c] > 0 else tuple(-x for x in row)
                     for row, c in zip(work, pivots))
        return cls(ambient_dim, rows, tuple(pivots))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple(tuple(int(j == i) for j in range(ambient_dim))
                                      for i in range(ambient_dim)), tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> tuple:
        """The RREF rows, pivots 1: ints where integral, Fractions otherwise."""
        return tuple(_rational_row(row, row[c]) for row, c in zip(self.rows, self.pivots))

    @cached_property
    def _scale(self) -> int:
        """d, the lcm of the pivot values d_p = row_p[p]."""
        return math.lcm(*(row[c] for row, c in zip(self.rows, self.pivots)))

    def _scaled_residual(self, v: Sequence) -> list:
        """d * v minus v[p] * (d / d_p) * row_p over the pivots p in the support
        of v: zero on the pivots, and zero exactly when v lies in the
        subspace.  It is linear in v and, for integer v, integer."""
        d = self._scale
        res = list(v) if d == 1 else [d * x for x in v]
        for row, c in zip(self.rows, self.pivots):
            x = v[c]
            if x:
                f = x * (d // row[c])
                res = [a - f * b if b else a for a, b in zip(res, row)]
        return res

    def contains_vector(self, v: Sequence) -> bool:
        return not any(self._scaled_residual(v))

    def contains(self, other: "Subspace") -> bool:
        return all(self.contains_vector(row) for row in other.rows)

    def coords_of(self, v: Sequence) -> tuple:
        """The coordinates of v in ``basis``: its entries at the pivots."""
        if not self.contains_vector(v):
            raise ValueError("vector does not lie in the subspace")
        return tuple(v[c] for c in self.pivots)

    def from_coords(self, coeffs: Sequence) -> tuple:
        return lincomb(coeffs, self.basis, self.ambient_dim)


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    """Smallest subspace containing both."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace.span(u.ambient_dim, u.rows + v.rows)


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """Largest common subspace: the vectors of the smaller one whose residual
    against the larger one vanishes."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    small, large = (u, v) if u.dim <= v.dim else (v, u)
    return solve_inclusion_constraint(small.rows, [[b] for b in small.rows], large)


def orthocomplement_in(v: Subspace, w: Subspace, form: Matrix) -> Subspace:
    """w minus v: the complement of v inside w orthogonal w.r.t. form.

    form must be a symmetric positive definite matrix, which is decided once
    per form (``Matrix.is_positive_definite``), and v must be contained in w.
    The complement is the constraint solver's answer for the candidates w_i,
    the images (<w_i, v_1>, ..., <w_i, v_k>) and the zero target.
    """
    if not w.contains(v):
        raise ValueError("v is not contained in w")
    if not form.is_positive_definite:
        raise ValueError("form is not positive definite")
    if v.dim == 0:
        return w
    w_rows = Matrix(w.rows)
    images = [[col] for col in zip(*(w_rows.apply(form.apply(y)) for y in v.rows))]
    return solve_inclusion_constraint(w.rows, images, Subspace.zero(v.dim))


def solve_inclusion_constraint(
    candidates: Sequence[Sequence],
    images: Sequence[Sequence[Sequence]],
    target: Subspace,
) -> Subspace:
    """Solve {X in span(candidates) : action(X) subset of target} exactly.

    images[a] lists, slot by slot, the images of candidates[a] under the
    linear map family; the family is linear in X, so the solution set is the
    span of sum(x_a * candidates[a]) over the kernel of the induced system.
    """
    m = len(candidates)
    if m == 0:
        return Subspace.zero(target.ambient_dim)
    nslots = len(images[0])
    if any(len(im) != nslots for im in images):
        raise ValueError("inconsistent slot counts across candidates")
    for im in images:
        for w in im:
            if len(w) != target.ambient_dim:
                raise ValueError("image dimension does not match target ambient")
    # v is in target iff its scaled residual vanishes; the residual is linear
    # in v and zero on the pivot columns
    pivots = set(target.pivots)
    free = [j for j in range(target.ambient_dim) if j not in pivots]
    residuals = [[target._scaled_residual(w) for w in im] for im in images]
    equations = [tuple(residuals[a][s][j] for a in range(m))
                 for s in range(nslots) for j in free]
    ker = kernel_rows(equations, m) if equations else [unit_vec(m, i) for i in range(m)]
    amb = len(candidates[0])
    return Subspace.span(amb, [lincomb(x, candidates, amb) for x in ker])


class SpanSolver:
    """Coefficient extraction relative to a fixed independent spanning list."""

    def __init__(self, rows: Sequence[Sequence], ncols: int):
        reduced, pivots, transform = rref_with_transform(rows, ncols)
        if len(pivots) != len(rows):
            raise ValueError("spanning rows are linearly dependent")
        self._reduced = reduced
        self._pivots = pivots
        self._transform = transform
        self._ncols = ncols

    def coords(self, v: Sequence) -> tuple:
        """c with v = sum(c[i] * rows[i]); raises if v is outside the span."""
        c = [v[p] for p in self._pivots]
        if lincomb(c, self._reduced, self._ncols) != tuple(v):
            raise ValueError("vector does not lie in the span")
        return lincomb(c, self._transform, len(self._pivots))


# ---------------------------------------------------------------------------
# exact eigensplitting of a diagonalizable operator with rational spectrum


def invariant_eigensplit(apply_fn: Callable[[Sequence], tuple], space: Subspace) -> list:
    """Exact eigenspace decomposition of an operator restricted to a space.

    apply_fn must map the space into itself and be diagonalizable with
    rational eigenvalues there; otherwise ValueError is raised.  Returns a
    list of (eigenvalue, eigenspace) pairs sorted by eigenvalue, eigenspaces
    given in the ambient coordinates.

    The eigenvalues come from a bounded scan.  Let A be the action matrix on
    ``space.basis`` and d the lcm of the denominators of its entries.  dA is
    an integer matrix, so its characteristic polynomial is monic with integer
    coefficients and, by the rational root theorem, each rational eigenvalue
    of dA is an integer k.  No eigenvalue of dA exceeds in absolute value its
    largest absolute row sum dB (for Ax = mu x, |mu| max|x_j| <= B max|x_j|).
    So the rational eigenspaces of A are the nonzero kernels of dA - kI over
    the integers |k| <= dB, each for the eigenvalue k/d, and A is
    diagonalizable over Q exactly when their dimensions add up to dim space.
    The scan stops once they do.  It takes at most 2dB + 1 kernels: few for
    ad(h) in the models' bases, where d = 1, but linear in the size of the
    entries in general.
    """
    m = space.dim
    if m == 0:
        return []
    # action matrix in the restricted coordinates: columns are images
    cols = [space.coords_of(apply_fn(row)) for row in space.basis]  # raises if not invariant
    d = math.lcm(*(x.denominator for col in cols for x in col))
    act = [[int(d * col[i]) for col in cols] for i in range(m)]  # act[i][j] = d A[i][j]
    bound = max(sum(map(abs, row)) for row in act)
    out = []
    found = 0
    for k in range(-bound, bound + 1):
        shifted = [[x - k if i == j else x for j, x in enumerate(row)] for i, row in enumerate(act)]
        ker = kernel_rows(shifted, m)
        if ker:
            amb = [space.from_coords(x) for x in ker]
            mu = Rat(k, d) if k % d else k // d
            out.append((mu, Subspace.span(space.ambient_dim, amb)))
            found += len(ker)
            if found == m:
                return out
    raise ValueError("operator is not diagonalizable over the rationals")
