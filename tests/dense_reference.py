"""Dense exact matrices and vectors as the tests' reference: a matrix is a
tuple of row tuples and a vector a tuple, so two are equal by their entries.

The package keeps every matrix and vector sparse: a basis matrix as its
nonzero entries {(row, column): value} (``LieModel.basis``), theta, the
Killing form and the inner product as a ``linalg.Matrix`` of sparse rows
{column: value}, and every vector, coordinates included, as {index: value}.
A subspace hands out its canonical integer rows only.  These helpers give
the dense forms back, the rational RREF rows of a subspace (``basis``)
among them, so that a test can check a sparse table or vector against plain
arithmetic."""

from fractions import Fraction

from cohomatlas.linalg import Matrix, Subspace, rat


def sparse(v) -> dict:
    """A dense row as {index: value} over its nonzero entries; a dict is
    taken to be sparse already.  The package takes sparse rows only, so a
    test that writes a row densely hands it in through this."""
    if isinstance(v, dict):
        return v
    return {i: x for i, x in enumerate(v) if x}


def as_sparse(rows) -> list:
    """Dense or sparse rows as sparse rows, for the package's eliminations."""
    return [sparse(r) for r in rows]


def mat(rows) -> tuple:
    """An exact rational matrix with the given rows."""
    return tuple(tuple(rat(x) for x in r) for r in rows)


def identity(n: int, c=1) -> tuple:
    """c times the n x n identity."""
    return mat([[c if i == j else 0 for j in range(n)] for i in range(n)])


def msum(*terms) -> tuple:
    """The entrywise sum of matrices of one shape."""
    return tuple(tuple(sum(xs) for xs in zip(*rows)) for rows in zip(*terms))


def scaled(c, x) -> tuple:
    """c times the matrix x."""
    return tuple(tuple(c * y for y in row) for row in x)


def product(x, y) -> tuple:
    """The matrix product x y."""
    cols = list(zip(*y))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in x)


def transpose(x) -> tuple:
    return tuple(zip(*x))


def commutator(x, y) -> tuple:
    """x y - y x."""
    return msum(product(x, y), scaled(-1, product(y, x)))


def flatten(x) -> tuple:
    """The entries of x, row by row."""
    return tuple(v for row in x for v in row)


def from_entries(entries: dict, n: int) -> tuple:
    """The n x n matrix with the given {(row, column): value} entries."""
    return tuple(tuple(entries.get((p, q), 0) for q in range(n)) for p in range(n))


def to_entries(x) -> dict:
    """The nonzero entries {(row, column): value} of a dense matrix."""
    return {(p, q): v for p, row in enumerate(x) for q, v in enumerate(row) if v}


def from_matrix(m: Matrix) -> tuple:
    """The dense rows of a square ``Matrix`` of sparse rows."""
    n = len(m.rows)
    return tuple(tuple(row.get(j, 0) for j in range(n)) for row in m.rows)


def to_matrix(x) -> Matrix:
    """A square dense matrix as a ``Matrix`` of sparse rows."""
    return Matrix(tuple({j: v for j, v in enumerate(row) if v} for row in x))


def matrix_of(g, x) -> tuple:
    """The dense matrix of the model vector x, dense or sparse, summed over
    the entries of the basis matrices (``LieModel.basis``)."""
    n = g.matrix_size
    rows = [[0] * n for _ in range(n)]
    coeffs = x.items() if isinstance(x, dict) else enumerate(x)
    for i, c in coeffs:
        for (p, q), y in g.basis[i].items():
            rows[p][q] += c * y
    return tuple(map(tuple, rows))


# dense vectors: the package keeps every vector sparse, {index: value} over
# its nonzero entries; these give the dense tuples back


def dense(v: dict, n: int) -> tuple:
    """A sparse vector as a tuple of length n."""
    out = [0] * n
    for i, x in v.items():
        out[i] = x
    return tuple(out)


def basis(sub: Subspace) -> tuple:
    """The rational RREF rows of sub, each canonical row divided by its
    pivot value, as dense tuples: ints where integral, Fractions otherwise."""
    n = sub.ambient_dim
    return tuple(dense({j: x // row[c] if x % row[c] == 0 else Fraction(x, row[c])
                        for j, x in row.items()}, n)
                 for row, c in zip(sub.rows, sub.pivots))


def from_coords(sub: Subspace, coeffs) -> tuple:
    """sum(coeffs[i] * basis(sub)[i]) as a dense tuple."""
    out = [0] * sub.ambient_dim
    for c, row in zip(coeffs, basis(sub)):
        for j, x in enumerate(row):
            out[j] += c * x
    return tuple(out)


def coords_of(sub: Subspace, v) -> tuple:
    """The coordinates of a dense or sparse v over ``basis(sub)``, dense."""
    return dense(sub.coords_of(sparse(v)), sub.dim)


def bracket(g, x, y) -> tuple:
    """The bracket of two dense or sparse vectors of the model g, dense."""
    return dense(g.bracket(sparse(x), sparse(y)), g.dim)


def apply(m: Matrix, v) -> tuple:
    """The product of a ``Matrix`` and a dense or sparse vector, dense."""
    return dense(m.apply(sparse(v)), len(m.rows))


def inner_product(g, x, y):
    """<x, y> for two dense or sparse vectors of the model g."""
    return g.inner_product(sparse(x), sparse(y))


def vdot(u, v):
    """The dot product of two dense vectors."""
    return sum((a * b for a, b in zip(u, v) if a and b), 0)
