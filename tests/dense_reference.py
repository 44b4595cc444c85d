"""Dense exact matrices as the tests' reference: a matrix is a tuple of row
tuples, so two matrices are equal by their entries.

The package keeps every matrix sparse: a basis matrix as its nonzero
entries {(row, column): value} (``LieModel.basis``), and theta, the Killing
form and the inner product as a ``linalg.Matrix`` of sparse rows {column:
value}.  These helpers give the dense forms back, so that a test can check a
sparse table against plain matrix arithmetic."""

from cohomatlas.linalg import Matrix, rat


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
