"""Exact rational linear algebra: sparse vectors, canonical subspaces, constraint solving.

Everything downstream (brackets, root spaces, normalizer systems) reduces to
the types here.  All arithmetic is exact; no operation ever rounds, so
re-running any pipeline yields bit-identical results.  An exact scalar is an
int when it is integral and a Fraction only when it has a real denominator:
sums start at the int 0, reduced rows and kernels are primitive integer
vectors, and coordinates are ints wherever they are integral.  A quotient
is taken as ``Rat(x) / y``, never ``x / y``, since two ints would divide to
a float.

A vector is sparse: a dict {index: value} over its nonzero entries.  That
is the one vector form of the package, for ambient vectors and coordinate
vectors alike, since almost every entry is zero: an operation costs the
supports it reads, not the ambient dimension.  Every function that takes
or returns a vector uses it: ``Matrix.apply``, ``Subspace.contains_vector``
and ``coords_of``, ``SpanSolver.coords``, the rows that ``rref_rows``,
``rref_with_transform`` and ``kernel_rows`` return, and the bracket, inner
product, root vectors and coweights downstream.  A ``Matrix`` is square
and held by its sparse rows, so theta, the Killing form and the inner
product of a model cost their nonzero entries.  Every input is sparse too,
and an index outside range(n) raises a ValueError, checked once per entry
point: ``Subspace.span`` and ``rref_rows`` (so ``kernel_rows``) on what
their one elimination leaves, ``rref_with_transform`` (so ``SpanSolver``)
on its rows, ``solve_inclusion_constraint`` on its residuals and
``Matrix.apply`` on its column lookups.

A subspace stores its canonical rows once: the reduced row echelon form of
whatever spanning set was supplied, each the sparse primitive integer row
with a positive pivot, so two subspaces are equal iff their ``rows`` are.
A canonical row divided by its pivot value d is its rational RREF row, with
pivot 1; coordinates in a subspace are taken over those rows, and are a
vector's entries at the pivots.  Every reader of a subspace takes its
canonical rows, which are positive multiples of the rational ones: spans,
containment, rank and whether a bracket or an inner product vanishes do
not see the scale, and a reader that does rescales row p by L / d_p, with L
the lcm of the pivot values.  Membership walks the nonzeros of the vector
and the rows whose pivots they hit: in RREF the coefficient of the row
with pivot p is v[p].  The sum of subspaces whose supports are disjoint is
their rows merged by pivot (``disjoint_sum``), with no elimination.

One kernel, ``_eliminate``, runs ``Subspace.span``, ``rref_rows`` and
``rref_with_transform``: fraction-free elimination by insertion over sparse
integer rows, copies of the rows it is given.  Each row in turn is reduced
against the pivot rows found so far; a row left nonzero becomes a pivot row
at its leftmost column, and that column is cleared from the earlier pivot
rows.  Row operations stay in the integers and divide each result by its
gcd, and they touch only the rows that hold the column.  The pivot rows end
up as the primitive integer multiples of the unique RREF rows, so pivots
and reduced rows are those of any rational Gauss-Jordan loop; the first
independent rows, in input order, are the ones made pivot rows.
``rref_rows`` returns the reduced rows as ``Subspace`` stores them,
sparse primitive integer rows with positive pivots, ``rref_with_transform``
its eliminated integer rows cut into their two blocks, and ``kernel_rows``
builds its sparse integer vectors from the reduced rows: the row operations
build no Fraction.

Each linear-algebra job has one solver.  ``solve_inclusion_constraint``
serves normalizers, centralizers, intersections, orthogonal complements and
kernels: it reduces each image against the target's RREF rows (the zero
subspace for a kernel), writes one equation per (slot, column) where a
residual is nonzero, and solves for the combinations whose residuals
vanish.  ``SpanSolver`` gives coordinates in a chosen independent list.  A
form's positive definiteness, which every orthogonal complement needs, is
decided once per form matrix (``Matrix.is_positive_definite``).

The solver numbers its m unknowns from the last candidate: unknown a is
column m - 1 - a.  ``kernel_rows`` gives one vector per free column, which
lives on that column and the pivot columns left of it, is positive there
and is zero at the other free columns.  Read in candidate order, each
vector therefore leads at its free candidate and is zero at the other
leads: the kernel comes out in RREF.  When the candidates are a subspace's
canonical rows, each combination then leads at its lead candidate's pivot,
with a positive value, and is zero at the other leads' pivots.  So the
combinations are already the canonical rows of the answer, up to their
gcds, and the solver returns them as its rows without spanning them again.

No eigenvalue problem is solved here: every model basis is a weight basis,
so ``roots.decompose`` reads the root grading off the structure constants.
"""

from __future__ import annotations

import math
from fractions import Fraction as Rat
from typing import Iterable, Sequence


def rat(x, y=None):
    """Coerce to the exact rational scalar type."""
    if y is None:
        return Rat(x)
    return Rat(x, y)


def exact_scalar(x):
    """An exact rational as an int when it is integral: a sum of Fractions
    stays a Fraction even when its denominator comes out 1."""
    return x.numerator if x.denominator == 1 else x


def combination(coeffs: dict, rows: Sequence[dict]) -> dict:
    """sum(c * rows[i]) over the coefficients {i: c} of sparse rows, as a
    sparse vector; each sum starts at the int 0."""
    out = {}
    for i, c in coeffs.items():
        for j, x in rows[i].items():
            out[j] = out.get(j, 0) + c * x
    return {j: x for j, x in out.items() if x}


class cached_property:
    """A property computed on its first read and stored in the instance
    dict, where later reads find it before this non-data descriptor.  Unlike
    ``functools.cached_property``, whose first read takes a lock on CPython
    3.11, it takes none."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


# ---------------------------------------------------------------------------
# row reduction


_INDEX_ERROR = "vector length does not match ambient dimension"


def _integer_row(row: dict) -> dict:
    """The primitive integer row on the line of a sparse row of exact
    rationals: ints, Fractions or strings that Fraction parses."""
    try:
        g = math.gcd(*row.values())
    except TypeError:  # math.gcd takes ints only
        row = {j: x if isinstance(x, (int, Rat)) else Rat(x) for j, x in row.items()}
        den = math.lcm(*(x.denominator for x in row.values()))
        row = {j: x.numerator * (den // x.denominator) for j, x in row.items() if x}
        g = math.gcd(*row.values())
    return {j: x // g for j, x in row.items()} if g > 1 else row


def _eliminate(rows: list, ncols: int):
    """Fraction-free elimination by insertion on the columns below ncols of
    nonzero sparse integer rows, copies that its callers hand it and that it
    changes in place; returns (rows, pivots): the pivot rows in pivot order,
    then the rows left with columns at or past ncols only, in input order.

    Each row is reduced against the pivot rows found so far, which are zero
    at one another's pivots: scaled by the lcm L of the p / gcd(p, f) over
    its entries f at pivots p, it drops (L f / p) times each of those rows,
    one pass over its pivot columns, and is divided by its gcd.  A row that
    vanishes is dropped.  A row left with a column below ncols becomes the
    pivot row at its leftmost column, made to have a positive pivot, and
    that column is cleared from the earlier pivot rows.  The pivot rows end
    up as the primitive integer multiples of the reduced rows, with positive
    pivots.
    """
    by_pivot = {}
    rest = []
    for row in rows:
        hits = row.keys() & by_pivot.keys()
        if hits:
            scale = 1
            for c in hits:
                p = by_pivot[c][c]
                scale = math.lcm(scale, p // math.gcd(p, row[c]))
            if scale != 1:
                for j in row:
                    row[j] *= scale
            for c in hits:
                prow = by_pivot[c]
                b = row[c] // prow[c]
                for j, y in prow.items():
                    x = row.get(j, 0) - b * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
            if not row:
                continue
            g = math.gcd(*row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
        c = min(row)
        if c >= ncols:
            rest.append(row)
            continue
        if row[c] < 0:
            for j in row:
                row[j] = -row[j]
        p = row[c]
        for prow in by_pivot.values():
            f = prow.get(c)
            if f:
                g = math.gcd(p, f)
                a, b = p // g, f // g
                if a != 1:
                    for j in prow:
                        prow[j] *= a
                for j, y in row.items():
                    x = prow.get(j, 0) - b * y
                    if x:
                        prow[j] = x
                    else:
                        del prow[j]
                g = math.gcd(*prow.values())
                if g > 1:
                    for j in prow:
                        prow[j] //= g
        by_pivot[c] = row
    pivots = sorted(by_pivot)
    return [by_pivot[c] for c in pivots] + rest, pivots


def _reduced(rows: Iterable[dict], ncols: int):
    """(reduced nonzero rows, pivots) of sparse rows, for ``Subspace.span``
    and ``rref_rows``.  Raises on an index outside range(ncols), checked on
    what the elimination leaves: a negative index is the first pivot, and an
    index past the end is never a pivot, so it stays in a pivot row or in a
    row left after them.  The kernel gets copies: ``_integer_row`` returns a
    row that is already primitive as it is."""
    work, pivots = _eliminate([dict(row) for row in map(_integer_row, rows) if row], ncols)
    reduced = work[:len(pivots)]
    if (pivots and (pivots[0] < 0 or max(map(max, reduced)) >= ncols)
            or len(work) > len(pivots)):
        raise ValueError(_INDEX_ERROR)
    return reduced, pivots


def rref_rows(rows: Sequence[dict], ncols: int):
    """Reduced row echelon form of sparse rows.

    Returns (reduced nonzero rows, pivot column indices).  Each row is the
    sparse primitive integer multiple of its fully normalized RREF row (pivot
    1, zeros above and below) with a positive pivot, as ``Subspace`` stores
    it: divided by its pivot value, it is the rational RREF row.  Raises if
    a row has an index outside range(ncols).
    """
    return _reduced(rows, ncols)


def rref_with_transform(rows: Sequence[dict], ncols: int):
    """RREF plus the transform T with T @ rows == rref (zero rows kept last).

    Returns (reduced rows incl. zero rows, pivots, T rows), sparse integer
    rows: row r is the eliminated row [rref_r | T_r] of the integer system
    [rows | I], cut at ncols.  A pivot row is a positive multiple of its
    rational RREF row, so rref_r / rref_r[pivots[r]] is the rational RREF
    row.  The pivot rows combine the first independent rows, in input order,
    and T_r / rref_r[pivots[r]] is the rational loop's transform row over
    them: for independent rows, the one transform.  The zero rows follow in
    the input order of the dependent rows; their transform rows span the
    relations among the input rows, each fixed only up to a nonzero factor.
    Raises if a row has an index outside range(ncols): it would land on the
    transform block.
    """
    if any(r and (min(r) < 0 or max(r) >= ncols) for r in rows):
        raise ValueError(_INDEX_ERROR)
    work, pivots = _eliminate([_integer_row({**r, ncols + i: 1}) for i, r in enumerate(rows)],
                              ncols)
    reduced = [{j: x for j, x in row.items() if j < ncols} for row in work]
    transform = [{j - ncols: x for j, x in row.items() if j >= ncols} for row in work]
    return reduced, pivots, transform


def kernel_rows(rows: Sequence[dict], ncols: int) -> list:
    """Basis of {x : R x = 0} for the matrix with the given sparse rows: one
    sparse primitive integer vector per free column f, positive at f and
    zero at the other free columns; raises as ``rref_rows`` does.

    Reduced row p, with pivot value d_p, gives x[p] = -row_p[f] / d_p when
    x[f] = 1; scaling by the lcm L of the d_p that hit f keeps x in ints.
    """
    red, pivots = rref_rows(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f not in pivot_set:
            hits = [(row, p) for row, p in zip(red, pivots) if f in row]
            scale = math.lcm(*(row[p] for row, p in hits))
            x = {f: scale}
            for row, p in hits:
                x[p] = -row[f] * (scale // row[p])
            basis.append(_integer_row(x))
    return basis


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Immutable exact square matrix held by its sparse rows, each {column:
    value} over its nonzero ints and Fractions; equal by its rows."""

    def __init__(self, rows: tuple):
        self.rows = rows

    def __repr__(self) -> str:
        return f"Matrix({self.rows!r})"

    def __eq__(self, other) -> bool:
        return self.rows == other.rows if isinstance(other, Matrix) else NotImplemented

    @cached_property
    def col_entries(self) -> dict:
        """Per column j in range(n), the (row, value) pairs of its nonzero entries."""
        cols = {j: [] for j in range(len(self.rows))}
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                cols[j].append((i, x))
        return {j: tuple(col) for j, col in cols.items()}

    @cached_property
    def is_positive_definite(self) -> bool:
        """Whether this is a symmetric positive definite form.

        Symmetric elimination down the diagonal, in order, over the nonzero
        entries of the upper triangle: the k-th pivot is the ratio of the
        k-th and (k-1)-th leading principal minors, so all pivots are
        positive iff all those minors are (Sylvester's criterion).
        """
        rows = self.rows
        if any(rows[j].get(i, 0) != x for i, row in enumerate(rows) for j, x in row.items()):
            return False
        upper = [{j: x for j, x in row.items() if j >= i} for i, row in enumerate(rows)]
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

    def apply(self, v: dict) -> dict:
        """Matrix-vector product of a sparse vector, through the column
        entries of its support.  Each sum starts at the int 0, so an integer
        matrix maps integer vectors to integer vectors.  Raises if v has an
        index outside range(n)."""
        out = {}
        cols = self.col_entries
        try:
            for j, x in v.items():
                for i, y in cols[j]:
                    out[i] = out.get(i, 0) + y * x
        except KeyError:
            raise ValueError(_INDEX_ERROR) from None
        return {i: x for i, x in out.items() if x}


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """Subspace of Q^n as its canonical row-space basis: the RREF rows, each
    stored once, as the sparse primitive integer row with a positive pivot.

    Membership walks the nonzeros of the vector and the rows whose pivots
    they hit.  The coordinates of a vector (``coords_of``) are over the
    rational RREF rows, each row divided by its pivot value: they are its
    entries at the pivots.  Two subspaces are equal when their dimensions
    and rows are: the pivots follow from the rows.
    """

    def __init__(self, ambient_dim: int, rows: tuple, pivots: tuple):
        self.ambient_dim = ambient_dim
        self.rows = rows  # sparse primitive integer RREF rows with positive pivots, no zero rows
        self.pivots = pivots

    def __repr__(self) -> str:
        return f"Subspace({self.ambient_dim!r}, {self.rows!r}, {self.pivots!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.rows == other.rows

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash, built once: the rows are dicts, so each is frozen first."""
        return hash((self.ambient_dim, tuple(frozenset(row.items()) for row in self.rows)))

    @classmethod
    def span(cls, ambient_dim: int, vectors: Iterable[dict]) -> "Subspace":
        """The span of sparse vectors; raises if a vector has an index
        outside range(ambient_dim)."""
        rows, pivots = _reduced(vectors, ambient_dim)
        return cls(ambient_dim, tuple(rows), tuple(pivots))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple({i: 1} for i in range(ambient_dim)),
                   tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def support(self) -> frozenset:
        """The columns where some row is nonzero: every vector of the
        subspace is zero outside them."""
        return frozenset(j for row in self.rows for j in row)

    @cached_property
    def pivot_values(self) -> tuple:
        """The pivot value d_p = row_p[p] of each canonical row."""
        return tuple(row[p] for row, p in zip(self.rows, self.pivots))

    @cached_property
    def _scale(self) -> int:
        """d, the lcm of the pivot values d_p."""
        return math.lcm(*(row[p] for row, p in zip(self.rows, self.pivots)))

    @cached_property
    def basis_scales(self) -> tuple:
        """L / d_p for each canonical row, L the lcm of the pivot values
        (``_scale``).  Scaled by it, row p is L times its rational RREF row
        h_p, and a coordinate read off the image of row p is L times the one
        read off the image of h_p."""
        scale = self._scale
        return tuple(scale // row[p] for row, p in zip(self.rows, self.pivots))

    @cached_property
    def _pivot_rows(self) -> dict:
        """The rows by their pivot columns."""
        return dict(zip(self.pivots, self.rows))

    def _residual(self, v: dict) -> dict:
        """d * v minus v[p] * (d / d_p) * row_p over the pivots p in the support
        of v, as a sparse vector: empty on the pivots, and empty exactly when
        v lies in the subspace.  It is linear in v and, for integer v,
        integer."""
        if not v:
            return v
        d = self._scale
        by_pivot = self._pivot_rows
        res = {j: d * x for j, x in v.items() if j not in by_pivot}
        for p, x in v.items():
            row = by_pivot.get(p)
            if row is not None:
                f = x * (d // row[p])
                for j, y in row.items():
                    if j != p:
                        z = res.get(j, 0) - f * y
                        if z:
                            res[j] = z
                        else:
                            del res[j]
        return res

    def contains_vector(self, v: dict) -> bool:
        return not self._residual(v)

    def contains(self, other: "Subspace") -> bool:
        return all(not self._residual(row) for row in other.rows)

    def coords_of(self, v: dict) -> dict:
        """The coordinates {i: c} of v over the rational RREF rows, row i
        divided by its pivot value: its nonzero entries at the pivots."""
        if self._residual(v):
            raise ValueError("vector does not lie in the subspace")
        return {i: v[c] for i, c in enumerate(self.pivots) if c in v}


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    """Smallest subspace containing both."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return Subspace.span(u.ambient_dim, u.rows + v.rows)


def disjoint_sum(ambient_dim: int, parts: Iterable[Subspace]) -> Subspace:
    """The sum of subspaces of Q^ambient_dim whose supports are pairwise
    disjoint: their canonical rows, merged by pivot, with no elimination.

    This equals ``Subspace.span`` of those rows.  Each part's rows are its
    RREF rows: primitive, with a positive pivot at their leftmost column,
    and zero at the part's other pivots.  A row is zero off its part's
    support, so it is zero at every other part's pivots too, and sorted by
    pivot the merged rows are in RREF, which is unique.  Raises if two
    supports meet, or if a part has another ambient dimension.
    """
    keyed, seen = [], set()
    for part in parts:
        if part.ambient_dim != ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if not seen.isdisjoint(part.support):
            raise ValueError("the supports of the summands meet")
        seen.update(part.support)
        keyed.extend(zip(part.pivots, part.rows))
    keyed.sort(key=lambda pr: pr[0])
    return Subspace(ambient_dim, tuple(row for _, row in keyed), tuple(p for p, _ in keyed))


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """Largest common subspace: the vectors of the smaller one whose residual
    against the larger one vanishes."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    small, large = (u, v) if u.dim <= v.dim else (v, u)
    return solve_inclusion_constraint(small, [[b] for b in small.rows], large)


def orthocomplement_in(v: Subspace, w: Subspace, form: Matrix) -> Subspace:
    """w minus v: the complement of v inside w orthogonal w.r.t. form.

    form is a ``Matrix``, read through its column entries, and must be
    symmetric positive definite, which is decided once per form
    (``Matrix.is_positive_definite``); v must be contained in w.  The
    complement is the constraint solver's answer for the rows w_i of w, the
    images (<w_i, v_1>, ..., <w_i, v_k>) and the zero target.
    """
    if not w.contains(v):
        raise ValueError("v is not contained in w")
    if not form.is_positive_definite:
        raise ValueError("form is not positive definite")
    if v.dim == 0:
        return w
    # <w_a, v_t> = w_a . (form v_t), summed over the columns the two share
    images = [{} for _ in w.rows]
    w_cols = {}
    for a, x in enumerate(w.rows):
        for j, y in x.items():
            w_cols.setdefault(j, []).append((a, y))
    for t, y in enumerate(v.rows):
        for j, fy in form.apply(y).items():
            for a, x in w_cols.get(j, ()):
                images[a][t] = images[a].get(t, 0) + x * fy
    images = [[{t: s for t, s in im.items() if s}] for im in images]
    return solve_inclusion_constraint(w, images, Subspace.zero(v.dim))


def solve_inclusion_constraint(candidates: Subspace, images: Sequence[Sequence],
                               target: Subspace) -> Subspace:
    """Solve {X in candidates : action(X) subset of target} exactly.

    images[a] lists, slot by slot, the images of the canonical row a of
    candidates under the linear map family, as sparse vectors; the
    family is linear in X, so the solution set is the span of
    sum(x_a * row_a) over the kernel of the induced system.  Those
    combinations, in order, are positive multiples of the answer's canonical
    rows, so they are returned as its rows, each divided by its gcd, with no
    closing span.  Raises if an image has an index outside
    range(target.ambient_dim).
    """
    rows = candidates.rows
    if not rows:
        return candidates
    nslots = len(images[0])
    if any(len(im) != nslots for im in images):
        raise ValueError("inconsistent slot counts across candidates")
    # v lies in target iff its scaled residual vanishes, and the residual is
    # linear in v: one equation per (slot, column) where a residual is nonzero.
    # Unknown a is column last - a, so that the kernel, read in candidate
    # order, is the RREF of the solution space (see the module docstring).
    n = target.ambient_dim
    last = len(rows) - 1
    equations = {}
    for a, im in enumerate(images):
        for s, w in enumerate(im):
            for j, x in target._residual(w).items():
                equations.setdefault((s, j), {})[last - a] = x
    # an index outside range(n) is never a pivot of target, so it stays in the residual
    if any(not 0 <= j < n for _, j in equations):
        raise ValueError("image dimension does not match target ambient")
    if not equations:
        return candidates
    ker = kernel_rows(list(equations.values()), len(rows))
    answer = tuple(_integer_row(combination({last - u: c for u, c in x.items()}, rows))
                   for x in reversed(ker))
    # each row's pivot is its leftmost column, its lead candidate's pivot
    return Subspace(candidates.ambient_dim, answer, tuple(min(row) for row in answer))


class SpanSolver:
    """Coefficient extraction relative to a fixed independent spanning list.

    The transform is kept as integer rows over one common denominator d, so
    the coordinates of an integer vector are summed in the integers and
    divided by d once: ints where integral, Fractions otherwise."""

    def __init__(self, rows: Sequence, ncols: int):
        reduced, pivots, transform = rref_with_transform(rows, ncols)
        if len(pivots) != len(rows):
            raise ValueError("spanning rows are linearly dependent")
        self._span = Subspace(ncols, tuple(map(_integer_row, reduced)), tuple(pivots))
        # transform row r over its pivot value, as integers over d
        self._den = d = math.lcm(*(row[c] for row, c in zip(reduced, pivots)))
        self._transform = [{i: x * (d // row[c]) for i, x in t.items()}
                           for row, c, t in zip(reduced, pivots, transform)]

    def coords(self, v: dict) -> dict:
        """The coordinates {i: c} with v = sum(c * rows[i]), ints where
        integral; raises if v is outside the span."""
        d = self._den
        out = combination(self._span.coords_of(v), self._transform)
        return {i: x // d if type(x) is int and x % d == 0 else exact_scalar(Rat(x, d))
                for i, x in out.items()}
