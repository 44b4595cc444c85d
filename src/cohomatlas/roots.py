"""Restricted root space decomposition and simple root combinatorics.

``decompose`` reads the root grading of a simple model off its weight
basis: each basis vector is an ad(a)-eigenvector, its weight is read from
the structure constants, and each weight space is spanned by the basis
vectors of that weight.  It then chooses the positive system matching the
model's stored nilpotent part, and extracts simple roots, multiplicities,
root vectors and Dynkin adjacency.  It also checks, by one scan of the
structure constants, that the bracket respects the root grading.  A
product's root data is its factors' root data: ``decompose`` assembles it
from the decomposed factors, block by block, without splitting the product,
and the product datum keeps the factor data in ``factors``.

Each root is a complete record: its covector (values on the rational RREF
rows of a), its sparse dual vector in a, its integer coefficients over the
ordered simple roots and its root space.  Downstream bookkeeping
(parabolic subsets, gradings, opposite and double roots) reads the
coefficients, so no table keyed by covectors outlives ``decompose``;
``Root.in_span`` is the one test of whether a root lies in the span of a
subset of simple roots.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from typing import Sequence

from .linalg import (
    SpanSolver,
    Subspace,
    combination,
    exact_scalar,
    orthocomplement_in,
    rat,
)
from .models import LieModel, ProductModel


class Root:
    """A restricted root: covector on a, the dual vector H in a, the integer
    coefficients over the ordered simple roots and the root space."""

    def __init__(self, covector: tuple, root_vector: dict, coeffs: tuple, space: Subspace):
        self.covector = covector  # values on the rational RREF rows of a, pivots 1
        self.root_vector = root_vector  # H with lam(H') = <H, H'>, sparse
        self.coeffs = coeffs  # integers over the ordered simple roots
        self.space = space

    @cached_property
    def support(self) -> frozenset:
        """The indices of the simple roots with a nonzero coefficient."""
        return frozenset(i for i, c in enumerate(self.coeffs) if c)

    def in_span(self, phi) -> bool:
        """Whether the root lies in the span of the simple roots indexed by phi."""
        return self.support.issubset(phi)


class RootDatum:
    """Complete restricted root data of a model; for a product, also the
    root data of its factors, whose simple roots come factor by factor."""

    def __init__(self, model, roots, positive, simple, zero_space, k0, dynkin_edges,
                 factors):
        self.model = model
        self.roots = tuple(roots)
        self.positive = tuple(positive)
        self.simple = tuple(simple)
        self.zero_space = zero_space
        self.k0 = k0
        self.dynkin_edges = frozenset(dynkin_edges)  # pairs (i, j), i < j
        self.factors = tuple(factors)  # factor RootDatums, () unless a product
        self._parabolic_cache: dict = {}

    @property
    def rank(self) -> int:
        return len(self.simple)

    @property
    def factor_phis(self) -> tuple:
        """The indices of each factor's simple roots, factor by factor."""
        ends = accumulate(fd.rank for fd in self.factors)
        return tuple(tuple(range(e - fd.rank, e)) for fd, e in zip(self.factors, ends))

    @cached_property
    def coweights(self) -> tuple:
        """The fundamental coweights: omega_i in a with alpha_j(omega_i) =
        delta_ij for the ordered simple roots, as sparse vectors.  Over the
        canonical rows r_t of a they are the columns of the inverse of the
        matrix of simple root values, solved once per datum: omega_i's
        coordinates are those of e_i in the rows (alpha_j(r_t))_j, one row per
        r_t, where alpha_j(r_t) is d_t times the covector value, d_t the pivot
        value of r_t."""
        a = self.model.a_space
        inverse = SpanSolver([_covector_row(tuple(s.covector[t] * d for s in self.simple))
                              for t, d in enumerate(a.pivot_values)], self.rank)
        return tuple(combination(inverse.coords({i: 1}), a.rows) for i in range(self.rank))

    @cached_property
    def theta_parts(self) -> tuple:
        """(k-part, p-part) of each positive root space, in the order of
        ``positive``: the spans of x + theta x and of x - theta x over its
        rows.  theta pairs g_lam with g_-lam, so both lie in g_lam + g_-lam.

        A product's positive root is a factor's, placed in its block, and
        its theta is block diagonal, so its parts are that factor datum's,
        placed by ``ProductModel.embed``: nothing is spanned at product
        width.  The product sorts its positive roots by height, not factor
        by factor, so each is found by its coefficients."""
        if self.factors:
            placed = {}
            for idx, (fd, phi) in enumerate(zip(self.factors, self.factor_phis)):
                pad_left, pad_right = (0,) * phi[0], (0,) * (self.rank - 1 - phi[-1])
                for r, (k, p) in zip(fd.positive, fd.theta_parts):
                    placed[pad_left + r.coeffs + pad_right] = (self.model.embed({idx: k}),
                                                               self.model.embed({idx: p}))
            return tuple(placed[r.coeffs] for r in self.positive)
        model = self.model
        return tuple((model.project_k_subspace(r.space), model.project_p_subspace(r.space))
                     for r in self.positive)

    @cached_property
    def theta_pairs_roots(self) -> bool:
        """Whether theta g_lam = g_-lam for every positive root lam.  A
        product's root spaces are its factors' placed in their blocks, and
        its theta is block diagonal, so it reads the verdicts of its distinct
        factor data, each decided once at factor size."""
        if self.factors:
            return all(fd.theta_pairs_roots for fd in dict.fromkeys(self.factors))
        return all(self.model.theta_maps_onto(
            r.space, self.root_with_coeff(tuple(-c for c in r.coeffs)).space)
            for r in self.positive)

    def profile(self, root: Root) -> tuple:
        """(m_alpha, m_2alpha): the multiplicities of a root and of its double."""
        double = tuple(2 * c for c in root.coeffs)
        return root.space.dim, next((r.space.dim for r in self.roots if r.coeffs == double), 0)

    def root_with_coeff(self, coeff: Sequence) -> Root:
        target = tuple(int(c) for c in coeff)
        for r in self.roots:
            if r.coeffs == target:
                return r
        raise KeyError(f"no root with coefficients {target}")

    def evaluate(self, root: Root, h: dict):
        """lam(H) for a sparse H (must lie in a)."""
        return sum(root.covector[t] * x for t, x in self.model.a_space.coords_of(h).items())


def decompose(model: LieModel) -> RootDatum:
    """Exact restricted root space decomposition with respect to a; a
    product's is assembled from its factors' (see ``_product_datum``).

    A simple model's basis must be a weight basis (``_basis_weights``), and
    its decomposition raises unless the bracket respects the grading,
    [g_lam, g_mu] in g_{lam+mu} (``_check_grading``), and unless the inner
    product pairs only basis vectors of equal weight
    (``_check_inner_pairing``).  ``build_parabolic`` proves s_phi = [b, b]
    + b from the first, and ``verify`` reads a canonical extension's slice
    on B_phi by the second.  The checks run once per simple datum; a
    product inherits them from its factors, because brackets and inner
    products across different factors vanish."""
    if isinstance(model, ProductModel):
        # a factor model that occurs more than once is decomposed once
        data = {f: decompose(f) for f in dict.fromkeys(model.factors)}
        return _product_datum(model, [data[f] for f in model.factors])
    d = model.dim
    weights = _basis_weights(model)
    _check_grading(model, weights)
    _check_inner_pairing(model, weights)
    indices = {}
    for i, wt in enumerate(weights):
        indices.setdefault(wt, []).append(i)
    raw = {wt: Subspace(d, tuple({i: 1} for i in idx), tuple(idx)) for wt, idx in indices.items()}
    zero_space = raw.pop((0,) * model.a_space.dim, None)
    if zero_space is None:
        raise ValueError("missing zero weight space")

    # theta pairing: theta g_lam = g_{-lam}
    for wt, sp in raw.items():
        neg = tuple(-c for c in wt)
        if neg not in raw:
            raise ValueError("weights are not symmetric under negation")
        if not model.theta_maps_onto(sp, raw[neg]):
            raise ValueError("theta does not pair opposite root spaces")

    # positivity from the stored nilpotent part; theta is an involution, so
    # g_lam lies in theta(n) iff n contains theta of its rows
    pos_cov = []
    for wt, sp in raw.items():
        if model.n_space.contains(sp):
            pos_cov.append(wt)
        elif not all(model.n_space.contains_vector(model.theta.apply(b))
                     for b in sp.rows):
            raise ValueError("root space lies in neither n nor theta(n)")
    if sum(raw[wt].dim for wt in pos_cov) != model.n_space.dim:
        raise ValueError("positive root spaces do not fill n")

    pos_set = set(pos_cov)
    simple_cov = []
    for lam in pos_cov:
        decomposable = any(
            tuple(a - b for a, b in zip(lam, mu)) in pos_set
            for mu in pos_cov
            if mu != lam
        )
        if not decomposable:
            simple_cov.append(lam)

    # dual vectors H_lam of the simple roots over the canonical rows r_t of a:
    # the coordinates of (lam(r_t))_t in the rows of the (symmetric) Gram
    # matrix of the r_t, lam(r_t) being d_t times the covector value
    a_rows, scales = model.a_space.rows, model.a_space.pivot_values
    gram_a = SpanSolver([{t: g for t, y in enumerate(a_rows) if (g := model.inner_product(x, y))}
                         for x in a_rows], len(a_rows))
    duals = {wt: combination(gram_a.coords({t: w * scales[t]
                                            for t, w in _covector_row(wt).items()}), a_rows)
             for wt in simple_cov}

    def pairing(u, v):
        return model.inner_product(duals[u], duals[v])

    # Dynkin adjacency on the unordered simple roots
    adj = {s: set() for s in simple_cov}
    for i, s in enumerate(simple_cov):
        for t in simple_cov[i + 1:]:
            if 2 * pairing(s, t) != 0:
                adj[s].add(t)
                adj[t].add(s)

    ordered_simple = _order_simple_roots(simple_cov, adj)
    r = len(ordered_simple)
    if r != model.a_space.dim:
        raise ValueError("number of simple roots does not match the rank")

    # coefficients of every root over the ordered simple roots; H_lam is
    # linear in lam, so every other dual vector is the combination of the
    # simple ones with lam's coefficients
    simple_solver = SpanSolver([_covector_row(s) for s in ordered_simple], r)
    simple_duals = [duals[s] for s in ordered_simple]
    coeffs = {}
    for wt in raw:
        c = simple_solver.coords(_covector_row(wt))
        if any(type(x) is not int for x in c.values()):
            raise ValueError("root is not an integer combination of simple roots")
        if wt in pos_set and any(v < 0 for v in c.values()):
            raise ValueError("positive root with negative simple coefficient")
        coeffs[wt] = tuple(c.get(i, 0) for i in range(r))
        if wt not in duals:
            duals[wt] = {i: exact_scalar(x) for i, x in combination(c, simple_duals).items()}

    edges = set()
    for i in range(r):
        for j in range(i + 1, r):
            if ordered_simple[j] in adj[ordered_simple[i]]:
                edges.add((i, j))

    def sortkey(wt):
        cs = coeffs[wt]
        return (sum(cs), cs)

    def record(wt):
        return Root(wt, duals[wt], coeffs[wt], raw[wt])

    pos_sorted = sorted(pos_cov, key=sortkey)
    positive = [record(wt) for wt in pos_sorted]
    negative = [record(tuple(-c for c in wt)) for wt in pos_sorted]
    simple = [record(wt) for wt in ordered_simple]

    k0 = orthocomplement_in(model.a_space, zero_space, model.inner)

    return RootDatum(
        model=model,
        roots=positive + negative,
        positive=positive,
        simple=simple,
        zero_space=zero_space,
        k0=k0,
        dynkin_edges=edges,
        factors=(),
    )


def _basis_weights(model: LieModel) -> list:
    """The weight of each basis vector e_i, read from the structure
    constants: the tuple of the values mu_t with [h_t, e_i] = mu_t e_i for
    the rational RREF rows h_t of ``a_space``, each canonical row r_t over its
    pivot value d_t: [r_t, e_i] = d_t mu_t e_i.  Raises unless every basis
    vector is an ad(a)-eigenvector, that is, unless the basis is a weight
    basis."""
    columns = []
    for r, d in zip(model.a_space.rows, model.a_space.pivot_values):
        column = []
        for i in range(model.dim):
            image = model.bracket(r, {i: 1})
            mu = image.get(i, 0)
            if len(image) != (1 if mu else 0):
                raise ValueError(f"basis vector {i} is not an ad(a)-eigenvector")
            column.append(exact_scalar(rat(mu, d)))
        columns.append(column)
    return list(zip(*columns))


def _covector_row(wt: tuple) -> dict:
    """A covector, its values on the rational RREF rows of a, as a sparse row."""
    return {t: x for t, x in enumerate(wt) if x}


def _check_grading(model: LieModel, weights: list) -> None:
    """Raise unless c_ij^k != 0 implies wt(i) + wt(j) = wt(k), one scan of
    the structure constants.  For basis vectors of a weight basis this is
    [g_lam, g_mu] in g_{lam+mu}, the zero weight included and with
    g_{lam+mu} = 0 when lam + mu is no weight, and it extends to the weight
    spaces by bilinearity.  This one identity is what makes every sum of
    root spaces that is closed under adding roots a subalgebra
    (``verify.graded_closure_failure``)."""
    for i, ad_i in model._struct.items():
        for j, entry in ad_i.items():
            target = tuple(x + y for x, y in zip(weights[i], weights[j]))
            if any(weights[k] != target for k, _ in entry):
                raise ValueError("the bracket does not respect the root grading")


def _check_inner_pairing(model: LieModel, weights: list) -> None:
    """Raise unless the inner product pairs only basis vectors of equal
    weight, one scan of its nonzero entries.  Distinct weight spaces are
    then orthogonal, so p = a_phi + b + p(n_phi) is an orthogonal sum for
    every phi, the decomposition ``verify`` reads a canonical extension's
    slice from."""
    for i, row in enumerate(model.inner.rows):
        if any(weights[j] != weights[i] for j in row):
            raise ValueError("the inner product pairs basis vectors of different weights")


def _order_simple_roots(simple_cov, adj):
    """The simple roots of a simple model along its Dynkin diagram, a path,
    from the end with the larger covector."""
    ends = sorted((s for s in simple_cov if len(adj[s]) <= 1), reverse=True)
    if not ends:
        raise ValueError("Dynkin diagram is not a path (unsupported diagram)")
    walk = [ends[0]]
    while len(walk) < len(simple_cov):
        nxt = [x for x in adj[walk[-1]] if x not in walk]
        if len(nxt) != 1:
            raise ValueError("Dynkin diagram is not a path (unsupported diagram)")
        walk.append(nxt[0])
    return walk


def _product_datum(pm: ProductModel, factors: Sequence[RootDatum]) -> RootDatum:
    """The root datum of a product, assembled from its factors' root data.

    a, theta and the inner product are block diagonal, and the RREF basis of
    a is the factors' bases in factor order, so a factor root is a product
    root: its covector and coefficients are the factor's padded with zeros,
    and its root vector and space are placed in the factor's block.  The
    zero space, k0 and the Dynkin edges are the factors' own, placed in the
    blocks or shifted.  ``ProductModel.embed`` places each subspace, so the
    assembly eliminates nothing.  Simple roots come factor by factor.  That
    is the order a split of the whole product gives when it sorts the
    Dynkin components by their first simple covector, descending: each
    shipped factor's first simple root is positive on the first vector of
    its own a, where every later factor's roots vanish.  Positive roots are
    sorted by (height, coefficients), and the negatives follow in matching
    order.
    """
    starts = list(accumulate((fd.rank for fd in factors), initial=0))

    def embed(idx, root):
        pad_left, pad_right = (0,) * starts[idx], (0,) * (starts[-1] - starts[idx + 1])
        return Root(pad_left + root.covector + pad_right, pm.embed_vector(idx, root.root_vector),
                    pad_left + root.coeffs + pad_right, pm.embed({idx: root.space}))

    # each factor lists its negatives in the order of its positives
    pairs = sorted(((embed(idx, p), embed(idx, n)) for idx, fd in enumerate(factors)
                    for p, n in zip(fd.positive, fd.roots[len(fd.positive):])),
                   key=lambda pn: (sum(pn[0].coeffs), pn[0].coeffs))
    positive = [p for p, _ in pairs]
    return RootDatum(
        model=pm,
        roots=positive + [n for _, n in pairs],
        positive=positive,
        simple=[embed(idx, s) for idx, fd in enumerate(factors) for s in fd.simple],
        zero_space=pm.embed(dict(enumerate(fd.zero_space for fd in factors))),
        k0=pm.embed(dict(enumerate(fd.k0 for fd in factors))),
        dynkin_edges={(i + s, j + s) for fd, s in zip(factors, starts) for i, j in fd.dynkin_edges},
        factors=factors,
    )
