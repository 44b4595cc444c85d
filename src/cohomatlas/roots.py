"""Restricted root space decomposition and simple root combinatorics.

``decompose`` splits a model into the joint ad(a)-eigenspaces by exact
simultaneous eigendecomposition, chooses the positive system matching the
model's stored nilpotent part, and extracts simple roots, multiplicities,
root vectors and Dynkin adjacency.

Each root is a complete record: its covector (values on the RREF basis of
a), its dual vector in a, its integer coefficients over the ordered simple
roots and its root space.  Downstream bookkeeping (parabolic subsets,
gradings, opposite and double roots) reads the coefficients, so no table
keyed by covectors outlives ``decompose``; ``Root.in_span`` is the one test
of whether a root lies in the span of a subset of simple roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .linalg import (
    SpanSolver,
    Subspace,
    invariant_eigensplit,
    orthocomplement_in,
    rat,
)
from .models import LieModel


@dataclass(frozen=True)
class Root:
    """A restricted root: covector on a, the dual vector H in a, the integer
    coefficients over the ordered simple roots and the root space."""

    covector: tuple  # values on the RREF basis of a
    root_vector: tuple  # ambient coordinates of H with lam(H') = <H, H'>
    coeffs: tuple  # integers over the ordered simple roots
    space: Subspace

    def in_span(self, phi) -> bool:
        """Whether the root lies in the span of the simple roots indexed by phi."""
        return all(c == 0 for i, c in enumerate(self.coeffs) if i not in phi)


class RootDatum:
    """Complete restricted root data of a model."""

    def __init__(self, model, roots, positive, simple, zero_space, k0, dynkin_edges):
        self.model = model
        self.roots = tuple(roots)
        self.positive = tuple(positive)
        self.simple = tuple(simple)
        self.zero_space = zero_space
        self.k0 = k0
        self.dynkin_edges = frozenset(dynkin_edges)  # pairs (i, j), i < j
        self._parabolic_cache: dict = {}
        self._nested_cache: dict = {}

    @property
    def rank(self) -> int:
        return len(self.simple)

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

    def evaluate(self, root: Root, h: Sequence):
        """lam(H) for H given in ambient coordinates (must lie in a)."""
        c = self.model.a_space.coords_of(h)
        return sum((a * b for a, b in zip(root.covector, c)), rat(0))


def decompose(model: LieModel) -> RootDatum:
    """Exact restricted root space decomposition with respect to a."""
    d = model.dim
    blocks = [((), Subspace.full(d))]
    for h in model.a_space.basis:
        nxt = []
        for wt, sp in blocks:
            for mu, esp in invariant_eigensplit(lambda x: model.bracket(h, x), sp):
                nxt.append((wt + (mu,), esp))
        blocks = nxt

    zero_space = None
    raw = {}
    for wt, sp in blocks:
        if all(not c for c in wt):
            zero_space = sp
        else:
            raw[wt] = sp
    if zero_space is None:
        raise ValueError("missing zero weight space")
    total = zero_space.dim + sum(sp.dim for sp in raw.values())
    if total != d:
        raise ValueError("weight spaces do not fill the model")

    # theta pairing: theta g_lam = g_{-lam}
    for wt, sp in raw.items():
        neg = tuple(-c for c in wt)
        if neg not in raw:
            raise ValueError("weights are not symmetric under negation")
        if model.theta_image(sp) != raw[neg]:
            raise ValueError("theta does not pair opposite root spaces")

    # positivity from the stored nilpotent part
    theta_n = model.theta_image(model.n_space)
    pos_cov = []
    for wt, sp in raw.items():
        if model.n_space.contains(sp):
            pos_cov.append(wt)
        elif not theta_n.contains(sp):
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

    # dual vectors H_lam: coordinates of lam in the rows of the (symmetric)
    # Gram matrix of a
    a_basis = model.a_space.basis
    gram_a = SpanSolver([[model.inner_product(x, y) for y in a_basis] for x in a_basis],
                        len(a_basis))
    duals = {wt: model.a_space.from_coords(gram_a.coords(wt)) for wt in raw}

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

    # coefficients of every root over the ordered simple roots
    simple_solver = SpanSolver(ordered_simple, r)
    coeffs = {}
    for wt in raw:
        c = simple_solver.coords(wt)
        ints = []
        for x in c:
            if x.denominator != 1:
                raise ValueError("root is not an integer combination of simple roots")
            ints.append(int(x))
        if wt in pos_set and any(v < 0 for v in ints):
            raise ValueError("positive root with negative simple coefficient")
        coeffs[wt] = tuple(ints)

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
    )


def _components(nodes, adj) -> list:
    """Connected components (as sets) of a graph given by adjacency sets."""
    seen = set()
    components = []
    for s in nodes:
        if s in seen:
            continue
        comp = set()
        stack = [s]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        seen |= comp
        components.append(comp)
    return components


def _order_simple_roots(simple_cov, adj):
    """Path order per connected component, components by descending covector."""
    ordered_components = []
    for comp in _components(simple_cov, adj):
        if len(comp) == 1:
            ordered_components.append(list(comp))
            continue
        ends = sorted((s for s in comp if len(adj[s] & comp) <= 1), reverse=True)
        if not ends:
            raise ValueError("Dynkin component is not a path (unsupported diagram)")
        walk = [ends[0]]
        while len(walk) < len(comp):
            nxt = [x for x in adj[walk[-1]] & comp if x not in walk]
            if len(nxt) != 1:
                raise ValueError("Dynkin component is not a path (unsupported diagram)")
            walk.append(nxt[0])
        ordered_components.append(walk)

    ordered_components.sort(key=lambda c: c[0], reverse=True)
    out = []
    for comp in ordered_components:
        out.extend(comp)
    return out


def sigma_phi(datum: RootDatum, phi: Iterable[int]):
    """Roots in the span of a subset of simple roots, and the positive part."""
    phi = set(phi)
    for i in phi:
        if not 0 <= i < datum.rank:
            raise ValueError("phi contains an invalid simple root index")
    return ([r for r in datum.roots if r.in_span(phi)],
            [r for r in datum.positive if r.in_span(phi)])
