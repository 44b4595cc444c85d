"""Subspaces spanned from their generators, as the package built them
before it decided theta images by containment and placed the coordinate
subspaces of a top graded piece with no elimination."""

from cohomatlas.linalg import Subspace


def theta_image(model, sub: Subspace) -> Subspace:
    """theta(sub), spanned from theta of its rows."""
    return Subspace.span(model.dim, [model.theta.apply(b) for b in sub.rows])


def generator_span(tm, keys) -> Subspace:
    """The span of the tensor model generators of keys, at model width."""
    return Subspace.span(tm.ambient_dim, [tm.generators[k] for k in keys])
