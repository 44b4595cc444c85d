"""Reference pieces of a nested parabolic q_psi & s_phi, for psi inside phi,
that ``build_nested`` does not return: the abelian and nilpotent pieces."""

from cohomatlas.linalg import Subspace, subspace_intersect
from cohomatlas.parabolic import build_parabolic, nilpotent_roots


def nested_pieces(datum, psi, phi) -> tuple:
    """(a_np, n_np): a_np = a^phi & a_psi, and n_np the span of the root
    spaces of ``nilpotent_roots(datum, psi, phi)``."""
    a_np = subspace_intersect(build_parabolic(datum, phi).a_upper,
                              build_parabolic(datum, psi).a_phi)
    n_np = Subspace.span(datum.model.dim,
                         [v for r in nilpotent_roots(datum, tuple(psi), tuple(phi))
                          for v in r.space.rows])
    return a_np, n_np
