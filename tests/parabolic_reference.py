"""The parabolic pieces of a subset phi of simple roots built by spans and
solves, as ``build_parabolic`` built them before it placed them as direct
sums of root spaces: the reference for its pieces."""

from cohomatlas.linalg import Subspace, orthocomplement_in, solve_inclusion_constraint

from dense_reference import sparse


def in_span(root, phi) -> bool:
    """The coefficient scan: every coefficient outside phi vanishes."""
    return all(c == 0 for i, c in enumerate(root.coeffs) if i not in phi)


def _root_rows(roots, start=()) -> list:
    """The rows of start followed by the integer rows of each root space."""
    return list(start) + [v for r in roots for v in r.space.rows]


def reference_pieces(datum, phi: tuple) -> dict:
    """{field of ParabolicDatum: value} for the sorted tuple phi, each
    subspace spanned from its generators: a_phi solved as the common kernel
    of the roots in phi, a^phi as its orthogonal complement in a, l & p,
    k_phi and b projected from their root spaces, and each grade spanned."""
    model = datum.model
    d = model.dim
    inside = [r for r in datum.roots if in_span(r, phi)]
    inside_pos = [r for r in datum.positive if in_span(r, phi)]
    outside_pos = [r for r in datum.positive if not in_span(r, phi)]
    a = model.a_space
    # the solver's candidates are a's canonical rows, row t being d_t times
    # the rational RREF row on which the covectors take their values
    values = [[sparse(datum.simple[i].covector[t] * row[c] for i in phi)]
              for t, (row, c) in enumerate(zip(a.rows, a.pivots))]
    a_phi = solve_inclusion_constraint(a, values, Subspace.zero(len(phi)))
    a_upper = orthocomplement_in(a_phi, a, model.inner)
    negative = datum.roots[len(datum.positive):]
    s0 = Subspace.span(d, a_upper.rows + tuple(
        model.bracket(x, y) for r, n in zip(datum.positive, negative) if in_span(r, phi)
        for x in r.space.rows for y in n.space.rows))
    grading = None
    if len(phi) == datum.rank - 1:
        grades = {}
        for r in outside_pos:
            grades.setdefault(sum(c for i, c in enumerate(r.coeffs) if i not in phi), []).append(r)
        grading = {nu: Subspace.span(d, _root_rows(rs)) for nu, rs in grades.items()}
    return {
        "phi": phi,
        "l": Subspace.span(d, _root_rows(inside, datum.zero_space.rows)),
        "l_p": model.project_p_subspace(Subspace.span(d, _root_rows(inside,
                                                                    datum.zero_space.rows))),
        "a_phi": a_phi,
        "n_phi": Subspace.span(d, _root_rows(outside_pos)),
        "k_phi": model.project_k_subspace(Subspace.span(d, _root_rows(inside_pos, datum.k0.rows))),
        "a_upper": a_upper,
        "b": model.project_p_subspace(Subspace.span(d, _root_rows(inside_pos, a_upper.rows))),
        "s": Subspace.span(d, _root_rows(inside, s0.rows)),
        "s0": s0,
        "grading": grading,
    }


def reference_nested(datum, psi: tuple, s0: Subspace) -> Subspace:
    """The nested Levi piece for psi inside phi, s0 of phi plus the root
    spaces inside psi, spanned."""
    return Subspace.span(datum.model.dim,
                         _root_rows([r for r in datum.roots if in_span(r, psi)], s0.rows))
