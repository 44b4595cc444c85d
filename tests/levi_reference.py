"""The split Levi solve as it was before its equations were read off a
table of ad(l) on the first graded piece: every split row of l bracketed
with every row of v at model width, and the images handed to the
constraint solver.  The reference for ``verify.levi_normalizer``, and, by
``restriction_matrices``, for the NC2 operators it reads off the table."""

from typing import NamedTuple

from cohomatlas.linalg import Subspace, _integer_row, combination, solve_inclusion_constraint


class ReferenceNormalizer(NamedTuple):
    p_part: Subspace  # p(N_l(v))
    k_part: Subspace  # N_{k_phi}(v)
    blocks: tuple  # (l & p block, k_phi block) of each solution row

    def theta_dual(self) -> Subspace:
        return Subspace.span(self.p_part.ambient_dim,
                             [combination((-1, 1), pk) for pk in self.blocks])


def reference_levi_normalizer(model, pd, v: Subspace) -> ReferenceNormalizer:
    """N_l(v) over the split rows [l & p ; k_phi], one bracket per split row
    and row of v, and its blocks placed at model width."""
    if pd.grading is None or not pd.grading[1].contains(v):
        raise ValueError("v must lie inside the first graded piece")
    lp, kp = pd.l_p, pd.k_phi
    split = lp.rows + kp.rows
    images = [[model.bracket(x, w) for w in v.rows] for x in split]
    solution = solve_inclusion_constraint(Subspace.full(len(split)), images, v)
    cut = lp.dim
    blocks = tuple((combination([row.get(a, 0) for a in range(cut)], lp.rows),
                    combination([row.get(cut + a, 0) for a in range(kp.dim)], kp.rows))
                   for row in solution.rows)
    p_rows = tuple(_integer_row(p) for (p, _), c in zip(blocks, solution.pivots) if c < cut)
    k_rows = tuple(_integer_row(k) for (_, k), c in zip(blocks, solution.pivots) if c >= cut)
    return ReferenceNormalizer(Subspace(model.dim, p_rows, tuple(min(row) for row in p_rows)),
                               Subspace(model.dim, k_rows, tuple(min(row) for row in k_rows)),
                               blocks)


def restriction_matrices(model, domain: Subspace, v: Subspace) -> list:
    """ad(t) restricted to v, for each row t of domain, bracketed at model
    width, as the rows of a positive integer multiple of its matrix in
    ``v.basis`` coordinates: the operators ``verify.check_nc2`` takes."""
    scales = [v._scale // row[c] for row, c in zip(v.rows, v.pivots)]
    mats = []
    for t in domain.rows:
        cols = []
        for row, f in zip(v.rows, scales):
            image = model.bracket(t, row)
            if v._residual(image):
                raise ValueError("the normalizer does not map v into itself")
            cols.append([f * image.get(p, 0) for p in v.pivots])
        mats.append(tuple(zip(*cols)))
    return mats
