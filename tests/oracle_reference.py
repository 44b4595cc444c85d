"""The nilpotent-construction oracle sweep as it was before candidates were
grouped by tensor shape: every distinct candidate is evaluated in full, and
its tangent is compared with the known tangents closed under the block
coordinate permutations that fix the grading of the removed root.  Also the
SO(a) x SO(b) block certificate as it was before it read the table of ad(l)
on the first graded piece: every row of k_phi bracketed with every
generator at model width."""

import itertools

from cohomatlas.actions import nc_summands
from cohomatlas.catalog import ORACLE_PROBES
from cohomatlas.linalg import Subspace, subspace_sum
from cohomatlas.parabolic import build_parabolic, tensor_model
from cohomatlas.verify import RationalSampler, check_nc2

from dense_reference import dense, to_matrix, transpose
from levi_reference import restriction_matrices
from span_reference import generator_span


def permutation_maps(model, j: int) -> list:
    """Coordinate maps of Ad(P) for the block permutations of {0..j} and
    {j+1..n} other than the identity."""
    size = model.matrix_size
    blocks = (list(range(j + 1)), list(range(j + 1, size)))
    maps = []
    for pa in itertools.permutations(blocks[0]):
        for pb in itertools.permutations(blocks[1]):
            perm = list(pa) + list(pb)
            if perm == list(range(size)):
                continue
            cols = [dense(model.coords({(perm[r], perm[c]): x for (r, c), x in entries.items()}),
                          model.dim)
                    for entries in model.basis]
            maps.append(to_matrix(transpose(cols)))
    return maps


def reference_block_rotation_certificate(model, pd, tm) -> bool:
    """Whether the restrictions of the rows of k_phi to the a x b top piece,
    each row bracketed with each generator, span the same operators as the
    elementary rotations acting on either side."""
    a, b = tm.nrows, tm.ncols
    cells = [(r, c) for r in range(a) for c in range(b)]
    cell_of = dict(zip(tm.columns, tm.cells))

    def flat(image) -> dict:
        # image(r, c): the entries of the operator's image of the unit at (r, c)
        return {(k * a + i) * b + l: x for k, cell in enumerate(cells)
                for (i, l), x in image(*cell).items()}

    units = {cell: tm.generators[cell[0] + 1, cell[1] + 1] for cell in cells}
    restricted = [flat(lambda r, c: {cell_of[p]: x for p, x in
                                     model.bracket(t, units[r, c]).items()})
                  for t in pd.k_phi.rows]
    rotations = [flat(lambda i, c: {(r, c): 1} if i == s else {(s, c): -1} if i == r else {})
                 for r, s in itertools.combinations(range(a), 2)]
    rotations += [flat(lambda i, e: {(i, d): 1} if e == c else {(i, c): -1} if e == d else {})
                  for c, d in itertools.combinations(range(b), 2)]
    return Subspace.span(a * b * a * b, restricted) == Subspace.span(a * b * a * b, rotations)


def reference_sweep(result, j: int, tangents: set) -> list:
    """The records of the full sweep of the j-th simple root, in sweep order,
    each with its candidate subspace under "space"."""
    datum, model = result.datum, result.model
    tm = tensor_model(datum, j)
    dim = tm.nrows * tm.ncols
    pd = build_parabolic(datum, [i for i in range(datum.rank) if i != j])
    known = set(tangents)
    for pmap in permutation_maps(model, j):
        known.update(Subspace.span(model.dim, [pmap.apply(row) for row in t.rows])
                     for t in tangents)
    keys = sorted(tm.generators)
    candidates = [("coordinate", sorted(subset),
                   generator_span(tm, subset) if subset else Subspace.zero(model.dim))
                  for size in range(len(keys) + 1)
                  for subset in itertools.combinations(keys, size)]
    sampler = RationalSampler(result.seed)
    for t in range(ORACLE_PROBES):
        vdim = min(2 + (t % max(1, dim - 1)), dim)
        candidates.append(("probe", None, sampler.subspace_in(pd.grading[1], vdim)))

    records, by_space = [], {}
    for source, subset, v in candidates:
        rec = by_space.get(v)
        if rec is not None:
            rec["count"] += 1
            if source not in rec["sources"]:
                rec["sources"].append(source)
            continue
        rec = {"sources": [source], "count": 1,
               "subset": [list(k) for k in subset] if subset else None, "dim": v.dim,
               "nc1": None, "nc2": None, "nc2_certificate": None, "passes": False,
               "matches_known_tangent": None, "space": v}
        by_space[v] = rec
        records.append(rec)
        if v.dim < 2:
            rec["nc1"] = rec["nc2"] = "not-checked"
            continue
        normalizer, complement = nc_summands(datum, pd, v)
        p_normalizer = model.project_p_subspace(normalizer)
        ok1 = p_normalizer.contains(pd.b)
        ops = restriction_matrices(model, model.normalizer_in(pd.k_phi, v), v)
        verdict, cert = check_nc2(model, v, ops, result.seed, result.samples)
        rec["nc1"] = "yes" if ok1 else "no"
        rec["nc2"] = verdict
        rec["nc2_certificate"] = cert
        if ok1 and verdict == "yes":
            rec["passes"] = True
            tangent = subspace_sum(p_normalizer, model.project_p_subspace(complement))
            rec["matches_known_tangent"] = tangent in known
    return records
