"""The census: every space of one or two factors that the grammar accepts,
and a seeded sample of three-factor products, run in one process.

Every report must exit 0, and its CER rows must be the source paper's
product reduction: one row per pair of same-type rank-one pieces in
different factors.  Each simple root of sl(k) and rh(2) gives an RH^2
piece, rh(n) gives RH^n and ch(n) gives CH^n.  The 209 spaces of one or two
factors take about 20 s, so the census is a script, not a tier-1 test:

    PYTHONPATH=src python tests/census.py

It prints one line per failing space and a summary, and exits 1 if any
space fails.  The summary ends with one sha256 over every report, JSON then
markdown, space by space in census order: a refactor that must leave the
reports byte-identical leaves this digest unchanged.  CI fails unless the
summary line carries the digest pinned in its census step.
"""

import hashlib
import itertools
import random
import sys
from collections import Counter

from cohomatlas.cli import FACTOR_BOUNDS, RunConfig, parse_space, run

FACTORS = [f"{name}({k})" for name, (lo, hi) in FACTOR_BOUNDS.items() for k in range(lo, hi + 1)]
THREE_FACTOR_SEED = 0
THREE_FACTOR_SAMPLES = 8


def rank_one_pieces(name: str, k: int) -> Counter:
    """The types of the rank-one pieces of the factor name(k), counted."""
    if name == "sl":
        return Counter({"RH^2": k - 1})
    return Counter({f"{name.upper()}^{k}": 1})


def expected_cer_rows(space: str) -> int:
    """The number of pairs of same-type rank-one pieces in different factors."""
    pieces = [rank_one_pieces(*factor) for factor in parse_space(space).factors]
    return sum(a[t] * b[t] for a, b in itertools.combinations(pieces, 2) for t in a)


def census_spaces() -> list:
    """Every single factor and every unordered pair, then the seeded sample
    of three-factor products."""
    rng = random.Random(THREE_FACTOR_SEED)
    pairs = itertools.combinations_with_replacement(FACTORS, 2)
    triples = ([rng.choice(FACTORS) for _ in range(3)] for _ in range(THREE_FACTOR_SAMPLES))
    return FACTORS + ["*".join(pair) for pair in pairs] + ["*".join(t) for t in triples]


def check(space: str, digest):
    """None if the space exits 0 with its expected CER rows, else why not;
    its JSON and markdown reports, or its error, go into digest."""
    try:
        result = run(parse_space(space), RunConfig(su1n=True))
    except ValueError as exc:
        digest.update(f"exit 2: {exc}\n".encode())
        return f"exit 2: {exc}"
    digest.update(result.json_text.encode())
    digest.update(result.markdown_text.encode())
    cer = sum(e.label == "CER" for e in result.result.entries)
    expected = expected_cer_rows(space)
    if result.exit_code or cer != expected:
        return f"exit {result.exit_code}, {cer} CER rows where the reduction gives {expected}"
    return None


def main() -> int:
    spaces = census_spaces()
    failures = 0
    digest = hashlib.sha256()
    for space in spaces:
        why = check(space, digest)
        if why:
            failures += 1
            print(f"FAIL {space}: {why}")
    print(f"{len(spaces)} spaces, {failures} failing, reports sha256 {digest.hexdigest()}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
