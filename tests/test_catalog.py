"""Tests for the classification tables and the helpers they share."""

import sys
from collections import Counter

import pytest

from cohomatlas import catalog
from cohomatlas.catalog import ce_families, enumerate_sl, known_extension_tangents
from cohomatlas.linalg import vadd
from cohomatlas.models import build_sl, build_so1n, build_su1n, direct_sum
from cohomatlas.parabolic import build_nested, build_parabolic
from cohomatlas.actions import canonical_extend
from cohomatlas.roots import decompose
from cohomatlas.verify import orbit_tangent_at_o


def paper_row_counts(n: int) -> Counter:
    """Rows per label of the paper's table for sl(n+1), rank n."""
    return Counter({"FH": 1, "FS": n, "CE-row-1": n, "CE-row-2": n * (n - 1) // 2,
                    "CE-row-3": max(n - 2, 0), "CE-row-4": (n - 1) * (n - 2) // 2})


def test_factor_lookup_puts_each_simple_root_in_its_factor():
    pm = direct_sum([build_sl(3), build_so1n(2)])
    datum = decompose(pm)
    owners = [pm.factor_of(r.root_vector) for r in datum.simple]
    assert sorted(owners) == [0, 0, 1]
    for r, owner in zip(datum.simple, owners):
        assert pm.factor_block(owner).contains(datum.space(r))
    # a vector with support in both blocks belongs to no factor
    first = {owner: r.root_vector for r, owner in zip(datum.simple, owners)}
    mixed = vadd(first[0], first[1])
    assert pm.factor_of(mixed) is None


@pytest.mark.parametrize("build, arg, profile", [
    (build_sl, 2, (1, 0)),
    (build_so1n, 2, (1, 0)),
    (build_so1n, 3, (2, 0)),
    (build_so1n, 4, (3, 0)),
    (build_su1n, 2, (2, 1)),
    (build_su1n, 3, (4, 1)),
], ids=["sl2", "rh2", "rh3", "rh4", "ch2", "ch3"])
def test_rank_one_root_profile(build, arg, profile):
    datum = decompose(build(arg))
    assert datum.profile(datum.simple[0]) == profile


def test_profile_in_a_product_is_the_factor_profile():
    pm = direct_sum([build_su1n(2), build_so1n(3)])
    datum = decompose(pm)
    profiles = {pm.factor_of(r.root_vector): datum.profile(r) for r in datum.simple}
    assert profiles == {0: (2, 1), 1: (2, 0)}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_has_the_papers_row_counts(n):
    result = enumerate_sl(n)
    assert result.all_identities_passed
    labels = Counter(e.label for e in result.entries)
    assert labels == paper_row_counts(n)
    family_labels = Counter(row[0] for row in ce_families(result.datum))
    assert family_labels == Counter({k: v for k, v in labels.items() if k.startswith("CE-")})


@pytest.mark.parametrize("n", [2, 3])
def test_every_table_ce_tangent_is_known_to_the_oracle(n):
    result = enumerate_sl(n)
    datum, model = result.datum, result.model
    ce_tangents = [orbit_tangent_at_o(model, e.spec.algebra)
                   for e in result.entries if e.label.startswith("CE-")]
    assert ce_tangents
    for j in range(n):
        known = known_extension_tangents(datum, j)
        assert all(t in known for t in ce_tangents)
        # the oracle also knows each interval extended from its other end drop
        for e in result.entries:
            if e.label == "CE-row-2":
                phi = e.spec.phi
                ext = canonical_extend(datum, build_parabolic(datum, phi),
                                       build_nested(datum, phi[1:], phi).l_np)
                assert orbit_tangent_at_o(model, ext.algebra) in known


@pytest.mark.parametrize("build", [build_sl, build_so1n], ids=["sl3xsl3", "rh3xrh3"])
def test_product_enumeration_decomposes_each_factor_once(monkeypatch, build):
    pm = direct_sum([build(3), build(3)])
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(catalog, "build_sl", counted("build_sl", catalog.build_sl))
    # every module that imported decompose by name holds its own binding
    wrapped = counted("decompose", decompose)
    for name, module in list(sys.modules.items()):
        if name.startswith("cohomatlas") and getattr(module, "decompose", None) is decompose:
            monkeypatch.setattr(module, "decompose", wrapped)
    result = catalog.enumerate_product(pm)
    assert result.all_identities_passed
    assert calls["decompose"] == len(pm.factors) + 1
    assert calls["build_sl"] == 0
