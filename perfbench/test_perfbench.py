"""Tests of the benchmark's own arithmetic and report checks."""

import copy
import json
import os
import sys

import pytest

from perfbench.checks import check_expected, check_report, sl_row_counts
from perfbench.child import run_child
from perfbench.run import EXPECTED_PATH
from perfbench.tracer import Tracer, install, layer_metrics, self_times

SPAN = lambda parent, name, start, end, attrs=None: [parent, name, start, end, attrs]


def test_self_times_of_nested_spans():
    spans = [
        SPAN(-1, "cli.main", 0.0, 10.0),
        SPAN(0, "catalog.enumerate_sl", 1.0, 4.0),
        SPAN(1, "linalg.rref_rows", 2.0, 3.0, {"rows": 4, "cols": 5, "rank": 2}),
        SPAN(0, "verify.verify", 5.0, 9.0),
        SPAN(3, "verify.vector_in", 6.0, 6.5),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.5, 0.5]
    m = layer_metrics(spans, report_s=10.0)
    assert (m["cli.self_s"], m["catalog.self_s"], m["linalg.self_s"]) == (3.0, 2.0, 1.0)
    assert m["verify.self_s"] == 4.0
    assert m["trace.self_sum_ratio"] == 1.0
    assert (m["verify.calls"], m["verify.sampler_draws"]) == (1, 1)
    assert (m["linalg.rref_calls"], m["linalg.rref_cells"], m["linalg.rank_ratio"]) == (1, 20, 0.5)


def _expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _document(exp, shape):
    """A report with the given table shape whose identities all pass."""
    entries = [{"label": l, "kind": k, "codim": c,
                "report": {"cohomogeneity": h, "cohomogeneity_certainty": cert}}
               for l, k, c, h, cert in shape]
    identities = [{"name": f"check-{i}", "passed": True} for i in range(exp["checks"])]
    return {"space": exp["space"], "entries": entries, "identities": identities}


@pytest.mark.parametrize("script", ["raise SystemExit(2)", "raise RuntimeError('boom')",
                                    "open(OUT, 'w').write('{\"schema\": 1, \"ent')"])
def test_crashing_or_rejected_report_counts_as_failed(tmp_path, script):
    out = str(tmp_path / "report.json")
    child = run_child([sys.executable, "-c", f"OUT = {out!r}\n{script}"], os.environ)
    data = open(out, "rb").read() if os.path.exists(out) else None
    exp = _expected()["sl(7)"]
    outcome = check_report("sl(7)", exp, 7, child.exit_code, data)
    assert outcome.failed
    assert (outcome.checks_attempted, outcome.checks_passed) == (exp["checks"], 0)


def test_report_with_a_row_removed_fails_the_shape_check():
    exp = _expected()["sl(7)"]
    whole = json.dumps(_document(exp, exp["shape"])).encode()
    assert not check_report("sl(7)", exp, 7, 0, whole).failed
    short = json.dumps(_document(exp, exp["shape"][1:])).encode()
    outcome = check_report("sl(7)", exp, 7, 0, short)
    assert outcome.failed and "table shape differs" in outcome.problems[0]


def test_expected_sl_shapes_have_the_papers_row_counts():
    expected = _expected()
    assert sum(sl_row_counts(6).values()) == 42
    for key, exp in expected.items():
        check_expected(key, exp)
    broken = copy.deepcopy(expected["sl(7)"])
    broken["shape"].pop()
    with pytest.raises(ValueError):
        check_expected("sl(7)", broken)


def test_unexpected_failing_identity_is_reported():
    exp = _expected()["sl(7)"]
    doc = _document(exp, exp["shape"])
    doc["identities"][0]["passed"] = False
    outcome = check_report("sl(7)", exp, 7, 1, json.dumps(doc).encode())
    assert not outcome.failed
    assert outcome.unexpected_failures == ["check-0"]
    assert outcome.checks_passed == exp["checks"] - 1


def test_traced_counts_repeat_and_originals_are_restored(tmp_path):
    from cohomatlas import cli, linalg

    original = linalg.rref_rows
    counts = []
    for _ in range(2):
        tracer = Tracer()
        restore, missing = install(tracer)
        assert missing == []
        try:
            cli.main(["--space", "sl(3)", "--format", "json", "--out", str(tmp_path / "r.json")])
        finally:
            restore()
        report_s = tracer.spans[0][3] - tracer.spans[0][2]
        m = layer_metrics(tracer.spans, report_s)
        assert m["trace.self_sum_ratio"] == pytest.approx(1.0)
        counts.append({k: v for k, v in m.items() if not k.endswith("_s")
                       and not k.endswith("_share") and not k.startswith("trace.")})
    assert counts[0] == counts[1]
    assert counts[0]["linalg.rref_calls"] > 0 and counts[0]["models.build_calls"] == 1
    assert linalg.rref_rows is original and cli.render_markdown.__module__ == "cohomatlas.cli"
    assert not hasattr(cli.render_markdown, "__wrapped__")
