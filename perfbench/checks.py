"""Checks on the JSON reports the cohomatlas CLI writes.

A report *fails* when its process exits with a status other than 0 or 1
(2 is bad input, anything else a crash), when its bytes are not a JSON
document for the requested space, when its exit status disagrees with its
identity checks, or when its table shape differs from the expected one.
The table shape is the multiset of (label, kind, codim, cohomogeneity,
cohomogeneity_certainty) rows.  A failing identity check that is not a
known defect does not fail the report; it makes the run incorrect and
lowers the check pass ratio.  A report whose sha256 differs from the one
recorded at the baseline commit is only reported, so that a correct bug
fix is not counted as a failure.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional

def table_shape(document: dict) -> list:
    """The report's rows as sorted [label, kind, codim, cohomogeneity,
    cohomogeneity_certainty] lists."""
    rows = [[e["label"], e["kind"], e["codim"], e["report"]["cohomogeneity"],
             e["report"]["cohomogeneity_certainty"]] for e in document["entries"]]
    return sorted(rows, key=json.dumps)


def sl_row_counts(n: int) -> Counter:
    """Rows per label of the classification table for sl(n+1), rank n."""
    return Counter({"FH": 1, "FS": n, "CE-row-1": n, "CE-row-2": n * (n - 1) // 2,
                    "CE-row-3": max(n - 2, 0), "CE-row-4": (n - 1) * (n - 2) // 2})


def check_expected(key: str, expected: dict) -> None:
    """Raise ValueError if an expected table shape for a single sl(n+1)
    space disagrees with the paper's row counts."""
    match = re.fullmatch(r"sl\((\d+)\)", expected["space"])
    if not match:
        return
    labels = Counter(row[0] for row in expected["shape"])
    want = sl_row_counts(int(match.group(1)) - 1)
    if labels != want:
        raise ValueError(f"expected shape of {key} has rows {dict(labels)}, "
                         f"the paper's table has {dict(want)}")


@dataclass
class ReportOutcome:
    label: str
    exit_code: int
    problems: List[str] = field(default_factory=list)
    checks_attempted: int = 0
    checks_passed: int = 0
    unexpected_failures: List[str] = field(default_factory=list)
    digest: Optional[str] = None
    digest_note: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    def fail(self, problem: str, expected_checks: int) -> None:
        """Count the report as failed: every check it should make is lost."""
        self.problems.append(problem)
        self.checks_attempted = expected_checks
        self.checks_passed = 0


def check_report(label: str, expected: dict, seed: int, exit_code: int,
                 data: Optional[bytes]) -> ReportOutcome:
    """Check the exit status and bytes of the report ``label`` made with the
    CLI seed ``seed`` against ``expected``."""
    out = ReportOutcome(label, exit_code)
    n_checks = expected["checks"]
    if data is not None:
        out.digest = hashlib.sha256(data).hexdigest()
        recorded = expected["digests"].get(str(seed))
        if recorded is None:
            out.digest_note = f"no digest recorded for seed {seed}"
        elif recorded == out.digest:
            out.digest_note = "same as at the baseline commit"
        else:
            out.digest_note = "CHANGED from the baseline commit"
    if exit_code not in (0, 1):
        out.fail(f"exit status {exit_code}", n_checks)
        return out
    try:
        document = json.loads(data)
        shape = table_shape(document)
        identities = [(i["name"], bool(i["passed"])) for i in document["identities"]]
        space = document["space"]
    except (TypeError, ValueError, KeyError) as exc:
        out.fail(f"unreadable report: {type(exc).__name__}: {exc}", n_checks)
        return out
    if space != expected["space"]:
        out.fail(f"report is for {space!r}, not {expected['space']!r}", n_checks)
        return out
    if (exit_code == 0) != all(ok for _, ok in identities):
        out.fail(f"exit status {exit_code} disagrees with the identity checks", n_checks)
        return out
    if shape != expected["shape"]:
        have, want = Counter(map(tuple, shape)), Counter(map(tuple, expected["shape"]))
        out.fail(f"table shape differs: missing {sorted((want - have).elements(), key=repr)}, "
                 f"extra {sorted((have - want).elements(), key=repr)}", n_checks)
        return out
    out.checks_attempted = len(identities)
    out.checks_passed = sum(ok for _, ok in identities)
    known = set(expected["known_failures"])
    out.unexpected_failures = [name for name, ok in identities if not ok and name not in known]
    return out
