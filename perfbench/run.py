"""Benchmark of the cohomatlas CLI, one fresh process per report.

Run from the root of a checkout::

    python3 -m perfbench.run --workload sl-table|products|nc-oracle|all \\
        [--seed N] [--seconds S] [--trace 0|1]

The driver is a closed loop with one client: it starts one
``python -m cohomatlas.cli ... --format json --out F`` child at a time,
waits for it to exit, and checks its report (``perfbench/checks.py``).
A pass produces every report of the workload once.

With ``--trace 0`` the run first starts ``SETUP_RUNS`` interpreters that
only import ``cohomatlas.cli`` (``setup_s``), then makes passes while the
next one is expected to end within ``--seconds`` (at least one), and
reports the end-to-end metrics:

* ``batch_s``: median over passes of the pass time, in reference seconds
  (``perfbench/child.py`` explains why the host's speed is measured);
* ``setup_s``: median import time, in reference seconds;
* ``peak_rss_mb``: the largest ``ru_maxrss`` of any report process;
* ``check_pass_ratio``: exact identity checks passed over attempted; a
  failed report counts every check it should have made as failed.

With ``--trace 1`` the run makes one untraced pass, then one traced pass in
a separate process (``perfbench/tracer.py``) whose reports must match the
untraced ones byte for byte, and reports the per-layer metrics, with
``trace.overhead_ratio``, the traced over the untraced pass time.  The
per-layer times are scaled to reference seconds by the average host speed
measured over the traced process.

Lines before the last describe the run; the last line is one JSON object
with the keys ``correct``, ``attempted`` (reports), ``failed`` (reports)
and ``metrics``.  The exit status is 0 whenever that line is printed,
including when reports fail or show the known defects; it is 2 when the
run cannot be made, e.g. when ``src/cohomatlas`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List

from .checks import ReportOutcome, check_expected, check_report
from .child import pin_to_one_cpu, run_child
from .tracer import unit_of
from .workloads import OUT_DIR, SRC_DIR, WORKLOADS, Report, child_env

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
SETUP_RUNS = 9
DEFAULT_SECONDS = 30


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Pass:
    ref_s: float = 0.0
    wall_s: float = 0.0
    maxrss_mb: float = 0.0
    outcomes: List[ReportOutcome] = field(default_factory=list)


def load_expected() -> dict:
    if not os.path.isfile(os.path.join(SRC_DIR, "cohomatlas", "cli.py")):
        raise SetupError(f"no {SRC_DIR}/cohomatlas/cli.py under {os.getcwd()}; "
                         "run from the root of a cohomatlas checkout")
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            expected = json.load(fh)
        for key, exp in expected.items():
            check_expected(key, exp)
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"cannot use {EXPECTED_PATH}: {exc}") from exc
    return expected


def run_report(report: Report, seed: int, expected: dict, env: dict) -> tuple:
    """One fresh CLI process for ``report``; returns (ChildRun, ReportOutcome)."""
    path = os.path.join(OUT_DIR, f"{report.slug}.json")
    err_path = os.path.join(OUT_DIR, f"{report.slug}.stderr")
    if os.path.exists(path):
        os.remove(path)
    cli_seed = report.cli_seed(seed)
    child = run_child([sys.executable, "-m", "cohomatlas.cli", *report.cli_args(cli_seed, path)],
                      env, err_path)
    data = None
    if os.path.exists(path):
        with open(path, "rb") as fh:
            data = fh.read()
    outcome = check_report(report.label, expected[report.key], cli_seed, child.exit_code, data)
    if outcome.failed:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-1:]
        if tail:
            outcome.problems.append(f"stderr: {tail[0]}")
    return child, outcome


def run_pass(reports, seed: int, expected: dict, env: dict, first_digest: dict) -> Pass:
    """Every report once; a report whose bytes differ from its first pass fails."""
    result = Pass()
    for report in reports:
        child, outcome = run_report(report, seed, expected, env)
        first = first_digest.setdefault(report.label, outcome.digest)
        if outcome.digest != first and not outcome.failed:
            outcome.fail("bytes differ from the first pass of this run",
                         expected[report.key]["checks"])
        result.ref_s += child.ref_s
        result.wall_s += child.wall_s
        result.maxrss_mb = max(result.maxrss_mb, child.maxrss_mb)
        result.outcomes.append(outcome)
    return result


def measure_setup(env: dict) -> List[float]:
    times = []
    for _ in range(SETUP_RUNS):
        child = run_child([sys.executable, "-c", "import cohomatlas.cli"], env)
        if child.exit_code != 0:
            raise SetupError(f"'import cohomatlas.cli' exited with status {child.exit_code}")
        times.append(child.ref_s)
    return times


def describe_outcomes(outcomes: List[ReportOutcome]) -> List[str]:
    """One line per distinct report of the run."""
    lines, seen = [], set()
    for o in outcomes:
        if o.label in seen and not o.failed:
            continue
        seen.add(o.label)
        state = "FAILED: " + "; ".join(o.problems) if o.failed else "ok"
        lines.append(f"  report {o.label}: exit {o.exit_code}, checks {o.checks_passed}/"
                     f"{o.checks_attempted}, {state}")
        if o.unexpected_failures:
            lines.append(f"    failing checks that are not known defects: "
                         f"{', '.join(o.unexpected_failures)}")
        if o.digest:
            lines.append(f"    sha256 {o.digest} ({o.digest_note})")
    return lines


def metric_line(workload: str, name: str, value: float, unit: str, samples: str) -> str:
    return f"{workload:<10} {name:<28} {value:>14.6g} {unit:<6} {samples}"


def run_untraced(workload: str, seed: int, seconds: float, expected: dict, env: dict):
    setup = measure_setup(env)
    reports = WORKLOADS[workload]
    passes: List[Pass] = []
    first_digest: Dict[str, str] = {}
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + passes[-1].wall_s <= seconds:
        passes.append(run_pass(reports, seed, expected, env, first_digest))
    outcomes = [o for p in passes for o in p.outcomes]
    attempted = sum(o.checks_attempted for o in outcomes)
    passed = sum(o.checks_passed for o in outcomes)
    metrics = {
        "batch_s": (statistics.median(p.ref_s for p in passes), "s",
                    f"median of {len(passes)} passes; raw wall median "
                    f"{statistics.median(p.wall_s for p in passes):.3f} s"),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} imports"),
        "peak_rss_mb": (max(p.maxrss_mb for p in passes), "MB",
                        f"max over {len(outcomes)} report processes"),
        "check_pass_ratio": (passed / attempted, "ratio",
                             f"{passed}/{attempted} exact checks passed"),
    }
    return outcomes, metrics


def run_traced(workload: str, seed: int, expected: dict, env: dict):
    reports = WORKLOADS[workload]
    untraced = run_pass(reports, seed, expected, env, {})
    child = run_child([sys.executable, "-m", "perfbench.tracer", "--workload", workload,
                       "--seed", str(seed)], child_env(hash_seed="0"),
                      os.path.join(OUT_DIR, f"trace-{workload}.stderr"))
    outcomes = list(untraced.outcomes)
    summary_path = os.path.join(OUT_DIR, f"trace-{workload}.json")
    if child.exit_code != 0:
        raise SetupError(f"the traced run exited with status {child.exit_code}; "
                         f"see {OUT_DIR}/trace-{workload}.stderr")
    with open(summary_path, encoding="utf-8") as fh:
        summary = json.load(fh)
    for o in untraced.outcomes:
        traced = summary["reports"][o.label]
        t = ReportOutcome(o.label + " (traced)", traced["exit_code"], digest=traced["sha256"])
        if (t.exit_code, t.digest) != (o.exit_code, o.digest):
            t.fail("traced report differs from the untraced one", o.checks_attempted)
        else:
            t.checks_attempted, t.checks_passed = o.checks_attempted, o.checks_passed
            t.digest_note = "same as untraced"
        outcomes.append(t)
    # Times are put in reference seconds with the tracer process's average
    # host speed, since the probe cannot tell which layer ran in a slow phase.
    speed = child.ref_s / child.wall_s
    layer = {name: value * speed if unit_of(name) == "s" else value
             for name, value in summary["metrics"].items()}
    layer["trace.overhead_ratio"] = layer["trace.report_s"] / untraced.ref_s
    metrics = {name: (value, unit_of(name), "1 traced pass")
               for name, value in sorted(layer.items())}
    lines = [f"  rref_rows input shapes (rows, cols, rank: calls), most common of "
             f"{len(summary['rref_rows_histogram'])}: "
             + ", ".join(f"{r}x{c} rank {k}: {n}" for r, c, k, n in
                         summary["rref_rows_histogram"][:8]),
             f"  spans: {OUT_DIR}/trace-{workload}.spans.jsonl; traced process peak RSS "
             f"{child.maxrss_mb:.1f} MB"]
    if summary["missing_targets"]:
        lines.append("  not traced, no longer in the package: "
                     + ", ".join(summary["missing_targets"]))
    return outcomes, metrics, lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 expected: dict, env: dict):
    """Print the run's description; return (outcomes, {name: (value, unit)})."""
    if trace:
        outcomes, metrics, extra = run_traced(workload, seed, expected, env)
    else:
        (outcomes, metrics), extra = run_untraced(workload, seed, seconds, expected, env), []
    print(f"workload {workload}, seed {seed}, trace {int(trace)}: "
          f"{len(outcomes)} reports, {sum(o.failed for o in outcomes)} failed")
    for line in describe_outcomes(outcomes) + extra:
        print(line)
    for name, (value, unit, samples) in metrics.items():
        print(metric_line(workload, name, value, unit, samples))
    return outcomes, {name: (value, unit) for name, (value, unit, _) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.run", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        expected = load_expected()
        os.makedirs(OUT_DIR, exist_ok=True)
        pin_to_one_cpu()
        env = child_env()
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        outcomes, metrics = [], {}
        for name in names:
            got, values = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                       expected, env)
            outcomes += got
            prefix = f"{name}/" if args.workload == "all" else ""
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in values.items()})
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failed = sum(o.failed for o in outcomes)
    correct = failed == 0 and not any(o.unexpected_failures for o in outcomes)
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
