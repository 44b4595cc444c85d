"""Write ``perfbench/expected.json`` from the reports of the current commit.

    python3 -m perfbench.record --seeds 0-20

For every report of every workload and every seed (plus the report's seed
offset) it runs the CLI once and records the table shape, the number of
exact identity checks, the checks that fail for some seed (the known
defects) and the report's sha256 per CLI seed.  The shape and the number of
checks must not depend on the seed, and the shape of an sl(n+1) table must
have the paper's row counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

from .checks import check_expected, table_shape
from .run import EXPECTED_PATH
from .workloads import OUT_DIR, WORKLOADS, child_env


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(report, cli_seeds, env) -> dict:
    path = os.path.join(OUT_DIR, f"record-{report.slug}.json")
    entry = {"space": None, "checks": None, "shape": None, "known_failures": None,
             "digests": {}}
    for seed in cli_seeds:
        code = subprocess.run([sys.executable, "-m", "cohomatlas.cli",
                               *report.cli_args(seed, path)], env=env).returncode
        with open(path, "rb") as fh:
            data = fh.read()
        doc = json.loads(data)
        failing = [i["name"] for i in doc["identities"] if not i["passed"]]
        if code not in (0, 1) or (code == 0) != (not failing):
            raise SystemExit(f"{report.key} seed {seed}: exit status {code}")
        got = {"space": doc["space"], "checks": len(doc["identities"]),
               "shape": table_shape(doc)}
        for key, value in got.items():
            if entry[key] is None:
                entry[key] = value
            elif entry[key] != value:
                raise SystemExit(f"{report.key}: {key} differs between seeds")
        entry["known_failures"] = sorted(set(entry["known_failures"] or []) | set(failing))
        entry["digests"][str(seed)] = hashlib.sha256(data).hexdigest()
        print(f"{report.key} seed {seed}: {entry['digests'][str(seed)]}", flush=True)
    check_expected(report.key, entry)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.record")
    parser.add_argument("--seeds", default="7", help="a seed or a range like 0-20")
    args = parser.parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    env = child_env()
    groups = {}  # key -> (a report with that key, the CLI seeds of all of them)
    for reports in WORKLOADS.values():
        for r in reports:
            groups.setdefault(r.key, (r, []))[1].extend(map(r.cli_seed, seed_range(args.seeds)))
    expected = {key: record(report, cli_seeds, env) for key, (report, cli_seeds) in groups.items()}
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
