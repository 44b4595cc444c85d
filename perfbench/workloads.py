"""The reports each workload asks the CLI for, and where their outputs go."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import List, Optional

OUT_DIR = ".perfbench_out"  # relative to the checkout root, ignored by git
SRC_DIR = "src"


@dataclass(frozen=True)
class Report:
    """One CLI invocation; it runs with the CLI seed ``seed + seed_offset``."""

    space: str
    nc_search: bool = False
    seed_offset: int = 0

    @property
    def key(self) -> str:
        """The space and flags, which select the expected shape and checks."""
        return self.space + (" --nc-search" if self.nc_search else "")

    @property
    def label(self) -> str:
        return self.key + (f" seed+{self.seed_offset}" if self.seed_offset else "")

    @property
    def slug(self) -> str:
        return re.sub(r"[^a-z0-9]+", "_", self.label).strip("_")

    def cli_seed(self, seed: int) -> int:
        return seed + self.seed_offset

    def cli_args(self, cli_seed: int, out_path: str) -> List[str]:
        args = ["--space", self.space, "--feature", "su1n", "--seed", str(cli_seed),
                "--format", "json", "--out", out_path]
        return args + (["--nc-search"] if self.nc_search else [])


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
# The oracle's random probes make its work depend on the seed (85 to 100
# distinct candidates per sweep over seeds 0-20), so one nc-oracle pass runs
# three seeds, 1000 apart, and a run's time varies less from seed to seed.
WORKLOADS = {
    "sl-table": (Report("sl(7)"),),
    "products": (Report("ch(3)*ch(3)"), Report("rh(5)*rh(5)"), Report("sl(3)*sl(2)")),
    "nc-oracle": tuple(Report("sl(4)", nc_search=True, seed_offset=k) for k in (0, 1000, 2000)),
}


def child_env(hash_seed: Optional[str] = None) -> dict:
    """Environment for a child that imports cohomatlas from the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(SRC_DIR), env.get("PYTHONPATH")]))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return env
