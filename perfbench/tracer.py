"""Traced in-process run of one workload, for the per-layer metrics.

``python3 -m perfbench.tracer --workload W --seed N`` (with ``src`` on
``PYTHONPATH``) wraps the public entry points of each pipeline module from
outside the package, runs every report of the workload once through
``cohomatlas.cli.main`` in this process, and writes to ``OUT_DIR``:

* ``trace-<W>.spans.jsonl``: one span per wrapped call, with its parent;
* ``trace-<W>.json``: the per-layer metrics, the (rows, cols, rank)
  histogram of the ``rref_rows`` inputs, and each report's sha256.

A span's self time is its duration minus the durations of its child spans,
so the self times of all spans add up to the root spans' durations.  After
the traced pass the captured ``rref_rows`` inputs are replayed through the
untraced ``rref_rows``: that is ``linalg.rref_replay_s``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import os
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from .workloads import OUT_DIR, WORKLOADS

# layer -> public functions and methods wrapped in that module
TARGETS = {
    "models": ("build_sl", "build_so1n", "build_su1n", "direct_sum", "LieModel.bracket"),
    "roots": ("decompose",),
    "parabolic": ("build_parabolic", "build_nested", "tensor_model"),
    "actions": ("make_fh", "make_fs", "canonical_extend", "default_cer_sigma", "make_cer",
                "make_factor_diagonal", "nilpotent_construct", "product_assemble",
                "builtin_cei_catalog"),
    "verify": ("verify", "check_nc1", "check_nc2", "RationalSampler.vector_in"),
    "catalog": ("enumerate_sl", "enumerate_product", "nc_oracle_search",
                "known_extension_tangents"),
    "linalg": ("rref_rows", "rref_with_transform"),
    "cli": ("main", "render_markdown"),
}
LAYERS = tuple(TARGETS)
BIG_RREF_CELLS = 1000  # rows x cols of an elimination input counted as big

PARENT, NAME, START, END, ATTRS = range(5)


class Tracer:
    """Spans kept in memory: [parent index, "layer.function", start, end, attrs]."""

    def __init__(self):
        self.spans: List[list] = []
        self.rref_inputs: List[tuple] = []
        self._open: List[int] = []

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None, capture: bool = False) -> Callable:
        """``fn`` recording a span per call; ``attrs(args, kwargs, result)``
        adds data to it, and ``capture`` keeps an elimination's input."""
        spans, stack, inputs = self.spans, self._open, self.rref_inputs

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if capture:
                rows, ncols = _rref_args(args, kwargs)
                inputs.append((tuple(rows), ncols))
            span = [stack[-1] if stack else -1, name, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        return traced


def _rref_args(args, kwargs):
    """(rows, ncols) of a call to rref_rows or rref_with_transform."""
    merged = dict(zip(("rows", "ncols"), args), **kwargs)
    return merged["rows"], merged["ncols"]


def _rref_attrs(args, kwargs, result):
    rows, ncols = _rref_args(args, kwargs)
    return {"rows": len(rows), "cols": ncols, "rank": len(result[1])}


def _oracle_attrs(args, kwargs, result):
    return {"generated": result["coordinate_subsets"] + result["probes"],
            "distinct": result["distinct_candidates"]}


ATTRS_OF = {"linalg.rref_rows": _rref_attrs, "linalg.rref_with_transform": _rref_attrs,
            "catalog.nc_oracle_search": _oracle_attrs}


def install(tracer: Tracer) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every target; return a function that puts the originals back,
    and the targets the package no longer has.

    A module-level function is replaced in every cohomatlas module that
    imported it by name, since ``from .linalg import rref_rows`` copies the
    binding."""
    modules = {layer: importlib.import_module(f"cohomatlas.{layer}") for layer in LAYERS}
    undo, missing = [], []
    for layer, names in TARGETS.items():
        for target in names:
            name = f"{layer}.{target.split('.')[-1]}"
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(modules[layer], cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is None:
                    missing.append(f"{layer}.{target}")
                    continue
                setattr(cls, meth, tracer.wrap(name, original, ATTRS_OF.get(name)))
                undo.append((cls, meth, original))
                continue
            original = getattr(modules[layer], target, None)
            if original is None:
                missing.append(f"{layer}.{target}")
                continue
            wrapped = tracer.wrap(name, original, ATTRS_OF.get(name),
                                  capture=name == "linalg.rref_rows")
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        undo.append((module, attr, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore, missing


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [(s[END] - s[START]) - c for s, c in zip(spans, child)]


def layer_metrics(spans: List[list], report_s: float) -> Dict[str, float]:
    """Per-layer metrics from the spans of one traced pass of ``report_s`` seconds."""
    selfs = self_times(spans)
    layer_self = Counter()
    calls = Counter()
    total = Counter()
    for span, own in zip(spans, selfs):
        layer_self[span[NAME].split(".")[0]] += own
        calls[span[NAME]] += 1
        total[span[NAME]] += span[END] - span[START]

    def in_layer(layer, exclude=()):
        return sum(n for name, n in calls.items()
                   if name.startswith(layer + ".") and name not in exclude)

    builds = ("models.build_sl", "models.build_so1n", "models.build_su1n", "models.direct_sum")
    rrefs = [s for s in spans if s[NAME] in ("linalg.rref_rows", "linalg.rref_with_transform")]
    rref_s = sum(s[END] - s[START] for s in rrefs)
    big = [s for s in rrefs if s[ATTRS]["rows"] * s[ATTRS]["cols"] >= BIG_RREF_CELLS]
    oracle = [s[ATTRS] for s in spans if s[NAME] == "catalog.nc_oracle_search"]
    generated = sum(a["generated"] for a in oracle)
    distinct = sum(a["distinct"] for a in oracle)
    rows_in = sum(s[ATTRS]["rows"] for s in rrefs)
    metrics = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    metrics.update({
        "models.build_s": sum(total[n] for n in builds),
        "models.build_calls": sum(calls[n] for n in builds),
        "models.bracket_calls": calls["models.bracket"],
        "roots.decompose_s": total["roots.decompose"],
        "roots.decompose_calls": calls["roots.decompose"],
        "parabolic.calls": in_layer("parabolic"),
        "actions.calls": in_layer("actions"),
        "verify.calls": in_layer("verify", exclude=("verify.vector_in",)),
        "verify.nc_checks": calls["verify.check_nc1"] + calls["verify.check_nc2"],
        "verify.sampler_draws": calls["verify.vector_in"],
        "catalog.oracle_share": total["catalog.nc_oracle_search"] / report_s,
        "catalog.oracle_candidates": distinct,
        "catalog.oracle_distinct_ratio": distinct / generated if generated else 0.0,
        "linalg.rref_calls": len(rrefs),
        "linalg.rref_s": rref_s,
        "linalg.rref_cells": sum(s[ATTRS]["rows"] * s[ATTRS]["cols"] for s in rrefs),
        "linalg.rank_ratio": sum(s[ATTRS]["rank"] for s in rrefs) / rows_in if rows_in else 0.0,
        "linalg.rref_big_calls": len(big),
        "linalg.rref_big_share": sum(s[END] - s[START] for s in big) / rref_s if rref_s else 0.0,
        "cli.render_s": total["cli.render_markdown"],
        "trace.report_s": report_s,
        "trace.self_sum_ratio": sum(selfs) / report_s,
    })
    return metrics


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("calls", "_checks", "_draws", "_candidates", "_cells")):
        return "count"
    return "ratio"


def rref_histogram(spans: List[list]) -> List[list]:
    """[rows, cols, rank, count] for every ``rref_rows`` call, most common first."""
    shapes = Counter((s[ATTRS]["rows"], s[ATTRS]["cols"], s[ATTRS]["rank"])
                     for s in spans if s[NAME] == "linalg.rref_rows")
    return [[*shape, n] for shape, n in shapes.most_common()]


def replay_s(inputs: List[tuple]) -> float:
    """Seconds the untraced ``rref_rows`` takes on the captured inputs."""
    from cohomatlas.linalg import rref_rows
    start = time.perf_counter()
    for args in inputs:
        rref_rows(*args)
    return time.perf_counter() - start


def write_spans(path: str, spans: List[list]) -> None:
    """One JSON line per span; ``trace`` is the index of its root span."""
    root = []
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            root.append(i if s[PARENT] < 0 else root[s[PARENT]])
            fh.write(json.dumps({"id": i, "parent": s[PARENT], "trace": root[i],
                                 "name": s[NAME], "start": s[START], "end": s[END],
                                 "attrs": s[ATTRS]}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.tracer")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    from cohomatlas import cli

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer()
    restore, missing = install(tracer)
    reports = {}
    try:
        start = time.perf_counter()
        for report in WORKLOADS[args.workload]:
            path = os.path.join(OUT_DIR, f"traced-{report.slug}.json")
            cli_args = report.cli_args(report.cli_seed(args.seed), path)
            reports[report.label] = {"path": path, "exit_code": cli.main(cli_args)}
        report_s = time.perf_counter() - start
    finally:
        restore()
    rows = sampled = 0
    for info in reports.values():
        with open(info["path"], "rb") as fh:
            data = fh.read()
        info["sha256"] = hashlib.sha256(data).hexdigest()
        entries = json.loads(data)["entries"]
        rows += len(entries)
        sampled += sum(e["report"]["cohomogeneity_certainty"] == "sampled" for e in entries)
    metrics = layer_metrics(tracer.spans, report_s)
    metrics["verify.sampled_row_ratio"] = sampled / rows
    metrics["linalg.rref_replay_s"] = replay_s(tracer.rref_inputs)
    base = os.path.join(OUT_DIR, f"trace-{args.workload}")
    write_spans(base + ".spans.jsonl", tracer.spans)
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                   "missing_targets": missing, "reports": reports,
                   "rref_rows_histogram": rref_histogram(tracer.spans)}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
