"""Command line front end: parse a space, enumerate, verify, render reports.

Space grammar::

    space  := factor ("*" factor)*
    factor := name "(" integer ")"        name in {sl, rh, ch}

Names are ASCII letters, integers ASCII digits, and only ASCII whitespace
may separate tokens.  ``sl(k)`` is the split special linear model on k x k
matrices, ``rh(n)`` the real hyperbolic model so(1,n), and ``ch(n)`` the
complex hyperbolic model su(1,n) (behind the ``--feature su1n`` flag).
Reports are emitted as JSON (schema 1) or a markdown table; identical
inputs produce byte-identical JSON: the bytes of ``json.dumps(document,
sort_keys=True, indent=2)``, written by ``_json_pieces``, since with an
indent the json module runs its pure-Python encoder.

Exit status: 0 when every exact check passed, 1 when an exact check failed
(the report is still written), 2 on bad input (a space outside the grammar
or its bounds, a missing feature flag, an unsupported option, or a report
path that cannot be written).

``console`` is the process entry point: ``python -m cohomatlas.cli`` and
the installed ``cohomatlas`` script both run it.  It calls ``main`` and
then freezes the heap (``gc.freeze``) before the interpreter exits.  At
exit the interpreter runs the cyclic collector over every object it still
tracks, most of them the data the report was built from; frozen objects
sit in the permanent generation, which that sweep skips.  Atexit
handlers, the flushing of stdout and stderr and reference-count
deallocation all still run, and the report file is closed before ``main``
returns.  ``main`` itself never freezes: tests and the in-process tracer
call it many times in one process, and their heap must stay collectable.
"""

from __future__ import annotations

import argparse
import gc
import sys
from json.encoder import encode_basestring_ascii
from typing import List, NamedTuple, Optional

from .catalog import (
    EnumerationResult,
    MAX_ORACLE_RANK,
    MAX_SL_RANK,
    enumerate_product,
    enumerate_sl,
    nc_oracle,
)
from .models import build_sl, build_so1n, build_su1n, direct_sum

SCHEMA_VERSION = 1

FACTOR_BOUNDS = {"sl": (2, MAX_SL_RANK + 1), "rh": (2, 8), "ch": (2, 5)}
WHITESPACE = " \t\n\r\v\f"  # the ASCII whitespace characters
LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
DIGITS = "0123456789"


class SpaceSpec(NamedTuple):
    factors: tuple  # of (name, integer)

    @property
    def canonical(self) -> str:
        return "*".join(f"{n}({v})" for n, v in self.factors)


class RunConfig(NamedTuple):
    seed: int = 7
    samples: int = 32
    nc_search: bool = False
    su1n: bool = False


def parse_space(text: str) -> SpaceSpec:
    """Parse a space description, or raise ValueError with a byte offset."""
    factors = []
    pos = 0
    n = len(text)

    def skip_ws(p):
        while p < n and text[p] in WHITESPACE:
            p += 1
        return p

    while True:
        pos = skip_ws(pos)
        start = pos
        while pos < n and text[pos] in LETTERS:
            pos += 1
        name = text[start:pos]
        if name not in FACTOR_BOUNDS:
            raise ValueError(f"syntax error at offset {start}: expected a factor "
                             f"name (sl, rh, ch), found {name!r}")
        pos = skip_ws(pos)
        if pos >= n or text[pos] != "(":
            raise ValueError(f"syntax error at offset {pos}: expected '('")
        pos += 1
        pos = skip_ws(pos)
        num_start = pos
        while pos < n and text[pos] in DIGITS:
            pos += 1
        if pos == num_start:
            raise ValueError(f"syntax error at offset {pos}: expected an integer")
        digits = text[num_start:pos].lstrip("0") or "0"
        lo, hi = FACTOR_BOUNDS[name]
        # int() refuses very long digit strings, so compare lengths first
        if len(digits) > len(str(hi)) or not lo <= int(digits) <= hi:
            raise ValueError(f"factor {name}({digits}) out of bounds "
                             f"[{lo}, {hi}] at offset {num_start}")
        pos = skip_ws(pos)
        if pos >= n or text[pos] != ")":
            raise ValueError(f"syntax error at offset {pos}: expected ')'")
        pos += 1
        factors.append((name, int(digits)))
        pos = skip_ws(pos)
        if pos == n:
            break
        if text[pos] != "*":
            raise ValueError(f"syntax error at offset {pos}: expected '*' or end "
                             f"of input, found {text[pos]!r}")
        pos += 1
    return SpaceSpec(factors=tuple(factors))


def _build_factor(name: str, value: int, su1n: bool):
    if name == "sl":
        return build_sl(value)
    if name == "rh":
        return build_so1n(value)
    if name == "ch":
        if not su1n:
            raise ValueError("ch(n) factors need the su1n feature "
                             "(pass --feature su1n)")
        return build_su1n(value)
    raise ValueError(f"unknown factor {name}")


class RunResult(NamedTuple):
    """A finished run.  Each report format renders when it is read, so a
    run renders only the format that it writes."""

    spec: SpaceSpec
    config: RunConfig
    result: EnumerationResult
    exit_code: int

    @property
    def json_text(self) -> str:
        return render_json(self.spec, self.config, self.result)

    @property
    def markdown_text(self) -> str:
        return render_markdown(self.spec, self.config, self.result)


def run(spec: SpaceSpec, config: RunConfig) -> RunResult:
    """Build the space, enumerate and verify."""
    if len(spec.factors) == 1 and spec.factors[0][0] == "sl":
        k = spec.factors[0][1]
        if config.nc_search and k - 1 > MAX_ORACLE_RANK:
            raise ValueError("the oracle search is desk scale only "
                             f"(sl(k) with k <= {MAX_ORACLE_RANK + 1})")
        result = enumerate_sl(k - 1, seed=config.seed, samples=config.samples)
        if config.nc_search:
            nc_oracle(result)
    else:
        if config.nc_search:
            raise ValueError("--nc-search is supported for single sl spaces only")
        # identical factors share one model
        built = {f: _build_factor(*f, config.su1n) for f in dict.fromkeys(spec.factors)}
        pm = direct_sum([built[f] for f in spec.factors])
        result = enumerate_product(pm, seed=config.seed, samples=config.samples)
    return RunResult(spec, config, result, 0 if result.all_identities_passed else 1)


def render_json(spec: SpaceSpec, config: RunConfig, result: EnumerationResult) -> str:
    document = {
        "schema": SCHEMA_VERSION,
        "space": spec.canonical,
        "config": {
            "seed": config.seed,
            "samples": config.samples,
            "nc_search": config.nc_search,
            "features": {"su1n": config.su1n},
        },
        "entries": [e.to_json() for e in result.entries],
        "identities": [n.to_json() for n in result.identities],
        "skipped": [],  # schema 1 has the key; a constructor error exits 2
    }
    if result.oracle is not None:
        document["oracle"] = result.oracle

    out = []
    _json_pieces(document, "\n", out)
    return "".join(out) + "\n"


def _json_pieces(x, newline: str, out: list) -> None:
    """Append to out the pieces of ``json.dumps(x, sort_keys=True,
    indent=2)``, with x nested where a line break is ``newline`` and its
    indent.  Takes the types a report holds: str, int, bool, None, list and
    dict with str keys; raises TypeError on any other."""
    t = type(x)
    if t is str:
        out.append(encode_basestring_ascii(x))
    elif t is int:
        out.append(repr(x))
    elif t is dict:
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(x):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out += sep, encode_basestring_ascii(key), ": "
            _json_pieces(x[key], inner, out)
            sep = comma
        out.append(newline + "}" if x else "{}")
    elif t is list:
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in x:
            out.append(sep)
            _json_pieces(item, inner, out)
            sep = comma
        out.append(newline + "]" if x else "[]")
    elif x is None or t is bool:
        out.append("null" if x is None else "true" if x else "false")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def render_markdown(spec: SpaceSpec, config: RunConfig, result: EnumerationResult) -> str:
    lines = [f"# Cohomogeneity one actions on {spec.canonical}", ""]
    lines.append(f"Configuration: seed={config.seed}, samples={config.samples}, "
                 f"nc_search={str(config.nc_search).lower()}, "
                 f"su1n={str(config.su1n).lower()}")
    lines.append("")
    lines.append("| label | subalgebra | roots | boundary | codim | cohom. | comments |")
    lines.append("|---|---|---|---|---|---|---|")
    for e in result.entries:
        phi = ",".join(f"a{i + 1}" for i in e.spec.phi) if e.spec.phi else "-"
        certainty = e.report.cohomogeneity_certainty
        certainty = "" if certainty == "exact" else f" ({certainty})"
        lines.append(
            f"| {e.label} | {e.name} | {phi} | {e.boundary} | {e.report.codim_at_o} "
            f"| {e.report.cohomogeneity}{certainty} | {e.comment} |"
        )
    lines.append("")
    lines.append("## Families and parameters")
    lines.append("")
    lines.append("- Each FH row stands for the family of horospherical foliations "
                 "parametrized by the choice of a line in the flat; one "
                 "representative line is listed.")
    # Nothing certifies the orbit equivalences the FS and CER sentences state:
    # they need k_0 transitive on the unit sphere of the simple root space
    # (FS), and the automorphisms of a factor that isometries induce (CER).
    lines.append("- Each FS row stands for the solvable foliations from any line "
                 "in the same simple root space; all such choices give orbit "
                 "equivalent actions.")
    if any(e.label == "CER" for e in result.entries):
        lines.append("- CER rows do not depend on the identification used for the "
                     "diagonal: different identifications give orbit equivalent "
                     "actions.")
    lines.append("")
    lines.append("## Exact identity checks")
    lines.append("")
    for n in result.identities:
        lines.append(f"- {n.name}: {'PASS' if n.passed else 'FAIL'}")
    if result.oracle:
        lines.append("")
        lines.append("## Nilpotent-construction oracle")
        lines.append("")
        for key, sweep in result.oracle.items():
            passing = [r for r in sweep["records"] if r["passes"]]
            lines.append(f"- {key}: {sweep['coordinate_subsets']} coordinate subsets "
                         f"and {sweep['probes']} probes "
                         f"({sweep['distinct_candidates']} distinct candidates); "
                         f"{len(passing)} pass both conditions, "
                         f"{sum(1 for r in passing if r['matches_known_tangent'])} "
                         "match a canonical-extension tangent")
    lines.append("")
    return "\n".join(lines)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cohomatlas",
        description="Enumerate and verify cohomogeneity one actions on "
                    "noncompact symmetric space models by exact arithmetic.",
        epilog="exit status: 0 every exact check passed, 1 an exact check failed, "
               "2 bad input",
    )
    parser.add_argument("--space", required=True,
                        help="space description, e.g. 'sl(4)' or 'rh(3)*rh(3)'")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--samples", type=_positive_int, default=32,
                        help="sample vectors per sampled check (at least 1)")
    parser.add_argument("--nc-search", action="store_true",
                        help="run the brute-force nilpotent-construction oracle")
    parser.add_argument("--format", choices=["json", "markdown"], default="markdown")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    parser.add_argument("--feature", action="append", choices=["su1n"], default=[],
                        help="enable an optional feature")
    args = parser.parse_args(argv)

    config = RunConfig(
        seed=args.seed,
        samples=args.samples,
        nc_search=args.nc_search,
        su1n="su1n" in args.feature,
    )
    try:
        spec = parse_space(args.space)
        run_result = run(spec, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = run_result.json_text if args.format == "json" else run_result.markdown_text
    if not args.out:
        sys.stdout.write(text)
        return run_result.exit_code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    return run_result.exit_code


def console() -> int:
    """Run ``main`` on the process's arguments, then freeze the heap so that
    the interpreter's exit skips the final collector sweeps; returns the
    exit status."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(console())
