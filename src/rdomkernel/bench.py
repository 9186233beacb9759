"""Benchmark plans and the experiment runner.

A plan is a flat text file of key=value lines; blank lines separate runs.
Each run names a generator family with its parameters plus the pipeline
knobs (r, k, seed, target, verify); every value but the family is an ASCII
decimal integer, as in edge lists. A key ``gen.<name>`` passes ``<name>``
to the generator even when it is also a knob, as ``subdivision``'s
``gen.r`` is. Any other key is an error. Runs execute one after another in
this process; output is one CSV row per run, in plan order.
"""

from __future__ import annotations

import time

from .domset import DominationInstance
from .generators import FAMILY_TABLE, GenSpec, generate
from .graphs import ParseError, _decimal
from .kernel import kernelize

CSV_HEADER = "family,n,m,r,k,z_final,kernel_n,reject,witness,wall_ms,seed"

_KNOB_KEYS = {"family", "r", "k", "seed", "target", "verify"}


def _generator_params(entry: dict) -> dict:
    # gen.<name> keys and non-knob keys, as the generator's parameters
    return {
        k.removeprefix("gen."): v for k, v in entry.items() if k.startswith("gen.") or k not in _KNOB_KEYS
    }


def parse_plan(text: str) -> list[dict]:
    """Parse the key=value block format; '#' starts a comment. A key that
    is neither a knob nor a parameter of the block's family (with or
    without ``gen.``), or a parameter of the family that the block does
    not give, raises :class:`ParseError` at the block's line, before any
    run starts."""
    runs: list[dict] = []
    block: dict = {}
    block_line = 0

    def flush():
        if not block:
            return
        if "family" not in block:
            raise ParseError("run block missing 'family'", block_line)
        if "r" not in block:
            raise ParseError("run block missing 'r'", block_line)
        if "k" not in block:
            raise ParseError("run block missing 'k'", block_line)
        family = FAMILY_TABLE.get(block["family"])
        if family is None:
            raise ParseError(f"unknown family {block['family']!r}", block_line)
        for key in block:
            if key not in _KNOB_KEYS and key.removeprefix("gen.") not in family.params:
                raise ParseError(f"unknown key {key!r} for family {block['family']!r}", block_line)
        params = _generator_params(block)
        for name in family.params:
            if name not in params:
                raise ParseError(f"family {block['family']!r} needs parameter {name!r}", block_line)
        runs.append(dict(block))
        block.clear()

    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            flush()
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", idx)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ParseError(f"empty key or value in {line!r}", idx)
        if not block:
            block_line = idx
        if key == "family":
            block[key] = value
        else:
            try:
                block[key] = _decimal(value)
            except ValueError:
                raise ParseError(f"value for {key!r} must be an integer, got {value!r}", idx) from None
    flush()
    return runs


def run_one(entry: dict) -> dict:
    """Execute one plan entry and return its CSV row as a dict."""
    spec = GenSpec(entry["family"], _generator_params(entry), entry.get("seed", 0))
    g = generate(spec)
    inst = DominationInstance(g, frozenset(range(g.n)), entry["r"], entry["k"])
    start = time.perf_counter()
    result = kernelize(inst, target=entry.get("target"), verify=bool(entry.get("verify", 0)))
    wall_ms = (time.perf_counter() - start) * 1000.0
    rejected = result.verdict != "kernel"
    return {
        "family": entry["family"],
        "n": g.n,
        "m": g.m,
        "r": entry["r"],
        "k": entry["k"],
        "z_final": result.stats["core"],
        "kernel_n": "" if rejected else result.stats["kernel_n"],
        "reject": int(rejected),
        "witness": len(result.witness) if rejected else "",
        "wall_ms": f"{wall_ms:.1f}",
        "seed": entry.get("seed", 0),
    }


def format_row(row: dict) -> str:
    return ",".join(str(row[key]) for key in CSV_HEADER.split(","))


def run_bench(runs: list[dict]) -> list[dict]:
    """Run a parsed plan one entry after another; rows come back in plan order."""
    return [run_one(entry) for entry in runs]
