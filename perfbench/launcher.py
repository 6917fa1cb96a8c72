"""Run one bolforge CLI command with layer spans recorded.

Usage: python3 perfbench/launcher.py TRACE_FILE CLI_ARG...

Runs with the staged ``bolforge`` on ``PYTHONPATH``.  Before calling
``bolforge.cli.main(CLI_ARGS)`` it wraps each layer's public functions
at the names their callers look up: module attributes bound by
``from ... import``, the engine's verdict and target tables, the claim
registry, the ``LoopTable`` methods, and the functions of the kernel
module that ``get_kernel()`` returns.  Spans stay in memory and are
written to TRACE_FILE at exit as ``{"spans": [[name, start, end,
parent, counts], ...]}``; ``parent`` is the index of the enclosing span
or -1, and ``counts`` holds a kernel call's counters.  The process exits
with the CLI's exit code.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

#: Property checks that decide an identity by scanning element tuples.
SCAN_FUNCTIONS = (
    "is_left_bol",
    "is_right_bol",
    "is_moufang",
    "is_associative",
    "has_lip",
    "has_lap",
    "is_power_associative",
    "has_two_sided_inverses",
    "is_uniquely_2_divisible",
)

#: Property computations of commutant, center, subloop and normality structure.
STRUCTURE_FUNCTIONS = (
    "commutant",
    "center",
    "bol_elements",
    "generated_subloop",
    "is_subloop",
    "is_normal",
    "square_roots",
    "square_root",
    "is_twisted_closed",
)

#: Counters a kernel call returns, kept on its span.
KERNEL_COUNTERS = ("nodes", "identity_prunes", "iso_prunes", "leaves", "canonical")


class Tracer:
    """Keeps spans of one process in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, counters: tuple[str, ...] = ()):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counters:
                span[4] = {c: out[c] for c in counters}
            return out

        return traced


def install(tracer: Tracer) -> None:
    """Replace every layer entry point by its traced wrapper."""
    import bolforge
    from bolforge import claims, cli, props
    from bolforge import search as search_pkg
    from bolforge.search import canon, construct, engine
    from bolforge.table import LoopTable, parse_loop

    traced = {}
    for fname in SCAN_FUNCTIONS:
        traced[getattr(props, fname)] = tracer.wrap(getattr(props, fname), "props.scan." + fname)
    for fname in STRUCTURE_FUNCTIONS:
        traced[getattr(props, fname)] = tracer.wrap(getattr(props, fname), "props.structure")
    for claim, check in claims.CLAIM_CHECKS.items():
        traced[check] = tracer.wrap(check, "claims." + claim)
    traced[parse_loop] = tracer.wrap(parse_loop, "table.parse")
    for fname in ("enumerate_loops", "find_first"):
        traced[getattr(engine, fname)] = tracer.wrap(getattr(engine, fname), "engine")

    modules = (bolforge, claims, cli, props, search_pkg, canon, construct, engine)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in traced:
                setattr(module, attr, traced[value])
    for registry in (engine.CONSTRAINT_VERDICTS, engine.TARGET_CHECKS, claims.CLAIM_CHECKS):
        for key, value in registry.items():
            if value in traced:
                registry[key] = traced[value]

    LoopTable.__init__ = tracer.wrap(LoopTable.__init__, "table.build")
    LoopTable.from_flat = classmethod(tracer.wrap(LoopTable.from_flat.__func__, "table.build"))
    LoopTable.serialize = tracer.wrap(LoopTable.serialize, "table.serialize")

    kernel = search_pkg.get_kernel()
    kernel.run = tracer.wrap(kernel.run, "kernel.search.run", KERNEL_COUNTERS)
    kernel.collect_prefixes = tracer.wrap(kernel.collect_prefixes, "kernel.search.prefixes", KERNEL_COUNTERS)
    kernel.canonical_form_bytes = tracer.wrap(kernel.canonical_form_bytes, "kernel.canon")

    cli.main = tracer.wrap(cli.main, "cli")


def main(argv: list[str]) -> int:
    trace_file, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from bolforge import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(trace_file, "w") as fh:
            json.dump({"spans": tracer.spans}, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
