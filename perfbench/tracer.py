"""Run one ``diagram_groups`` CLI call with spans around each layer's calls.

Usage: python perfbench/tracer.py TRACE_FILE CLI_ARGS...

Every traced function is wrapped and the wrapper is bound wherever a module
of the package holds the original: the modules import each other with
``from .x import f`` and the ``lru_cache`` helpers call through their own
module globals, so patching only the defining module would miss most calls.
Spans (name, start, end, parent) and counters stay in memory and are written
to TRACE_FILE as JSON when the call returns; the exit code is the CLI's.
"""

import importlib
import json
import sys
import time

T_START = time.perf_counter()
import diagram_groups.cli  # noqa: E402  (the import is what cli.import_s times)
IMPORT_S = time.perf_counter() - T_START

MODULES = ("rewriting", "diagrams", "squier", "farley", "decomposition", "interval", "raag", "cli")

# (module, function): "span" records a span; "count" only counts calls,
# for functions called too often for a span each to be cheap
TARGETS = {
    ("rewriting", "enumerate_class"): "span",
    ("rewriting", "equal_mod_p"): "span",
    ("rewriting", "one_step_rewrites"): "count",
    ("rewriting", "invariant_letter_subsets"): "count",
    ("squier", "relate"): "span",
    ("squier", "rank"): "span",
    ("squier", "hyperplane_catalog"): "span",
    ("squier", "build_ball"): "span",
    ("squier", "specialness_report"): "span",
    ("squier", "find_absorbing_splits"): "span",
    ("squier", "find_self_intersections"): "span",
    ("diagrams", "reduce_diagram"): "span",
    ("diagrams", "canonical_key"): "span",
    ("diagrams", "compose"): "count",
    ("farley", "farley_ball"): "span",
    ("farley", "guarded_pairs"): "span",
    ("farley", "tree_quotients"): "span",
    ("farley", "rank_partition"): "span",
    ("decomposition", "decompose"): "span",
    ("decomposition", "left_hyperplanes"): "span",
    ("decomposition", "is_trivial_group"): "span",
    ("decomposition", "factor_group"): "span",
    ("interval", "diagram_ball_sizes"): "span",
    ("interval", "raag_ball_sizes"): "span",
    ("raag", "raag_normal_form"): "span",
    ("cli", "main"): "span",
}


def _extra(name, args, result):
    """Work counters read off arguments and results: (counter, amount)."""
    if name == "rewriting.equal_mod_p":
        return "unknown", int(result.value == "unknown")
    if name == "diagrams.reduce_diagram":
        return "dipoles", args[0].cells - result.cells
    if name == "farley.farley_ball":
        return "vertices", len(result.keys)
    if name == "farley.guarded_pairs":
        return "pairs", len(result)
    if name == "interval.diagram_ball_sizes":
        return "elements", result[-1]
    return None


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = [-1]
        self.counts = {}

    def wrap(self, name, fn, kind):
        spans, stack, counts = self.spans, self.stack, self.counts
        counts[name + ".calls"] = 0
        clock = time.perf_counter

        if kind == "count":
            def counted(*args, **kwargs):
                counts[name + ".calls"] += 1
                return fn(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            counts[name + ".calls"] += 1
            span = [name, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            extra = _extra(name, args, result)
            if extra is not None:
                key = name + "." + extra[0]
                counts[key] = counts.get(key, 0) + extra[1]
            return result
        return spanned

    def install(self):
        mods = [importlib.import_module("diagram_groups")] + [
            importlib.import_module("diagram_groups." + m) for m in MODULES
        ]
        for (mod, fname), kind in TARGETS.items():
            original = getattr(importlib.import_module("diagram_groups." + mod), fname)
            wrapper = self.wrap(f"{mod}.{fname}", original, kind)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        code = diagram_groups.cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": IMPORT_S, "counts": tracer.counts, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
