"""``rank-table``, ``farley``, ``embed-check`` and ``propb``: Farley's
complex of reduced diagrams and the ranks of the hyperplanes it covers.

``farley`` and ``propb`` never consult the class complex downstairs, so
this module imports nothing of ``squier``; ``rank_partition`` loads it."""

from __future__ import annotations

import argparse

from ..cli import (
    EXIT_NO,
    EXIT_OK,
    EXIT_UNKNOWN,
    CliError,
    _emit_json,
    _emit_unknown,
    _load_diagram,
)
from ..farley import (
    FarleyBall,
    check_isometric_embedding,
    farley_ball,
    property_b_scan,
    rank_partition,
)
from ..rewriting import format_word


def farley_to_dot(ball: FarleyBall) -> str:
    lines = ["digraph farley_ball {", "  rankdir=TB;"]
    for i, depth in enumerate(ball.depths):
        lines.append(f'  n{i} [label="{i} ({depth} cells)"];')
    for edge in ball.edges:
        lines.append(f"  n{edge.low} -> n{edge.high};")
    lines.append("}")
    return "\n".join(lines)


def run_rank_table(ns: argparse.Namespace) -> int:
    order = rank_partition(ns.search, ns.w)
    rows = [
        {
            "id": str(hid),
            "rank": r.value,
            "exact": r.exact,
            "chain": [str(h) for h in r.chain],
        }
        for hid, r in zip(order.ball.catalog.ids, order.ranks)
    ]
    if ns.format == "text":
        for row in rows:
            star = "" if row["exact"] else " (bound)"
            print(f'{row["id"]}  rank {row["rank"]}{star}')
        print(f"# exact={order.ranks_exact}")
    else:
        _emit_json(
            {
                "base": format_word(ns.w),
                "hyperplanes": rows,
                "exact": order.ranks_exact,
                "caps": ns.caps.as_dict(),
            }
        )
    return EXIT_OK if order.ranks_exact else EXIT_UNKNOWN


def run_farley(ns: argparse.Namespace) -> int:
    ball = farley_ball(ns.search, ns.w, ns.radius)
    if ns.format == "dot":
        print(farley_to_dot(ball))
        return EXIT_OK
    sizes = [0] * (ns.radius + 1)
    for depth in ball.depths:
        sizes[depth] += 1
    if ns.format == "text":
        print(f"vertices: {len(ball.depths)}")
        print(f"edges: {len(ball.edges)}")
        print(f"sizes by depth: {sizes}")
    else:
        _emit_json(
            {
                "base": format_word(ns.w),
                "radius": ns.radius,
                "vertex_count": len(ball.depths),
                "edge_count": len(ball.edges),
                "sizes_by_depth": sizes,
                "cube_counts": {str(dim): n for dim, n in ball.cube_counts.items()},
            }
        )
    return EXIT_OK


def run_embed_check(ns: argparse.Namespace) -> int:
    from ..squier import OutsideCatalogError

    head = {"base": format_word(ns.w), "radius": ns.radius}
    order = rank_partition(ns.search, ns.w)
    if not order.ranks_exact:
        return _emit_unknown(
            ns, head, "rank partition is not exact under these caps"
        )
    ball = farley_ball(ns.search, ns.w, ns.radius)
    try:
        report = check_isometric_embedding(ball, order)
    except OutsideCatalogError as e:
        return _emit_unknown(
            ns,
            head,
            f"the Farley ball crosses {e.hyperplane}, which the capped search"
            " did not find in the hyperplane catalog",
        )
    if ns.format == "text":
        print(f"pairs checked: {report.pairs_checked}")
        print(f"failures: {len(report.failures)}")
        print(f"ok: {report.ok}")
    else:
        _emit_json(
            {
                "base": format_word(ns.w),
                "radius": report.radius,
                "ranks": list(report.ranks),
                "quotient_nodes": list(report.quotient_nodes),
                "pairs_checked": report.pairs_checked,
                "failures": [list(f) for f in report.failures],
                "ok": report.ok,
                "exact": report.exact,
                "caps": ns.caps.as_dict(),
            }
        )
    if not report.ok:
        return EXIT_NO
    return EXIT_OK if report.exact else EXIT_UNKNOWN


def run_propb(ns: argparse.Namespace) -> int:
    gens = [_load_diagram(path, ns.pres) for path in ns.generator]
    try:
        scan = property_b_scan(ns.pres, ns.w, gens, ns.length)
    except ValueError as e:
        raise CliError(str(e)) from None
    lo, hi = ns.min_ratio, ns.max_ratio
    violated = (
        lo is not None and scan.min_ratio is not None and scan.min_ratio < lo
    ) or (hi is not None and scan.max_ratio is not None and scan.max_ratio > hi)
    if ns.format == "text":
        print(f"sizes: {list(scan.sizes)}")
        print(f"min ratio: {scan.min_ratio}")
        print(f"max ratio: {scan.max_ratio}")
    else:
        _emit_json(
            {
                "base": format_word(ns.w),
                "length": ns.length,
                "sizes": list(scan.sizes),
                "elements": len(scan.table),
                "min_ratio": str(scan.min_ratio) if scan.min_ratio is not None else None,
                "max_ratio": str(scan.max_ratio) if scan.max_ratio is not None else None,
                "bounds_ok": not violated,
            }
        )
    return EXIT_NO if violated else EXIT_OK


__all__ = ["farley_to_dot", "run_embed_check", "run_farley", "run_propb", "run_rank_table"]
