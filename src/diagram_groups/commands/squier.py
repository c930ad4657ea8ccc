"""``squier``, ``hyperplanes``, ``relate``, ``rank-table``, ``special`` and
``phi``: the class complex of a base word read off its Squier ball.

``relate``, ``rank-table`` and ``phi`` read the hyperplanes from
``ball.catalog.ids`` and everything about their crossings (the crossing
pairs, the ranks, ``exact`` and the odd-cycle check) from ``ball.order``;
only ``relate`` runs that check.  Generator ``H<i>`` of ``phi`` and arc
label ``H<i>`` of the ``squier`` dot drawing both name catalog position
``i``.  ``special`` imports the pathology searches of ``special`` and
``phi`` the Artin group of ``raag`` when they run, so the other commands
load neither."""

from __future__ import annotations

import argparse
from typing import Dict

from ..cli import (
    EXIT_OK,
    EXIT_UNKNOWN,
    CliError,
    _emit_json,
    _emit_unknown,
    _exit_for,
    _load_diagram,
)
from ..rewriting import format_word
from ..squier import OutsideCatalogError, SquierBall, build_ball

# fixed palette so hyperplane classes keep their colors across runs
_DOT_COLORS = (
    "blue",
    "red",
    "darkgreen",
    "orange",
    "purple",
    "brown",
    "cadetblue",
    "magenta",
    "goldenrod",
    "black",
)


def ball_to_dot(ball: SquierBall) -> str:
    """One-skeleton of the ball; arcs follow the forward rewrite and carry
    the hyperplane class as a stable color + label."""
    index = {w: i for i, w in enumerate(ball.vertices)}
    lines = ["digraph squier_ball {", "  rankdir=TB;"]
    for i, w in enumerate(ball.vertices):
        lines.append(f'  n{i} [label="{format_word(w)}"];')
    for edge in ball.edges:
        src = index[edge.source]
        dst = index[edge.target(ball.pres)]
        h = ball.hyperplane_index(edge.source, edge.move)
        color = _DOT_COLORS[h % len(_DOT_COLORS)]
        lines.append(f'  n{src} -> n{dst} [color={color}, label="H{h}"];')
    lines.append("}")
    return "\n".join(lines)


def transversality_to_dot(ball: SquierBall) -> str:
    """Crossing graph of ``ball.order`` with arcs pointing along the order
    that certified each crossing."""
    lines = ["digraph transversality {"]
    for i, hid in enumerate(ball.catalog.ids):
        lines.append(f'  h{i} [label="{hid}"];')
    for i, j, value in ball.order.crossings:
        a, b = (i, j) if value == "first_prec_second" else (j, i)
        lines.append(f"  h{a} -> h{b};")
    lines.append("}")
    return "\n".join(lines)


def _witness_json(wit: object) -> Dict[str, object]:
    """Generic pathology-witness serialization over the witness's
    ``_fields``: words formatted, evidence summarized by derivation lengths
    so the report stays readable."""
    out: Dict[str, object] = {"kind": type(wit).__name__}
    for name, value in zip(wit._fields, wit):
        if name == "evidence":
            out["evidence_lengths"] = [len(d.steps) for d in value]
        elif isinstance(value, tuple) and all(isinstance(x, str) for x in value):
            out[name] = format_word(value)
        elif isinstance(value, (int, str, bool)):
            out[name] = value
    return out


def run_squier(ns: argparse.Namespace) -> int:
    ball = build_ball(ns.search, ns.w)
    if ns.format == "dot":
        print(ball_to_dot(ball))
    elif ns.format == "text":
        print(f"vertices: {len(ball.vertices)}")
        print(f"edges: {len(ball.edges)}")
        for dim, cubes in ball.cubes:
            print(f"cubes[{dim}]: {len(cubes)}")
        print(f"complete: {ball.complete}")
    else:
        _emit_json(
            {
                "base": format_word(ns.w),
                "vertices": [format_word(v) for v in ball.vertices],
                "edge_count": len(ball.edges),
                "cube_counts": {str(dim): len(cs) for dim, cs in ball.cubes},
                "complete": ball.complete,
                "caps": ns.caps.as_dict(),
            }
        )
    return EXIT_OK if ball.complete else EXIT_UNKNOWN


def run_hyperplanes(ns: argparse.Namespace) -> int:
    ball = build_ball(ns.search, ns.w)
    catalog = ball.catalog
    if ns.format == "text":
        for hid, edges in catalog.edges_of:
            print(f"{hid}  ({len(edges)} edges)")
        print(f"# exact={catalog.exact}")
    else:
        _emit_json(
            {
                "base": format_word(ns.w),
                "count": len(catalog.ids),
                "hyperplanes": [
                    {"id": str(hid), "edges": len(edges)}
                    for hid, edges in catalog.edges_of
                ],
                "exact": catalog.exact,
                "complete": ball.complete,
                "caps": ns.caps.as_dict(),
            }
        )
    return EXIT_OK if catalog.exact else EXIT_UNKNOWN


def run_relate(ns: argparse.Namespace) -> int:
    ball = build_ball(ns.search, ns.w)
    ids, order = ball.catalog.ids, ball.order
    if ns.format == "dot":
        print(transversality_to_dot(ball))
    elif ns.format == "text":
        for i, j, value in order.crossings:
            arrow = "<" if value == "first_prec_second" else ">"
            print(f"{ids[i]} {arrow} {ids[j]}")
        print(f"# exact={order.exact} odd_cycle={order.odd_cycle}")
    else:
        _emit_json(
            {
                "base": format_word(ns.w),
                "hyperplanes": [str(h) for h in ids],
                "edges": [[i, j, value] for i, j, value in order.crossings],
                "exact": order.exact,
                "odd_cycle": list(order.odd_cycle) if order.odd_cycle else None,
                "caps": ns.caps.as_dict(),
            }
        )
    return EXIT_OK if order.exact else EXIT_UNKNOWN


def run_rank_table(ns: argparse.Namespace) -> int:
    order = build_ball(ns.search, ns.w).order
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


def run_special(ns: argparse.Namespace) -> int:
    from ..special import specialness_report

    report = specialness_report(ns.search, ns.w)
    if ns.format == "text":
        print(f"clean: {report.clean.value}")
        print(f"special: {report.special.value}")
        for note in report.notes:
            print(f"# {note}")
    else:
        _emit_json(
            {
                "base": format_word(ns.w),
                "clean": report.clean.value,
                "special": report.special.value,
                "self_intersections": [
                    _witness_json(x) for x in report.self_intersections
                ],
                "self_osculations": [
                    _witness_json(x) for x in report.self_osculations
                ],
                "inter_osculations": [
                    _witness_json(x) for x in report.inter_osculations
                ],
                "notes": list(report.notes),
                "caps": ns.caps.as_dict(),
            }
        )
    return _exit_for(report.special)


def run_phi(ns: argparse.Namespace) -> int:
    from ..raag import format_raag_word, phi

    d = _load_diagram(ns.diagram, ns.pres)
    ball = build_ball(ns.search, ns.w)
    try:
        image = phi(d, ball)
    except OutsideCatalogError as e:
        return _emit_unknown(
            ns,
            {"base": format_word(ns.w)},
            f"the diagram crosses {e.hyperplane}, which the capped search"
            " did not find in the hyperplane catalog",
        )
    except ValueError as e:
        raise CliError(str(e)) from None
    if ns.format == "text":
        print(format_raag_word(image))
    else:
        _emit_json(
            {
                "base": format_word(ns.w),
                "word": format_raag_word(image),
                "syllables": [[g, e] for g, e in image],
                "generators": [
                    {"label": f"H{i}", "hyperplane": str(hid)}
                    for i, hid in enumerate(ball.catalog.ids)
                ],
                "exact": ball.order.exact,
                "caps": ns.caps.as_dict(),
            }
        )
    return EXIT_OK if ball.order.exact else EXIT_UNKNOWN


__all__ = [
    "ball_to_dot",
    "run_hyperplanes",
    "run_phi",
    "run_rank_table",
    "run_relate",
    "run_special",
    "run_squier",
    "transversality_to_dot",
]
