"""``equal``, ``reduce`` and ``compose``: derivation diagrams."""

from __future__ import annotations

import argparse
from typing import List

from ..cli import EXIT_OK, CliError, _emit_json, _exit_for, _load_diagram
from ..diagrams import compose, is_reduced, reduce_diagram, serialize_diagram
from ..rewriting import Diagram, format_word


def _move_json(move) -> List[object]:
    return [move.offset, move.relation, "fwd" if move.forward else "bwd"]


def diagram_to_dot(d: Diagram) -> str:
    """The derivation path: one node per intermediate word, one arc per cell.

    The edgeless diagram renders as a single node — top and bottom are the
    same path."""
    lines = ["digraph diagram {", "  rankdir=TB;"]
    words = d.words()
    for i, w in enumerate(words):
        lines.append(f'  n{i} [label="{format_word(w)}"];')
    for i, move in enumerate(d.moves):
        arrow = "fwd" if move.forward else "bwd"
        lines.append(
            f'  n{i} -> n{i + 1} [label="r{move.relation} @{move.offset} {arrow}"];'
        )
    lines.append("}")
    return "\n".join(lines)


def run_equal(ns: argparse.Namespace) -> int:
    tb = ns.search.equal(ns.w1, ns.w2)
    moves: List[List[object]] = []
    cells = None
    if tb.is_yes:
        moves = [_move_json(m) for m in tb.witness.moves]
        cells = tb.witness.cells
    if ns.format == "text":
        print(tb.value)
        if tb.is_yes:
            for w in tb.witness.words():
                print(format_word(w))
    else:
        _emit_json(
            {
                "w1": format_word(ns.w1),
                "w2": format_word(ns.w2),
                "verdict": tb.value,
                "moves": moves,
                "cells": cells,
                "caps": ns.caps.as_dict(),
            }
        )
    return _exit_for(tb)


def _diagram_report(d: Diagram, ns: argparse.Namespace) -> None:
    if ns.format == "dot":
        print(diagram_to_dot(d))
    elif ns.format == "text":
        print(serialize_diagram(d), end="")
    else:
        _emit_json(
            {
                "top": format_word(d.top),
                "bottom": format_word(d.bot),
                "moves": [_move_json(m) for m in d.moves],
                "cells": d.cells,
                "spherical": d.is_spherical,
                "reduced": is_reduced(d),
            }
        )


def run_reduce(ns: argparse.Namespace) -> int:
    d = _load_diagram(ns.diagram, ns.pres)
    _diagram_report(reduce_diagram(d), ns)
    return EXIT_OK


def run_compose(ns: argparse.Namespace) -> int:
    d1 = _load_diagram(ns.d1, ns.pres)
    d2 = _load_diagram(ns.d2, ns.pres)
    try:
        d = compose(d1, d2)
    except ValueError as e:
        raise CliError(str(e)) from None
    if ns.reduce:
        d = reduce_diagram(d)
    _diagram_report(d, ns)
    return EXIT_OK


__all__ = ["diagram_to_dot", "run_compose", "run_equal", "run_reduce"]
