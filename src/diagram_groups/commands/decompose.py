"""``decompose`` and ``euler``: the graph-of-groups decomposition along
left hyperplanes and the Euler characteristic of a complete class."""

from __future__ import annotations

import argparse
from typing import Optional

from ..cli import EXIT_OK, EXIT_UNKNOWN, _emit_json
from ..decomposition import (
    decompose,
    euler_characteristic,
    free_rank,
    fundamental_group_presentation,
    gog_to_dot,
    gog_to_json,
)
from ..rewriting import format_word
from ..squier import build_ball


def run_decompose(ns: argparse.Namespace) -> int:
    gog = decompose(ns.search, ns.w, depth=ns.depth)
    if ns.format == "dot":
        print(gog_to_dot(gog))
        return EXIT_OK if gog.exact else EXIT_UNKNOWN
    try:
        rank_value: Optional[int] = free_rank(gog)
    except ValueError:
        rank_value = None
    pi1 = fundamental_group_presentation(gog)
    # the printed presentation is part of the answer, so it must be exact too
    exact = gog.exact and pi1.exact
    if ns.format == "text":
        for i, v in enumerate(gog.vertices):
            print(f"vertex {i}: {v.descriptor()}")
        for e in gog.edges:
            print(f"edge: {e.minus_vertex} -- {e.plus_vertex}  ({e.hyperplane})")
        print(f"# free rank: {rank_value}  exact={exact}")
    else:
        blob = gog_to_json(gog)
        blob["exact"] = exact
        blob["free_rank"] = rank_value
        blob["fundamental_group"] = str(pi1)
        blob["caps"] = ns.caps.as_dict()
        _emit_json(blob)
    return EXIT_OK if exact else EXIT_UNKNOWN


def run_euler(ns: argparse.Namespace) -> int:
    ball = build_ball(ns.search, ns.w)
    if not ball.complete:
        if ns.format == "text":
            print("complete: False")
            print("chi: unknown")
        else:
            _emit_json(
                {
                    "base": format_word(ns.w),
                    "complete": False,
                    "chi": None,
                    "caps": ns.caps.as_dict(),
                }
            )
        return EXIT_UNKNOWN
    chi = euler_characteristic(ball)
    if ns.format == "text":
        print(f"chi: {chi}")
        print(f"1 - chi: {1 - chi}")
    else:
        _emit_json(
            {
                "base": format_word(ns.w),
                "complete": True,
                "chi": chi,
                "one_minus_chi": 1 - chi,
                "cube_counts": {str(dim): len(cs) for dim, cs in ball.cubes},
                "caps": ns.caps.as_dict(),
            }
        )
    return EXIT_OK


__all__ = ["run_decompose", "run_euler"]
