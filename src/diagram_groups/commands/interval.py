"""``interval`` and ``verify-raag``: interval collections, their graphs and
presentations, and the RAAG isomorphism checked on balls."""

from __future__ import annotations

import argparse
from typing import List, Tuple

from ..cli import EXIT_NO, EXIT_OK, CliError, _emit_json, _emit_unknown, _read
from ..interval import (
    ElementBoundError,
    IntervalCollection,
    base_word,
    check_interval_name,
    collection_to_json,
    disjointness_graph,
    evidence_to_json,
    interval_graph,
    is_complement_of_interval,
    parse_intervals,
    presentation_for,
    recognition_to_json,
    verify_raag_iso,
)
from ..raag import RaagGraph, raag_graph
from ..rewriting import format_word


def _parse_graph(text: str) -> RaagGraph:
    """Line format mirroring the presentation files: ``vertices:`` then
    ``edge: u v`` lines, ``#`` comments.  Vertex names follow the rule
    for interval names."""
    vertices: List[str] = []
    edges: List[Tuple[str, str]] = []
    saw_vertices = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            vertices.extend(line[len("vertices:"):].split())
            saw_vertices = True
        elif line.startswith("edge:"):
            pair = line[len("edge:"):].split()
            if len(pair) != 2:
                raise CliError(f"edge line needs two vertices: {raw!r}")
            edges.append((pair[0], pair[1]))
        else:
            raise CliError(f"unrecognized graph line: {raw!r}")
    if not saw_vertices:
        raise CliError("graph file has no 'vertices:' line")
    try:
        # a yes verdict names its realization's intervals after the vertices
        for v in vertices:
            check_interval_name(v)
        return raag_graph(vertices, edges)
    except ValueError as e:
        raise CliError(str(e)) from None


def _load_collection(path: str) -> IntervalCollection:
    try:
        return parse_intervals(_read(path))
    except ValueError as e:
        raise CliError(f"{path}: {e}") from None


def run_interval(ns: argparse.Namespace) -> int:
    if ns.intervals:
        coll = _load_collection(ns.intervals)
        pres = presentation_for(coll)
        blob = {
            "collection": collection_to_json(coll),
            "interval_graph": [list(e) for e in sorted(interval_graph(coll).edges)],
            "disjointness_graph": [
                list(e) for e in sorted(disjointness_graph(coll).edges)
            ],
            "base": format_word(base_word(coll)),
            "presentation": str(pres),
        }
        if ns.format == "text":
            print(str(pres))
        else:
            _emit_json(blob)
        return EXIT_OK
    graph = _parse_graph(_read(ns.graph))
    rec = is_complement_of_interval(graph)
    if ns.format == "text":
        print("yes" if rec.verdict else f"no ({rec.obstruction})")
    else:
        _emit_json(recognition_to_json(rec))
    return EXIT_OK if rec.verdict else EXIT_NO


def run_verify_raag(ns: argparse.Namespace) -> int:
    coll = _load_collection(ns.intervals)
    try:
        ev = verify_raag_iso(coll, ns.length, ns.caps)
    except ElementBoundError as e:
        head = {"collection": collection_to_json(coll), "length": ns.length}
        return _emit_unknown(ns, head, str(e))
    if ns.format == "text":
        print(f"commutation ok: {ev.commutation_ok}")
        print(f"relators ok: {ev.relators_ok} ({ev.relators_checked} checked)")
        print(f"balls: diagram {list(ev.diagram_balls)} raag {list(ev.raag_balls)}")
        print(f"ok: {ev.ok}")
    else:
        blob = evidence_to_json(ev)
        blob["caps"] = ns.caps.as_dict()
        blob["length"] = ns.length
        _emit_json(blob)
    return EXIT_OK if ev.ok else EXIT_NO


__all__ = ["run_interval", "run_verify_raag"]
