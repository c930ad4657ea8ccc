"""Command-line frontend: file formats, JSON/DOT emission, scripted runs.

Exit codes report what the mathematics said, not merely whether the process
survived: 0 for a positive or complete answer, 1 for a definite negative,
2 when a search cap was hit first (unknown / truncated), 3 for unusable
input.  A scripted caller can therefore distinguish refutation from
truncation without parsing anything.

All JSON output is deterministic (sorted keys, fixed indentation) and
embeds the caps that bounded the run together with every exactness flag
that qualifies the result.

The parser decides which flags each command takes and which formats it
renders: only ``reduce``, ``compose``, ``squier``, ``relate``, ``farley``
and ``decompose`` offer ``--format dot``.  Before dispatch, ``main`` checks
the flags and loads the shared inputs once (:func:`_load_inputs`), so every
command reads ``ns.caps``, ``ns.pres`` and its words already validated, and
asks every class search of the call through the one ``ns.search``.

At load the module imports only the standard library and ``rewriting``,
which every command needs; each command, and each helper that loads or
draws a paper object, imports what it calls at the top of its own body.
A call therefore compiles and runs only the modules its command reaches
(``class`` none beyond ``rewriting``, ``relate`` only ``squier``), and
names used only in annotations are imported for type checkers alone.  The
package's records are named tuples and classes with written-out methods,
so importing a module generates and compiles no record methods, and no
call loads ``inspect``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .rewriting import (
    ClassSearch,
    Presentation,
    PresentationError,
    SearchCaps,
    TriBool,
    format_word,
    parse_presentation,
    word_of,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .diagrams import Diagram
    from .interval import IntervalCollection
    from .raag import RaagGraph
    from .squier import SquierBall, TransversalityGraph

EXIT_OK = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3

#: the cap flags by name, with their defaults
_CAP_DEFAULTS = SearchCaps().as_dict()

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


class CliError(Exception):
    """Bad input (missing file, malformed format, unusable combination)."""


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None


def _load_inputs(ns: argparse.Namespace) -> None:
    """Check the flags the parser cannot and load the shared inputs: sets
    ``ns.caps`` from the cap flags, ``ns.pres`` from ``-p``, ``ns.search``
    as the call's one class search over both, and replaces the words of
    ``-w``, ``-w1`` and ``-w2`` by checked words of ``ns.pres``."""
    caps = {name: getattr(ns, name) for name in _CAP_DEFAULTS if name in ns}
    try:
        ns.caps = SearchCaps(**caps)
    except ValueError as e:
        raise CliError(str(e)) from None
    for count in ("radius", "length", "depth", "n"):
        if getattr(ns, count, 0) < 0:
            raise CliError(f"{count} must be nonnegative")
    if "presentation" not in ns:
        return
    try:
        ns.pres = parse_presentation(_read(ns.presentation))
    except PresentationError as e:
        raise CliError(f"{ns.presentation}: {e}") from None
    ns.search = ClassSearch(ns.pres, ns.caps)
    for key in ("w", "w1", "w2"):
        if key in ns:
            setattr(ns, key, word_of(getattr(ns, key)))
            ns.pres.check_word(getattr(ns, key))


def _load_diagram(path: str, pres: Presentation) -> Diagram:
    from .diagrams import parse_diagram

    try:
        return parse_diagram(_read(path), pres)
    except (PresentationError, ValueError) as e:
        raise CliError(f"{path}: {e}") from None


def _parse_graph(text: str) -> RaagGraph:
    """Line format mirroring the presentation files: ``vertices:`` then
    ``edge: u v`` lines, ``#`` comments."""
    from .raag import raag_graph

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
        return raag_graph(vertices, edges)
    except ValueError as e:
        raise CliError(str(e)) from None


def _load_collection(path: str) -> IntervalCollection:
    from .interval import parse_intervals

    try:
        return parse_intervals(_read(path))
    except ValueError as e:
        raise CliError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _emit_json(obj: object) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _emit_unknown(ns: argparse.Namespace, head: Dict[str, object], reason: str) -> int:
    """Report an unknown verdict and why; ``head`` leads the JSON object."""
    if ns.format == "text":
        print("verdict: unknown")
        print(f"reason: {reason}")
    else:
        _emit_json(
            {
                **head,
                "verdict": "unknown",
                "reason": reason,
                "exact": False,
                "caps": ns.caps.as_dict(),
            }
        )
    return EXIT_UNKNOWN


def _exit_for(tb: TriBool) -> int:
    return {"yes": EXIT_OK, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}[tb.value]


def _witness_json(wit: object) -> Dict[str, object]:
    """Generic pathology-witness serialization, fields in the witness's own
    ``__slots__`` order: words formatted, evidence summarized by derivation
    lengths so the report stays readable."""
    out: Dict[str, object] = {"kind": type(wit).__name__}
    for name in wit.__slots__:
        value = getattr(wit, name)
        if name == "evidence":
            out["evidence_lengths"] = [len(d.steps) for d in value]
        elif isinstance(value, tuple) and all(isinstance(x, str) for x in value):
            out[name] = format_word(value)
        elif isinstance(value, (int, str, bool)):
            out[name] = value
    return out


def _move_json(move) -> List[object]:
    return [move.offset, move.relation, "fwd" if move.forward else "bwd"]


# ---------------------------------------------------------------------------
# DOT emitters
# ---------------------------------------------------------------------------


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


def transversality_to_dot(tg: TransversalityGraph) -> str:
    """Crossing graph with arcs pointing along the order that certified
    each crossing."""
    lines = ["digraph transversality {"]
    for i, hid in enumerate(tg.ids):
        lines.append(f'  h{i} [label="{hid}"];')
    for i, j, value in tg.edges:
        a, b = (i, j) if value == "first_prec_second" else (j, i)
        lines.append(f"  h{a} -> h{b};")
    lines.append("}")
    return "\n".join(lines)


def farley_to_dot(ball) -> str:
    lines = ["digraph farley_ball {", "  rankdir=TB;"]
    for i, depth in enumerate(ball.depths):
        lines.append(f'  n{i} [label="{i} ({depth} cells)"];')
    for edge in ball.edges:
        lines.append(f"  n{edge.low} -> n{edge.high};")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_class(ns: argparse.Namespace) -> int:
    enum = ns.search.enum(ns.w)
    if ns.format == "text":
        for m in enum.members:
            print(format_word(m))
        print(f"# {len(enum.members)} members, complete={enum.complete}")
    else:
        _emit_json(
            {
                "word": format_word(ns.w),
                "members": [format_word(m) for m in enum.members],
                "count": len(enum.members),
                "complete": enum.complete,
                "caps": ns.caps.as_dict(),
            }
        )
    return EXIT_OK if enum.complete else EXIT_UNKNOWN


def _cmd_equal(ns: argparse.Namespace) -> int:
    from .diagrams import from_derivation

    tb = ns.search.equal(ns.w1, ns.w2)
    moves: List[List[object]] = []
    cells = None
    if tb.is_yes:
        d = from_derivation(tb.witness, ns.pres)
        moves = [_move_json(m) for m in d.moves]
        cells = d.cells
    if ns.format == "text":
        print(tb.value)
        if tb.is_yes:
            for w in from_derivation(tb.witness, ns.pres).words():
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
    from .diagrams import is_reduced, serialize_diagram

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


def _cmd_reduce(ns: argparse.Namespace) -> int:
    from .diagrams import reduce_diagram

    d = _load_diagram(ns.diagram, ns.pres)
    _diagram_report(reduce_diagram(d), ns)
    return EXIT_OK


def _cmd_compose(ns: argparse.Namespace) -> int:
    from .diagrams import compose, reduce_diagram

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


def _cmd_squier(ns: argparse.Namespace) -> int:
    from .squier import build_ball

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


def _cmd_hyperplanes(ns: argparse.Namespace) -> int:
    from .squier import build_ball

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


def _cmd_relate(ns: argparse.Namespace) -> int:
    from .squier import build_ball, transversality_graph

    ball = build_ball(ns.search, ns.w)
    tg = transversality_graph(ball)
    if ns.format == "dot":
        print(transversality_to_dot(tg))
    elif ns.format == "text":
        for i, j, value in tg.edges:
            arrow = "<" if value == "first_prec_second" else ">"
            print(f"{tg.ids[i]} {arrow} {tg.ids[j]}")
        print(f"# exact={tg.exact} odd_cycle={tg.odd_cycle}")
    else:
        _emit_json(
            {
                "base": format_word(ns.w),
                "hyperplanes": [str(h) for h in tg.ids],
                "edges": [[i, j, value] for i, j, value in tg.edges],
                "exact": tg.exact,
                "odd_cycle": list(tg.odd_cycle) if tg.odd_cycle else None,
                "caps": ns.caps.as_dict(),
            }
        )
    return EXIT_OK if tg.exact else EXIT_UNKNOWN


def _cmd_special(ns: argparse.Namespace) -> int:
    from .squier import specialness_report

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


def _cmd_dim(ns: argparse.Namespace) -> int:
    from .squier import dimension_at_least

    tb = dimension_at_least(ns.search, ns.w, ns.n)
    witness: object = None
    if tb.is_yes and tb.witness is not None:
        witness = {
            "member": format_word(tb.witness.member),
            "factors": [format_word(f) for f in tb.witness.factors()],
        }
    elif tb.is_no:
        witness = tb.witness  # a textual certificate
    if ns.format == "text":
        print(tb.value)
    else:
        _emit_json(
            {
                "base": format_word(ns.w),
                "n": ns.n,
                "verdict": tb.value,
                "witness": witness,
                "caps": ns.caps.as_dict(),
            }
        )
    return _exit_for(tb)


def _cmd_rank_table(ns: argparse.Namespace) -> int:
    from .farley import rank_partition

    partition = rank_partition(ns.search, ns.w)
    rows = [
        {
            "id": str(hid),
            "rank": r.value,
            "exact": r.exact,
            "chain": [str(h) for h in r.chain],
        }
        for hid, r in zip(partition.ball.catalog.ids, partition.ranks)
    ]
    if ns.format == "text":
        for row in rows:
            star = "" if row["exact"] else " (bound)"
            print(f'{row["id"]}  rank {row["rank"]}{star}')
        print(f"# exact={partition.exact}")
    else:
        _emit_json(
            {
                "base": format_word(ns.w),
                "hyperplanes": rows,
                "exact": partition.exact,
                "caps": ns.caps.as_dict(),
            }
        )
    return EXIT_OK if partition.exact else EXIT_UNKNOWN


def _cmd_phi(ns: argparse.Namespace) -> int:
    from .raag import format_raag_word, hyperplane_generators, phi
    from .squier import OutsideCatalogError, build_ball

    d = _load_diagram(ns.diagram, ns.pres)
    ball = build_ball(ns.search, ns.w)
    gens = hyperplane_generators(ball)
    try:
        image = phi(d, gens)
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
                "syllables": [[g, e] for g, e in image.syllables],
                "generators": [
                    {"label": label, "hyperplane": str(hid)}
                    for label, hid in zip(gens.labels, ball.catalog.ids)
                ],
                "exact": gens.exact,
                "caps": ns.caps.as_dict(),
            }
        )
    return EXIT_OK if gens.exact else EXIT_UNKNOWN


def _cmd_farley(ns: argparse.Namespace) -> int:
    from .farley import farley_ball

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


def _cmd_embed_check(ns: argparse.Namespace) -> int:
    from .farley import check_isometric_embedding, farley_ball, rank_partition
    from .squier import OutsideCatalogError

    head = {"base": format_word(ns.w), "radius": ns.radius}
    partition = rank_partition(ns.search, ns.w)
    if not partition.exact:
        return _emit_unknown(
            ns, head, "rank partition is not exact under these caps"
        )
    ball = farley_ball(ns.search, ns.w, ns.radius)
    try:
        report = check_isometric_embedding(ball, partition)
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


def _cmd_propb(ns: argparse.Namespace) -> int:
    from .farley import property_b_scan

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


def _cmd_decompose(ns: argparse.Namespace) -> int:
    from .decomposition import (
        decompose,
        free_rank,
        fundamental_group_presentation,
        gog_to_dot,
        gog_to_json,
    )

    gog = decompose(ns.search, ns.w, depth=ns.depth)
    if ns.format == "dot":
        print(gog_to_dot(gog))
        return EXIT_OK if gog.exact else EXIT_UNKNOWN
    try:
        rank_value: Optional[int] = free_rank(gog)
    except ValueError:
        rank_value = None
    try:
        pi1 = str(fundamental_group_presentation(gog))
    except ValueError:
        pi1 = None
    if ns.format == "text":
        for i, v in enumerate(gog.vertices):
            print(f"vertex {i}: {v.descriptor()}")
        for e in gog.edges:
            print(f"edge: {e.minus_vertex} -- {e.plus_vertex}  ({e.hyperplane})")
        print(f"# free rank: {rank_value}  exact={gog.exact}")
    else:
        blob = gog_to_json(gog)
        blob["free_rank"] = rank_value
        blob["fundamental_group"] = pi1
        blob["caps"] = ns.caps.as_dict()
        _emit_json(blob)
    return EXIT_OK if gog.exact else EXIT_UNKNOWN


def _cmd_euler(ns: argparse.Namespace) -> int:
    from .decomposition import euler_characteristic
    from .squier import build_ball

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


def _cmd_interval(ns: argparse.Namespace) -> int:
    from .interval import (
        base_word,
        collection_to_json,
        disjointness_graph,
        interval_graph,
        is_complement_of_interval,
        presentation_for,
        recognition_to_json,
    )

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
    try:
        rec = is_complement_of_interval(graph)
    except ValueError as e:
        raise CliError(str(e)) from None
    if ns.format == "text":
        print("yes" if rec.verdict else f"no ({rec.obstruction})")
    else:
        _emit_json(recognition_to_json(rec))
    return EXIT_OK if rec.verdict else EXIT_NO


def _cmd_verify_raag(ns: argparse.Namespace) -> int:
    from .interval import (
        ElementBoundError,
        collection_to_json,
        evidence_to_json,
        verify_raag_iso,
    )

    coll = _load_collection(ns.intervals)
    try:
        ev = verify_raag_iso(coll, ns.caps, length=ns.length)
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


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


def _build_parser() -> _Parser:
    def ratio(text: str) -> Optional[Fraction]:
        """A ratio bound; the empty string sets none."""
        from fractions import Fraction

        try:
            return Fraction(text) if text else None
        except ZeroDivisionError:
            raise ValueError(text) from None

    caps = _Parser(add_help=False)
    for name, default in _CAP_DEFAULTS.items():
        caps.add_argument("--" + name.replace("_", "-"), type=int, default=default)
    text = _Parser(add_help=False)
    text.add_argument("--format", choices=("json", "text"), default="json")
    dot = _Parser(add_help=False)
    dot.add_argument("--format", choices=("json", "dot", "text"), default="json")
    pres = _Parser(add_help=False)
    pres.add_argument("-p", "--presentation", required=True)
    word = _Parser(add_help=False)
    word.add_argument("-w", "--word", dest="w", required=True)
    plain, drawn = [caps, text, pres, word], [caps, dot, pres, word]

    parser = _Parser(prog="diagram-groups")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add(name: str, func, parents: List[_Parser]) -> _Parser:
        p = sub.add_parser(name, parents=parents)
        p.set_defaults(func=func)
        return p

    add("class", _cmd_class, plain)
    p = add("equal", _cmd_equal, [caps, text, pres])
    p.add_argument("-w1", required=True)
    p.add_argument("-w2", required=True)
    add("reduce", _cmd_reduce, [dot, pres]).add_argument("-d", "--diagram", required=True)
    p = add("compose", _cmd_compose, [dot, pres])
    p.add_argument("-d1", required=True)
    p.add_argument("-d2", required=True)
    p.add_argument("--reduce", action="store_true")
    add("squier", _cmd_squier, drawn)
    add("hyperplanes", _cmd_hyperplanes, plain)
    add("relate", _cmd_relate, drawn)
    add("special", _cmd_special, plain)
    add("dim", _cmd_dim, plain).add_argument("-n", type=int, required=True)
    add("rank-table", _cmd_rank_table, plain)
    add("phi", _cmd_phi, plain).add_argument("-d", "--diagram", required=True)
    add("farley", _cmd_farley, drawn).add_argument("--radius", type=int, required=True)
    add("embed-check", _cmd_embed_check, plain).add_argument(
        "--radius", type=int, required=True
    )
    p = add("propb", _cmd_propb, plain)
    p.add_argument(
        "-g", "--generator", action="append", required=True, metavar="DIAGRAM"
    )
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--min-ratio", type=ratio, default=None)
    p.add_argument("--max-ratio", type=ratio, default=None)
    add("decompose", _cmd_decompose, drawn).add_argument("--depth", type=int, default=1)
    add("euler", _cmd_euler, plain)
    p = add("interval", _cmd_interval, [text])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-i", "--intervals")
    group.add_argument("-g", "--graph")
    p = add("verify-raag", _cmd_verify_raag, [caps, text])
    p.add_argument("-i", "--intervals", required=True)
    p.add_argument("--length", type=int, default=3)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        if getattr(ns, "func", None) is None:
            raise CliError("no subcommand given (try --help)")
        _load_inputs(ns)
        return ns.func(ns)
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except (CliError, PresentationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


__all__ = [
    "CliError",
    "ball_to_dot",
    "diagram_to_dot",
    "farley_to_dot",
    "main",
    "transversality_to_dot",
]
