"""Command-line frontend: file formats, JSON/DOT emission, scripted runs.

Exit codes report what the mathematics said, not merely whether the process
survived: 0 for a positive or complete answer, 1 for a definite negative,
2 when a search cap was hit first (unknown / truncated), 3 for unusable
input.  A scripted caller can therefore distinguish refutation from
truncation without parsing anything.

All JSON output is deterministic (sorted keys, fixed indentation) and
embeds the caps that bounded the run together with every exactness flag
that qualifies the result.
"""

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .decomposition import (
    decompose,
    euler_characteristic,
    free_rank,
    fundamental_group_presentation,
    gog_to_dot,
    gog_to_json,
)
from .diagrams import (
    Diagram,
    compose,
    from_derivation,
    is_reduced,
    parse_diagram,
    reduce_diagram,
    serialize_diagram,
)
from .farley import (
    OutsideCatalogError,
    check_isometric_embedding,
    farley_ball,
    property_b_scan,
    rank_partition,
)
from .interval import (
    ElementBoundError,
    IntervalCollection,
    base_word,
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
from .raag import format_raag_word, hyperplane_generators, phi
from .rewriting import (
    Presentation,
    PresentationError,
    SearchCaps,
    TriBool,
    enumerate_class,
    equal_mod_p,
    format_word,
    parse_presentation,
    word_of,
)
from .squier import (
    SquierBall,
    TransversalityGraph,
    build_ball,
    dimension_at_least,
    specialness_report,
    transversality_graph,
)
from .raag import RaagGraph, raag_graph

EXIT_OK = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3

_DEFAULT_CAPS = SearchCaps()

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


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand run is parameterized by."""

    presentation: Optional[str]
    word: Optional[str]
    caps: SearchCaps
    radius: int
    depth: int
    format: str

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise CliError("radius must be nonnegative")
        if self.format not in ("json", "dot", "text"):
            raise CliError(f"unknown output format {self.format!r}")


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from None


def _config(ns: argparse.Namespace) -> RunConfig:
    try:
        caps = SearchCaps(
            max_word_len=getattr(ns, "max_word_len", _DEFAULT_CAPS.max_word_len),
            max_class_size=getattr(ns, "max_class_size", _DEFAULT_CAPS.max_class_size),
            max_bfs_depth=getattr(ns, "max_bfs_depth", _DEFAULT_CAPS.max_bfs_depth),
        )
    except ValueError as e:
        raise CliError(str(e)) from None
    return RunConfig(
        presentation=getattr(ns, "presentation", None),
        word=getattr(ns, "word", None),
        caps=caps,
        radius=getattr(ns, "radius", 0),
        depth=getattr(ns, "depth", 1),
        format=getattr(ns, "format", "json"),
    )


def _load_presentation(cfg: RunConfig) -> Presentation:
    assert cfg.presentation is not None
    try:
        return parse_presentation(_read(cfg.presentation))
    except PresentationError as e:
        raise CliError(f"{cfg.presentation}: {e}") from None


def _load_word(cfg: RunConfig, pres: Presentation, text: Optional[str] = None):
    w = word_of(text if text is not None else (cfg.word or ""))
    try:
        pres.check_word(w)
    except PresentationError as e:
        raise CliError(str(e)) from None
    return w


def _load_diagram(path: str, pres: Presentation) -> Diagram:
    try:
        return parse_diagram(_read(path), pres)
    except (PresentationError, ValueError) as e:
        raise CliError(f"{path}: {e}") from None


def _parse_graph(text: str) -> RaagGraph:
    """Line format mirroring the presentation files: ``vertices:`` then
    ``edge: u v`` lines, ``#`` comments."""
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
    try:
        return parse_intervals(_read(path))
    except ValueError as e:
        raise CliError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _caps_json(caps: SearchCaps) -> Dict[str, int]:
    return {
        "max_word_len": caps.max_word_len,
        "max_class_size": caps.max_class_size,
        "max_bfs_depth": caps.max_bfs_depth,
    }


def _emit_json(obj: object) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _exit_for(tb: TriBool) -> int:
    return {"yes": EXIT_OK, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}[tb.value]


def _witness_json(wit: object) -> Dict[str, object]:
    """Generic pathology-witness serialization: words formatted, evidence
    summarized by derivation lengths so the report stays readable."""
    out: Dict[str, object] = {"kind": type(wit).__name__}
    for f in dataclasses.fields(wit):
        value = getattr(wit, f.name)
        if f.name == "evidence":
            out["evidence_lengths"] = [len(d.steps) for d in value]
        elif isinstance(value, tuple) and all(isinstance(x, str) for x in value):
            out[f.name] = format_word(value)
        elif isinstance(value, (int, str, bool)):
            out[f.name] = value
    return out


def _no_dot(cfg: RunConfig, command: str) -> None:
    if cfg.format == "dot":
        raise CliError(f"{command} has no dot rendering")


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
        h = ball.catalog.edge_index[edge]
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
    cfg = _config(ns)
    _no_dot(cfg, "class")
    pres = _load_presentation(cfg)
    w = _load_word(cfg, pres)
    enum = enumerate_class(w, pres, cfg.caps)
    if cfg.format == "text":
        for m in enum.members:
            print(format_word(m))
        print(f"# {len(enum.members)} members, complete={enum.complete}")
    else:
        _emit_json(
            {
                "word": format_word(w),
                "members": [format_word(m) for m in enum.members],
                "count": len(enum.members),
                "complete": enum.complete,
                "caps": _caps_json(cfg.caps),
            }
        )
    return EXIT_OK if enum.complete else EXIT_UNKNOWN


def _cmd_equal(ns: argparse.Namespace) -> int:
    cfg = _config(ns)
    _no_dot(cfg, "equal")
    pres = _load_presentation(cfg)
    w1 = _load_word(cfg, pres, ns.w1)
    w2 = _load_word(cfg, pres, ns.w2)
    tb = equal_mod_p(w1, w2, pres, cfg.caps)
    moves: List[List[object]] = []
    cells = None
    if tb.is_yes:
        d = from_derivation(tb.witness, pres)
        moves = [_move_json(m) for m in d.moves]
        cells = d.cells
    if cfg.format == "text":
        print(tb.value)
        if tb.is_yes:
            for w in from_derivation(tb.witness, pres).words():
                print(format_word(w))
    else:
        _emit_json(
            {
                "w1": format_word(w1),
                "w2": format_word(w2),
                "verdict": tb.value,
                "moves": moves,
                "cells": cells,
                "caps": _caps_json(cfg.caps),
            }
        )
    return _exit_for(tb)


def _diagram_report(d: Diagram, cfg: RunConfig) -> None:
    if cfg.format == "dot":
        print(diagram_to_dot(d))
    elif cfg.format == "text":
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
    cfg = _config(ns)
    pres = _load_presentation(cfg)
    d = _load_diagram(ns.diagram, pres)
    _diagram_report(reduce_diagram(d), cfg)
    return EXIT_OK


def _cmd_compose(ns: argparse.Namespace) -> int:
    cfg = _config(ns)
    pres = _load_presentation(cfg)
    d1 = _load_diagram(ns.d1, pres)
    d2 = _load_diagram(ns.d2, pres)
    try:
        d = compose(d1, d2)
    except ValueError as e:
        raise CliError(str(e)) from None
    if ns.reduce:
        d = reduce_diagram(d)
    _diagram_report(d, cfg)
    return EXIT_OK


def _cmd_squier(ns: argparse.Namespace) -> int:
    cfg = _config(ns)
    pres = _load_presentation(cfg)
    w = _load_word(cfg, pres)
    ball = build_ball(pres, w, cfg.caps)
    if cfg.format == "dot":
        print(ball_to_dot(ball))
    elif cfg.format == "text":
        print(f"vertices: {len(ball.vertices)}")
        print(f"edges: {len(ball.edges)}")
        for dim, cubes in ball.cubes:
            print(f"cubes[{dim}]: {len(cubes)}")
        print(f"complete: {ball.complete}")
    else:
        _emit_json(
            {
                "base": format_word(w),
                "vertices": [format_word(v) for v in ball.vertices],
                "edge_count": len(ball.edges),
                "cube_counts": {str(dim): len(cs) for dim, cs in ball.cubes},
                "complete": ball.complete,
                "caps": _caps_json(cfg.caps),
            }
        )
    return EXIT_OK if ball.complete else EXIT_UNKNOWN


def _cmd_hyperplanes(ns: argparse.Namespace) -> int:
    cfg = _config(ns)
    _no_dot(cfg, "hyperplanes")
    pres = _load_presentation(cfg)
    w = _load_word(cfg, pres)
    ball = build_ball(pres, w, cfg.caps)
    catalog = ball.catalog
    if cfg.format == "text":
        for hid, edges in catalog.edges_of:
            print(f"{hid}  ({len(edges)} edges)")
        print(f"# exact={catalog.exact}")
    else:
        _emit_json(
            {
                "base": format_word(w),
                "count": len(catalog.ids),
                "hyperplanes": [
                    {"id": str(hid), "edges": len(edges)}
                    for hid, edges in catalog.edges_of
                ],
                "exact": catalog.exact,
                "complete": ball.complete,
                "caps": _caps_json(cfg.caps),
            }
        )
    return EXIT_OK if catalog.exact else EXIT_UNKNOWN


def _cmd_relate(ns: argparse.Namespace) -> int:
    cfg = _config(ns)
    pres = _load_presentation(cfg)
    w = _load_word(cfg, pres)
    ball = build_ball(pres, w, cfg.caps)
    tg = transversality_graph(ball)
    if cfg.format == "dot":
        print(transversality_to_dot(tg))
    elif cfg.format == "text":
        for i, j, value in tg.edges:
            arrow = "<" if value == "first_prec_second" else ">"
            print(f"{tg.ids[i]} {arrow} {tg.ids[j]}")
        print(f"# exact={tg.exact} odd_cycle={tg.odd_cycle}")
    else:
        _emit_json(
            {
                "base": format_word(w),
                "hyperplanes": [str(h) for h in tg.ids],
                "edges": [[i, j, value] for i, j, value in tg.edges],
                "exact": tg.exact,
                "odd_cycle": list(tg.odd_cycle) if tg.odd_cycle else None,
                "caps": _caps_json(cfg.caps),
            }
        )
    return EXIT_OK if tg.exact else EXIT_UNKNOWN


def _cmd_special(ns: argparse.Namespace) -> int:
    cfg = _config(ns)
    _no_dot(cfg, "special")
    pres = _load_presentation(cfg)
    w = _load_word(cfg, pres)
    report = specialness_report(pres, w, cfg.caps)
    if cfg.format == "text":
        print(f"clean: {report.clean.value}")
        print(f"special: {report.special.value}")
        for note in report.notes:
            print(f"# {note}")
    else:
        _emit_json(
            {
                "base": format_word(w),
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
                "caps": _caps_json(cfg.caps),
            }
        )
    return _exit_for(report.special)


def _cmd_dim(ns: argparse.Namespace) -> int:
    cfg = _config(ns)
    _no_dot(cfg, "dim")
    pres = _load_presentation(cfg)
    w = _load_word(cfg, pres)
    tb = dimension_at_least(pres, w, ns.n, cfg.caps)
    witness: object = None
    if tb.is_yes and tb.witness is not None:
        witness = {
            "member": format_word(tb.witness.member),
            "factors": [format_word(f) for f in tb.witness.factors()],
        }
    elif tb.is_no:
        witness = tb.witness  # a textual certificate
    if cfg.format == "text":
        print(tb.value)
    else:
        _emit_json(
            {
                "base": format_word(w),
                "n": ns.n,
                "verdict": tb.value,
                "witness": witness,
                "caps": _caps_json(cfg.caps),
            }
        )
    return _exit_for(tb)


def _cmd_rank_table(ns: argparse.Namespace) -> int:
    cfg = _config(ns)
    _no_dot(cfg, "rank-table")
    pres = _load_presentation(cfg)
    w = _load_word(cfg, pres)
    partition = rank_partition(pres, w, cfg.caps)
    rows = [
        {
            "id": str(hid),
            "rank": r.value,
            "exact": r.exact,
            "chain": [str(h) for h in r.chain],
        }
        for hid, r in zip(partition.ball.catalog.ids, partition.ranks)
    ]
    if cfg.format == "text":
        for row in rows:
            star = "" if row["exact"] else " (bound)"
            print(f'{row["id"]}  rank {row["rank"]}{star}')
        print(f"# exact={partition.exact}")
    else:
        _emit_json(
            {
                "base": format_word(w),
                "hyperplanes": rows,
                "exact": partition.exact,
                "caps": _caps_json(cfg.caps),
            }
        )
    return EXIT_OK if partition.exact else EXIT_UNKNOWN


def _cmd_phi(ns: argparse.Namespace) -> int:
    cfg = _config(ns)
    _no_dot(cfg, "phi")
    pres = _load_presentation(cfg)
    w = _load_word(cfg, pres)
    d = _load_diagram(ns.diagram, pres)
    ball = build_ball(pres, w, cfg.caps)
    gens = hyperplane_generators(ball)
    try:
        image = phi(d, pres, w, cfg.caps, gens)
    except ValueError as e:
        raise CliError(str(e)) from None
    if cfg.format == "text":
        print(format_raag_word(image))
    else:
        _emit_json(
            {
                "base": format_word(w),
                "word": format_raag_word(image),
                "syllables": [[g, e] for g, e in image.syllables],
                "generators": [
                    {"label": label, "hyperplane": str(hid)}
                    for label, hid in zip(gens.labels, gens.catalog.ids)
                ],
                "exact": gens.exact,
                "caps": _caps_json(cfg.caps),
            }
        )
    return EXIT_OK if gens.exact else EXIT_UNKNOWN


def _cmd_farley(ns: argparse.Namespace) -> int:
    cfg = _config(ns)
    pres = _load_presentation(cfg)
    w = _load_word(cfg, pres)
    ball = farley_ball(pres, w, cfg.radius)
    if cfg.format == "dot":
        print(farley_to_dot(ball))
        return EXIT_OK
    sizes = [0] * (cfg.radius + 1)
    for depth in ball.depths:
        sizes[depth] += 1
    if cfg.format == "text":
        print(f"vertices: {len(ball.keys)}")
        print(f"edges: {len(ball.edges)}")
        print(f"sizes by depth: {sizes}")
    else:
        _emit_json(
            {
                "base": format_word(w),
                "radius": cfg.radius,
                "vertex_count": len(ball.keys),
                "edge_count": len(ball.edges),
                "sizes_by_depth": sizes,
                "cube_counts": {str(dim): len(cs) for dim, cs in ball.cubes},
            }
        )
    return EXIT_OK


def _cmd_embed_check(ns: argparse.Namespace) -> int:
    cfg = _config(ns)
    _no_dot(cfg, "embed-check")
    pres = _load_presentation(cfg)
    w = _load_word(cfg, pres)

    def unknown(reason: str) -> int:
        _emit_json(
            {
                "base": format_word(w),
                "radius": cfg.radius,
                "verdict": "unknown",
                "reason": reason,
                "exact": False,
                "caps": _caps_json(cfg.caps),
            }
        )
        return EXIT_UNKNOWN

    partition = rank_partition(pres, w, cfg.caps)
    if not partition.exact:
        return unknown("rank partition is not exact under these caps")
    ball = farley_ball(pres, w, cfg.radius)
    try:
        report = check_isometric_embedding(ball, partition)
    except OutsideCatalogError as e:
        return unknown(
            f"the Farley ball crosses {e.hyperplane}, which the capped search"
            " did not find in the hyperplane catalog"
        )
    if cfg.format == "text":
        print(f"pairs checked: {report.pairs_checked}")
        print(f"failures: {len(report.failures)}")
        print(f"ok: {report.ok}")
    else:
        _emit_json(
            {
                "base": format_word(w),
                "radius": report.radius,
                "ranks": list(report.ranks),
                "quotient_nodes": list(report.quotient_nodes),
                "pairs_checked": report.pairs_checked,
                "failures": [list(f) for f in report.failures],
                "ok": report.ok,
                "exact": report.exact,
                "caps": _caps_json(cfg.caps),
            }
        )
    if not report.ok:
        return EXIT_NO
    return EXIT_OK if report.exact else EXIT_UNKNOWN


def _cmd_propb(ns: argparse.Namespace) -> int:
    cfg = _config(ns)
    _no_dot(cfg, "propb")
    pres = _load_presentation(cfg)
    w = _load_word(cfg, pres)
    gens = [_load_diagram(path, pres) for path in ns.generator]
    try:
        scan = property_b_scan(pres, w, gens, ns.length)
    except ValueError as e:
        raise CliError(str(e)) from None
    lo = Fraction(ns.min_ratio) if ns.min_ratio else None
    hi = Fraction(ns.max_ratio) if ns.max_ratio else None
    violated = (
        lo is not None and scan.min_ratio is not None and scan.min_ratio < lo
    ) or (hi is not None and scan.max_ratio is not None and scan.max_ratio > hi)
    if cfg.format == "text":
        print(f"sizes: {list(scan.sizes)}")
        print(f"min ratio: {scan.min_ratio}")
        print(f"max ratio: {scan.max_ratio}")
    else:
        _emit_json(
            {
                "base": format_word(w),
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
    cfg = _config(ns)
    pres = _load_presentation(cfg)
    w = _load_word(cfg, pres)
    gog = decompose(pres, w, cfg.caps, depth=cfg.depth)
    if cfg.format == "dot":
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
    if cfg.format == "text":
        for i, v in enumerate(gog.vertices):
            print(f"vertex {i}: {v.descriptor()}")
        for e in gog.edges:
            print(f"edge: {e.minus_vertex} -- {e.plus_vertex}  ({e.hyperplane})")
        print(f"# free rank: {rank_value}  exact={gog.exact}")
    else:
        blob = gog_to_json(gog)
        blob["free_rank"] = rank_value
        blob["fundamental_group"] = pi1
        blob["caps"] = _caps_json(cfg.caps)
        _emit_json(blob)
    return EXIT_OK if gog.exact else EXIT_UNKNOWN


def _cmd_euler(ns: argparse.Namespace) -> int:
    cfg = _config(ns)
    _no_dot(cfg, "euler")
    pres = _load_presentation(cfg)
    w = _load_word(cfg, pres)
    ball = build_ball(pres, w, cfg.caps)
    if not ball.complete:
        if cfg.format == "text":
            print("complete: False")
            print("chi: unknown")
        else:
            _emit_json(
                {
                    "base": format_word(w),
                    "complete": False,
                    "chi": None,
                    "caps": _caps_json(cfg.caps),
                }
            )
        return EXIT_UNKNOWN
    chi = euler_characteristic(ball)
    if cfg.format == "text":
        print(f"chi: {chi}")
        print(f"1 - chi: {1 - chi}")
    else:
        _emit_json(
            {
                "base": format_word(w),
                "complete": True,
                "chi": chi,
                "one_minus_chi": 1 - chi,
                "cube_counts": {str(dim): len(cs) for dim, cs in ball.cubes},
                "caps": _caps_json(cfg.caps),
            }
        )
    return EXIT_OK


def _cmd_interval(ns: argparse.Namespace) -> int:
    cfg = _config(ns)
    _no_dot(cfg, "interval")
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
        if cfg.format == "text":
            print(str(pres))
        else:
            _emit_json(blob)
        return EXIT_OK
    graph = _parse_graph(_read(ns.graph))
    try:
        rec = is_complement_of_interval(graph)
    except ValueError as e:
        raise CliError(str(e)) from None
    if cfg.format == "text":
        print("yes" if rec.verdict else f"no ({rec.obstruction})")
    else:
        _emit_json(recognition_to_json(rec))
    return EXIT_OK if rec.verdict else EXIT_NO


def _cmd_verify_raag(ns: argparse.Namespace) -> int:
    cfg = _config(ns)
    _no_dot(cfg, "verify-raag")
    coll = _load_collection(ns.intervals)
    try:
        ev = verify_raag_iso(coll, cfg.caps, length=ns.length)
    except ElementBoundError as e:
        if cfg.format == "text":
            print(f"ok: unknown ({e})")
        else:
            _emit_json(
                {
                    "collection": collection_to_json(coll),
                    "length": ns.length,
                    "verdict": "unknown",
                    "reason": str(e),
                    "exact": False,
                    "caps": _caps_json(cfg.caps),
                }
            )
        return EXIT_UNKNOWN
    if cfg.format == "text":
        print(f"commutation ok: {ev.commutation_ok}")
        print(f"relators ok: {ev.relators_ok} ({ev.relators_checked} checked)")
        print(f"balls: diagram {list(ev.diagram_balls)} raag {list(ev.raag_balls)}")
        print(f"ok: {ev.ok}")
    else:
        blob = evidence_to_json(ev)
        blob["caps"] = _caps_json(cfg.caps)
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
    caps_parent = _Parser(add_help=False)
    caps_parent.add_argument(
        "--max-word-len", type=int, default=_DEFAULT_CAPS.max_word_len
    )
    caps_parent.add_argument(
        "--max-class-size", type=int, default=_DEFAULT_CAPS.max_class_size
    )
    caps_parent.add_argument(
        "--max-bfs-depth", type=int, default=_DEFAULT_CAPS.max_bfs_depth
    )

    fmt_parent = _Parser(add_help=False)
    fmt_parent.add_argument(
        "--format", choices=("json", "dot", "text"), default="json"
    )

    pres_parent = _Parser(add_help=False)
    pres_parent.add_argument("-p", "--presentation", required=True)

    word_parent = _Parser(add_help=False)
    word_parent.add_argument("-w", "--word", required=True)

    common = [caps_parent, fmt_parent, pres_parent, word_parent]

    parser = _Parser(prog="diagram-groups")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("class", parents=common)
    p.set_defaults(func=_cmd_class)

    p = sub.add_parser("equal", parents=[caps_parent, fmt_parent, pres_parent])
    p.add_argument("-w1", required=True)
    p.add_argument("-w2", required=True)
    p.set_defaults(func=_cmd_equal)

    p = sub.add_parser("reduce", parents=[caps_parent, fmt_parent, pres_parent])
    p.add_argument("-d", "--diagram", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("compose", parents=[caps_parent, fmt_parent, pres_parent])
    p.add_argument("-d1", required=True)
    p.add_argument("-d2", required=True)
    p.add_argument("--reduce", action="store_true")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("squier", parents=common)
    p.set_defaults(func=_cmd_squier)

    p = sub.add_parser("hyperplanes", parents=common)
    p.set_defaults(func=_cmd_hyperplanes)

    p = sub.add_parser("relate", parents=common)
    p.set_defaults(func=_cmd_relate)

    p = sub.add_parser("special", parents=common)
    p.set_defaults(func=_cmd_special)

    p = sub.add_parser("dim", parents=common)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("rank-table", parents=common)
    p.set_defaults(func=_cmd_rank_table)

    p = sub.add_parser("phi", parents=common)
    p.add_argument("-d", "--diagram", required=True)
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("farley", parents=common)
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(func=_cmd_farley)

    p = sub.add_parser("embed-check", parents=common)
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(func=_cmd_embed_check)

    p = sub.add_parser("propb", parents=common)
    p.add_argument(
        "-g", "--generator", action="append", required=True, metavar="DIAGRAM"
    )
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--min-ratio", default=None)
    p.add_argument("--max-ratio", default=None)
    p.set_defaults(func=_cmd_propb)

    p = sub.add_parser("decompose", parents=common)
    p.add_argument("--depth", type=int, default=1)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("euler", parents=common)
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("interval", parents=[fmt_parent])
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-i", "--intervals")
    group.add_argument("-g", "--graph")
    p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("verify-raag", parents=[caps_parent, fmt_parent])
    p.add_argument("-i", "--intervals", required=True)
    p.add_argument("--length", type=int, default=3)
    p.set_defaults(func=_cmd_verify_raag)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except SystemExit as e:  # --help
        return int(e.code or 0)
    if getattr(ns, "func", None) is None:
        print("error: no subcommand given (try --help)", file=sys.stderr)
        return EXIT_INPUT
    try:
        return ns.func(ns)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (PresentationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


__all__ = [
    "CliError",
    "RunConfig",
    "ball_to_dot",
    "diagram_to_dot",
    "farley_to_dot",
    "main",
    "transversality_to_dot",
]
