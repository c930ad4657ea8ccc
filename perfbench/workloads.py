"""The benchmark's workloads: CLI job lists and the checks on their output.

A workload is a list of :class:`Job`; each job is one ``python -m
diagram_groups`` call. After a round the workload's ``check`` sees every
job's exit code and output and raises :class:`CheckError` on a wrong answer.
Checks use :mod:`oracle` (which does not import the package) or a property
the method must have, never a stored copy of earlier output.
"""

import json
import random
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import oracle
from oracle import word

INPUTS = Path(__file__).resolve().parent / "inputs"

# the caps tests/conftest.py pairs with each presentation
TIGHT = ["--max-word-len", "8", "--max-class-size", "120", "--max-bfs-depth", "24"]
PADPAIR_CAPS = ["--max-word-len", "10", "--max-class-size", "500", "--max-bfs-depth", "48"]


class CheckError(Exception):
    """A job's output contradicts the oracle or a property of the method."""


@dataclass
class Job:
    name: str
    args: List[str]
    # a job that fails every time because of a known fault; see README.md
    known_fault: Optional[Callable[["Result"], bool]] = None


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    _json: object = field(default=None, repr=False)

    @property
    def json(self):
        if self._json is None:
            try:
                self._json = json.loads(self.stdout)
            except ValueError:
                raise CheckError(f"exit {self.code}, output is not JSON: {self.stderr[-300:]}")
        return self._json


def _pres(name: str) -> str:
    return str(INPUTS / f"{name}.pres")


@lru_cache(maxsize=None)
def relations(name: str):
    return oracle.parse_presentation((INPUTS / f"{name}.pres").read_text())


@lru_cache(maxsize=None)
def class_complex(pres: str, base: str) -> oracle.ClassComplex:
    return oracle.ClassComplex(word(base), relations(pres))


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def parse_hid(text: str) -> Tuple[Tuple[str, ...], int, Tuple[str, ...]]:
    m = re.fullmatch(r"\[(.*) \| r(\d+) \| (.*)\]", text)
    expect(m is not None, f"unparsable hyperplane id {text!r}")
    return word(m.group(1)), int(m.group(2)), word(m.group(3))


def check_exact_exit(job: str, res: Result) -> None:
    """Exit 2 exactly when the output says it is not exact, else exit 0."""
    expect(res.code == (0 if res.json["exact"] else 2), f"{job}: exit {res.code}, exact={res.json['exact']}")


# ---------------------------------------------------------------------------
# order: rank-table / relate
# ---------------------------------------------------------------------------


# (command, presentation, base word) on complete classes. No job takes more
# than about 4 s, so a 30 s run holds several rounds (see README.md, Sizes).
ORDER_COMPLETE = [
    ("rank-table", "comm", "a a a b c c"), ("relate", "comm", "a b c a b c"),
    ("rank-table", "comm", "a b c a b"), ("relate", "comm", "a b c a b"),
    ("rank-table", "cyc3", "a b c a"), ("relate", "cyc3", "a b c a"),
]


def order_jobs() -> List[Job]:
    jobs = [Job(f"{cmd}:{pres}:{base}", [cmd, "-p", _pres(pres), "-w", base])
            for cmd, pres, base in ORDER_COMPLETE]
    jobs.append(Job("rank-table:padpair:a1 b1",
                    ["rank-table", "-p", _pres("padpair"), "-w", "a1 b1"] + PADPAIR_CAPS))
    for n in (2, 3):
        jobs.append(Job(f"dim:padpair:a1 b1:{n}",
                        ["dim", "-p", _pres("padpair"), "-w", "a1 b1", "-n", str(n)] + PADPAIR_CAPS))
    return jobs


def check_rank_table(job: str, res: Result, cx: oracle.ClassComplex) -> None:
    check_exact_exit(job, res)
    rows = res.json["hyperplanes"]
    expect(res.json["exact"], f"{job}: not exact on a complete class")
    expect(len(rows) == len(cx.hyperplanes),
           f"{job}: {len(rows)} hyperplanes, oracle has {len(cx.hyperplanes)}")
    seen = set()
    for row in rows:
        h = cx.hyperplane_of(*parse_hid(row["id"]))
        seen.add(h)
        expect(row["rank"] == cx.rank(h), f"{job}: rank {row['rank']} of {row['id']}, oracle {cx.rank(h)}")
        expect(len(row["chain"]) == row["rank"], f"{job}: chain of {row['id']} has wrong length")
        chain = [cx.hyperplane_of(*parse_hid(c)) for c in row["chain"]] + [h]
        for lo, hi in zip(chain, chain[1:]):
            expect(lo in cx.below[hi], f"{job}: chain of {row['id']} is not a crossing chain")
    expect(len(seen) == len(rows), f"{job}: two ids name one hyperplane")


def check_relate(job: str, res: Result, cx: oracle.ClassComplex) -> None:
    check_exact_exit(job, res)
    ids = [cx.hyperplane_of(*parse_hid(h)) for h in res.json["hyperplanes"]]
    expect(len(set(ids)) == len(ids) == len(cx.hyperplanes), f"{job}: hyperplanes differ from the oracle's")
    crossing = set()
    for i, j, value in res.json["edges"]:
        lo, hi = (ids[i], ids[j]) if value == "first_prec_second" else (ids[j], ids[i])
        expect(value in ("first_prec_second", "second_prec_first"), f"{job}: edge value {value}")
        expect(lo in cx.below[hi], f"{job}: {value} between {i} and {j} has no square")
        crossing.add(frozenset((i, j)))
    pairs = sum(len(b) for b in cx.below.values())
    expect(len(crossing) == pairs, f"{job}: {len(crossing)} crossing pairs, oracle has {pairs}")


class Equality:
    """Memoized bounded equality modulo one presentation."""

    def __init__(self, rels, max_len: int, max_size: int) -> None:
        self.rels, self.max_len, self.max_size = rels, max_len, max_size
        self.memo: Dict[tuple, Optional[bool]] = {}

    def __call__(self, u, v) -> Optional[bool]:
        key = (u, v) if u <= v else (v, u)
        if key not in self.memo:
            self.memo[key] = oracle.equal(u, v, self.rels, self.max_len, self.max_size)
        return self.memo[key]


def crossing_square(lo, hi, base, rels, eq: Equality) -> bool:
    """Search the class of ``base`` (words up to eq.max_len letters) for a
    square whose left edge is dual to ``lo`` and right edge dual to ``hi``."""
    members, _ = oracle.bfs_class(base, rels, max_len=eq.max_len, max_size=eq.max_size)
    for v in members:
        occ = sorted(oracle.occurrences(v, rels))
        for (s1, e1, r1, _), (s2, e2, r2, _) in combinations(occ, 2):
            if e1 > s2 or r1 != lo[1] or r2 != hi[1]:
                continue
            if (eq(v[:s1], lo[0]) and eq(v[e1:], lo[2])
                    and eq(v[:s2], hi[0]) and eq(v[e2:], hi[2])):
                return True
    return False


def check_dim(job: str, res: Result, pres: str, base: str) -> None:
    blob = res.json
    expect(res.code == {"yes": 0, "no": 1, "unknown": 2}[blob["verdict"]], f"{job}: exit {res.code}")
    if blob["verdict"] == "yes":
        rels = relations(pres)
        member = word(blob["witness"]["member"])
        factors = [word(f) for f in blob["witness"]["factors"]]
        expect(len(factors) == blob["n"], f"{job}: {len(factors)} factors for n={blob['n']}")
        expect(sum(factors, ()) == member, f"{job}: factors do not spell the member")
        expect(all(oracle.occurrences(f, rels) for f in factors), f"{job}: a factor has a trivial class")
        expect(oracle.equal(member, word(base), rels, max_len=len(member) + 6) is True,
               f"{job}: member not in the class of the base word")


def check_order(results: Dict[str, Result]) -> None:
    checks = {"rank-table": check_rank_table, "relate": check_relate}
    for cmd, pres, base in ORDER_COMPLETE:
        job = f"{cmd}:{pres}:{base}"
        checks[cmd](job, results[job], class_complex(pres, base))
    dims = {n: results[f"dim:padpair:a1 b1:{n}"] for n in (2, 3)}
    for n, res in dims.items():
        check_dim(f"dim:padpair:{n}", res, "padpair", "a1 b1")
    top = max([1] + [n for n, res in dims.items() if res.json["verdict"] == "yes"])
    job, res = "rank-table:padpair:a1 b1", results["rank-table:padpair:a1 b1"]
    check_exact_exit(job, res)
    rels = relations("padpair")
    eq = Equality(rels, max_len=10, max_size=5000)
    for row in res.json["hyperplanes"]:
        expect(row["rank"] + 1 <= top, f"{job}: rank {row['rank']} of {row['id']} exceeds dimension {top}")
        chain = [parse_hid(c) for c in row["chain"]] + [parse_hid(row["id"])]
        for lo, hi in zip(chain, chain[1:]):
            expect(crossing_square(lo, hi, word("a1 b1"), rels, eq),
                   f"{job}: no square puts {lo} left of {hi}")


# ---------------------------------------------------------------------------
# farley: farley / embed-check
# ---------------------------------------------------------------------------


FARLEY_BALLS = [("padpair", "a1 b1", 8), ("dirty", "a b", 9)]


def farley_jobs() -> List[Job]:
    jobs = [Job(f"farley:{p}:{b}:{r}", ["farley", "-p", _pres(p), "-w", b, "--radius", str(r)])
            for p, b, r in FARLEY_BALLS]
    jobs.append(Job("embed-check:padpair:a1 b1:7",
                    ["embed-check", "-p", _pres("padpair"), "-w", "a1 b1", "--radius", "7"] + PADPAIR_CAPS))
    return jobs


def check_farley(results: Dict[str, Result]) -> None:
    for pres, base, radius in FARLEY_BALLS:
        job = f"farley:{pres}:{base}:{radius}"
        res = results[job]
        expect(res.code == 0, f"{job}: exit {res.code}")
        blob = res.json
        sizes = blob["sizes_by_depth"]
        expect(len(sizes) == radius + 1 and sizes[0] == 1, f"{job}: sizes_by_depth {sizes}")
        expect(sum(sizes) == blob["vertex_count"], f"{job}: sizes do not add up to the vertex count")
        # level 1 holds one single-cell diagram per rewrite of the base word
        atoms = len(oracle.occurrences(word(base), relations(pres)))
        expect(sizes[1] == atoms, f"{job}: {sizes[1]} diagrams at depth 1, {atoms} rewrites of the base")
        # a combinatorial ball of a CAT(0) cube complex is contractible
        chi = blob["vertex_count"] - blob["edge_count"] + sum(
            (-1) ** int(k) * c for k, c in blob["cube_counts"].items())
        expect(chi == 1, f"{job}: Euler characteristic {chi}, a ball has 1")
    job = "embed-check:padpair:a1 b1:7"
    res = results[job]
    check_exact_exit(job, res)
    expect(res.json["ok"] and res.json["failures"] == [] and res.json["pairs_checked"] > 0,
           f"{job}: embedding into the product of trees fails")


# ---------------------------------------------------------------------------
# search: special / decompose / dim
# ---------------------------------------------------------------------------


# presentation, base word, caps, expected (clean, special); None = not documented
SPECIAL = [
    ("dirty", "a b", TIGHT, ("no", "no")),
    ("grow", "x", TIGHT, None),
    ("interosc", "c u v w d", TIGHT, ("yes", "no")),
    ("osc_empty", "x k k k y", TIGHT, (None, "no")),
    ("osc_plain", "x k h k h k y", TIGHT, (None, "no")),
    ("padpair", "a1 b1", PADPAIR_CAPS, ("yes", "yes")),
    ("comm", "a b c", [], ("yes", "yes")),
]
DECOMPOSE = [("comm", "a b b c c", []), ("comm", "a a b b c c c", []),
             ("cyc3", "a b a b", []), ("halfpad", "a b", TIGHT)]


def search_jobs() -> List[Job]:
    jobs = [Job(f"special:{p}:{b}", ["special", "-p", _pres(p), "-w", b] + caps)
            for p, b, caps, _ in SPECIAL]
    jobs += [Job(f"decompose:{p}:{b}", ["decompose", "-p", _pres(p), "-w", b] + caps)
             for p, b, caps in DECOMPOSE]
    jobs.append(Job("dim:grow:x:4", ["dim", "-p", _pres("grow"), "-w", "x", "-n", "4"] + TIGHT))
    return jobs


def _side_pair(rels, u, v) -> bool:
    return (u, v) in rels or (v, u) in rels


def check_witness(job: str, wit: dict, base, rels) -> None:
    """Re-derive every equation a pathology witness stands on."""
    w = {k: word(v) for k, v in wit.items() if isinstance(v, str) and k != "kind"}
    sides = {s for rel in rels for s in rel}
    if wit["kind"] == "SelfIntersection":
        a, p, q, b, c = w["a"], w["p"], w["q"], w["b"], w["c"]
        expect(_side_pair(rels, p, q), f"{job}: {p} -> {q} is no relation")
        eqs = [(a, a + p + b), (c, b + p + c), (a + p + c, base)]
    elif wit["kind"] == "SelfOsculation":
        k, h, n = w["k"], w["h"], wit["n"]
        side = (k + h) * n + k
        expect(_side_pair(rels, side, w["p"]), f"{job}: {side} -> {w['p']} is no relation")
        eqs = [(w["a"], w["a"] + k + h), (w["b"], h + k + w["b"]), (w["a"] + side + w["b"], base)]
    elif wit["kind"] == "InterOsculation":
        a, u, v, x, b, xi = w["a"], w["u"], w["v"], w["w"], w["b"], w["xi"]
        expect(w["p"] == u + v and w["q"] == v + x and {u + v, v + x} <= sides,
               f"{job}: sides {w['p']} / {w['q']} do not overlap in {v}")
        eqs = [(a + u, a + u + v + xi), (x + b, xi + v + x + b), (a + u + v + x + b, base)]
    else:
        raise CheckError(f"{job}: unknown witness kind {wit['kind']}")
    for lhs, rhs in eqs:
        verdict = oracle.equal(lhs, rhs, rels, max_len=max(len(lhs), len(rhs)) + 6, max_size=20_000)
        expect(verdict is True, f"{job}: cannot derive {' '.join(lhs)} = {' '.join(rhs)}: {verdict}")


def check_search(results: Dict[str, Result]) -> None:
    for pres, base, _caps, expected in SPECIAL:
        job, res = f"special:{pres}:{base}", results[f"special:{pres}:{base}"]
        blob = res.json
        expect(res.code == {"yes": 0, "no": 1, "unknown": 2}[blob["special"]], f"{job}: exit {res.code}")
        if expected is not None:
            clean, special = expected
            expect(clean is None or blob["clean"] == clean, f"{job}: clean={blob['clean']}, documented {clean}")
            expect(blob["special"] == special, f"{job}: special={blob['special']}, documented {special}")
        if pres.startswith("osc_"):
            expect(blob["self_osculations"], f"{job}: no self-osculation reported")
        if pres == "interosc":
            expect(blob["inter_osculations"], f"{job}: no inter-osculation reported")
        expect((blob["clean"] == "no") == bool(blob["self_intersections"]),
               f"{job}: clean={blob['clean']} with {len(blob['self_intersections'])} self-intersections")
        rels = relations(pres)
        for key in ("self_intersections", "self_osculations", "inter_osculations"):
            for wit in blob[key]:
                check_witness(job, wit, word(base), rels)
    for pres, base, _caps in DECOMPOSE:
        job, res = f"decompose:{pres}:{base}", results[f"decompose:{pres}:{base}"]
        check_exact_exit(job, res)
        if res.json["free_rank"] is not None:
            chi = class_complex(pres, base).euler_characteristic()
            expect(res.json["free_rank"] == 1 - chi,
                   f"{job}: free rank {res.json['free_rank']}, oracle 1 - chi = {1 - chi}")
    check_dim("dim:grow:x:4", results["dim:grow:x:4"], "grow", "x")
    expect(results["dim:grow:x:4"].json["verdict"] == "yes", "dim:grow:x:4: GROW has cubes of every dimension")


# ---------------------------------------------------------------------------
# raag: verify-raag on seeded interval collections
# ---------------------------------------------------------------------------


# (ground size, template intervals, --length): each seeded collection has an
# interval graph isomorphic to its template's, so the ball sizes, and with
# them the work, are the same for every seed while the intervals differ
RAAG_SHAPES = [
    (5, [(1, 2), (2, 3), (3, 4), (4, 5)], 4),
    (6, [(1, 2), (3, 4), (5, 6), (2, 3), (4, 5)], 4),
    (6, [(1, 1), (2, 3), (3, 5), (6, 6), (1, 4), (5, 6)], 4),
]
# five intervals whose length-4 ball (2633 elements) passes the default
# element bound of 1000; see README.md for the fault this job exposes
FAULT_COLLECTION = INPUTS / "five.int"


def _graph_form(spans: Sequence[Tuple[int, int]]) -> Tuple[int, ...]:
    """Isomorphism-invariant form of the interval graph: the least adjacency
    matrix over all orderings of the intervals."""
    k = len(spans)
    meets = [[max(a[0], b[0]) <= min(a[1], b[1]) for b in spans] for a in spans]
    return min(tuple(meets[p[i]][p[j]] for i in range(k) for j in range(k))
               for p in permutations(range(k)))


def seeded_collection(rng: random.Random, ground: int, template) -> List[Tuple[str, int, int]]:
    target = _graph_form(template)
    while True:
        spans = []
        for _ in template:
            lo = rng.randint(1, ground)
            spans.append((lo, rng.randint(lo, ground)))
        if len(set(spans)) == len(spans) and _graph_form(spans) == target:
            names = rng.sample(range(1, 100), len(spans))
            return [(f"I{n}", lo, hi) for n, (lo, hi) in zip(names, spans)]


def collection_text(ground: int, intervals) -> str:
    return f"n={ground} / " + " / ".join(f"{n}: {lo} {hi}" for n, lo, hi in intervals) + "\n"


def parse_collection(text: str):
    chunks = [c.strip() for c in text.replace("\n", "/").split("/") if c.strip()]
    ground = int(chunks[0].split("=")[1])
    out = []
    for c in chunks[1:]:
        name, _, rest = c.partition(":")
        lo, hi = rest.split()
        out.append((name.strip(), int(lo), int(hi)))
    return ground, out


def _fault_passes(res: Result) -> bool:
    """The fault is mended when the call ends in exit 2 with JSON naming the
    element bound, or in exit 0 with correct ball sizes."""
    try:
        blob = res.json
    except CheckError:
        return False
    if res.code == 2:
        return "1000" in json.dumps(blob)
    return res.code == 0 and blob.get("ok") is True


def raag_jobs(rng: random.Random, workdir: Path) -> List[Job]:
    jobs = []
    for i, (ground, template, length) in enumerate(RAAG_SHAPES):
        path = workdir / f"raag{i}.int"
        path.write_text(collection_text(ground, seeded_collection(rng, ground, template)))
        jobs.append(Job(f"verify-raag:{i}", ["verify-raag", "-i", str(path), "--length", str(length),
                                             "--max-class-size", "100000"]))
    jobs.append(Job("verify-raag:five:default-caps",
                    ["verify-raag", "-i", str(FAULT_COLLECTION), "--length", "4"],
                    known_fault=_fault_passes))
    return jobs


def check_verify_raag(job: str, res: Result, path: str, length: int) -> None:
    expect(res.code == 0, f"{job}: exit {res.code}: {res.stderr[-300:]}")
    blob = res.json
    _ground, intervals = parse_collection(Path(path).read_text())
    disjoint = oracle.disjointness_edges(intervals)
    expected = oracle.raag_ball_sizes([n for n, _, _ in intervals], disjoint, length)
    expect(blob["balls"]["diagram"] == expected, f"{job}: diagram balls {blob['balls']['diagram']}, oracle {expected}")
    expect(blob["balls"]["raag"] == expected, f"{job}: raag balls {blob['balls']['raag']}, oracle {expected}")
    pairs = {frozenset(e) for e in disjoint}
    expect({frozenset(e) for e in blob["graph"]["edges"]} == pairs, f"{job}: disjointness graph differs")
    rows = blob["commutation"]
    expect(len(rows) == len(intervals) * (len(intervals) - 1) // 2, f"{job}: {len(rows)} commutation rows")
    for a, b, is_disjoint, commutes in rows:
        expect(is_disjoint == (frozenset((a, b)) in pairs), f"{job}: {a}, {b} disjointness wrong")
        expect(commutes == is_disjoint, f"{job}: loops of {a}, {b} commute={commutes}, disjoint={is_disjoint}")
    expect(blob["relators_ok"] and blob["relators_checked"] == len(pairs), f"{job}: relators fail")
    expect(blob["commutation_ok"] and blob["ok"], f"{job}: verdict not ok")


def check_raag(results: Dict[str, Result], jobs: Sequence[Job]) -> None:
    for job in jobs:
        if job.known_fault is None:
            check_verify_raag(job.name, results[job.name], job.args[2], int(job.args[4]))
    res = results["verify-raag:five:default-caps"]
    if res.code == 0:
        check_verify_raag("verify-raag:five:default-caps", res, str(FAULT_COLLECTION), 4)


WORKLOADS = ("order", "farley", "search", "raag")


def make_jobs(workload: str, rng: random.Random, workdir: Path) -> List[Job]:
    if workload == "raag":
        return raag_jobs(rng, workdir)
    return {"order": order_jobs, "farley": farley_jobs, "search": search_jobs}[workload]()


def check(workload: str, results: Dict[str, Result], jobs: Sequence[Job]) -> None:
    if workload == "raag":
        check_raag(results, jobs)
    else:
        {"order": check_order, "farley": check_farley, "search": check_search}[workload](results)
