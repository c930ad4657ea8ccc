"""End-to-end runs of the command-line frontend.

Everything goes through ``main(argv)`` with real files on disk, so these
tests double as a check of the documented file formats and of the exit-code
contract (0 yes/complete, 1 definite no, 2 capped, 3 bad input).
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import diagram_groups
from diagram_groups.cli import _COMMANDS, CliError, _build_parser, main

COMM = """\
# pairwise commuting letters
letters: a b c
rel: a b = b a
rel: a c = c a
rel: b c = c b
"""

PADPAIR = """\
letters: a1 a2 a3 b1 b2 b3 p
rel: a1 = a2
rel: a2 = a3
rel: a3 = a1
rel: b1 = b2
rel: b2 = b3
rel: b3 = b1
rel: a1 = a1 p
rel: b1 = p b1
"""

DIRTY = """\
letters: a b p q
rel: a = a p
rel: b = p b
rel: p = q
"""

GOLDEN_CASES = json.loads(
    (Path(__file__).parent / "golden" / "cases.json").read_text()
)

PAD_CAPS = ["--max-word-len", "10", "--max-class-size", "500"]


@pytest.fixture
def comm(tmp_path):
    path = tmp_path / "comm.pres"
    path.write_text(COMM)
    return str(path)


@pytest.fixture
def padpair(tmp_path):
    path = tmp_path / "padpair.pres"
    path.write_text(PADPAIR)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# word problem commands
# ---------------------------------------------------------------------------


def test_equal_yes_with_four_moves(capsys, comm):
    code, blob = run_json(
        capsys, "equal", "-p", comm, "-w1", "a a b c", "-w2", "c a b a"
    )
    assert code == 0
    assert blob["verdict"] == "yes"
    assert blob["cells"] == 4
    assert len(blob["moves"]) == 4
    assert blob["caps"] == {
        "max_word_len": 16,
        "max_class_size": 1000,
        "max_bfs_depth": 48,
    }


def test_equal_no_and_unknown_exits(capsys, comm, padpair):
    code, blob = run_json(capsys, "equal", "-p", comm, "-w1", "a", "-w2", "b")
    assert code == 1 and blob["verdict"] == "no" and blob["moves"] == []
    code, blob = run_json(
        capsys,
        "equal", "-p", padpair, "-w1", "a1", "-w2", "b1",
        "--max-class-size", "5",
    )
    assert code == 2 and blob["verdict"] == "unknown"


def test_class_text_and_truncation(capsys, comm, padpair):
    code, out = run(capsys, "class", "-p", comm, "-w", "a b c", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[:-1] == ["a b c", "a c b", "b a c", "b c a", "c a b", "c b a"]
    assert lines[-1] == "# 6 members, complete=True"
    code, blob = run_json(
        capsys, "class", "-p", padpair, "-w", "a1", "--max-class-size", "5"
    )
    assert code == 2 and not blob["complete"] and blob["count"] == 5


# ---------------------------------------------------------------------------
# diagram commands
# ---------------------------------------------------------------------------


def test_reduce_kills_a_dipole(capsys, tmp_path, padpair):
    d = tmp_path / "d.diag"
    d.write_text("a1 b1\n0 0 fwd\n0 0 bwd\n")
    code, blob = run_json(capsys, "reduce", "-p", padpair, "-d", str(d))
    assert code == 0
    assert blob["cells"] == 0 and blob["reduced"] and blob["spherical"]
    code, out = run(
        capsys, "reduce", "-p", padpair, "-d", str(d), "--format", "text"
    )
    assert out == "a1 b1\n"


def test_compose_and_mismatch(capsys, tmp_path, padpair):
    d1 = tmp_path / "d1.diag"
    d1.write_text("a1 b1\n0 0 fwd\n")  # a1 b1 -> a2 b1
    d2 = tmp_path / "d2.diag"
    d2.write_text("a2 b1\n0 1 fwd\n")  # a2 b1 -> a3 b1
    code, blob = run_json(capsys, "compose", "-p", padpair, "-d1", str(d1), "-d2", str(d2))
    assert code == 0 and blob["cells"] == 2 and blob["bottom"] == "a3 b1"
    assert main(["compose", "-p", padpair, "-d1", str(d1), "-d2", str(d1)]) == 3


def test_diagram_dot_single_path_for_identity(capsys, tmp_path, padpair):
    d = tmp_path / "eps.diag"
    d.write_text("a1 b1\n")
    code, out = run(capsys, "reduce", "-p", padpair, "-d", str(d), "--format", "dot")
    assert code == 0
    assert 'n0 [label="a1 b1"];' in out
    assert "->" not in out  # no cells: top and bottom are the same path


# ---------------------------------------------------------------------------
# ball / hyperplane commands
# ---------------------------------------------------------------------------


def test_squier_dot_frozen(capsys, comm):
    code, out = run(capsys, "squier", "-p", comm, "-w", "a b", "--format", "dot")
    assert code == 0
    assert out == (
        "digraph squier_ball {\n"
        "  rankdir=TB;\n"
        '  n0 [label="a b"];\n'
        '  n1 [label="b a"];\n'
        '  n0 -> n1 [color=blue, label="H0"];\n'
        "}\n"
    )


def test_squier_json(capsys, comm):
    code, blob = run_json(capsys, "squier", "-p", comm, "-w", "a b c")
    assert code == 0
    assert blob["complete"] and len(blob["vertices"]) == 6
    assert blob["edge_count"] == 6


def test_hyperplanes_eight_on_padded_pair(capsys, padpair):
    code, blob = run_json(
        capsys, "hyperplanes", "-p", padpair, "-w", "a1 b1", *PAD_CAPS
    )
    assert code == 0 and blob["exact"]
    assert blob["count"] == 8
    ids = [h["id"] for h in blob["hyperplanes"]]
    assert "[1 | r6 | b1]" in ids and "[a1 | r7 | 1]" in ids


def test_relate_complete_bipartite(capsys, padpair):
    code, blob = run_json(capsys, "relate", "-p", padpair, "-w", "a1 b1", *PAD_CAPS)
    assert code == 0 and blob["exact"]
    assert len(blob["edges"]) == 16  # K_{4,4}
    assert blob["odd_cycle"] is None
    code, out = run(
        capsys, "relate", "-p", padpair, "-w", "a1 b1", *PAD_CAPS, "--format", "dot"
    )
    assert out.startswith("digraph transversality {")
    assert out.count(" -> ") == 16


def test_special_yes_and_no(capsys, padpair, tmp_path):
    code, blob = run_json(capsys, "special", "-p", padpair, "-w", "a1 b1", *PAD_CAPS)
    assert code == 0
    assert blob["special"] == "yes" and blob["clean"] == "yes"
    dirty = tmp_path / "dirty.pres"
    dirty.write_text(DIRTY)
    code, blob = run_json(
        capsys, "special", "-p", str(dirty), "-w", "a b",
        "--max-word-len", "8", "--max-class-size", "120", "--max-bfs-depth", "24",
    )
    assert code == 1
    assert blob["clean"] == "no"
    assert blob["self_intersections"], "expected a split witness"
    wit = blob["self_intersections"][0]
    assert wit["kind"] == "SelfIntersection" and "evidence_lengths" in wit


@pytest.mark.parametrize("pres", [COMM, PADPAIR, DIRTY], ids=["comm", "padpair", "dirty"])
def test_special_on_the_empty_word(capsys, tmp_path, pres):
    path = tmp_path / "p.pres"
    path.write_text(pres)
    code = main(["special", "-p", str(path), "-w", ""])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    blob = json.loads(captured.out)
    assert blob["base"] == "1"
    assert blob["clean"] == "yes" and blob["special"] == "yes"


def test_dim_verdicts(capsys, padpair):
    code, blob = run_json(capsys, "dim", "-p", padpair, "-w", "a1 b1", "-n", "2", *PAD_CAPS)
    assert code == 0 and blob["verdict"] == "yes"
    assert len(blob["witness"]["factors"]) == 2
    code, blob = run_json(capsys, "dim", "-p", padpair, "-w", "a1 b1", "-n", "3", *PAD_CAPS)
    assert code == 1 and blob["verdict"] == "no"
    assert "witness" in blob


@pytest.mark.parametrize("n", ["1", "3"])
def test_dim_without_relations_is_a_certified_no(capsys, tmp_path, n):
    # no relation side occurs anywhere, so no factor is rewritable
    path = tmp_path / "free.pres"
    path.write_text("letters: a b\n")
    code = main(["dim", "-p", str(path), "-w", "a b", "-n", n])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    blob = json.loads(captured.out)
    assert blob["verdict"] == "no" and "no relations" in blob["witness"]


def test_rank_table(capsys, padpair):
    code, blob = run_json(capsys, "rank-table", "-p", padpair, "-w", "a1 b1", *PAD_CAPS)
    assert code == 0 and blob["exact"]
    ranks = {row["id"]: row["rank"] for row in blob["hyperplanes"]}
    assert set(ranks.values()) == {0, 1}
    assert ranks["[1 | r0 | b1]"] == 0 and ranks["[a1 | r3 | 1]"] == 1


def test_phi_images_frozen(capsys, tmp_path, padpair):
    loops = {
        "d1": ("a1 b1\n0 0 fwd\n0 1 fwd\n0 2 fwd\n", "H0 H1 H2^-1"),
        "d2": ("a1 b1\n1 3 fwd\n1 4 fwd\n1 5 fwd\n", "H3 H4 H5^-1"),
        "d3": ("a1 b1\n0 6 fwd\n1 7 bwd\n", "H6 H7^-1"),
    }
    for name, (text, image) in loops.items():
        path = tmp_path / f"{name}.diag"
        path.write_text(text)
        code, out = run(
            capsys,
            "phi", "-p", padpair, "-w", "a1 b1", "-d", str(path),
            *PAD_CAPS, "--format", "text",
        )
        assert code == 0
        assert out.strip() == image


@pytest.fixture
def pad_loop(tmp_path):
    path = tmp_path / "d3.diag"
    path.write_text("a1 b1\n0 6 fwd\n1 7 bwd\n")
    return str(path)


def test_phi_past_a_truncated_catalog_is_unknown(capsys, padpair, pad_loop):
    code, blob = run_json(
        capsys, "phi", "-p", padpair, "-w", "a1 b1", "-d", pad_loop,
        "--max-class-size", "1",
    )
    assert code == 2
    assert blob["verdict"] == "unknown" and blob["exact"] is False
    assert blob["base"] == "a1 b1"
    assert blob["reason"] == (
        "the diagram crosses [1 | r6 | b1], which the capped search did not"
        " find in the hyperplane catalog"
    )


def test_phi_text_past_a_truncated_catalog(capsys, padpair, pad_loop):
    code, out = run(
        capsys, "phi", "-p", padpair, "-w", "a1 b1", "-d", pad_loop,
        "--max-class-size", "1", "--format", "text",
    )
    assert code == 2
    assert out == (
        "verdict: unknown\n"
        "reason: the diagram crosses [1 | r6 | b1], which the capped search"
        " did not find in the hyperplane catalog\n"
    )


# ---------------------------------------------------------------------------
# geometry commands
# ---------------------------------------------------------------------------


def test_farley_sizes(capsys, padpair):
    code, blob = run_json(capsys, "farley", "-p", padpair, "-w", "a1 b1", "--radius", "3")
    assert code == 0
    assert blob["sizes_by_depth"] == [1, 6, 21, 54]
    assert blob["vertex_count"] == 82 and blob["edge_count"] == 126


def test_embed_check(capsys, padpair):
    code, blob = run_json(
        capsys, "embed-check", "-p", padpair, "-w", "a1 b1", "--radius", "3", *PAD_CAPS
    )
    assert code == 0
    assert blob["ok"] and blob["exact"] and not blob["failures"]
    assert blob["ranks"] == [0, 1]
    assert blob["pairs_checked"] > 0


def test_embed_check_past_a_truncated_catalog_is_unknown(capsys, padpair):
    # a one-word class has no edges, so its rank partition is vacuously
    # exact, but every edge of the Farley ball crosses an uncataloged
    # hyperplane
    code, blob = run_json(
        capsys, "embed-check", "-p", padpair, "-w", "a1 b1", "--radius", "3",
        "--max-class-size", "1",
    )
    assert code == 2
    assert blob["verdict"] == "unknown" and blob["exact"] is False
    assert "[1 | r0 | b1]" in blob["reason"]


def test_embed_check_matches_hyperplanes_outside_the_class_ball(capsys, padpair):
    # the Farley ball crosses [a1 p | r3 | 1] at words the depth-2 class
    # search never reached; it is the cataloged [a1 | r3 | 1]
    code, blob = run_json(
        capsys, "embed-check", "-p", padpair, "-w", "a1 b1", "--radius", "4",
        "--max-bfs-depth", "2",
    )
    assert code == 0
    assert blob["ok"] is True and blob["exact"] is True
    assert blob["ranks"] == [0, 1]


def test_embed_check_text_on_inexact_partition(capsys, tmp_path):
    path = tmp_path / "dirty.pres"
    path.write_text(DIRTY)
    code, out = run(
        capsys, "embed-check", "-p", str(path), "-w", "a b", "--radius", "3",
        "--format", "text",
    )
    assert code == 2
    assert out == (
        "verdict: unknown\n"
        "reason: rank partition is not exact under these caps\n"
    )


def test_embed_check_text_past_a_truncated_catalog(capsys, padpair):
    code, out = run(
        capsys, "embed-check", "-p", padpair, "-w", "a1 b1", "--radius", "3",
        "--max-class-size", "1", "--format", "text",
    )
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "verdict: unknown"
    assert lines[1].startswith("reason: the Farley ball crosses ")
    assert "[1 | r0 | b1]" in lines[1] and len(lines) == 2


def test_propb_bounds(capsys, tmp_path, padpair):
    gens = []
    for name, text in (
        ("d1", "a1 b1\n0 0 fwd\n0 1 fwd\n0 2 fwd\n"),
        ("d2", "a1 b1\n1 3 fwd\n1 4 fwd\n1 5 fwd\n"),
        ("d3", "a1 b1\n0 6 fwd\n1 7 bwd\n"),
    ):
        path = tmp_path / f"{name}.diag"
        path.write_text(text)
        gens += ["-g", str(path)]
    code, blob = run_json(
        capsys,
        "propb", "-p", padpair, "-w", "a1 b1", *gens,
        "--length", "4", "--min-ratio", "1/2", "--max-ratio", "3",
    )
    assert code == 0 and blob["bounds_ok"]
    assert blob["sizes"] == [1, 6, 26, 110, 458]
    assert blob["min_ratio"] == "5/3" and blob["max_ratio"] == "3"
    # an unachievable lower bound flips the verdict
    code, blob = run_json(
        capsys,
        "propb", "-p", padpair, "-w", "a1 b1", *gens,
        "--length", "4", "--min-ratio", "2",
    )
    assert code == 1 and not blob["bounds_ok"]


@pytest.mark.parametrize("flag, value", [("--min-ratio", "abc"), ("--max-ratio", "1/0")])
def test_propb_malformed_ratio_is_bad_input(capsys, tmp_path, padpair, flag, value):
    d = tmp_path / "d.diag"
    d.write_text("a1 b1\n0 0 fwd\n0 1 fwd\n0 2 fwd\n")
    code = main(
        ["propb", "-p", padpair, "-w", "a1 b1", "-g", str(d), "--length", "2", flag, value]
    )
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith(f"error: argument {flag}: invalid ")
    assert "Traceback" not in captured.err


def test_decompose_free_rank(capsys, comm):
    code, blob = run_json(capsys, "decompose", "-p", comm, "-w", "a b b c c")
    assert code == 0
    assert blob["free_rank"] == 4 and blob["exact"]
    assert blob["fundamental_group"].count("t") == 4
    code, out = run(capsys, "decompose", "-p", comm, "-w", "a b c", "--format", "dot")
    assert out.startswith("graph decomposition {")


def test_decompose_single_vertex_on_capped_class_is_unknown(capsys, comm):
    # no left hyperplanes: the whole complex is one vertex, whose group is
    # only known up to the truncated class
    code, blob = run_json(
        capsys, "decompose", "-p", comm, "-w", "a b c", "--max-class-size", "1"
    )
    (vertex,) = blob["vertices"]
    assert blob["edges"] == []
    assert not vertex["right_group"]["exact"]
    assert not blob["exact"] and code == 2


def test_euler(capsys, comm, padpair):
    code, blob = run_json(capsys, "euler", "-p", comm, "-w", "a b b c c")
    assert code == 0
    assert blob["chi"] == -3 and blob["one_minus_chi"] == 4
    code, blob = run_json(
        capsys, "euler", "-p", padpair, "-w", "a1", "--max-class-size", "5"
    )
    assert code == 2 and blob["chi"] is None and not blob["complete"]


def test_euler_text_on_incomplete_class(capsys, padpair):
    code, out = run(
        capsys, "euler", "-p", padpair, "-w", "a1", "--max-class-size", "5",
        "--format", "text",
    )
    assert code == 2
    assert out == "complete: False\nchi: unknown\n"


@pytest.mark.parametrize("command", ["farley", "embed-check"])
def test_negative_radius_is_bad_input(capsys, padpair, command):
    code = main([command, "-p", padpair, "-w", "a1 b1", "--radius", "-1", *PAD_CAPS])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: radius must be nonnegative\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify-raag", "-i", "{f2}", "--length", "-1"], "length"),
        (["propb", "-p", "{padpair}", "-w", "a1 b1", "-g", "{loop}", "--length", "-1"], "length"),
        (["dim", "-p", "{padpair}", "-w", "a1 b1", "-n", "-1"], "n"),
        (["decompose", "-p", "{padpair}", "-w", "a1 b1", "--depth", "-1"], "depth"),
    ],
    ids=["verify-raag-length", "propb-length", "dim-n", "decompose-depth"],
)
def test_negative_count_is_bad_input(capsys, tmp_path, padpair, argv, flag):
    f2 = tmp_path / "f2.int"
    f2.write_text("n=3 / I: 1 2 / J: 2 3")
    loop = tmp_path / "loop.diag"
    loop.write_text("a1 b1\n0 0 fwd\n0 1 fwd\n0 2 fwd\n")
    files = {"f2": str(f2), "padpair": padpair, "loop": str(loop)}
    code = main([arg.format(**files) for arg in argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be nonnegative\n"


# ---------------------------------------------------------------------------
# interval commands
# ---------------------------------------------------------------------------


def test_interval_collection_report(capsys, tmp_path):
    ints = tmp_path / "f2.txt"
    ints.write_text("n=3\nI: 1 2\nJ: 2 3\n")
    code, blob = run_json(capsys, "interval", "-i", str(ints))
    assert code == 0
    assert blob["base"] == "x1 x2 x3"
    assert blob["interval_graph"] == [["I", "J"]]
    assert blob["disjointness_graph"] == []
    assert blob["presentation"].startswith("< x1 x2 x3 aI bI cI aJ bJ cJ |")


def test_interval_recognition_exit_codes(capsys, tmp_path):
    c5 = tmp_path / "c5.graph"
    c5.write_text(
        "vertices: v0 v1 v2 v3 v4\n"
        + "".join(f"edge: v{i} v{(i + 1) % 5}\n" for i in range(5))
    )
    code, blob = run_json(capsys, "interval", "-g", str(c5))
    assert code == 1
    assert blob["obstruction"] == "no transitive orientation exists"
    c4 = tmp_path / "c4.graph"
    c4.write_text(
        "vertices: v0 v1 v2 v3\n"
        + "".join(f"edge: v{i} v{(i + 1) % 4}\n" for i in range(4))
    )
    code, blob = run_json(capsys, "interval", "-g", str(c4))
    assert code == 0 and blob["verdict"] is True
    assert len(blob["orientation"]) == 4
    assert blob["realization"]["n"] >= 1


@pytest.mark.parametrize(
    "text",
    [
        "vertices: a=1 b|2 c\nedge: a=1 b|2\n",
        "vertices: a=1 b|2 c d\nedge: a=1 b|2\nedge: c d\n",
    ],
    ids=["yes", "no"],
)
def test_interval_graph_rejects_names_an_interval_cannot_carry(capsys, tmp_path, text):
    # rejected before the verdict, whichever way the verdict would go
    graph = tmp_path / "bad.graph"
    graph.write_text(text)
    code = main(["interval", "-g", str(graph)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: illegal interval name 'a=1'\n"


def test_verify_raag_cli(capsys, tmp_path):
    ints = tmp_path / "f2.txt"
    ints.write_text("n=3 / I: 1 2 / J: 2 3")
    code, blob = run_json(capsys, "verify-raag", "-i", str(ints), "--length", "3")
    assert code == 0 and blob["ok"]
    assert blob["balls"]["diagram"] == [1, 5, 17, 53]
    assert blob["balls"]["raag"] == [1, 5, 17, 53]


def test_verify_raag_element_bound_is_unknown(capsys, tmp_path):
    ints = tmp_path / "five.txt"
    ints.write_text("n=6 / I1: 1 2 / I2: 3 4 / I3: 5 6 / I4: 2 3 / I5: 4 5")
    code, blob = run_json(capsys, "verify-raag", "-i", str(ints), "--length", "4")
    assert code == 2
    assert blob["verdict"] == "unknown" and blob["exact"] is False
    assert blob["reason"] == "ball exceeded the element bound 1000"


def test_verify_raag_text_element_bound_is_unknown(capsys, tmp_path):
    ints = tmp_path / "five.txt"
    ints.write_text("n=6 / I1: 1 2 / I2: 3 4 / I3: 5 6 / I4: 2 3 / I5: 4 5")
    code, out = run(
        capsys, "verify-raag", "-i", str(ints), "--length", "4", "--format", "text"
    )
    assert code == 2
    assert out == "verdict: unknown\nreason: ball exceeded the element bound 1000\n"


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def test_input_error_exits(capsys, comm):
    assert main(["frobnicate"]) == 3
    assert main([]) == 3
    assert main(["class", "-p", "/nonexistent.pres", "-w", "a"]) == 3
    assert main(["class", "-p", comm, "-w", "a zzz"]) == 3  # unknown letter
    assert main(["class", "-p", comm, "-w", "a", "--format", "dot"]) == 3
    assert main(["class", "-p", comm, "-w", "a", "--max-word-len", "0"]) == 3
    capsys.readouterr()  # swallow the error messages


@pytest.mark.parametrize(
    "command", ["class", "hyperplanes", "special", "rank-table", "euler"]
)
def test_dot_only_where_a_renderer_exists(capsys, comm, command):
    code = main([command, "-p", comm, "-w", "a", "--format", "dot"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "argument --format: invalid choice: 'dot'" in captured.err


@pytest.mark.parametrize("command", ["reduce", "compose"])
def test_diagram_commands_take_no_caps(capsys, tmp_path, padpair, command):
    d = tmp_path / "d.diag"
    d.write_text("a1 b1\n")
    files = ["-d", str(d)] if command == "reduce" else ["-d1", str(d), "-d2", str(d)]
    assert main([command, "-p", padpair, *files]) == 0
    code = main([command, "-p", padpair, *files, "--max-word-len", "4"])
    captured = capsys.readouterr()
    assert code == 3
    assert "unrecognized arguments: --max-word-len 4" in captured.err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def _full_parser_prints(argv):
    """What the parser of every command prints for ``argv``, as ``main``
    reports it: (exit code, standard output, standard error)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            _build_parser().parse_args(argv)
        except SystemExit as e:
            return int(e.code or 0), out.getvalue(), err.getvalue()
        except CliError as e:
            return 3, out.getvalue(), f"error: {e}\n"
    raise AssertionError(f"{argv} parsed")


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["frobnicate"], ["frobnicate", "--help"]]
    + [[name, "--help"] for name in _COMMANDS],
    ids=lambda argv: " ".join(argv),
)
def test_help_and_unknown_commands_print_what_the_full_parser_prints(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == _full_parser_prints(argv)
    assert captured.out or captured.err


def _parse(parser, argv):
    try:
        return parser.parse_args(argv)
    except CliError as e:
        return str(e)


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c["name"] for c in GOLDEN_CASES])
def test_single_command_parser_parses_like_the_full_parser(case):
    argv = case["argv"]
    single = _parse(_build_parser(argv[0]), argv)
    assert single == _parse(_build_parser(), argv)
    sub = next(a for a in _build_parser(argv[0])._actions if a.dest == "command")
    assert list(sub.choices) == [argv[0]]


def test_json_output_is_deterministic(capsys, comm):
    _, first = run(capsys, "decompose", "-p", comm, "-w", "a b c")
    _, second = run(capsys, "decompose", "-p", comm, "-w", "a b c")
    assert first == second


def _child_env():
    """The environment of a child that imports the package under test,
    wherever pytest found it."""
    src = str(Path(diagram_groups.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


# one command from each group of modules a call reaches: the exit code, a
# key of the JSON output with its value, the modules the call must load
# besides ``rewriting``, and the modules it must not load (``fractions``
# only ever loads for ``propb``, and no call loads ``dataclasses`` or
# ``inspect``: see STDLIB_UNREACHED); besides, a call loads exactly one
# module of ``diagram_groups.commands``, its command's.  ``relate`` and
# ``rank-table`` read the crossing order alone, so they must load no other
# module of the package.
COMMANDS = {
    "class": (["class", "-p", "{comm}", "-w", "a b"], 0, ("complete", True), (),
              ("squier", "farley", "decomposition", "interval", "raag")),
    "equal": (["equal", "-p", "{comm}", "-w1", "a b", "-w2", "b a"], 0, ("verdict", "yes"),
              ("diagrams",), ("squier", "farley", "decomposition", "interval", "raag")),
    "relate": (["relate", "-p", "{comm}", "-w", "a b c"], 0, ("exact", True), ("squier",),
               ("diagrams", "farley", "decomposition", "interval", "raag", "special")),
    "dim": (["dim", "-p", "{comm}", "-w", "a b c", "-n", "2"], 1, ("verdict", "no"), (),
            ("squier", "diagrams", "farley", "decomposition", "interval", "raag")),
    "special": (["special", "-p", "{comm}", "-w", "a b"], 0, ("special", "yes"),
                ("squier", "special"),
                ("diagrams", "farley", "decomposition", "interval", "raag")),
    "rank-table": (["rank-table", "-p", "{comm}", "-w", "a b c"], 0, ("exact", True),
                   ("squier",),
                   ("diagrams", "farley", "decomposition", "interval", "raag", "special")),
    "farley": (["farley", "-p", "{comm}", "-w", "a b c", "--radius", "3"], 0,
               ("vertex_count", 7), ("diagrams", "farley"),
               ("squier", "decomposition", "interval", "raag")),
    "embed-check": (["embed-check", "-p", "{comm}", "-w", "a b c a", "--radius", "3"], 0,
                    ("ok", True), ("diagrams", "farley", "squier"),
                    ("decomposition", "interval", "raag", "special")),
    "verify-raag": (["verify-raag", "-i", "{f2}", "--length", "2"], 0, ("ok", True),
                    ("diagrams", "raag", "interval"), ("squier", "decomposition", "farley")),
    "decompose": (["decompose", "-p", "{comm}", "-w", "a b"], 0, ("exact", True),
                  ("diagrams", "squier", "decomposition"),
                  ("farley", "interval", "raag", "special")),
}


# standard modules that no command loads
STDLIB_UNREACHED = ("fractions", "dataclasses", "inspect")


def _with_files(tmp_path, argv):
    comm = tmp_path / "comm.pres"
    comm.write_text(COMM)
    f2 = tmp_path / "f2.int"
    f2.write_text("n=3 / I: 1 2 / J: 2 3")
    return [a.format(comm=comm, f2=f2) for a in argv]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_loads_only_the_modules_it_reaches(tmp_path, name):
    argv, code, _, reached, unreached = COMMANDS[name]
    script = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from diagram_groups import cli\n"
        "with redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        f"mods = [m for m in sys.modules if m.startswith('diagram_groups.') or m in {STDLIB_UNREACHED}]\n"
        "print(code, *sorted(mods))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *_with_files(tmp_path, argv)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.stderr == ""
    got, *loaded = proc.stdout.split()
    assert int(got) == code
    forbidden = {f"diagram_groups.{m}" for m in unreached} | set(STDLIB_UNREACHED)
    required = {f"diagram_groups.{m}" for m in ("rewriting",) + reached}
    assert required <= set(loaded)
    assert forbidden.isdisjoint(loaded)
    handlers = [m for m in loaded if m.startswith("diagram_groups.commands.")]
    assert handlers == [f"diagram_groups.commands.{_COMMANDS[name][0]}"]


def test_squier_loads_the_pathology_searches_only_when_a_traced_name_is_read():
    """``squier`` answers the three names of ``special`` that the benchmark
    tracer looks up on it, and only those, and loads ``special`` only then."""
    traced = ("specialness_report", "find_absorbing_splits", "find_self_intersections")
    script = (
        "import sys\n"
        "from diagram_groups import squier\n"
        "print('diagram_groups.special' in sys.modules)\n"
        f"found = [getattr(squier, name) for name in {traced}]\n"
        "from diagram_groups import special\n"
        f"print(all(f is getattr(special, n) for f, n in zip(found, {traced})))\n"
        "print(hasattr(squier, 'scan_self_osculations'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env()
    )
    assert proc.stderr == ""
    assert proc.stdout.split() == ["False", "True", "False"]


def test_console_entry_point(tmp_path):
    for name in ("equal", "relate", "dim", "rank-table", "farley", "verify-raag", "decompose"):
        argv, code, (key, value), _, _ = COMMANDS[name]
        proc = subprocess.run(
            [sys.executable, "-m", "diagram_groups", *_with_files(tmp_path, argv)],
            capture_output=True, text=True, env=_child_env(),
        )
        assert proc.returncode == code, name
        assert json.loads(proc.stdout)[key] == value, name
