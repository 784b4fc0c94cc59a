"""Command-line behavior: formats, exit codes, pipes, determinism."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distcolor
from distcolor import solver
from distcolor.cli import main
from distcolor.coloring import Coloring, parse_coloring
from distcolor.generators import cycle, dodecahedron, path, petersen, random_tree, star
from distcolor.graph import parse_graph, render_graph
from distcolor.solver import render_result, solve
from distcolor.tree import bfs_tree


def run_cli(argv, capsys, monkeypatch=None, stdin_text=None):
    """Run main() in process and return (exit_code, stdout, stderr).

    ``stdin_text`` (str, sent as UTF-8, or bytes) becomes standard input.
    """
    if stdin_text is not None:
        raw = stdin_text.encode() if isinstance(stdin_text, str) else stdin_text
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw)))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, g, name="graph.col"):
    target = tmp_path / name
    target.write_text(render_graph(g))
    return str(target)


def test_solve_petersen_header(tmp_path, capsys):
    code, out, err = run_cli(["solve", write_graph(tmp_path, petersen())], capsys)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "c branch=special colors=4 certified=1"
    assert len(lines) == 11
    coloring = parse_coloring("\n".join(lines[1:]), 10)
    assert coloring.num_colors() == 4


def test_solve_six_cycle_reroutes_with_notice(tmp_path, capsys):
    code, out, err = run_cli(["solve", write_graph(tmp_path, cycle(6))], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "six-cycle" in lines[0]
    assert lines[1] == "c branch=c6 colors=4 certified=1"
    coloring = parse_coloring("\n".join(lines[2:]), 6)
    assert coloring.values == (1, 2, 3, 1, 2, 4)


def test_solve_reads_stdin(capsys, monkeypatch):
    text = render_graph(path(5))
    code, out, _ = run_cli(["solve", "-"], capsys, monkeypatch, stdin_text=text)
    assert code == 0
    assert out.startswith("c branch=path_or_cycle colors=3 certified=1\n")


def test_solve_out_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code, out, _ = run_cli(
        ["solve", write_graph(tmp_path, path(4)), "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("c branch=path_or_cycle")


def test_solve_then_verify_pipe(tmp_path, capsys):
    graph_file = write_graph(tmp_path, petersen())
    _, out, _ = run_cli(["solve", graph_file], capsys)
    coloring_file = tmp_path / "coloring.txt"
    coloring_file.write_text(out)
    code, out, err = run_cli(["verify", graph_file, str(coloring_file)], capsys)
    assert code == 0
    assert out == "distinguishing\n"
    assert err == ""


def test_solve_has_no_vertex_cap_but_verify_does(tmp_path, capsys):
    graph_file = write_graph(tmp_path, path(200))
    code, out, _ = run_cli(["solve", graph_file], capsys)
    assert code == 0
    assert out.startswith("c branch=path_or_cycle colors=3 certified=1\n")
    coloring_file = tmp_path / "coloring.txt"
    coloring_file.write_text(out)
    code, out, err = run_cli(["verify", graph_file, str(coloring_file)], capsys)
    assert code == 1
    assert out == ""
    assert "search bound is 128" in err


def test_verify_breakable_coloring_prints_witness(tmp_path, capsys):
    graph_file = write_graph(tmp_path, path(3))
    coloring_file = tmp_path / "coloring.txt"
    coloring_file.write_text("v 1 1\nv 2 2\nv 3 1\n")
    code, out, _ = run_cli(["verify", graph_file, str(coloring_file)], capsys)
    # a verdict either way is a successful verification, so still exit 0
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "not distinguishing; color-preserving witness:"
    assert "1 -> 3" in lines[1:]
    assert "3 -> 1" in lines[1:]


def test_verify_improper_coloring_fails(tmp_path, capsys):
    graph_file = write_graph(tmp_path, path(3))
    coloring_file = tmp_path / "coloring.txt"
    coloring_file.write_text("v 1 1\nv 2 1\nv 3 2\n")
    code, out, err = run_cli(["verify", graph_file, str(coloring_file)], capsys)
    assert code == 1
    assert out == ""
    assert "not proper" in err


def test_exact_values(tmp_path, capsys):
    code, out, _ = run_cli(["exact", write_graph(tmp_path, cycle(5))], capsys)
    assert (code, out) == (0, "3\n")
    code, out, _ = run_cli(["exact", write_graph(tmp_path, cycle(6))], capsys)
    assert (code, out) == (0, "4\n")
    code, out, _ = run_cli(["exact", write_graph(tmp_path, petersen())], capsys)
    assert (code, out) == (0, "4\n")


def test_exact_too_large(tmp_path, capsys):
    code, out, err = run_cli(["exact", write_graph(tmp_path, path(11))], capsys)
    assert code == 1
    assert out == ""
    assert "11 vertices" in err


def test_color2(tmp_path, capsys):
    code, out, _ = run_cli(["color2", write_graph(tmp_path, path(3))], capsys)
    assert code == 0
    lines = out.splitlines()
    # three distinct colors from the palette {1..4}; the header counts distinct
    assert lines[0] == "c colors=3 certified=1"
    assert parse_coloring("\n".join(lines[1:]), 3).values == (4, 1, 2)


def test_listcolor(tmp_path, capsys):
    graph_file = write_graph(tmp_path, path(3))
    lists_file = tmp_path / "lists.txt"
    lists_file.write_text("l 1 5 6 7\nl 2 5 6 7\nl 3 5 6 7\n")
    code, out, _ = run_cli(["listcolor", graph_file, str(lists_file)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("c colors=")
    assert lines[0].endswith("certified=1")
    coloring = parse_coloring("\n".join(lines[1:]), 3)
    assert set(coloring.values) <= {5, 6, 7}


def test_listcolor_names_the_short_list_by_the_files_vertex(tmp_path, capsys):
    graph_file = write_graph(tmp_path, path(3))
    lists_file = tmp_path / "lists.txt"
    lists_file.write_text("l 1 1 2 3 4\nl 2 1 2\nl 3 1 2 3 4\n")
    code, out, err = run_cli(["listcolor", graph_file, str(lists_file)], capsys)
    assert (code, out) == (1, "")
    assert err == "distcolor: list for vertex 2 has fewer than 3 colors\n"


def test_listcolor_exits_one_when_short_lists_run_out(tmp_path, capsys):
    # lists of Δ+1 colors are accepted and may run out: bad input, not a bug;
    # on the five-cycle the last vertex meets 3 and 4, the whole of its list
    # once the root's color 1 is gone
    graph_file = write_graph(tmp_path, cycle(5))
    lists_file = tmp_path / "lists.txt"
    lists_file.write_text("l 1 1 2 3\nl 2 1 2 3\nl 3 1 3 4\nl 4 1 3 4\nl 5 1 2 4\n")
    code, out, err = run_cli(["listcolor", graph_file, str(lists_file)], capsys)
    assert (code, out) == (1, "")
    assert err == "distcolor: no available color for vertex 4\n"


def test_listcolor_checks_the_graph_before_its_lists(tmp_path, capsys):
    # with no edges one color per list would pass the size check, but the
    # graph is checked first; a connected graph on two or more vertices
    # needs two colors in every list but the root's, so deleting the root's
    # color cannot empty one through listcolor
    graph_file = tmp_path / "graph.col"
    graph_file.write_text("p edge 2 0\n")
    lists_file = tmp_path / "lists.txt"
    lists_file.write_text("l 1 1\nl 2 1\n")
    code, out, err = run_cli(["listcolor", str(graph_file), str(lists_file)], capsys)
    assert (code, out) == (1, "")
    assert err == "distcolor: graph must be connected\n"


def test_gen_named_graph_round_trip(capsys):
    code, out, _ = run_cli(["gen", "petersen"], capsys)
    assert code == 0
    g = parse_graph(out)
    assert (g.n, g.m) == (10, 15)
    assert g == petersen()


def test_gen_accepts_underscore_kind(capsys):
    code, out, _ = run_cli(
        ["gen", "random_girth5", "--n", "12", "--d", "3", "--seed", "7"], capsys
    )
    assert code == 0
    g = parse_graph(out)
    assert g.n == 12
    assert g.max_degree() <= 3


def test_gen_solve_deterministic(capsys):
    argv = ["gen", "random-girth5", "--n", "15", "--d", "4", "--seed", "3"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_gen_unknown_kind(capsys):
    code, out, err = run_cli(["gen", "nope"], capsys)
    assert code == 1
    assert "unknown graph kind 'nope'" in err


def test_gen_missing_size(capsys):
    code, _, err = run_cli(["gen", "path"], capsys)
    assert code == 1
    assert "needs n" in err


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 1
    assert "error" in err


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(["solve", "/no/such/file.col"], capsys)
    assert code == 1
    assert err.startswith("distcolor:")


def test_graph_file_that_is_not_utf8_exits_one(tmp_path, capsys):
    target = tmp_path / "bad.col"
    target.write_bytes(b"p edge 2 1\ne 1 2\n\xff\xfe\n")
    code, out, err = run_cli(["solve", str(target)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("distcolor:")
    assert "Traceback" not in err


def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys):
    graph = tmp_path / "good.col"
    graph.write_text("p edge 2 1\ne 1 2\n")
    solution = tmp_path / "bad.sol"
    solution.write_bytes(b"v 1 1\n\xff\xfe\n")
    code, out, err = run_cli(["verify", str(graph), str(solution)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"distcolor: {solution}: not valid UTF-8 (invalid start byte at byte 6)\n"


def test_standard_input_that_is_not_utf8_exits_one(capsys, monkeypatch):
    code, out, err = run_cli(
        ["solve", "-"], capsys, monkeypatch, stdin_text=b"p edge 2 1\n\xff"
    )
    assert code == 1
    assert out == ""
    assert err == "distcolor: standard input: not valid UTF-8 (invalid start byte at byte 11)\n"


def test_malformed_graph_exits_one(capsys, monkeypatch):
    text = "p edge 3 3\ne 1 2\ne 2 3\n"
    code, _, err = run_cli(["solve", "-"], capsys, monkeypatch, stdin_text=text)
    assert code == 1
    assert "promises 3 edges, found 2" in err


def test_girth_precondition_exits_one(capsys, monkeypatch):
    triangle = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"
    code, _, err = run_cli(["solve", "-"], capsys, monkeypatch, stdin_text=triangle)
    assert code == 1
    assert "girth" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("p edge 0 0\n", "graph has no vertices"),
        ("p edge 4 2\ne 1 2\ne 3 4\n", "graph must be connected"),
        ("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n", "girth must be at least five"),
        ("p edge 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n", "girth must be at least five"),
        # connectivity is checked before girth
        ("p edge 5 4\ne 1 2\ne 2 3\ne 1 3\ne 4 5\n", "graph must be connected"),
    ],
    ids=["no-vertices", "two-edges", "triangle", "four-cycle", "triangle-and-edge"],
)
def test_every_construction_refuses_a_bad_graph_in_the_same_words(
    tmp_path, capsys, text, message
):
    graph_file = tmp_path / "graph.col"
    graph_file.write_text(text)
    n = int(text.split()[2])
    # lists long enough for any graph on n vertices, so only the graph is at fault
    colors = " ".join(map(str, range(1, n + 2)))
    lists_file = tmp_path / "lists.txt"
    lists_file.write_text("".join(f"l {v} {colors}\n" for v in range(1, n + 1)))
    graph = str(graph_file)
    for argv in (["solve", graph], ["color2", graph], ["listcolor", graph, str(lists_file)]):
        assert run_cli(argv, capsys) == (1, "", f"distcolor: {message}\n"), argv[0]


CORPUS_COUNT_10 = """\
criterion 1 theorem-suite      PASS Ts  72 graphs solved and verified
criterion 2 moore-recursion    PASS Ts  hoffman-singleton: 8 colors via moore_recursive, verified
criterion 3 stored-colorings   PASS Ts  petersen and heawood colorings proper, 4 colors, distinguishing; same-colored petersen vertices have distinct neighborhood multisets
criterion 4 exact-boundary     PASS Ts  35 isomorphism classes within the bound; the six-cycle is the only graph above Δ+1
criterion 5 two-extra-colors   PASS Ts  72 Δ+2 colorings verified; 50 list assignments over 50 small graphs respected
criterion 6 greedy-bounds      PASS Ts  10 greedy runs, 35 unconstrained steps within bounds
criterion 7 propagation        PASS Ts  10 of 10 instances certified all vertices, all sound
"""


def test_corpus_small_count(capsys):
    # every row's name, verdict and detail, byte for byte; only the time
    # column varies
    code, out, _ = run_cli(["corpus", "--count", "10"], capsys)
    assert code == 0
    assert re.sub(r"PASS +\d+\.\d+s", "PASS Ts", out) == CORPUS_COUNT_10


@pytest.mark.parametrize("count", ["0", "-3"])
def test_corpus_rejects_a_count_below_one(capsys, count):
    # a non-positive count would run nothing and still print seven PASS rows
    code, out, err = run_cli(["corpus", "--count", count], capsys)
    assert code == 1
    assert out == ""
    assert f"count must be at least 1, got {count}" in err


@pytest.mark.parametrize(
    "values", [(1, 2, 2, 1, 2), (1, 2, None, 1, 2)], ids=["improper", "not-total"]
)
def test_a_broken_construction_exits_two(tmp_path, capsys, monkeypatch, values):
    # an improper or partial coloring from a case is a bug, not a bad input
    def broken(g, delta, scan):
        return bfs_tree(g, 0), Coloring(values)

    monkeypatch.setattr(solver, "_CASES", ((solver.BRANCH_PATH_OR_CYCLE, broken),))
    code, out, err = run_cli(["solve", write_graph(tmp_path, path(5))], capsys)
    assert code == 2
    assert out == ""
    assert "internal consistency failure" in err


def test_an_uncertifiable_coloring_exits_two_at_any_size(tmp_path, capsys, monkeypatch):
    # refinement that leaves the prefix unfixed is a bug, past the search
    # bound too: it is not reported as a bad input
    monkeypatch.setattr("distcolor.symmetry.prefix_is_fixed", lambda *args: False)
    code, out, err = run_cli(["solve", write_graph(tmp_path, path(200))], capsys)
    assert code == 2
    assert out == ""
    assert "internal consistency failure: path_or_cycle: refinement" in err


def misdirect_the_tree(build):
    # a parent directive from the construction's root to the last vertex
    # not next to it, injected into each call with slots
    def misdirected(g, root, parents=None, slots=None):
        if slots:
            far = max(v for v in g.vertices() if v != root and v not in g.adj[root])
            parents = {**(parents or {}), far: root}
        return build(g, root, parents, slots)

    return misdirected


def unavailable_picks(extend):
    # every fixed color the construction picks becomes 0, outside any palette
    def extend_with_color_0(*args, picks=None, **kwargs):
        if picks:
            picks = {v: c if callable(c) else 0 for v, c in picks.items()}
        return extend(*args, picks=picks, **kwargs)

    return extend_with_color_0


def palette_of_one(extend):
    # the construction's palette bound becomes 1, too small for any case
    def extend_with_k_1(*args, **kwargs):
        return extend(*args, **{**kwargs, "k": 1})

    return extend_with_k_1


@pytest.mark.parametrize(
    "step, wrap, message",
    [
        ("bfs_tree", misdirect_the_tree, "0 is not a neighbor of 19"),
        ("greedy_extend", unavailable_picks, "picked color 0 is not available at vertex 1"),
        ("greedy_extend", palette_of_one, "no available color for vertex 10"),
    ],
    ids=["parent-directive", "pick", "palette"],
)
def test_a_bad_construction_directive_exits_two(
    tmp_path, capsys, monkeypatch, step, wrap, message
):
    # directives come from the library, not the input: the geodesic case on
    # the dodecahedron, handed a bad one, is a bug
    monkeypatch.setattr(solver, step, wrap(getattr(solver, step)))
    code, out, err = run_cli(["solve", write_graph(tmp_path, dodecahedron())], capsys)
    assert code == 2
    assert out == ""
    assert err == f"distcolor: internal consistency failure: {message}\n"


def test_hostile_problem_line_exits_one(capsys, monkeypatch):
    def refuse_huge(n, edges):
        raise AssertionError(f"a graph of {n} vertices was allocated")

    monkeypatch.setattr("distcolor.graph.Graph", refuse_huge)
    # the second text promises more edges than it has lines
    for text in ("p edge 1000000000 0\n", "p edge 200000 200000\ne 1 2\n"):
        code, out, err = run_cli(["solve", "-"], capsys, monkeypatch, stdin_text=text)
        assert code == 1
        assert out == ""
        assert "exceeds the limit of 128" in err


def test_module_entry_point(tmp_path):
    graph_file = write_graph(tmp_path, cycle(5))
    # the child imports the same distcolor as this test, installed or not
    source = str(Path(distcolor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (source, os.environ.get("PYTHONPATH")) if p
    )}
    result = subprocess.run(
        [sys.executable, "-m", "distcolor", "exact", graph_file],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert result.stdout == "3\n"


# Valid inputs for the exit-code property: small graphs, so that exact and
# verify stay quick, with solve's colorings of them and color lists.
SEED_GRAPHS = [path(5), cycle(7), cycle(6), star(4), petersen(), random_tree(9, seed=2)]
SEED_TEXTS = {
    "graph": [render_graph(g).encode() for g in SEED_GRAPHS],
    # solve refuses the six-cycle
    "coloring": [render_result(solve(g)).encode() for g in SEED_GRAPHS if g.n != 6],
    "lists": [
        "".join(f"l {v} 1 2 3 {v % 4 + 4}\n" for v in range(1, n + 1)).encode()
        for n in (5, 7, 10)
    ],
}
ALL_SEED_TEXTS = [text for texts in SEED_TEXTS.values() for text in texts]
TOKENS = [
    b"p", b"edge", b"e", b"v", b"l", b"c", b"0", b"1", b"3", b"9", b"-1", b"+2", b"1_0",
    b"99999999999", b"9" * 4301, " \u0661".encode(), b" ", b"\t", b"\n", b"\r\n", b"\xff", b"\x00",
]


@st.composite
def mutated(draw, kind):
    """A valid input of the kind with tokens inserted, bytes deleted and
    parts of other inputs spliced in."""
    data = draw(st.sampled_from(SEED_TEXTS[kind]))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        at = draw(st.integers(min_value=0, max_value=len(data)))
        op = draw(st.sampled_from(["insert", "delete", "splice"]))
        if op == "insert":
            data = data[:at] + draw(st.sampled_from(TOKENS)) + data[at:]
        elif op == "delete":
            end = draw(st.integers(min_value=at, max_value=min(len(data), at + 12)))
            data = data[:at] + data[end:]
        else:
            other = draw(st.sampled_from(ALL_SEED_TEXTS))
            start = draw(st.integers(min_value=0, max_value=len(other)))
            end = draw(st.integers(min_value=start, max_value=len(other)))
            data = data[:at] + other[start:end] + data[at:]
    return data


@pytest.fixture(scope="module")
def second_input(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "second.txt"


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["solve", "color2", "listcolor", "verify", "exact"]),
    graph=st.one_of(st.sampled_from(SEED_TEXTS["graph"]), mutated("graph")),
    data=st.data(),
)
def test_mutated_inputs_exit_zero_or_one(second_input, command, graph, data):
    # the exit-code contract: a bad input exits 1 with a message, never 2
    # and never a traceback; the graph comes on standard input and the
    # coloring or lists from a file
    argv = [command, "-"]
    kind = {"verify": "coloring", "listcolor": "lists"}.get(command)
    if kind is not None:
        second_input.write_bytes(
            data.draw(st.one_of(st.sampled_from(SEED_TEXTS[kind]), mutated(kind)))
        )
        argv.append(str(second_input))
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(graph))
    with (
        mock.patch.object(sys, "stdin", stdin),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main(argv)
    assert code in (0, 1), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (err.getvalue() == "")
