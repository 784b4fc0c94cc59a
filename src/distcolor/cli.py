"""Command-line front end: solving, verifying, generating, acceptance runs.

Every subcommand reads and writes the plain-text formats of the library
(DIMACS-style graphs, ``v <vertex> <color>`` colorings).  ``-`` names standard
input.  Exit status 0 means success, 1 a precondition or input problem, and 2
an internal consistency failure, which is always a bug worth reporting.
"""

import argparse
import sys

from .coloring import parse_coloring, parse_lists, render_coloring
from .corpus import PROPERTY_RUNS, run_all
from .errors import DimacsError, DistcolorError, InternalConsistencyError
from .generators import GENERATORS, generate
from .graph import parse_graph, render_graph
from .greedy import color_delta_plus_2, list_color_delta_plus_2
from .solver import is_c6, render_result, solve, solve_c6_extension
from .symmetry import exact_chi_D, is_distinguishing


class _Parser(argparse.ArgumentParser):
    # usage mistakes exit 1; status 2 stays reserved for internal failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read_text(path: str) -> str:
    try:
        if path == "-":
            # the raw bytes, so the locale's error handler cannot hide a bad byte
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        name = "standard input" if path == "-" else path
        raise DimacsError(
            f"{name}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
        ) from exc


def _emit(text: str, out: str | None) -> None:
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.graph))
    if is_c6(g):
        text = (
            "c six-cycle input: three colors cannot break its symmetries,"
            " using the four-color construction\n"
            + render_result(solve_c6_extension(g))
        )
    else:
        text = render_result(solve(g))
    _emit(text, args.out)
    return 0


def _cmd_color2(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.graph))
    coloring = color_delta_plus_2(g)
    header = f"c colors={coloring.num_colors()} certified=1\n"
    _emit(header + render_coloring(coloring), args.out)
    return 0


def _cmd_listcolor(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.graph))
    lists = parse_lists(_read_text(args.lists), g.n)
    coloring = list_color_delta_plus_2(g, lists)
    header = f"c colors={coloring.num_colors()} certified=1\n"
    _emit(header + render_coloring(coloring), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.graph))
    coloring = parse_coloring(_read_text(args.coloring), g.n)
    verdict = is_distinguishing(g, coloring)
    if verdict.distinguishing:
        print("distinguishing")
    else:
        print("not distinguishing; color-preserving witness:")
        print(verdict.witness.render())
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    g = parse_graph(_read_text(args.graph))
    print(exact_chi_D(g))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    g = generate(
        args.kind.replace("_", "-"), n=args.n, max_degree=args.d, seed=args.seed
    )
    sys.stdout.write(render_graph(g))
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    results = run_all(seed=args.seed, count=args.count)
    for result in results:
        print(result.line())
    return 0 if all(result.passed for result in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="distcolor",
        description="Proper distinguishing colorings for graphs of girth at least five.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "solve", help="color a graph with at most one more color than its maximum degree"
    )
    p.add_argument("graph", help="DIMACS graph file, or - for stdin")
    p.add_argument("--out", help="write the coloring here instead of stdout")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "color2", help="color a graph with at most two more colors than its maximum degree"
    )
    p.add_argument("graph", help="DIMACS graph file, or - for stdin")
    p.add_argument("--out", help="write the coloring here instead of stdout")
    p.set_defaults(func=_cmd_color2)

    p = sub.add_parser("listcolor", help="like color2, but colors come from per-vertex lists")
    p.add_argument("graph", help="DIMACS graph file, or - for stdin")
    p.add_argument("lists", help="list assignment file (l <vertex> <colors...>)")
    p.add_argument("--out", help="write the coloring here instead of stdout")
    p.set_defaults(func=_cmd_listcolor)

    p = sub.add_parser("verify", help="check a coloring against every graph symmetry")
    p.add_argument("graph", help="DIMACS graph file, or - for stdin")
    p.add_argument("coloring", help="coloring file (v <vertex> <color>)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "exact", help="exact minimum over proper distinguishing colorings (small graphs)"
    )
    p.add_argument("graph", help="DIMACS graph file, or - for stdin")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("gen", help="print a named or random graph as DIMACS")
    p.add_argument("kind", help="one of: " + ", ".join(sorted(GENERATORS)))
    p.add_argument("--n", type=int, help="number of vertices")
    p.add_argument("--d", type=int, help="maximum degree bound")
    p.add_argument("--seed", type=int, help="random seed")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("corpus", help="run the acceptance suite and print a pass/fail table")
    p.add_argument("--seed", type=int, default=0, help="base seed for the random parts")
    p.add_argument(
        "--count",
        type=int,
        default=PROPERTY_RUNS,
        help="random runs per property criterion; smaller values shrink the"
        " whole suite proportionally for a quick, non-authoritative pass",
    )
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalConsistencyError as exc:
        print(f"distcolor: internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except DistcolorError as exc:
        print(f"distcolor: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"distcolor: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
