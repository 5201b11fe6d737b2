"""Command-line interface: solve, path, oracle, verify, gen, bench.

Reports are line-oriented key:value text so they diff cleanly.  Timing is
printed only when asked for (--timing), keeping default output byte-stable
across runs.  Exit codes: 0 success, 1 usage or parse error or a file that
cannot be read or written, 2 infeasible precondition (disconnected input,
32 000 or more vertices, oracle size limit, bench timeout), 3 internal
invariant violation.  Failures print an error line to stderr, not a
traceback.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .anchored import solve_path_anchored
from .bench import TASKS, BenchTimeout, format_table, report_to_csv, run_bench, speedup_csv
from .generators import FAMILIES, GeneratorSpec, generate
from .graph import (
    DisconnectedGraphError,
    Graph,
    GraphTooLargeError,
    InternalError,
    apsp,
    parse_graph,
    render_graph,
)
from .metric import requirement_table, residual_decompositions
from .oracle import DEFAULT_LIMIT, OracleLimitError, oracle_gamma_b, oracle_gamma_path
from .pathdag import build_dag, dag_to_dot, solve_path
from .peel import solve_optimal
from .verify import full_verdict, parse_broadcast

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # infeasible inputs, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _read_text(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_graph(args) -> Graph:
    return parse_graph(_read_text(args.input))


def _emit(lines: list[str]) -> None:
    sys.stdout.write("".join(f"{line}\n" for line in lines))


def _assignment_field(bc) -> str:
    return ",".join(f"{v}={p}" for v, p in bc.assignment)


def _report_broadcast(g, dm, bc, elapsed: float | None) -> list[str]:
    verdict = full_verdict(g, dm, bc)
    lines = [
        f"n:{g.n}",
        f"cost:{bc.cost}",
        f"assignment:{_assignment_field(bc)}",
        f"dominating:{str(verdict.dominating).lower()}",
        f"efficient:{str(verdict.efficient).lower()}",
        f"path_shaped:{'n/a' if verdict.path_shaped is None else str(verdict.path_shaped).lower()}",
    ]
    if elapsed is not None:
        lines.append(f"time_ms:{elapsed * 1000.0:.3f}")
    return lines


def cmd_solve(args) -> int:
    g = _load_graph(args)
    path_solver = solve_path_anchored if args.baseline else solve_path
    t0 = time.perf_counter()
    bc = solve_optimal(g, path_solver=path_solver, threads=args.threads)
    elapsed = time.perf_counter() - t0
    _emit(_report_broadcast(g, apsp(g), bc, elapsed if args.timing else None))
    return EXIT_OK


def cmd_path(args) -> int:
    g = _load_graph(args)
    t0 = time.perf_counter()
    bc = solve_path_anchored(g) if args.baseline else solve_path(g)
    elapsed = time.perf_counter() - t0
    dm = apsp(g)
    if args.dump_dag:
        if g.n == 1:
            _write_text(args.dump_dag, "digraph states {\n}\n")
        else:
            rt = residual_decompositions(g, dm)
            req = requirement_table(g, dm, rt)
            _write_text(args.dump_dag, dag_to_dot(build_dag(g, dm, rt, req)))
    _emit(_report_broadcast(g, dm, bc, elapsed if args.timing else None))
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.oracle_limit < 1:
        raise ValueError(f"--oracle-limit must be at least 1, got {args.oracle_limit}")
    g = _load_graph(args)
    fn = oracle_gamma_path if args.path_shaped else oracle_gamma_b
    res = fn(g, limit=args.oracle_limit)
    _emit(
        [
            f"n:{g.n}",
            f"cost:{res.cost}",
            f"assignment:{_assignment_field(res.witness)}",
            f"explored:{res.explored}",
        ]
    )
    return EXIT_OK


_CHECKS = ("dominating", "efficient", "path")


def cmd_verify(args) -> int:
    checks = args.check.split(",") if args.check else _CHECKS
    for name in checks:
        if name not in _CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(_CHECKS)}")
    g = _load_graph(args)
    bc = parse_broadcast(_read_text(args.broadcast))
    verdict = full_verdict(g, apsp(g), bc)
    lines = [f"cost:{bc.cost}"]
    if "dominating" in checks:
        lines.append(f"dominating:{str(verdict.dominating).lower()}")
        if verdict.witness_undominated is not None:
            lines.append(f"witness_undominated:{verdict.witness_undominated}")
    if "efficient" in checks:
        lines.append(f"efficient:{str(verdict.efficient).lower()}")
        if verdict.witness_overlap is not None:
            u, v = verdict.witness_overlap
            lines.append(f"witness_overlap:{u},{v}")
    if "path" in checks:
        lines.append(f"path_shaped:{'n/a' if verdict.path_shaped is None else str(verdict.path_shaped).lower()}")
        if verdict.witness_shape is not None:
            lines.append(f"witness_shape:{verdict.witness_shape}")
    _emit(lines)
    return EXIT_OK


def cmd_gen(args) -> int:
    extra = {}
    for item in args.extra or []:
        key, _, value = item.partition("=")
        if not _:
            raise ValueError(f"--extra expects key=value, got {item!r}")
        extra[key] = value
    spec = GeneratorSpec(family=args.family, n=args.n, seed=args.seed, extra=extra)
    _write_text(args.out, render_graph(generate(spec)))
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    if args.timeout is not None and not args.timeout > 0:
        raise ValueError(f"--timeout must be positive, got {args.timeout}")
    families = args.family or ["path", "cycle", "star", "wheel"]
    sizes = []
    for item in (args.n or "12,16,20").split(","):
        try:
            sizes.append(int(item))
        except ValueError:
            raise ValueError(f"--n must be a comma list of integers, got {item!r} in {args.n!r}") from None
    specs = [GeneratorSpec(family=f, n=n, seed=args.seed) for f in families for n in sizes]
    report = run_bench(specs, task=args.task, reps=args.reps, timeout=args.timeout)
    sys.stdout.write(format_table(report))
    if args.out:
        _write_text(args.out, report_to_csv(report))
    if args.plot_out:
        _write_text(args.plot_out, speedup_csv(report))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="broadcast-dom", description="Exact broadcast domination solver")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--input", default=None, help="edge-list file; default stdin")

    p = sub.add_parser("solve", help="optimal broadcast domination")
    add_io(p)
    p.add_argument("--baseline", action="store_true", help="use the anchored path-case routine")
    p.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
    p.add_argument("--timing", action="store_true", help="append a time_ms line")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("path", help="path-shaped broadcast domination")
    add_io(p)
    p.add_argument("--baseline", action="store_true", help="use the anchored routine")
    p.add_argument("--dump-dag", default=None, help="write the state digraph as DOT")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(fn=cmd_path)

    p = sub.add_parser("oracle", help="brute-force ground truth (small graphs)")
    add_io(p)
    p.add_argument("--oracle-limit", type=int, default=DEFAULT_LIMIT, help="max vertex count")
    p.add_argument("--path-shaped", action="store_true", help="path-shaped variant")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("verify", help="check a broadcast file against a graph")
    add_io(p)
    p.add_argument("--broadcast", required=True, help="file of 'vertex power' lines")
    p.add_argument("--check", default=None, help="comma list: dominating,efficient,path")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="emit a benchmark family instance")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--extra", action="append", help="family parameter key=value: bell (barbell), p (sparse-random)")
    p.add_argument("--out", default=None, help="output file; default stdout")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", help="compare the two solvers")
    p.add_argument("--family", action="append", choices=FAMILIES, help="repeatable")
    p.add_argument("--n", default=None, help="comma list of sizes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--task", default="optimal", choices=TASKS)
    p.add_argument(
        "--timeout", type=float, default=None, help="abort the run after a solve slower than this many seconds"
    )
    p.add_argument("--out", default=None, help="write the row CSV here")
    p.add_argument("--plot-out", default=None, help="write per-instance speedups here")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (DisconnectedGraphError, GraphTooLargeError, OracleLimitError, BenchTimeout) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:  # GraphFormatError, bad flag values; unreadable or unwritable files
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except InternalError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
