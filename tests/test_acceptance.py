"""Acceptance suite.  Each test covers one criterion at its stated tolerance
and prints one pass/fail line (run with -s to see them on success).

The exhaustive sweep over every connected labeled graph with n <= 6 is
computed once per test run and shared by the criteria that consume it.  It
is the one tier-1 pass over those graphs: the solvers, the oracle, the ball
laws, the scalar arc test, the candidate family and the structure claims
all read one table build per graph there, and module tests check random
or hand-picked graphs instead.  test_anchored::test_equality_exhaustive_small
keeps its own n <= 5 pass: the anchored solver over this sweep measured
+20 s even on the shared tables.
"""

from __future__ import annotations

import functools
import hashlib
import time

import pytest

from broadcast_domination.anchored import solve_path_anchored
from broadcast_domination.bench import run_bench
from broadcast_domination.generators import GeneratorSpec, cycle_graph, path_graph
from broadcast_domination.graph import apsp, induced_subgraph
from broadcast_domination.oracle import iter_broadcasts_of_cost, oracle_gamma_b, oracle_gamma_path
from broadcast_domination.pathdag import _solve_broadcast, build_dag, solve_path
from broadcast_domination.peel import (
    RESIDUAL_CONNECTED,
    RESIDUAL_SINGLETON,
    RESIDUAL_SKIPPED,
    _cost_floor,
    iter_candidates,
    multipacking,
    radial_broadcast,
    solve_optimal,
)
from broadcast_domination.verify import Broadcast, verify_dominating, verify_efficient, verify_path_shaped

from conftest import (
    ball_law_violations,
    connected_graphs,
    is_cycle_shaped,
    is_multipacking,
    random_suite,
    run_cli,
    scalar_arcs,
    tables,
)


def _passed(label: str, detail: str) -> None:
    print(f"[ACCEPTANCE] {label}: PASS ({detail})")


def _unpruned_optimum(dm, candidates):
    """The peel loop without pruning: the radial broadcast, replaced by each
    candidate in (x, k) order that strictly improves on the best so far."""
    best = radial_broadcast(dm)
    for cand in candidates:
        if cand.total_cost is not None and cand.total_cost < best.cost:
            best = cand.broadcast
    return best


# _answers_digest of each sweep's answers, taken before the path-case
# layouts were regrouped (one owner per layout); answers must not move
PINNED_DIGESTS = {
    "exhaustive optimal": "c13aa5c7c7190500c31782b51cb3df48b8227b579ad26825a04fc2af9ae64e15",
    "exhaustive path": "ceecc73891d74574aa9498fd0f7783c965f7b0541b6037331171e52c9b7d59cf",
    "random optimal": "2cd5fd2e96caab1986629b09aed1e972ede4880de98eff12f51310db962c8d0a",
    "random path": "e5b95c6ccf0149dd22ae69a6415aa62fd41a7b2127e17b124b728499a194a209",
    "random anchored": "c7031bc7af681014b05537f0294e780830f75bb8fd9d954436c70b3d4f3f67cb",
}


def _answers_digest(broadcasts) -> str:
    """sha256 of the assignments, one `v=p,...` line per graph in sweep order."""
    text = "".join(",".join(f"{v}={p}" for v, p in bc.assignment) + "\n" for bc in broadcasts)
    return hashlib.sha256(text.encode()).hexdigest()


def _residual_diameter(g, dm, x, k) -> int:
    h, _ = induced_subgraph(g, [z for z in range(g.n) if dm.dist[x, z] > k])
    return int(apsp(h).ecc.max())


def _sweep_graph(res, n, g, path_solver) -> None:
    """Every exhaustive check on one graph, recorded in the sweep's keys."""
    dm, rt, rq = tables(g)
    tag = (n, g.edges())

    opt = solve_optimal(g)
    res["optimal_answers"].append(opt)
    truth_b = oracle_gamma_b(g)
    if opt.cost != truth_b.cost:
        res["gamma_b_mismatch"].append(tag + (opt.cost, truth_b.cost))

    packing = multipacking(dm)
    if not is_multipacking(dm, packing):
        res["packing_invalid"].append(tag + (tuple(packing),))
    if len(packing) > truth_b.cost:
        res["packing_above_gamma"].append(tag + (tuple(packing), truth_b.cost))

    sp = _solve_broadcast(dm, rt, rq)
    res["path_answers"].append(sp)
    truth_p = oracle_gamma_path(g)
    if sp.cost != truth_p.cost:
        res["gamma_path_mismatch"].append(tag + (sp.cost, truth_p.cost))

    if ball_law_violations(g, dm):
        res["law_violations"].append(tag)

    # build_dag raises on an arc that does not grow the left side
    dag = build_dag(g, dm, rt, rq)
    if set(zip(dag.arc_src.tolist(), dag.arc_dst.tolist())) != scalar_arcs(dm, rt, rq):
        res["scalar_arc_mismatch"].append(tag)

    candidates = list(iter_candidates(g, dm, path_solver))
    for cand in candidates:
        if cand.residual_kind == RESIDUAL_SKIPPED:
            continue
        x, k = cand.peel_center, cand.peel_power
        if not verify_dominating(g, dm, cand.broadcast).ok:
            res["candidate_infeasible"].append(tag + (x, k))
        if cand.residual_kind in (RESIDUAL_SINGLETON, RESIDUAL_CONNECTED) and cand.total_cost <= dm.radius:
            if _cost_floor(k, _residual_diameter(g, dm, x, k)) > cand.total_cost:
                res["floor_above_cost"].append(tag + (x, k))
    if opt != _unpruned_optimum(dm, candidates):
        res["pruned_differs"].append(tag)

    # the oracle enumerates no broadcast of cost 0, K1's optimum
    if n >= 2:
        found_efficient = False
        found_shape = False
        singleton_fail = False
        for bc in iter_broadcasts_of_cost(dm, truth_b.cost):
            if not verify_dominating(g, dm, bc).ok:
                continue
            if not verify_efficient(g, dm, bc).ok:
                continue
            found_efficient = True
            if not found_shape and (verify_path_shaped(g, dm, bc).ok or is_cycle_shaped(dm, bc)):
                found_shape = True
            for x, k in bc.assignment:
                if int((dm.dist[x] > k).sum()) == 1:
                    singleton_fail = True
        if not found_efficient:
            res["no_efficient_optimum"].append(tag)
        if not found_shape:
            res["no_path_or_cycle_witness"].append(tag)
        if singleton_fail:
            res["singleton_peel"].append(tag)


@pytest.fixture(scope="session")
def exhaustive_sweep():
    """One pass over every connected labeled graph with n <= 6.  Each graph's
    tables are built once and read by the path solve, the arc checks and the
    ball laws; the unpruned reference loop shares one cached path solver
    over the whole sweep (solve_path is deterministic, and equal residual
    graphs hash equal).  A graph whose checks raise is recorded under
    "raised" with the exception's repr, and the sweep goes on, so one
    raising solver does not hide what the other keys collect."""
    path_solver = functools.cache(solve_path)
    res = {
        "graphs": 0,
        "raised": [],
        "gamma_b_mismatch": [],
        "gamma_path_mismatch": [],
        "law_violations": [],
        "scalar_arc_mismatch": [],
        "candidate_infeasible": [],
        "pruned_differs": [],
        "floor_above_cost": [],
        "packing_invalid": [],
        "packing_above_gamma": [],
        "singleton_peel": [],
        "no_efficient_optimum": [],
        "no_path_or_cycle_witness": [],
        "optimal_answers": [],
        "path_answers": [],
    }
    for n in range(1, 7):
        for g in connected_graphs(n):
            res["graphs"] += 1
            try:
                _sweep_graph(res, n, g, path_solver)
            except Exception as exc:
                res["raised"].append((n, g.edges(), repr(exc)))
    return res


@pytest.fixture(scope="session")
def random_sweep():
    """500 seeded random connected graphs with 7 <= n <= 12: a row per
    graph under "rows", (graph, solve_optimal, oracle gamma_b, solve_path,
    oracle gamma_path, unpruned loop).  As in exhaustive_sweep, a graph
    whose solve raises is recorded under "raised" with (n, edges, repr) and
    the sweep goes on to the next graph."""
    res = {"rows": [], "raised": []}
    for g in random_suite(500, 7, 12, base_seed=1000):
        try:
            res["rows"].append(
                (
                    g,
                    solve_optimal(g),
                    oracle_gamma_b(g).cost,
                    solve_path(g),
                    oracle_gamma_path(g).cost,
                    _unpruned_optimum(apsp(g), iter_candidates(g)),
                )
            )
        except Exception as exc:
            res["raised"].append((g.n, g.edges(), repr(exc)))
    return res


def test_oracle_equivalence_general(exhaustive_sweep, random_sweep):
    # 1 + 1 + 4 + 38 + 728 + 26 704 connected labeled graphs on 1-6 vertices
    assert exhaustive_sweep["graphs"] == 27476
    assert exhaustive_sweep["gamma_b_mismatch"] == []
    assert random_sweep["raised"] == []
    bad = [(g.n, g.edges()) for g, opt, oc, *_ in random_sweep["rows"] if opt.cost != oc]
    assert bad == []
    _passed(
        "oracle equivalence (general)",
        f"{exhaustive_sweep['graphs']} exhaustive graphs n<=6 + {len(random_sweep['rows'])} random 7<=n<=12, exact",
    )


def test_oracle_equivalence_path_case(exhaustive_sweep, random_sweep):
    assert exhaustive_sweep["gamma_path_mismatch"] == []
    bad = [(g.n, g.edges()) for g, _, _, sp, oc, _ in random_sweep["rows"] if sp.cost != oc]
    assert bad == []
    _passed(
        "oracle equivalence (path case)",
        f"{exhaustive_sweep['graphs']} exhaustive graphs n<=6 + {len(random_sweep['rows'])} random 7<=n<=12, exact",
    )


def test_pruned_peel_matches_unpruned_loop(exhaustive_sweep, random_sweep):
    # the diameter bound may drop only candidates that cannot strictly
    # improve, so the answer is the unpruned loop's, assignment for assignment
    assert exhaustive_sweep["pruned_differs"] == []
    bad = [(g.n, g.edges()) for g, opt, *_, ref in random_sweep["rows"] if opt != ref]
    assert bad == []
    pooled = random_sweep["rows"][::50]
    bad = [(g.n, g.edges()) for g, *_, ref in pooled if solve_optimal(g, threads=2) != ref]
    assert bad == []
    _passed(
        "pruned peel loop",
        f"equals the unpruned loop on {exhaustive_sweep['graphs']} graphs n<=6 and {len(random_sweep['rows'])} random"
        f" 7<=n<=12; threads=2 on {len(pooled)} of them",
    )


def test_answers_pinned(exhaustive_sweep, random_sweep):
    # sha256 of every assignment, not only of every cost: tie-breaks among
    # equal-cost optima stay byte for byte what they were
    got = {
        "exhaustive optimal": _answers_digest(exhaustive_sweep["optimal_answers"]),
        "exhaustive path": _answers_digest(exhaustive_sweep["path_answers"]),
        "random optimal": _answers_digest(opt for _, opt, *_ in random_sweep["rows"]),
        "random path": _answers_digest(sp for _, _, _, sp, *_ in random_sweep["rows"]),
        "random anchored": _answers_digest(solve_path_anchored(g) for g, *_ in random_sweep["rows"]),
    }
    assert got == PINNED_DIGESTS
    _passed(
        "answers pinned",
        f"assignment digests of {exhaustive_sweep['graphs']} graphs n<=6 and {len(random_sweep['rows'])} random 7<=n<=12",
    )


def test_diameter_bound_sound(exhaustive_sweep):
    # k + ceil((diam H + 1)/3) never exceeds the cost of a candidate that
    # could matter (cost <= rad(G)); diam H is the exact residual diameter
    assert exhaustive_sweep["floor_above_cost"] == []
    _passed("diameter bound", f"at most the candidate cost on all {exhaustive_sweep['graphs']} graphs n<=6")


def test_multipacking_bound(exhaustive_sweep, random_sweep):
    # every greedy packing is a multipacking by ball counts, so its size is
    # a lower bound on gamma_b; the gap to gamma_b is reported, not bounded
    assert exhaustive_sweep["packing_invalid"] == []
    assert exhaustive_sweep["packing_above_gamma"] == []
    short = 0
    for g, _, gamma_b, *_ in random_sweep["rows"]:
        dm = apsp(g)
        packing = multipacking(dm)
        assert is_multipacking(dm, packing), (g.n, g.edges())
        assert len(packing) <= gamma_b, (g.n, g.edges())
        short += len(packing) < gamma_b
    _passed(
        "multipacking bound",
        f"valid and at most gamma_b on {exhaustive_sweep['graphs']} graphs n<=6 and {len(random_sweep['rows'])} random"
        f" 7<=n<=12; below gamma_b on {short} of the random graphs",
    )


def test_invariant_suite(exhaustive_sweep, small_random_graphs):
    assert exhaustive_sweep["raised"] == []
    assert exhaustive_sweep["law_violations"] == []
    assert exhaustive_sweep["scalar_arc_mismatch"] == []
    assert exhaustive_sweep["candidate_infeasible"] == []
    assert exhaustive_sweep["singleton_peel"] == []
    # the same properties on random instances
    for g in small_random_graphs[:20]:
        dm = apsp(g)
        assert ball_law_violations(g, dm) == set()
        for cand in iter_candidates(g, dm):
            if cand.residual_kind != RESIDUAL_SKIPPED:
                assert verify_dominating(g, dm, cand.broadcast).ok
    _passed(
        "invariant suite",
        "no raising graph, ball intersection, tight contact, scalar arc test, candidate feasibility, no singleton peel",
    )


def test_structure_spot_check(exhaustive_sweep):
    assert exhaustive_sweep["no_efficient_optimum"] == []
    assert exhaustive_sweep["no_path_or_cycle_witness"] == []
    _passed(
        "structure spot-check",
        f"path-or-cycle optimal witness on all {exhaustive_sweep['graphs']} graphs n<=6",
    )


def _greedy_third_witness(n: int, is_cycle: bool) -> Broadcast:
    """Power-1 broadcasters every three vertices: an explicit ceil(n/3) cover."""
    centers = []
    i = 0
    while i < n:
        centers.append(min(i + 1, n - 1) if not is_cycle else (i + 1) % n)
        i += 3
    return Broadcast.from_pairs((c, 1) for c in centers)


def test_closed_form_families():
    # formula validated against the oracle first
    for n in range(2, 13):
        assert oracle_gamma_b(path_graph(n)).cost == -(-n // 3)
    for n in range(3, 13):
        assert oracle_gamma_b(cycle_graph(n)).cost == -(-n // 3)
    # solver matches the formula up to n = 60, its output dominates, and an
    # explicitly constructed witness certifies the upper bound independently
    for n in range(2, 61):
        for family, gen, lo in (("path", path_graph, 2), ("cycle", cycle_graph, 3)):
            if n < lo:
                continue
            g = gen(n)
            dm = apsp(g)
            bc = solve_optimal(g)
            assert bc.cost == -(-n // 3), (family, n, bc.cost)
            assert verify_dominating(g, dm, bc).ok
            witness = _greedy_third_witness(n, family == "cycle")
            assert witness.cost <= -(-n // 3)
            assert verify_dominating(g, dm, witness).ok
    _passed("closed-form family check", "gamma = ceil(n/3) on paths (2..60) and cycles (3..60)")


def test_scaling_cubic():
    # each size is timed by process CPU time, best of 9 calls.  The calls
    # take turns across the sizes: on a shared host the CPU itself runs
    # slower for seconds at a time, and a slow spell that covered every
    # call of one size would skew its ratio.  Time has only an upper gate,
    # so a super-cubic solve fails; a lower one would fail faster cubic
    # work and host noise alike (the 64 -> 128 ratio read 4.7-5.1 on a
    # shared 2-core host).  The growth is pinned from below by the counts
    sizes = (64, 128, 256)
    graphs = {n: path_graph(n) for n in sizes}
    best = dict.fromkeys(sizes, float("inf"))
    for _ in range(9):
        for n in sizes:
            t0 = time.process_time()
            solve_path(graphs[n])
            best[n] = min(best[n], time.process_time() - t0)
    r1 = best[128] / best[64]
    r2 = best[256] / best[128]
    assert r1 <= 13.0, f"doubling ratio 64->128 was {r1:.2f}"
    assert r2 <= 13.0, f"doubling ratio 128->256 was {r2:.2f}"
    # state and arc growth against frozen cubic constants (measured once:
    # arcs/n^3 was 0.235..0.247 on these sizes, states < 2*n*rho + n), and
    # exact doubling factors: arcs grow like n^3 (8.27 and 8.13 when
    # pinned), states like n * rho (4.00 both times)
    counts = {}
    for n in sizes:
        g = graphs[n]
        dm, rt, rq = tables(g)
        dag = build_dag(g, dm, rt, rq)
        assert dag.num_states <= 2 * n * dm.radius + n
        assert dag.num_arcs <= 0.26 * n**3
        counts[n] = (dag.num_states, dag.num_arcs)
    factors = []
    for a, b in zip(sizes, sizes[1:]):
        states, arcs = (counts[b][i] / counts[a][i] for i in (0, 1))
        assert 3.5 <= states <= 4.5, f"state doubling factor {a}->{b} was {states:.2f}"
        assert 7.0 <= arcs <= 9.0, f"arc doubling factor {a}->{b} was {arcs:.2f}"
        factors.append(f"{states:.2f}/{arcs:.2f}")
    _passed(
        "scaling check",
        f"time doubling ratios {r1:.2f}, {r2:.2f} <= 13; state/arc doubling factors {', '.join(factors)}",
    )


def test_benchmark_trend():
    # path and cycle families: the anchored baseline must lose at every
    # n >= 20 with nondecreasing speedup (absolute numbers from other
    # hardware/languages are explicitly not targets).  The strict slowdown
    # has an order-of-magnitude margin and must hold on every attempt; the
    # monotonicity comparison sits within timing noise on a contended host,
    # so it gets a bounded number of measurement attempts.  run_bench takes
    # turns across the sizes, so a slow spell of the host hits all of them
    for family in ("path", "cycle"):
        specs = [GeneratorSpec(family, n) for n in (20, 30, 40)]
        speedups = []
        for attempt in range(3):
            results = run_bench(specs, task="path", reps=7)  # costs checked equal inside
            for r in results:
                assert r.base_ms > r.new_ms, f"{family} n={r.n}: baseline not slower"
            speedups = [r.speedup for r in results]
            if speedups == sorted(speedups):
                break
        assert speedups == sorted(speedups), f"{family}: speedup not monotone: {speedups}"
    # star and wheel families: near-parity end to end, within 2x either way
    for family, sizes in (("star", (40, 160)), ("wheel", (40, 80))):
        specs = [GeneratorSpec(family, n) for n in sizes]
        for r in run_bench(specs, task="optimal", reps=5):
            assert 0.5 <= r.speedup <= 2.0, f"{family} n={r.n}: ratio {r.speedup:.2f} outside parity band"
    _passed(
        "benchmark trend",
        "baseline slower with monotone speedup on paths/cycles; stars/wheels within 2x parity",
    )


def test_determinism(tmp_path):
    p6 = "6\n0 1\n1 2\n2 3\n3 4\n4 5\n"
    fixed = [
        (["solve"], p6),
        (["path"], p6),
        (["oracle"], p6),
        (["gen", "--family", "sparse-random", "--n", "10", "--seed", "9"], ""),
    ]
    for args, stdin in fixed:
        a = run_cli(args, stdin)
        b = run_cli(args, stdin)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout, f"nondeterministic output for {args}"
    bfile = tmp_path / "bc.txt"
    bfile.write_text("1 1\n4 1\n")
    a = run_cli(["verify", "--broadcast", str(bfile)], p6)
    b = run_cli(["verify", "--broadcast", str(bfile)], p6)
    assert a.stdout == b.stdout

    # bench rows are identical except the physically nondeterministic time
    # column (and anything derived from it)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for out in (out1, out2):
        res = run_cli(["bench", "--family", "path", "--n", "8,12", "--reps", "1", "--out", str(out)])
        assert res.returncode == 0

    def stable_rows(path):
        lines = path.read_text().splitlines()
        head = lines[0].split(",")
        t = head.index("median_ms")
        return [",".join(col for i, col in enumerate(line.split(",")) if i != t) for line in lines]

    assert stable_rows(out1) == stable_rows(out2)
    _passed("determinism", "byte-identical reports; bench stable modulo wall-clock columns")
