"""Exact broadcast domination: assign integer powers to vertices so every
vertex is within some broadcaster's power, minimizing the power sum.

The path-case solver runs in cubic time over a single oriented-ball state
DAG; the general solver peels one candidate ball and path-solves the rest,
in O(n^5) overall.  A brute-force oracle, an anchored baseline, generators,
and a benchmark harness round out the package.
"""

from .anchored import solve_path_anchored
from .generators import FAMILIES, GeneratorSpec, SplitMix64, generate
from .graph import (
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    GraphFormatError,
    GraphTooLargeError,
    InternalError,
    apsp,
    bits_of,
    induced_subgraph,
    is_connected,
    parse_graph,
    render_graph,
)
from .metric import RequirementTable, ResidualTable, requirement_table, residual_decompositions
from .oracle import OracleLimitError, OracleResult, oracle_gamma_b, oracle_gamma_path
from .pathdag import State, StateDag, arc_test, build_dag, enumerate_states, solve_path
from .peel import Candidate, iter_candidates, multipacking, radial_broadcast, solve_optimal
from .verify import (
    Broadcast,
    Verdict,
    ball_mask,
    full_verdict,
    parse_broadcast,
    verify_dominating,
    verify_efficient,
    verify_path_shaped,
)

__version__ = "0.1.0"
