"""The census of ``test_census.py`` on the 11,117 connected graphs with 8 vertices.

Run from the repository root as ``PYTHONPATH=src python tests/census.py``;
it takes about 15 s.  Exactly one of the graphs must pass a gap
``k <= 3`` at window (3, 3): K2222, at ``k = 1``.  Exactly five must be
consistent with no such ``k``: C8, K44, K8, the cube and the Wagner graph
(C8 with its four long diagonals).  Exits 1 otherwise.
"""

import sys

from test_census import (CONNECTED_COUNTS, code_of, connected_graphs,
                         graph_of, outcome)

from insertproc import (WeightedGraph, complete_graph, cycle_graph,
                        multipartite_graph)

# the two 3-regular graphs among the five: vertices of the cube differ in
# one bit, those of the Wagner graph by 1 or 4 around the 8-cycle
CUBE = WeightedGraph([[int(bin(a ^ b).count("1") == 1) for b in range(8)]
                      for a in range(8)])
WAGNER = WeightedGraph([[int((a - b) % 8 in (1, 4, 7)) for b in range(8)]
                        for a in range(8)])


def main() -> int:
    graphs = connected_graphs(8)[7]
    outcomes = {code: outcome(graph_of(code)) for code in graphs}
    passing = {code: k for code, k in outcomes.items()
               if k not in ("inconsistent", None)}
    stuck = {code for code, k in outcomes.items() if k is None}
    print(f"{len(graphs)} connected graphs on 8 vertices: {len(passing)} "
          f"pass, {len(stuck)} consistent with no k <= 3, "
          f"{len(graphs) - len(passing) - len(stuck)} inconsistent")
    if len(graphs) != CONNECTED_COUNTS[7]:
        print(f"expected {CONNECTED_COUNTS[7]} graphs", file=sys.stderr)
        return 1
    if passing != {code_of(multipartite_graph(4, 2)): 1}:
        print(f"expected only K2222 to pass, at k = 1: {passing}",
              file=sys.stderr)
        return 1
    if stuck != {code_of(g) for g in (cycle_graph(8), multipartite_graph(2, 4),
                                      complete_graph(8), CUBE, WAGNER)}:
        print(f"expected C8, K44, K8, the cube and the Wagner graph to be "
              f"consistent with no k <= 3: {sorted(stuck)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
