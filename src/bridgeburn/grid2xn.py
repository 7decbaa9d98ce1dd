"""Cop team for 2xn grids: the theorem's ceil((n+2)/9) placement, chasing greedily.

The placement is the one behind the paper's upper bound (see
`bounds.thm_2xn_columns`): a cop in column 3 (column n-1 when n <= 3),
then one every ninth column, finishing with a cop in column n-4.

In-game play is plain greedy chasing, as in `GreedyCloserCop`: each cop
steps along a shortest unburned path to the robber.  The exhaustive test
`test_grid2xn_wins_small` checks that this team wins every 2xn grid with
n <= 40.
"""

from __future__ import annotations

from .bounds import placement_generators
from .graph import Graph
from .strategies import GreedyCloserCop, _require_family


class Grid2xnCopTeam(GreedyCloserCop):
    name = "grid2xn_cop"

    def __init__(self, g: Graph, n: int):
        super().__init__(g, placement_generators(_require_family(self, g, "grid", 2, n)))
