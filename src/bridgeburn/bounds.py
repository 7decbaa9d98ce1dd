"""Domination-style parameters and closed-form values for named families.

Everything here is exact at desk scale: subset enumeration for the
domination numbers, literal formula lookup for the families, and the
constructive initial cop placements for 2xn grids, general grids, and
tori.  The grid generator checks each of its three parts against the
count the theorem gives it, which guards the construction against
misreading; the tests check every placement's size against its
upper-bound formula, and the 2xn count against ceil((n+2)/9).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .families import FamilySpec, FamilySpecError, grid_vertex
from .graph import Graph, all_distances_from


class BoundsBudgetError(ValueError):
    """Graph too large for exhaustive parameter search."""


class PlacementInvariantError(RuntimeError):
    """A placement construction broke a count its theorem states; a bug here."""


MAX_EXHAUSTIVE_VERTICES = 13


@dataclass(frozen=True)
class BoundsReport:
    gamma: int
    gamma2: int
    clique_cover_dom: int
    witnesses: dict[str, tuple]

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "gamma2": self.gamma2,
            "cliqueCoverDom": self.clique_cover_dom,
            "witnesses": {k: [list(s) for s in v] if k == "clique_cover_dom" else list(v)
                          for k, v in self.witnesses.items()},
        }


@dataclass(frozen=True)
class FamilyFormulaResult:
    exact: int | None
    lower: int | None
    upper: int | None
    source: str
    capture_time_lower: int | None = None  # only for capture_family

    def to_json_dict(self) -> dict:
        return {
            "exact": self.exact,
            "lower": self.lower,
            "upper": self.upper,
            "source": self.source,
            "captureTimeLower": self.capture_time_lower,
        }


def _ball_masks(g: Graph, radius: int) -> list[int]:
    balls = []
    for v in range(g.vertex_count):
        mask = 0
        for u, d in enumerate(all_distances_from(g, v)):
            if 0 <= d <= radius:
                mask |= 1 << u
        balls.append(mask)
    return balls


def _min_cover(universe: int, masks: list[int], n: int) -> tuple[int, tuple[int, ...]]:
    """Smallest index set in range(n) whose masks union to the universe,
    with the first such set in combinations order."""
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            acc = 0
            for v in combo:
                acc |= masks[v]
            if acc == universe:
                return size, combo
    raise AssertionError("the masks do not cover the universe")


def all_cliques(g: Graph) -> list[tuple[int, ...]]:
    """Every nonempty complete vertex subset, in lexicographic order."""
    cliques: list[tuple[int, ...]] = []
    adj = [set(g.neighbors(v)) for v in range(g.vertex_count)]

    def extend(base: tuple[int, ...], candidates: list[int]) -> None:
        for i, v in enumerate(candidates):
            cur = base + (v,)
            cliques.append(cur)
            extend(cur, [w for w in candidates[i + 1 :] if w in adj[v]])

    extend((), list(range(g.vertex_count)))
    return cliques


def domination_numbers(g: Graph) -> BoundsReport:
    """Exact gamma, gamma2 and the least k with k cliques dominating G."""
    n = g.vertex_count
    if n > MAX_EXHAUSTIVE_VERTICES:
        raise BoundsBudgetError(f"{n} vertices exceeds exhaustive-search budget")
    if n == 0:
        raise ValueError("empty graph")
    universe = (1 << n) - 1
    ball1 = _ball_masks(g, 1)
    ball2 = _ball_masks(g, 2)
    gamma, wg = _min_cover(universe, ball1, n)
    gamma2, wg2 = _min_cover(universe, ball2, n)

    cliques = all_cliques(g)
    clique_dom = [0] * len(cliques)
    for idx, cl in enumerate(cliques):
        m = 0
        for v in cl:
            m |= ball1[v]
        clique_dom[idx] = m
    # singletons are cliques, so a cover of at most gamma cliques exists
    cover_k, combo = _min_cover(universe, clique_dom, len(cliques))
    return BoundsReport(
        gamma=gamma,
        gamma2=gamma2,
        clique_cover_dom=cover_k,
        witnesses={
            "gamma": wg,
            "gamma2": wg2,
            "clique_cover_dom": tuple(cliques[idx] for idx in combo),
        },
    )


# --- closed-form family values ----------------------------------------------


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def family_formula(spec: FamilySpec) -> FamilyFormulaResult:
    """Known exact value or proven lower/upper bounds for the family member."""
    fam, p = spec.family, spec.params
    if fam == "path":
        (n,) = p
        return _exact(1 if n <= 5 else 2, "paths: 1 up to P5, else 2")
    if fam == "cycle":
        return _exact(1, "cycles: single cop always wins")
    if fam == "complete":
        return _exact(1, "complete graphs: capture on the first turn")
    if fam == "complete_bipartite":
        return _exact(1, "complete bipartite: an edge is a dominating clique")
    if fam == "hypercube":
        return _exact(1, "hypercubes: mirror strategy")
    if fam == "stalemate":
        return _exact(2, "stalemate graph: distance-2 domination 1 yet two cops needed")
    if fam == "grid":
        m, n = p
        if m == 1 or n == 1:
            k = max(m, n)
            return _exact(1 if k <= 5 else 2, "1xn grid is a path")
        if m == 2 or n == 2:
            k = n if m == 2 else m
            return _exact(_ceil_div(k + 2, 9), "2xn grids: ceil((n+2)/9)")
        lower = _ceil_div(m * n, 121)
        return FamilyFormulaResult(None, lower, grid_theorem_upper(m, n), "grid bounds")
    if fam == "torus":
        m, n = p
        lower = _ceil_div(m * n, 121)
        upper = torus_theorem_upper(m, n)
        if lower == upper:
            return FamilyFormulaResult(lower, lower, upper, "torus bounds (tight here)")
        return FamilyFormulaResult(None, lower, upper, "torus bounds")
    if fam == "capture_family":
        m, k = p
        return FamilyFormulaResult(
            exact=1,
            lower=1,
            upper=1,
            source="dominating clique v1..vk; capture time at least m^2 k(k-1)/2 + 1",
            capture_time_lower=m * m * k * (k - 1) // 2 + 1,
        )
    raise FamilySpecError(f"no closed-form result for family {fam!r}")


def _exact(v: int, source: str) -> FamilyFormulaResult:
    return FamilyFormulaResult(v, v, v, source)


# --- constructive placements --------------------------------------------------


def placement_generators(spec: FamilySpec) -> tuple[int, ...]:
    """The initial cop placements the grid/torus arguments construct.

    Returns a sorted vertex multiset whose size equals the matching
    upper-bound formula.  On the 2xn grid the cops stand in row 0 of the
    columns `thm_2xn_columns` gives.
    """
    fam, p = spec.family, spec.params
    if fam == "grid" and p[0] == 2:
        return tuple(grid_vertex(p[1], c, 0) for c in thm_2xn_columns(p[1]))
    if fam == "grid":
        return _grid_placement(*p)
    if fam == "torus":
        return _torus_placement(*p)
    raise FamilySpecError(f"no placement construction for {spec}")


def thm_2xn_columns(n: int) -> list[int]:
    """Cop columns for the 2xn grid: 3, 12, 21, ... and finally n-4."""
    if n <= 3:
        return [n - 1]
    if n <= 7:
        return [3]
    cols = [3]
    while cols[-1] + 9 < n - 4:
        cols.append(cols[-1] + 9)
    cols.append(n - 4)
    return cols


def _torus_placement(m: int, n: int) -> tuple[int, ...]:
    # The count lands exactly on 2*ceil(m/16)*ceil(n/14).
    return tuple(sorted(_checkerboard(m, n, _ceil_div(n, 14), _ceil_div(m, 16))))


def _checkerboard(m: int, n: int, col_pairs: int, row_pairs: int) -> list[int]:
    """Cops at (7k, 8l) for k < 2*col_pairs, l < 2*row_pairs and k + l odd,
    wrapped onto the m x n torus."""
    return [grid_vertex(n, 7 * k % n, 8 * l % m)
            for k in range(2 * col_pairs) for l in range(2 * row_pairs) if (k + l) % 2]


def _grid_placement(m: int, n: int) -> tuple[int, ...]:
    """Border patrol + central + peripheral cops for the m x n grid."""
    if m < 8 or n < 8:
        raise FamilySpecError("grid placement construction needs m, n >= 8")
    cops: list[int] = []

    def put(i: int, j: int) -> None:
        cops.append(grid_vertex(n, i, j))

    # Border patrol: 2*floor(m/5) + 2*floor(n/5) + 4 cops just inside the rim.
    for k in range(m // 5):
        put(1, 5 * k + 2)
        put(n - 2, 5 * k + 2)
    put(1, m - 1)
    put(n - 2, m - 1)
    for l in range(n // 5):
        put(5 * l + 2, 1)
        put(5 * l + 2, m - 2)
    put(n - 1, 1)
    put(n - 1, m - 2)
    border = len(cops)
    _check_count("border", border, 2 * (m // 5) + 2 * (n // 5) + 4)

    # Central cops: the torus pattern on whole blocks, which never wraps.
    cops.extend(_checkerboard(m, n, n // 14, m // 16))
    central = len(cops) - border
    _check_count("central", central, 2 * (m // 16) * (n // 14))

    # Peripheral cops: floor(n/5) along rows m-8 / m-2, floor(m/5) along
    # columns n-2 / n-8, alternating as itemized.
    for t in range(n // 5):
        put(5 * t, m - 8 if t % 2 == 0 else m - 2)
    for t in range(m // 5):
        put(n - 2 if t % 2 == 0 else n - 8, 5 * t)
    _check_count("peripheral", len(cops) - border - central, (m // 5) + (n // 5))
    return tuple(sorted(cops))


def _check_count(part: str, placed: int, counted: int) -> None:
    if placed != counted:
        raise PlacementInvariantError(f"{part} cops: placed {placed}, the theorem counts {counted}")


def grid_theorem_upper(m: int, n: int) -> int:
    return 2 * (m // 16) * (n // 14) + 3 * (m // 5 + n // 5) + 4


def torus_theorem_upper(m: int, n: int) -> int:
    return 2 * _ceil_div(m, 16) * _ceil_div(n, 14)
