"""Regenerate catalogue.json: the random connected graphs of the `solve`
workload, with their gamma_oidr values pinned at creation.

The orders n = 14 and 15 are beyond the numpy oracle (n <= 12), so each pinned
value is cross-checked by solving a second labeling of the same graph (a
different search order) and against the sandwich bounds of the paper.

    python3 perfbench/make_catalogue.py
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from oidrd import graphs as G  # noqa: E402
from oidrd import solver as S  # noqa: E402

CREATION_SEED = 1909
# (edge probability, order, count): two densities at the orders where one
# solve takes tens of milliseconds, so a run repeats the whole mix
MIX = ((0.5, 14, 6), (0.5, 15, 6), (0.2, 14, 8))


def _random_connected(n: int, p: float, rng: random.Random) -> G.Graph:
    while True:
        g = G.build(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        if G.is_connected(g):
            return g


def main() -> None:
    rng = random.Random(CREATION_SEED)
    graphs = []
    for p, n, count in MIX:
        for _ in range(count):
            g = _random_connected(n, p, rng)
            value = S.solve_oidrd(g).value
            flipped = G.build(n, [(n - 1 - u, n - 1 - v) for u, v in g.edges()])
            if S.solve_oidrd(flipped).value != value:
                raise SystemExit("pinned value differs between two labelings")
            alpha = S.solve_alpha(g).value
            beta = n - alpha
            lower = max(Fraction(S.solve_gamma(g).value), Fraction(2 * alpha, g.max_degree)) + beta
            if not lower <= value <= 3 * beta:
                raise SystemExit("pinned value violates the sandwich bounds")
            graphs.append({"density": p, "n": n, "edges": g.edges(), "gamma_oidr": value})
    out = {"creation_seed": CREATION_SEED, "graphs": graphs}
    (HERE / "catalogue.json").write_text(json.dumps(out, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
