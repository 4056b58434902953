"""Seeded calibration runs: how often does a run hit its target?

A calibration claim (an interval's coverage, a test's size) is a
frequency over many independently seeded series. hits_per_cell runs
fn(cell, seed) for `seeds` runs of every cell of a grid and counts the
runs whose result is true. Run s of cell i gets the seed
seeding.derive_seed(base, i, s), so no two runs share a stream. The runs
go through experiment._map_cells, the sweep's cell runner: on forked
worker processes, one per usable CPU, or in this process. The workers
inherit fn and send back its results by pickle, so those must pickle.
"""

from growthlab import experiment, seeding


def hits_per_cell(fn, grid, seeds: int, base: int) -> list[int]:
    """How many of the `seeds` runs of each cell of `grid` fn counts a hit."""
    grid = list(grid)
    run_seeds = [seeding.derive_seed(base, index, s)
                 for index in range(len(grid)) for s in range(seeds)]
    assert len(set(run_seeds)) == len(run_seeds), "two runs share a seed"
    hits = experiment._map_cells(
        fn, ([cell for cell in grid for _ in range(seeds)], run_seeds))
    return [sum(map(bool, hits[start:start + seeds]))
            for start in range(0, len(hits), seeds)]
