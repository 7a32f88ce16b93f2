"""SKX tiled floorplan model (paper Fig. 1(a)).

The die is a mesh of tiles — core tiles (core + CHA/SF/LLC slice),
memory-controller tiles on the sides, and the north cap (IO
controllers, GPMU, and in APC the APMU) across the top row. The
floorplan backs two things:

* the **area model** (Sec. 5.1–5.3): long-distance signal routing
  lengths for ``InCC1``/``InL0s``/control wires are Manhattan
  distances on this grid;
* sanity checks that the AND-tree aggregation of neighbouring cores
  (Sec. 5.3) actually reduces cross-die routing.

The 10-core Silver 4114 uses the LCC-like 3x4 mesh variant plus the
north cap row.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tile:
    """One mesh tile."""

    name: str
    kind: str  # "core" | "mc" | "northcap"
    row: int
    col: int


class SkxFloorplan:
    """Grid floorplan with Manhattan routing metrics."""

    def __init__(self, n_cores: int = 10, mesh_cols: int = 4):
        if n_cores < 1 or mesh_cols < 1:
            raise ValueError("floorplan needs at least one core and column")
        self.n_cores = n_cores
        self.mesh_cols = mesh_cols
        self.tiles: dict[str, Tile] = {}
        #: Mesh connectivity: tile name -> names of its neighbours.
        self.adjacency: dict[str, set[str]] = {}
        self._build()

    def _build(self) -> None:
        # North cap occupies row 0: IO controllers + PMUs.
        north = ["pcie0", "pcie1", "pcie2", "dmi0"][: self.mesh_cols]
        for col, name in enumerate(north):
            self._add_tile(Tile(name, "northcap", 0, col))
        self._add_tile(Tile("gpmu", "northcap", 0, 0))
        self._add_tile(Tile("apmu", "northcap", 0, 1))
        for col, name in enumerate(["upi0", "upi1"]):
            self._add_tile(Tile(name, "northcap", 0, min(col + 2, self.mesh_cols - 1)))
        # Core tiles fill the mesh rows below the north cap.
        rows = -(-self.n_cores // self.mesh_cols)
        for i in range(self.n_cores):
            row, col = 1 + i // self.mesh_cols, i % self.mesh_cols
            self._add_tile(Tile(f"core{i}", "core", row, col))
        # Memory controllers sit on the left/right edges mid-die.
        mc_row = 1 + rows // 2
        self._add_tile(Tile("mc0", "mc", mc_row, 0))
        self._add_tile(Tile("mc1", "mc", mc_row, self.mesh_cols - 1))
        # Mesh edges: 4-neighbour connectivity between tile positions.
        positions: dict[tuple[int, int], list[str]] = {}
        for tile in self.tiles.values():
            positions.setdefault((tile.row, tile.col), []).append(tile.name)
        for (row, col), names in positions.items():
            for other in ((row + 1, col), (row, col + 1)):
                if other in positions:
                    for a in names:
                        for b in positions[other]:
                            self._link(a, b)
            # Co-located tiles (e.g. gpmu sharing a north-cap slot).
            for a in names:
                for b in names:
                    if a != b:
                        self._link(a, b)

    def _add_tile(self, tile: Tile) -> None:
        if tile.name in self.tiles:
            raise ValueError(f"duplicate tile {tile.name!r}")
        self.tiles[tile.name] = tile
        self.adjacency[tile.name] = set()

    def _link(self, a: str, b: str) -> None:
        self.adjacency[a].add(b)
        self.adjacency[b].add(a)

    # -- metrics ---------------------------------------------------------
    def manhattan_hops(self, src: str, dst: str) -> int:
        """Tile hops between two tiles (Manhattan distance)."""
        a, b = self.tiles[src], self.tiles[dst]
        return abs(a.row - b.row) + abs(a.col - b.col)

    def routed_hops(self, src: str, dst: str) -> int:
        """Hops along the mesh graph (>= Manhattan distance).

        A breadth-first search from ``src``: the mesh is unweighted.
        """
        for name in (src, dst):
            if name not in self.tiles:
                raise KeyError(f"unknown tile {name!r}")
        seen = {src}
        frontier = [src]
        hops = 0
        while frontier:
            if dst in seen:
                return hops
            hops += 1
            reached: list[str] = []
            for name in frontier:
                for other in self.adjacency[name]:
                    if other not in seen:
                        seen.add(other)
                        reached.append(other)
            frontier = reached
        raise ValueError(f"no mesh path from {src!r} to {dst!r}")

    def direct_star_wirelength(self, hub: str, leaves: list[str]) -> int:
        """Total hops routing every leaf individually to the hub."""
        return sum(self.manhattan_hops(leaf, hub) for leaf in leaves)

    def aggregated_wirelength(self, hub: str, leaves: list[str]) -> int:
        """Total hops when neighbouring leaves AND-combine first.

        Models the paper's Sec. 5.3 optimization: per mesh column the
        leaf signals combine locally (one hop between row neighbours),
        then one combined wire runs to the hub.
        """
        columns: dict[int, list[Tile]] = {}
        for leaf in leaves:
            tile = self.tiles[leaf]
            columns.setdefault(tile.col, []).append(tile)
        total = 0
        for col, tiles in columns.items():
            rows = sorted(t.row for t in tiles)
            total += rows[-1] - rows[0]  # chain within the column
            top = min(tiles, key=lambda t: t.row)
            total += self.manhattan_hops(top.name, hub)
        return total

    def core_names(self) -> list[str]:
        """The core tile names in index order."""
        return [f"core{i}" for i in range(self.n_cores)]
