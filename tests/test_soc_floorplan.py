"""Tests for the SKX floorplan and its routing metrics."""

import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest

from repro.soc.floorplan import SkxFloorplan


def reachable(plan: SkxFloorplan, start: str) -> set[str]:
    """Every tile a breadth-first walk of the mesh reaches from ``start``."""
    seen = {start}
    queue = deque([start])
    while queue:
        for other in plan.adjacency[queue.popleft()]:
            if other not in seen:
                seen.add(other)
                queue.append(other)
    return seen


class TestConstruction:
    def test_default_has_all_core_tiles(self):
        plan = SkxFloorplan()
        for name in plan.core_names():
            assert name in plan.tiles
        assert len(plan.core_names()) == 10

    def test_north_cap_contains_pmus_and_ios(self):
        plan = SkxFloorplan()
        for name in ("gpmu", "apmu", "pcie0", "dmi0", "upi0", "upi1"):
            assert plan.tiles[name].kind == "northcap"
            assert plan.tiles[name].row == 0

    def test_memory_controllers_on_edges(self):
        plan = SkxFloorplan()
        assert plan.tiles["mc0"].col == 0
        assert plan.tiles["mc1"].col == plan.mesh_cols - 1

    def test_graph_is_connected(self):
        plan = SkxFloorplan()
        assert reachable(plan, "core0") == set(plan.tiles)

    def test_validation(self):
        with pytest.raises(ValueError):
            SkxFloorplan(n_cores=0)

    def test_custom_core_count(self):
        plan = SkxFloorplan(n_cores=28, mesh_cols=6)
        assert len(plan.core_names()) == 28
        assert reachable(plan, "core0") == set(plan.tiles)


class TestRoutingMetrics:
    def test_manhattan_distance(self):
        plan = SkxFloorplan()
        # core0 is at (1, 0); apmu at (0, 1): |1-0| + |0-1| = 2.
        assert plan.manhattan_hops("core0", "apmu") == 2

    def test_routed_at_least_manhattan(self):
        plan = SkxFloorplan()
        for tile in ("core0", "core5", "core9", "mc0", "mc1"):
            assert plan.routed_hops(tile, "apmu") >= plan.manhattan_hops(
                tile, "apmu"
            ) - 1  # co-located tiles share a slot

    @pytest.mark.parametrize(
        "plan_args,src,dst,hops",
        [
            ((), "core0", "apmu", 2),
            ((), "core9", "apmu", 3),
            ((), "mc0", "mc1", 3),
            ((), "core5", "upi1", 4),
            ((), "gpmu", "apmu", 1),
            ((), "mc1", "pcie0", 5),
            ((), "core0", "core0", 0),
            ((28, 6), "core27", "apmu", 7),
            ((28, 6), "mc0", "mc1", 5),
        ],
    )
    def test_routed_hops_pinned(self, plan_args, src, dst, hops):
        # Values recorded from the networkx shortest-path version.
        assert SkxFloorplan(*plan_args).routed_hops(src, dst) == hops

    def test_routed_hops_rejects_unknown_tile(self):
        with pytest.raises(KeyError):
            SkxFloorplan().routed_hops("core0", "core99")

    def test_aggregation_saves_wirelength(self):
        # Sec. 5.3: AND-combining neighbouring cores' InCC1 wires
        # must beat routing every core's wire to the APMU directly.
        plan = SkxFloorplan()
        cores = plan.core_names()
        direct = plan.direct_star_wirelength("apmu", cores)
        aggregated = plan.aggregated_wirelength("apmu", cores)
        assert aggregated < direct

    def test_aggregation_scales_better(self):
        plan = SkxFloorplan(n_cores=28, mesh_cols=6)
        cores = plan.core_names()
        direct = plan.direct_star_wirelength("apmu", cores)
        aggregated = plan.aggregated_wirelength("apmu", cores)
        assert aggregated < direct / 2  # savings grow with core count

    def test_duplicate_tile_rejected(self):
        plan = SkxFloorplan()
        from repro.soc.floorplan import Tile

        with pytest.raises(ValueError):
            plan._add_tile(Tile("core0", "core", 5, 5))


def test_importing_the_api_leaves_networkx_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, repro.api; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.stdout.strip() == "False"
