"""Extension — PC1A under cross-socket UPI snoop pressure.

Overlays remote-socket snoop traffic on a low-load Memcached service
and sweeps the snoop rate. A snoop lands on a UPI link in L0p: half the
lanes stay awake, so it is delivered at once while the link upshifts
to L0 (10 ns) and drags the package out of PC1A. Once the link is back
in L0 and idle for its 2 ns window it drops to L0p again, and the
package re-enters PC1A: one exit and entry, about 176 ns, per snoop.
Residency therefore falls only by the snoop rate times that cost,
which is why UPI's L0p rather than L0s/L1 is the right standby state
for multi-socket parts.
"""

from _common import measure, save_report
from repro.analysis.report import format_table
from repro.analysis.savings import savings_between
from repro.server.configs import cpc1a, cshallow
from repro.units import MS
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.upi_traffic import CompositeWorkload, UpiSnoopTraffic

SNOOP_RATES = (0, 1_000, 10_000, 50_000)


def bench_upi_snoop_pressure(benchmark):
    rows = []

    def sweep():
        for rate in SNOOP_RATES:
            foreground = MemcachedWorkload(10_000)
            if rate:
                workload = CompositeWorkload([foreground, UpiSnoopTraffic(rate)])
                base_workload = CompositeWorkload(
                    [MemcachedWorkload(10_000), UpiSnoopTraffic(rate)]
                )
            else:
                workload = foreground
                base_workload = MemcachedWorkload(10_000)
            base = measure(base_workload, cshallow(), seed=5, duration_ns=150 * MS)
            apc = measure(workload, cpc1a(), seed=5, duration_ns=150 * MS)
            savings = savings_between(base, apc)
            rows.append((rate, apc, savings))

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = format_table(
        ["snoops/s", "PC1A residency", "PC1A exits", "savings"],
        [
            [
                f"{rate:,}",
                f"{apc.pc1a_residency():.3f}",
                f"{apc.pc1a_exits}",
                f"{savings.savings_percent:.1f}%",
            ]
            for rate, apc, savings in rows
        ],
    )
    save_report(
        "ext_upi_snoop_pressure",
        table + "\nEach snoop costs one PC1A exit and re-entry (~176 ns):"
        + " the UPI link upshifts out of L0p and drops back after its"
        + " 2 ns idle window, so even 50K snoops/s leave PC1A residency"
        + " and savings close to the snoop-free run.",
    )

    quiet, loudest = rows[0][1].pc1a_residency(), rows[-1][1].pc1a_residency()
    # 50K snoops/s of ~176 ns transitions cost under 1 % of the window.
    assert abs(quiet - loudest) < 0.02
    assert rows[-1][1].pc1a_exits > rows[0][1].pc1a_exits
    assert rows[-1][2].savings_percent > rows[0][2].savings_percent - 1.0
