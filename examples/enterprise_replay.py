#!/usr/bin/env python3
"""Enterprise workload replay across kernel versions.

Runs the Table III workloads (authentication server, SQL back end, MSN
storage, display-ads payload) at user level on Linux 4.4 (CFQ) and 4.14
(refined BFQ) — the Fig 12 experiment as a library user would script it.
"""

from repro.core import FullSystem, presets
from repro.core.enterprise import EnterpriseRunner
from repro.workloads import ENTERPRISE_WORKLOADS


def main() -> None:
    print(f"{'workload':<8} {'kernel':<7} {'read MB/s':>10} "
          f"{'write MB/s':>11} {'mean us':>9}")
    print("-" * 50)
    for name in ("24HR", "CFS", "DAP"):
        for kernel in ("4.4", "4.14"):
            system = FullSystem(device=presets.intel750(),
                                interface="nvme", kernel=kernel)
            system.precondition()
            runner = EnterpriseRunner(system, ENTERPRISE_WORKLOADS[name],
                                      concurrency=8)
            res = runner.run(total_ios=600)
            print(f"{name:<8} {kernel:<7} {res.read_bandwidth_mbps:>10.0f} "
                  f"{res.write_bandwidth_mbps:>11.0f} "
                  f"{res.latency.mean_us():>9.0f}")
    print("\nCFQ's per-process idling (a seek-avoidance policy) starves a")
    print("parallel SSD; the refined BFQ of 4.14 keeps it fed.")


if __name__ == "__main__":
    main()
