#!/usr/bin/env python3
"""Per-request memcached latency: wimpy vs brawny at the request level.

The paper treats memcached jobs as 1 MiB batches; this example drops to
the individual GET/SET level using the library's memslap-style request
generator and the discrete-event simulator:

* requests arrive Poisson at a configurable rate (fixed key/value sizes,
  uniform popularity — the paper's memslap setup),
* each node type serves a request in ``wire_bytes / service_rate`` seconds
  (its calibrated memcached byte rate), never faster than its per-request
  service floor,
* the DES yields p95 request latencies, and the calibrated power model
  prices each operating point in requests per joule.

The output shows the paper's Section III-A story at request granularity:
the A9 saturates near its 100 Mbps NIC but serves every request it can
take at ~20x the K10's efficiency.

Run:  python examples/memcached_request_latency.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.util.tables import render_table
from repro.workloads.generator import RequestGenerator


def main() -> None:
    workload = repro.workload("memcached")
    rng = np.random.default_rng(2016)

    # Per-node byte rates and request service model from the calibration.
    nodes = {}
    for node in ("A9", "K10"):
        config = repro.ClusterConfiguration.mix({node: 1})
        byte_rate = repro.cluster_service_rate(workload, config)  # bytes/s
        floor = workload.demand_for(node).io_service_floor_s
        power = repro.power_draw(workload, config)
        nodes[node] = (byte_rate, floor, power)
        print(
            f"{node}: serves {byte_rate / 1e6:.1f} MB/s "
            f"(peak power {power.peak_w:.2f} W, idle {power.idle_w:.2f} W)"
        )
    print()

    gen_probe = RequestGenerator(rate_rps=1.0, rng=rng)
    request_bytes = gen_probe.generate(2.0)[0].wire_bytes
    print(f"Request size on the wire: {request_bytes} bytes (16 B key + 1 KiB value)")
    print()

    rows = []
    for node, (byte_rate, floor, power) in nodes.items():
        max_rps = byte_rate / request_bytes
        for load in (0.3, 0.6, 0.9):
            rps = load * max_rps
            arrivals, _, _ = RequestGenerator(
                rate_rps=rps, rng=np.random.default_rng(7)
            ).generate_arrays(60.0)
            service_s = max(request_bytes / byte_rate, floor * request_bytes)
            sim = repro.QueueSimulator(arrivals, service_s).run(60.0)
            p95_ms = float(np.percentile(sim.responses, 95)) * 1e3
            watts = power.idle_w + load * power.dynamic_w
            rows.append(
                (
                    node,
                    f"{load:.0%}",
                    int(rps),
                    round(p95_ms, 3),
                    int(rps / watts),
                )
            )
    print(
        render_table(
            ("node", "load", "requests/s", "p95 latency [ms]", "requests/s per W"),
            rows,
            title="memcached request-level latency and efficiency",
        )
    )
    print()
    a9_eff = [r[4] for r in rows if r[0] == "A9"]
    k10_eff = [r[4] for r in rows if r[0] == "K10"]
    print(
        f"The A9 serves {a9_eff[-1] / k10_eff[-1]:.0f}x more requests per watt at "
        f"90% load — the Table 6 PPR gap, observed per request."
    )


if __name__ == "__main__":
    main()
