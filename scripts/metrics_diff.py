#!/usr/bin/env python3
"""Compare two bench metrics JSON files and flag counter and latency
regressions.

Inputs are files produced either by a bench binary's --metrics-json flag
(an array of {"cell": {...}, "metrics": {...}} objects, one per sweep cell)
or by the SANFAULT_METRICS_JSON teardown export (a single registry dump).
See docs/OBSERVABILITY.md for the metric schema.

Counters are aggregated per cell by their schema name — the part of the
instance name before the '{label=...}' suffix — so per-node instances fold
into one number. The simulated latency quantiles named in LATENCY_QUANTILES
are read from their histograms as '<schema>.p50' / '<schema>.p99'; their
per-node instances fold to the maximum (the worst node's quantile — a sum of
quantiles means nothing). Each aggregated value is then compared against the
baseline according to its direction:

  * cost counters (retransmissions, drops, failures, stalls, probes...)
    and the latency quantiles regress when they GROW beyond tolerance — the
    protocol got noisier or the service slower;
  * goodput counters (deliveries, ok calls, acks...) regress when they
    SHRINK beyond tolerance — the run did less useful work;
  * everything else is informational (printed with --verbose only).

Tolerance is relative plus an absolute slack, because goldens are committed
from one toolchain and re-checked on others: the simulator is deterministic
for a fixed binary, but floating-point differences across compilers can
shift event interleavings slightly.

Usage:
  metrics_diff.py golden.json candidate.json [--tolerance 0.25]
                  [--abs-slack 100] [--verbose]

Exit status: 0 = no regressions, 1 = regressions found, 2 = usage/shape
error — cells don't match, a counter lacks its "value" key, a gated
histogram lacks a quantile, or the golden predates a classified counter the
candidate reports (regen the golden).
"""

import argparse
import json
import sys

# Counter schema-name prefixes where growth means the system got worse.
COST_PREFIXES = (
    "firmware.retransmissions",
    "firmware.retrans_rounds",
    "firmware.ooo_drops",
    "firmware.dup_drops",
    "firmware.corrupt_drops",
    "firmware.stale_gen_drops",
    "firmware.unreachable_drops",
    "firmware.no_route_drops",
    "firmware.path_failures",
    "firmware.generation_restarts",
    "firmware.remap_requests",
    # Self-stabilization scrubber (docs/CHAOS.md "State corruption"): in a
    # fixed campaign, more invariant repairs, stale-generation adoptions,
    # rejected bogus acks, scrub-escalated resets or misrouted-packet drops
    # means live state got corrupted more often or recovered less cleanly.
    # firmware.scrub_passes is deliberately unclassified — it scales with
    # run length, not protocol health.
    "firmware.scrub_tx_repairs",
    "firmware.scrub_rx_repairs",
    "firmware.scrub_gen_adoptions",
    "firmware.scrub_bogus_acks",
    "firmware.scrub_resets",
    "firmware.misroute_drops",
    "mapper.mappings_failed",
    "mapper.probe_timeouts",
    "mapper.probe_budget_exhausted",
    "mapper.path_cache_evictions",   # growth = cache thrash on this sweep
    # Proactive backup paths (docs/ROUTING.md): more backups found dead at
    # promote time, or more background verification traffic, for the same
    # fault campaign means the backups got staler or churnier.
    "mapper.backup_stale_rejections",
    "mapper.backup_replenish_probes",
    "nic.crc_failures",
    "nic.injection_stalls",
    "fabric.dropped_",          # all fabric drop classes
    "fabric.delivered_corrupt",
    "kv.client_failed",
    "kv.client_timeouts",
    "kv.client_failovers",
    "kv.server_repl_failures",
    "kv.server_repl_retries",
    "traffic.failed",
    "traffic.retries",
    "vmmc.rejected_rx",
    "vmmc.imports_denied",
    # Chaos recovery counters (src/chaos, docs/CHAOS.md): slower or noisier
    # recovery from the same injected faults is a regression. The *_ns and
    # *_milli counters are timing-scale — gate them with a wider tolerance
    # (scripts/verify.sh uses --tolerance 0.5 for the chaos diff).
    "chaos.gen_regressions",
    "chaos.remap_unconverged",
    "chaos.remap_failures",
    "chaos.ttfr_max_ns",
    "chaos.ttfr_dest_max_ns",
    "chaos.remap_conv_max_ns",
    "chaos.remap_conv_from_fault_max_ns",
    "chaos.retrans_amplification_milli",
    "chaos.goodput_dip_area_milli",
    # State corruption (src/chaos/corruptor.hpp): for a fixed scenario the
    # number of applied corruptions is deterministic, so growth means the
    # campaign's corruption surface widened; slower scrub-to-recovery means
    # the scrubber's repairs took longer to restore traffic.
    "chaos.corruptions_applied",
    "chaos.scrub_repairs",
    "chaos.scrub_recovery_max_ns",
    # Membership (src/membership, docs/OBSERVABILITY.md): more missed direct
    # acks, suspicions, refutations, or gossip volume for the same run means
    # the detector got noisier or chattier.
    "membership.probe_timeouts",
    "membership.suspects",
    "membership.refutations",
    "membership.gossip_msgs_tx",
    "membership.gossip_bytes_tx",
    "chaos.peer_exclusions",
    # Erasure-coded striping + SNS repair (src/ec via src/kv, DESIGN.md §13):
    # for the same kill campaign, more failed striped calls, parity-path
    # reads, unit RPC timeouts, repair retries, or abandoned stripes means
    # the striped service degraded or repair stopped converging cleanly.
    # ec.repair_throttle_waits is deliberately unclassified — it scales with
    # the configured token bucket, not protocol health.
    "ec.striped_failed",
    "ec.degraded_reads",
    "ec.unit_timeouts",
    "ec.stale_replies",
    "ec.client_bad_msgs",
    "ec.store_bad_msgs",
    "ec.store_unit_not_found",
    "ec.repair_fetch_retries",
    "ec.repair_put_retries",
    "ec.repair_stripes_abandoned",
    # Simulated service latency (histogram quantiles, LATENCY_QUANTILES): a
    # slower median or tail for the same sweep is a regression on the
    # modeled system's own clock.
    "kv.call_latency_ns.",
    "traffic.request_latency_ns.",
)

# Histograms whose quantiles are gated, and which quantiles. Every other
# histogram (and every gauge) is ignored.
LATENCY_QUANTILES = {
    "kv.call_latency_ns": ("p50", "p99"),
    "traffic.request_latency_ns": ("p50", "p99"),
}

# Counter schema names where shrinkage means useful work was lost.
GOODPUT_PREFIXES = (
    "firmware.data_rx_in_order",
    "fabric.delivered",
    "nic.host_deliveries",
    "kv.client_ok",
    "traffic.ok",
    "traffic.completed",
    "vmmc.deposits_rx",
    "mapper.mappings_succeeded",
    "mapper.path_cache_hits",        # shrink = cache stopped serving routes
    "mapper.backup_promotions",      # shrink = failovers stopped being O(1)
    # Chaos recovery: fewer observed recoveries for the same campaign means
    # the protocol stopped demonstrating them.
    "chaos.data_deliveries",
    "chaos.remap_convergences",
    "chaos.ttfr_samples",
    "chaos.ttfr_dest_samples",
    # Fewer observed scrub-to-recovery completions for the same corruption
    # campaign means repaired channels stopped demonstrably recovering.
    "chaos.scrub_recovery_samples",
    # Membership: fewer acked probes means probing stopped reaching members;
    # fewer confirms for the same kill campaign means detection stopped.
    "membership.acks_rx",
    "membership.confirms",
    # Striped object class + repair: fewer committed striped calls for the
    # same workload, or fewer repaired stripes / rebuilt units for the same
    # kill campaign, means the striped service or its repair stopped working.
    "ec.striped_puts_ok",
    "ec.striped_gets_ok",
    "ec.store_unit_puts",
    "ec.store_unit_gets",
    "ec.repair_stripes_repaired",
    "ec.repair_units_rebuilt",
)


class ShapeError(Exception):
    """Input-shape problem: reported by name, exits 2 (not a regression)."""


def schema_name(instance_name):
    """'firmware.retransmissions{node=3}' -> 'firmware.retransmissions'."""
    return instance_name.split("{", 1)[0]


def load_cells(path):
    """Normalize either input shape to [(cell_key, {schema: value})]."""
    with open(path) as f:
        doc = json.load(f)
    if isinstance(doc, dict):  # single registry dump
        doc = [{"cell": {}, "metrics": doc}]
    cells = []
    for entry in doc:
        metrics = entry.get("metrics", {}).get("metrics", {})
        agg = {}
        for name, m in metrics.items():
            if m.get("type") == "histogram":
                for q in LATENCY_QUANTILES.get(schema_name(name), ()):
                    if q not in m:
                        raise ShapeError(
                            f"{path}: histogram '{name}' has no '{q}' key — "
                            "truncated or hand-edited metrics dump?")
                    key = f"{schema_name(name)}.{q}"
                    agg[key] = max(agg.get(key, 0), m[q])
                continue
            if m.get("type") != "counter":
                continue
            if "value" not in m:
                raise ShapeError(
                    f"{path}: counter '{name}' has no 'value' key — "
                    "truncated or hand-edited metrics dump?")
            agg[schema_name(name)] = agg.get(schema_name(name), 0) + m["value"]
        cells.append((json.dumps(entry.get("cell", {}), sort_keys=True), agg))
    return cells


def direction(name):
    # "delivered_corrupt" is a cost counter but shares the "delivered" stem;
    # cost classification wins, so check it first.
    if any(name.startswith(p) for p in COST_PREFIXES):
        return "cost"
    if any(name.startswith(p) for p in GOODPUT_PREFIXES):
        return "goodput"
    return "info"


def compare_cell(cell_key, golden, candidate, tol, slack, verbose):
    regressions = []
    for name in sorted(set(golden) | set(candidate)):
        g = golden.get(name, 0)
        c = candidate.get(name, 0)
        d = direction(name)
        if d == "cost":
            limit = g * (1 + tol) + slack
            if c > limit:
                regressions.append(
                    f"  {name}: {g} -> {c} (cost grew past {limit:.0f})")
        elif d == "goodput":
            limit = g * (1 - tol) - slack
            if c < limit:
                regressions.append(
                    f"  {name}: {g} -> {c} (goodput fell below {limit:.0f})")
        elif verbose and g != c:
            print(f"  [info] {name}: {g} -> {c}")
    return regressions


def main():
    ap = argparse.ArgumentParser(
        description="Flag counter and simulated-latency regressions between "
                    "two bench metrics JSON files (see "
                    "docs/OBSERVABILITY.md).")
    ap.add_argument("golden")
    ap.add_argument("candidate")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="relative headroom on each gated value "
                         "(default 0.25)")
    ap.add_argument("--abs-slack", type=float, default=100,
                    help="absolute headroom added on top (default 100)")
    ap.add_argument("--verbose", action="store_true",
                    help="also print changed informational counters")
    args = ap.parse_args()

    try:
        golden = load_cells(args.golden)
        candidate = load_cells(args.candidate)
    except ShapeError as e:
        print(f"metrics_diff: {e}", file=sys.stderr)
        return 2
    if [k for k, _ in golden] != [k for k, _ in candidate]:
        print("metrics_diff: cell layouts differ between the two files; "
              "re-generate the golden with the same sweep flags",
              file=sys.stderr)
        return 2

    # A cost/goodput-classified counter in the candidate that the golden has
    # never seen means the golden predates the counter: comparing it against
    # an implicit 0 would either always pass (goodput) or fail with a
    # misleading "cost grew" message. Name the keys and demand a regen.
    stale = sorted({
        name
        for (_, g), (_, c) in zip(golden, candidate)
        for name in c
        if name not in g and direction(name) != "info"
    })
    if stale:
        print("metrics_diff: golden file lacks classified counter(s) the "
              "candidate reports:", file=sys.stderr)
        for name in stale:
            print(f"  {name}", file=sys.stderr)
        print(f"re-generate {args.golden} with the current binary "
              "(see scripts/verify.sh for the per-golden command)",
              file=sys.stderr)
        return 2

    total = 0
    for (key, g), (_, c) in zip(golden, candidate):
        cell = json.loads(key)
        label = ", ".join(f"{k}={v}" for k, v in cell.items()) or "(run)"
        regs = compare_cell(key, g, c, args.tolerance, args.abs_slack,
                            args.verbose)
        if regs or args.verbose:
            print(f"cell [{label}]:")
        for r in regs:
            print(r)
        if not regs and args.verbose:
            print("  ok")
        total += len(regs)

    if total:
        print(f"metrics_diff: {total} regression(s) vs {args.golden}")
        return 1
    print(f"metrics_diff: no counter or latency regressions across "
          f"{len(candidate)} cell(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
