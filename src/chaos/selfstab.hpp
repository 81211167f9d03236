// Self-stabilization case: the one convergence procedure behind the 210-case
// SelfStabilization battery (tests/property_test.cpp) and the
// `bench_chaos --corrupt-smoke` / `--soak` runs (docs/CHAOS.md "State
// corruption").
//
// A case garbles live protocol state of one corruption class three times
// mid-stream through the chaos scenario DSL (all three rewrite modes,
// seed-rotated), kills a trunk on the primary route for good measure, and
// then demands:
//  * Phase A (under corruption): first deliveries in submission order, no
//    silent loss except from receiver-cursor (`ack`) corruption, which can
//    forfeit at most the in-flight window;
//  * a witness: at least one scrub repair, generation restart or NIC reset
//    at/after the first corruption — corrupted state is repaired, never
//    silently tolerated;
//  * Phase B (after the scrub horizon): a fresh message burst delivered
//    exactly-once, in order — the Dolev-style convergence property.
//
// Every breach is collected as a violation string rather than aborting, so
// the battery, the smoke artifact and the soak artifact all judge the same
// run the same way.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/cluster.hpp"

namespace sanfault::chaos {

/// Corruption classes in case-index order (`cls` below); each is the
/// scenario DSL's `state=` name.
inline constexpr const char* kCorruptClasses[6] = {
    "seq", "ack", "gen", "retx_queue", "path_cache", "backup_slot"};

struct SelfStabResult {
  /// Exact scenario text: the replay recipe.
  std::string dsl;
  /// Engine log, including the corruptor's audit lines.
  std::string chaos_log;
  /// Both endpoints' scrub and restart counters, summed.
  std::string fw_stats;
  /// Corruptions that rewrote live state.
  std::uint64_t applied = 0;
  /// Scrub repairs, generation restarts and NIC resets at or after the
  /// first corruption.
  std::uint64_t witness = 0;
  /// The run's registry as JSON (only when asked for).
  std::string metrics_json;
  /// Every breach of the case's demands; empty means it converged.
  std::vector<std::string> violations;
  [[nodiscard]] bool converged() const { return violations.empty(); }
};

/// Run one case of class `cls` (index into kCorruptClasses) on a
/// `num_hosts`-host `topo` fabric. Deterministic per (topo, hosts, cls,
/// seed). `want_metrics` serializes the registry into metrics_json.
SelfStabResult run_self_stab_case(harness::TopoKind topo,
                                  std::size_t num_hosts, int cls,
                                  std::uint64_t seed,
                                  bool want_metrics = false);

}  // namespace sanfault::chaos
