// StateCorruptor: seeded, audited mutation of live protocol state.
//
// A chaos `corrupt` event (scenario.hpp) names a host, a state class and a
// rewrite mode; the corruptor resolves it against the bound firmware/mapper
// instances and garbles exactly one live value through the narrow chaos
// mutation APIs (firmware::ReliableFirmware / firmware::OnDemandMapper).
// It never allocates, frees or structurally edits protocol state — a
// corruption can only rewrite words that already exist (a queued packet's
// header, a counter, a cached route's port bytes), so the reachable-state
// space the scrubber must stabilize from is exactly "any value in any live
// field", not "any heap shape".
//
// Every application returns a one-line audit record (the ChaosEngine stamps
// it into the deterministic event log): what was targeted, the value before
// and after, or the reason the event was a no-op (e.g. the channel did not
// exist yet). All randomness — peer selection, bit choice, replacement
// values — comes from the corruptor's own seeded RNG stream, drawn in event
// application order, so two same-seed runs corrupt bit-identically.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "chaos/scenario.hpp"
#include "net/ids.hpp"
#include "net/route.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace sanfault::firmware {
class ReliableFirmware;
class OnDemandMapper;
}  // namespace sanfault::firmware

namespace sanfault::chaos {

class StateCorruptor {
 public:
  StateCorruptor(sim::Scheduler& sched, std::uint64_t seed);

  /// Register a host's firmware (and optionally its on-demand mapper) as a
  /// corruption target. Events naming an unbound host are audited no-ops.
  void bind(net::HostId host, firmware::ReliableFirmware* fw,
            firmware::OnDemandMapper* mapper = nullptr);

  /// Apply one kCorrupt event; returns the audit line for the chaos log.
  [[nodiscard]] std::string apply(const ChaosEvent& ev);

  /// Corruptions that actually rewrote live state (audited no-ops count
  /// only in the chaos.corruptions_noop metric).
  [[nodiscard]] std::uint64_t applied() const { return applied_; }

 private:
  struct Binding {
    firmware::ReliableFirmware* fw = nullptr;
    firmware::OnDemandMapper* mapper = nullptr;
  };

  [[nodiscard]] std::uint32_t mutate_u32(CorruptMode mode, std::uint32_t v);
  [[nodiscard]] std::uint16_t mutate_u16(CorruptMode mode, std::uint16_t v);
  /// Garble a route's port bytes in place; false if nothing could change
  /// (flip/rand on an already-empty port list).
  bool mutate_route(CorruptMode mode, net::Route& route);

  std::map<std::uint32_t, Binding> bound_;  // host.v -> targets (ordered)
  sim::Rng rng_;
  std::uint64_t applied_ = 0;
  obs::Counter* applied_ctr_ = nullptr;
  obs::Counter* noop_ctr_ = nullptr;
};

}  // namespace sanfault::chaos
