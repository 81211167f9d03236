// Post-run consistency audit for the replicated KV service.
//
// The traffic source (engine or test) keeps a ShadowMap: every issued write
// and every *committed* write (client saw kOk/kNotFound for a PUT/DEL). After
// the run quiesces, audit() proves the end-to-end exactly-once contract the
// stack claims to provide over an at-least-once transport:
//
//   1. no lost committed write   — each committed write was applied exactly
//                                  once on the shard primary AND exactly once
//                                  on the shard backup (apply counts);
//   2. no duplicated write       — no write request, committed or not, was
//                                  applied more than once anywhere;
//   3. replica agreement         — per shard, primary and backup stores hold
//                                  identical key/value sets;
//   4. value provenance          — every stored value decodes to the id of a
//                                  write this run actually issued (no
//                                  corruption / cross-wiring).
//
// Values embed their writer's RequestId in the first 16 bytes so provenance
// is checkable byte-for-byte.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ec/placement.hpp"
#include "ec/rs.hpp"
#include "kv/server.hpp"
#include "kv/shard_map.hpp"
#include "kv/striped.hpp"
#include "kv/wire.hpp"

namespace sanfault::kv {

/// Build a PUT value: 16-byte RequestId header + repeating pattern filler.
inline std::vector<std::uint8_t> make_value(const RequestId& id,
                                            std::size_t size) {
  std::vector<std::uint8_t> v(std::max<std::size_t>(size, 16));
  for (int i = 0; i < 8; ++i) {
    v[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(id.client >> (8 * i));
    v[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(id.seq >> (8 * i));
  }
  for (std::size_t i = 16; i < v.size(); ++i) {
    v[i] = static_cast<std::uint8_t>(id.seq + i);
  }
  return v;
}

inline std::optional<RequestId> value_writer(
    const std::vector<std::uint8_t>& v) {
  if (v.size() < 16) return std::nullopt;
  RequestId id;
  for (int i = 0; i < 8; ++i) {
    id.client |= static_cast<std::uint64_t>(v[static_cast<std::size_t>(i)])
                 << (8 * i);
    id.seq |= static_cast<std::uint64_t>(v[static_cast<std::size_t>(8 + i)])
              << (8 * i);
  }
  return id;
}

class ShadowMap {
 public:
  void record_issued_write(const RequestId& id, std::uint64_t key) {
    issued_.emplace(id.packed(), key);
  }
  void record_committed(const RequestId& id) {
    committed_.insert(id.packed());
  }

  [[nodiscard]] std::uint64_t committed_writes() const {
    return committed_.size();
  }
  [[nodiscard]] const std::unordered_map<std::uint64_t, std::uint64_t>& issued()
      const {
    return issued_;
  }
  [[nodiscard]] const std::unordered_set<std::uint64_t>& committed() const {
    return committed_;
  }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> issued_;  // id -> key
  std::unordered_set<std::uint64_t> committed_;
};

struct AuditResult {
  std::uint64_t committed = 0;
  std::uint64_t lost = 0;               // committed, applied <1x on a replica
  std::uint64_t duplicated = 0;         // any write applied >1x on one node
  std::uint64_t replica_mismatches = 0; // key/value divergence within a shard
  std::uint64_t alien_values = 0;       // stored value from no issued write
  [[nodiscard]] bool ok() const {
    return lost == 0 && duplicated == 0 && replica_mismatches == 0 &&
           alien_values == 0;
  }
};

/// `servers` must cover every host the map names. Call only after quiesce
/// (all client calls returned and every server reports idle()).
inline AuditResult audit(const ShardMap& map,
                         const std::vector<const KvServer*>& servers,
                         const ShadowMap& shadow) {
  AuditResult r;
  r.committed = shadow.committed_writes();

  std::unordered_map<std::uint32_t, const KvServer*> by_host;
  for (const auto* s : servers) by_host[s->host().v] = s;
  auto server_at = [&](net::HostId h) { return by_host.at(h.v); };

  // 1+2: apply counts. Committed writes need exactly one application on both
  // replicas; every write (even abandoned ones) must never apply twice.
  for (const auto& [packed, key] : shadow.issued()) {
    const std::size_t shard = map.shard_of(key);
    const auto& prim_counts = server_at(map.primary(shard))->apply_counts();
    const auto& back_counts = server_at(map.backup(shard))->apply_counts();
    const auto pit = prim_counts.find(packed);
    const auto bit = back_counts.find(packed);
    const std::uint32_t p = pit == prim_counts.end() ? 0 : pit->second;
    const std::uint32_t b = bit == back_counts.end() ? 0 : bit->second;
    if (p > 1 || b > 1) ++r.duplicated;
    if (shadow.committed().contains(packed) && (p < 1 || b < 1)) ++r.lost;
  }

  // 3+4: walk every shard's primary store, compare against the backup, and
  // check provenance; then look for backup-only keys.
  for (std::size_t shard = 0; shard < map.num_shards(); ++shard) {
    const KvServer* prim = server_at(map.primary(shard));
    const KvServer* back = server_at(map.backup(shard));
    for (const auto& [key, value] : prim->store()) {
      if (map.shard_of(key) != shard) continue;
      const auto bit = back->store().find(key);
      if (bit == back->store().end() || bit->second != value) {
        ++r.replica_mismatches;
      }
      const auto writer = value_writer(value);
      if (!writer || !shadow.issued().contains(writer->packed())) {
        ++r.alien_values;
      }
    }
    for (const auto& [key, value] : back->store()) {
      if (map.shard_of(key) != shard) continue;
      if (!prim->store().contains(key)) ++r.replica_mismatches;
    }
  }
  return r;
}

// --- striped object class ----------------------------------------------------

/// Shadow for striped writes: one entry per issued striped PUT (tests and
/// benches write each key once, so id <-> key is one-to-one).
class StripedShadow {
 public:
  struct Issued {
    RequestId id;
    std::uint64_t key = 0;
    std::uint32_t object_len = 0;
  };
  void record_issued(const RequestId& id, std::uint64_t key,
                     std::uint32_t object_len) {
    issued_.emplace(id.packed(), Issued{id, key, object_len});
  }
  void record_committed(const RequestId& id) {
    committed_.insert(id.packed());
  }
  [[nodiscard]] const std::unordered_map<std::uint64_t, Issued>& issued()
      const {
    return issued_;
  }
  [[nodiscard]] const std::unordered_set<std::uint64_t>& committed() const {
    return committed_;
  }

 private:
  std::unordered_map<std::uint64_t, Issued> issued_;
  std::unordered_set<std::uint64_t> committed_;
};

struct StripedAuditResult {
  std::uint64_t committed = 0;
  std::uint64_t lost = 0;          // committed stripe not fully reconstructible
  std::uint64_t mismatched = 0;    // decoded bytes differ from what was written
  std::uint64_t duplicated = 0;    // a (writer, unit) applied >1x on one node
  std::uint64_t incomplete = 0;    // committed stripe short of a unit on a
                                   // live resolved holder (repair incomplete)
  std::uint64_t alien_units = 0;   // stored unit from no issued write
  [[nodiscard]] bool ok() const {
    return lost == 0 && mismatched == 0 && duplicated == 0 &&
           incomplete == 0 && alien_units == 0;
  }
};

/// Extended exactly-once audit over the striped object class. For every
/// committed striped write, under the final membership view (`dead`, null =
/// all live):
///   1. completeness — every unit the StripeMap currently resolves to a live
///      holder is actually present on that holder (repair converged);
///   2. no lost data — the stripe decodes from live units back to the exact
///      bytes make_value(id, len) produced;
///   3. exactly-once — no (writer, unit) pair was applied more than once on
///      any single node (transport retries + repair re-writes deduped);
///   4. provenance — every stored unit anywhere traces to an issued write.
/// Call after quiesce (repair machines idle).
inline StripedAuditResult audit_striped(
    const ec::StripeMap& map, const ec::RsCodec& codec,
    const std::vector<const StripedStore*>& stores,
    const StripedShadow& shadow,
    const std::function<bool(net::HostId)>& dead = {}) {
  StripedAuditResult r;
  r.committed = shadow.committed().size();

  std::unordered_map<std::uint32_t, const StripedStore*> by_host;
  for (const auto* s : stores) by_host[s->host().v] = s;

  for (const auto& [packed, w] : shadow.issued()) {
    if (!shadow.committed().contains(packed)) continue;
    const std::size_t group = map.group_of(w.key);
    const auto holders = map.resolve(group, dead);
    std::vector<std::vector<std::uint8_t>> units(map.n());
    std::vector<bool> have(map.n(), false);
    std::size_t found = 0;
    for (std::size_t u = 0; u < map.n(); ++u) {
      if (dead && dead(holders[u])) continue;  // unit died with its holder
      const auto hit = by_host.find(holders[u].v);
      if (hit == by_host.end()) continue;
      const auto& store = hit->second->store();
      bool present = false;
      const auto kit = store.find(w.key);
      if (kit != store.end()) {
        const auto uit = kit->second.find(static_cast<std::uint8_t>(u));
        if (uit != kit->second.end()) {
          units[u] = uit->second.bytes;
          have[u] = true;
          ++found;
          present = true;
        }
      }
      if (!present) ++r.incomplete;  // live resolved holder missing its unit
    }
    if (found < codec.k()) {
      ++r.lost;
      continue;
    }
    auto full = units;
    if (!codec.reconstruct(full, have)) {
      ++r.lost;
      continue;
    }
    const auto decoded = codec.join(full, w.object_len);
    if (decoded != make_value(w.id, w.object_len)) ++r.mismatched;
  }

  // 3+4: per-node unit scans.
  for (const auto* s : stores) {
    for (const auto& [packed, units] : s->apply_counts()) {
      for (const auto& [unit, count] : units) {
        if (count > 1) ++r.duplicated;
      }
    }
    for (const auto& [key, units] : s->store()) {
      for (const auto& [unit, rec] : units) {
        const auto it = shadow.issued().find(rec.writer.packed());
        if (it == shadow.issued().end() || it->second.key != key) {
          ++r.alien_units;
        }
      }
    }
  }
  return r;
}

}  // namespace sanfault::kv
