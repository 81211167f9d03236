// Unit tests of the benchmark's reducers on synthetic inputs. Exit code 0
// when every check passes; each failure prints its line.
#include <cstdio>
#include <cstdint>
#include <vector>

#include "reducers.hpp"

namespace pb = perfbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                               \
  do {                                                            \
    if (!(cond)) {                                                \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                               \
    }                                                             \
  } while (0)

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void percentiles_carry_counts() {
  const auto v = iota(1000);
  const pb::Percentile p50 = pb::percentile(v, 0.50);
  CHECK(p50.value == 500 && p50.samples == 1000 && p50.beyond == 500);
  CHECK(!p50.flagged);
  const pb::Percentile p99 = pb::percentile(v, 0.99);
  CHECK(p99.value == 990 && p99.beyond == 10 && !p99.flagged);
  // 999 samples: rank 990 (ceil of 989.01) leaves only 9 beyond.
  const pb::Percentile thin = pb::percentile(iota(999), 0.99);
  CHECK(thin.value == 990 && thin.beyond == 9 && thin.flagged);
  const pb::Percentile tiny = pb::percentile(iota(64), 0.99);
  CHECK(tiny.value == 64 && tiny.beyond == 0 && tiny.flagged);
  const pb::Percentile none = pb::percentile({}, 0.5);
  CHECK(none.samples == 0 && none.flagged);
  const pb::Percentile one = pb::percentile({7}, 0.5);
  CHECK(one.value == 7 && one.samples == 1);
}

// Requests due every 1 ns-unit `gap` from 0 to `end`; each commits `lat`
// later unless it is due inside [outage_a, outage_b).
std::vector<pb::ArrivalCommit> series(std::int64_t end, std::int64_t gap,
                                      std::int64_t lat, std::int64_t outage_a,
                                      std::int64_t outage_b) {
  std::vector<pb::ArrivalCommit> v;
  for (std::int64_t t = 0; t < end; t += gap) {
    const bool lost = t >= outage_a && t < outage_b;
    v.push_back({t, lost ? -1 : t + lat});
  }
  return v;
}

void recovery_on_synthetic_series() {
  constexpr std::int64_t ms = 1'000'000;
  // Recovers: outage of arrivals in [100, 150) ms, fault at 100 ms. The
  // first 10 ms window that is wholly good starts at 150 ms.
  const auto rec = series(400 * ms, 100'000, 50'000, 100 * ms, 150 * ms);
  const std::int64_t r =
      pb::recovery_time(rec, 100 * ms, 400 * ms, 10 * ms, 1 * ms, 0.9);
  CHECK(r >= 49 * ms && r <= 51 * ms);
  // Never recovers: everything after the fault is lost.
  const auto never = series(400 * ms, 100'000, 50'000, 100 * ms, 400 * ms);
  CHECK(pb::recovery_time(never, 100 * ms, 400 * ms, 10 * ms, 1 * ms, 0.9) ==
        300 * ms);
  // Recovers then relapses: a second outage at [250, 270) ms moves the
  // answer past the relapse.
  auto relapse = series(400 * ms, 100'000, 50'000, 100 * ms, 150 * ms);
  for (auto& a : relapse) {
    if (a.due >= 250 * ms && a.due < 270 * ms) a.done = -1;
  }
  const std::int64_t rr =
      pb::recovery_time(relapse, 100 * ms, 400 * ms, 10 * ms, 1 * ms, 0.9);
  CHECK(rr >= 169 * ms && rr <= 171 * ms);
  // No fault effect: healthy throughout recovers at once.
  const auto healthy = series(400 * ms, 100'000, 50'000, 0, 0);
  CHECK(pb::recovery_time(healthy, 100 * ms, 400 * ms, 10 * ms, 1 * ms, 0.9) ==
        0);
}

void bisection_finds_cliff() {
  int calls = 0;
  const pb::Bisection b =
      pb::bisect_capacity(100'000, 400'000, 2'500, [&calls](double rate) {
        ++calls;
        return rate <= 231'000;
      });
  CHECK(b.lo_passed);
  CHECK(b.rate <= 231'000 && b.rate > 231'000 - 2'500);
  CHECK(b.probes == calls);
  const pb::Bisection all =
      pb::bisect_capacity(100'000, 400'000, 2'500, [](double) { return true; });
  CHECK(all.rate == 400'000 && all.probes == 2);
  const pb::Bisection none = pb::bisect_capacity(
      100'000, 400'000, 2'500, [](double) { return false; });
  CHECK(!none.lo_passed && none.probes == 1);
}

void parts_sum_to_latency() {
  // Call [100, 200). Queue [90, 120), wire [110, 150), retx [140, 160),
  // remap [155, 170), nothing after 170: other = 30 (170..200).
  const std::vector<pb::StageInterval> st = {{90, 120, pb::kQueue},
                                             {110, 150, pb::kWire},
                                             {140, 160, pb::kRetx},
                                             {155, 170, pb::kRemap}};
  const pb::Parts p = pb::split_call(100, 200, st);
  CHECK(p[pb::kQueue] == 20);  // 100..120
  CHECK(p[pb::kWire] == 20);   // 120..140
  CHECK(p[pb::kRetx] == 15);   // 140..155
  CHECK(p[pb::kRemap] == 15);  // 155..170
  CHECK(p[pb::kOther] == 30);
  std::int64_t sum = 0;
  for (const std::int64_t v : p) sum += v;
  CHECK(sum == 100);
  // No stages: all other. Stages outside the call: ignored.
  const pb::Parts empty = pb::split_call(0, 50, {{60, 70, pb::kWire}});
  CHECK(empty[pb::kOther] == 50 && empty[pb::kWire] == 0);
  // Overlapping same-stage intervals count once.
  const pb::Parts dup =
      pb::split_call(0, 10, {{0, 6, pb::kWire}, {2, 8, pb::kWire}});
  CHECK(dup[pb::kWire] == 8 && dup[pb::kOther] == 2);
}

}  // namespace

int main() {
  percentiles_carry_counts();
  recovery_on_synthetic_series();
  bisection_finds_cliff();
  parts_sum_to_latency();
  if (g_failures == 0) std::printf("reducers_test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
