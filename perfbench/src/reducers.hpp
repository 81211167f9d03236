// Pure reducers of the service benchmark: percentiles with their sample
// counts, time-to-recover on a goodput series, capacity bisection, and the
// split of one call's latency into sim-time parts. They take plain vectors
// and callables so the unit tests can drive them with synthetic inputs.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile over exact samples. A percentile is printable as
/// a number only when at least 10 samples lie beyond it; otherwise
/// `flagged` is set and reports print the count instead of trusting it.
struct Percentile {
  double value = 0;
  std::uint64_t samples = 0;
  std::uint64_t beyond = 0;  // samples strictly after the chosen rank
  bool flagged = true;
};

inline constexpr std::uint64_t kMinBeyond = 10;

/// `sorted` must be ascending. q in (0, 1].
inline Percentile percentile(const std::vector<double>& sorted, double q) {
  Percentile p;
  p.samples = sorted.size();
  if (sorted.empty()) return p;
  // Nearest rank: the smallest rank r (1-based) with r >= q * n.
  auto rank = static_cast<std::uint64_t>(q * static_cast<double>(p.samples));
  if (static_cast<double>(rank) < q * static_cast<double>(p.samples)) ++rank;
  rank = std::clamp<std::uint64_t>(rank, 1, p.samples);
  p.value = sorted[rank - 1];
  p.beyond = p.samples - rank;
  p.flagged = p.beyond < kMinBeyond;
  return p;
}

/// One request as the recovery reducer sees it: when it was due and, if it
/// committed, when it completed.
struct ArrivalCommit {
  std::int64_t due = 0;
  std::int64_t done = -1;  // -1 = never committed
};

/// Time from `fault` to the start of the first `window`-long window (slid in
/// `step` increments from the fault) from which every later window that ends
/// by `arrivals_end` commits at least `share` of the requests due in it. A
/// window with no arrivals passes. If no start qualifies, the result is
/// `arrivals_end - fault`.
inline std::int64_t recovery_time(const std::vector<ArrivalCommit>& reqs,
                                  std::int64_t fault, std::int64_t arrivals_end,
                                  std::int64_t window, std::int64_t step,
                                  double share) {
  if (arrivals_end <= fault || window <= 0 || step <= 0) return 0;
  std::vector<std::int64_t> due, done;
  for (const ArrivalCommit& r : reqs) {
    due.push_back(r.due);
    if (r.done >= 0) done.push_back(r.done);
  }
  std::sort(due.begin(), due.end());
  std::sort(done.begin(), done.end());
  const auto count_in = [](const std::vector<std::int64_t>& v, std::int64_t a,
                           std::int64_t b) {
    return static_cast<double>(std::lower_bound(v.begin(), v.end(), b) -
                               std::lower_bound(v.begin(), v.end(), a));
  };
  // The answer is the first start after the last failing window.
  std::int64_t last_fail = -1;
  for (std::int64_t s = fault; s + window <= arrivals_end; s += step) {
    const double offered = count_in(due, s, s + window);
    const double good = count_in(done, s, s + window);
    if (offered > 0 && good < share * offered) last_fail = s;
  }
  if (last_fail < 0) return 0;
  const std::int64_t start = last_fail + step;
  if (start + window > arrivals_end) return arrivals_end - fault;
  return start - fault;
}

/// Highest rate in [lo, hi] that `passes`, by bisection to `resolution`.
/// Assumes a cliff: rates below the knee pass, rates above fail. Returns lo
/// when even lo fails (the caller reports that as a failed probe).
struct Bisection {
  double rate = 0;
  int probes = 0;
  bool lo_passed = false;
};

inline Bisection bisect_capacity(double lo, double hi, double resolution,
                                 const std::function<bool(double)>& passes) {
  Bisection b;
  ++b.probes;
  b.lo_passed = passes(lo);
  b.rate = lo;
  if (!b.lo_passed) return b;
  ++b.probes;
  if (passes(hi)) {
    b.rate = hi;
    return b;
  }
  double good = lo;
  double bad = hi;
  while (bad - good > resolution) {
    const double mid = 0.5 * (good + bad);
    ++b.probes;
    (passes(mid) ? good : bad) = mid;
  }
  b.rate = good;
  return b;
}

/// Sim-time parts of one call's latency. Priority when stages overlap:
/// remap, then retransmission wait, then firmware queue, then wire; time no
/// stage covers is `other`, so the parts always sum to the latency.
enum Part : std::size_t { kRemap = 0, kRetx, kQueue, kWire, kOther, kNumParts };

struct StageInterval {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  Part part = kOther;
};

using Parts = std::array<std::int64_t, kNumParts>;

/// Split [begin, end) among `stages` (any order, may overlap and extend past
/// the call). Sweep over the clipped boundaries; each elementary slice goes
/// to the highest-priority stage active in it.
inline Parts split_call(std::int64_t begin, std::int64_t end,
                        const std::vector<StageInterval>& stages) {
  Parts parts{};
  if (end <= begin) return parts;
  // (time, part, +1 open / -1 close)
  std::vector<std::pair<std::int64_t, int>> ev;
  ev.reserve(stages.size() * 2);
  for (const StageInterval& s : stages) {
    const std::int64_t a = std::max(s.begin, begin);
    const std::int64_t b = std::min(s.end, end);
    if (a >= b || s.part >= kOther) continue;
    ev.emplace_back(a, static_cast<int>(s.part) + 1);
    ev.emplace_back(b, -(static_cast<int>(s.part) + 1));
  }
  std::sort(ev.begin(), ev.end());
  std::array<int, kNumParts> active{};
  std::int64_t t = begin;
  const auto top = [&active] {
    for (std::size_t p = 0; p < kOther; ++p) {
      if (active[p] > 0) return static_cast<Part>(p);
    }
    return kOther;
  };
  for (const auto& [at, code] : ev) {
    parts[top()] += at - t;
    t = at;
    const std::size_t p = static_cast<std::size_t>(code > 0 ? code : -code) - 1;
    active[p] += code > 0 ? 1 : -1;
  }
  parts[kOther] += end - t;
  return parts;
}

}  // namespace perfbench
