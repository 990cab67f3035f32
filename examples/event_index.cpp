// Example: time-series event index ("latest reading at or before t").
//
//   build/examples/event_index
//
// Sensors append timestamped readings; dashboards ask "what was the value
// at time t?" — a pure predecessor query over 64-bit timestamps.  This
// exercises the SkipTrie at its largest universe (B = 64, log log u = 6)
// with monotonically increasing inserts from several writers, a pattern
// that degenerates balanced-tree rebalancing but is harmless here (no
// rebalancing exists to degenerate — the paper's titular point).  Exits
// nonzero when quiescent queries average more than kMaxStepsPerQuery
// search steps.
#include <atomic>
#include <cstdio>
#include <inttypes.h>
#include <thread>
#include <vector>

#include "common/bitops.h"
#include "common/random.h"
#include "common/stats.h"
#include "core/skiptrie.h"

using namespace skiptrie;

// About 10 x log log u at B = 64: the paper's depth bound with room for the
// constant factor.  A read path that degrades toward O(n) per query trips it.
constexpr double kMaxStepsPerQuery = 64.0;

int main() {
  Config cfg;
  cfg.universe_bits = 64;
  SkipTrie index(cfg);

  // Timestamps: nanoseconds since epoch, interleaved from 3 sensors with
  // distinct low bits so they never collide.
  constexpr uint64_t kBase = 1'760'000'000'000'000'000ull;  // ~2025 in ns
  constexpr int kSensors = 3;
  constexpr uint64_t kEventsPerSensor = 50'000;

  std::vector<std::thread> writers;
  for (int s = 0; s < kSensors; ++s) {
    writers.emplace_back([&, s] {
      Xoshiro256 rng(s + 1);
      uint64_t t = kBase + s;
      for (uint64_t i = 0; i < kEventsPerSensor; ++i) {
        t += (1000 + rng.next_below(9000)) * kSensors;  // 1-10us cadence
        index.insert(t);
      }
    });
  }
  // Dashboards query while ingest runs.
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(100 + r);
      for (int q = 0; q < 100'000; ++q) {
        const uint64_t t = kBase + rng.next_below(kEventsPerSensor * 15'000);
        const auto at = index.predecessor(t);
        if (at && *at <= t) answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& w : writers) w.join();
  for (auto& r : readers) r.join();

  std::printf("ingested %zu events from %d sensors (monotone timestamps)\n",
              index.size(), kSensors);
  std::printf("answered %" PRIu64 " point-in-time queries during ingest\n",
              answered.load());

  // Point-in-time reconstruction after ingest, with step accounting.
  tls_counters() = StepCounters{};
  Xoshiro256 rng(7);
  uint64_t found = 0;
  const int kQueries = 50'000;
  for (int q = 0; q < kQueries; ++q) {
    const uint64_t t = kBase + rng.next_below(kEventsPerSensor * 15'000);
    if (index.predecessor(t)) found++;
  }
  const auto& c = tls_counters();
  const double steps = static_cast<double>(c.search_steps()) / kQueries;
  std::printf("quiescent: %d queries, %.1f search steps/query "
              "(log log u = %u for B=64), %.2f hash probes/query\n",
              kQueries, steps, ceil_log2(64),
              static_cast<double>(c.hash_probes) / kQueries);
  std::printf("coverage: %.1f%% of query times had a reading\n",
              100.0 * static_cast<double>(found) / kQueries);
  if (steps > kMaxStepsPerQuery) {
    std::printf("FAIL: %.1f search steps/query exceeds %.0f\n", steps,
                kMaxStepsPerQuery);
    return 1;
  }
  return 0;
}
