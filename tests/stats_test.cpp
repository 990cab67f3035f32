#include "common/stats.h"

#include <gtest/gtest.h>

#include <thread>

namespace skiptrie {
namespace {

TEST(Stats, AccumulateAndSubtract) {
  StepCounters a;
  a.node_hops = 10;
  a.hops_top = 4;
  a.hops_descent = 6;
  a.hash_probes = 3;
  a.probes_lookup = 2;
  a.probes_chain = 1;
  StepCounters b;
  b.node_hops = 4;
  b.hops_top = 1;
  b.hops_descent = 3;
  b.hash_probes = 1;
  b.cas_attempts = 2;
  b.probes_binsearch = 5;
  b.walk_fallbacks = 1;
  a.cursor_reuses = 6;
  a.batch_keys = 32;
  b.cursor_reuses = 4;
  b.cursor_redescends = 2;
  b.batch_ops = 1;
  b.batch_keys = 8;
  a.shard_batches = 3;
  a.service_requests = 5;
  a.queue_depth_sum = 11;
  b.shard_batches = 2;
  b.service_subtasks = 7;
  b.queue_full_waits = 1;
  b.queue_wait_ns = 1500;

  StepCounters sum = a;
  sum += b;
  EXPECT_EQ(sum.node_hops, 14u);
  EXPECT_EQ(sum.hops_top, 5u);
  EXPECT_EQ(sum.hops_descent, 9u);
  EXPECT_EQ(sum.hash_probes, 4u);
  EXPECT_EQ(sum.cas_attempts, 2u);
  EXPECT_EQ(sum.probes_lookup, 2u);
  EXPECT_EQ(sum.probes_chain, 1u);
  EXPECT_EQ(sum.probes_binsearch, 5u);
  EXPECT_EQ(sum.walk_fallbacks, 1u);
  EXPECT_EQ(sum.cursor_reuses, 10u);
  EXPECT_EQ(sum.cursor_redescends, 2u);
  EXPECT_EQ(sum.batch_ops, 1u);
  EXPECT_EQ(sum.batch_keys, 40u);
  EXPECT_EQ(sum.shard_batches, 5u);
  EXPECT_EQ(sum.service_requests, 5u);
  EXPECT_EQ(sum.service_subtasks, 7u);
  EXPECT_EQ(sum.queue_full_waits, 1u);
  EXPECT_EQ(sum.queue_depth_sum, 11u);
  EXPECT_EQ(sum.queue_wait_ns, 1500u);

  const StepCounters diff = sum - b;
  EXPECT_EQ(diff.node_hops, a.node_hops);
  EXPECT_EQ(diff.hops_top, a.hops_top);
  EXPECT_EQ(diff.hops_descent, a.hops_descent);
  EXPECT_EQ(diff.hash_probes, a.hash_probes);
  EXPECT_EQ(diff.cas_attempts, 0u);
  EXPECT_EQ(diff.probes_binsearch, 0u);
  EXPECT_EQ(diff.walk_fallbacks, 0u);
  EXPECT_EQ(diff.probes_lookup, a.probes_lookup);
  EXPECT_EQ(diff.cursor_reuses, a.cursor_reuses);
  EXPECT_EQ(diff.cursor_redescends, 0u);
  EXPECT_EQ(diff.batch_ops, 0u);
  EXPECT_EQ(diff.batch_keys, a.batch_keys);
  EXPECT_EQ(diff.shard_batches, a.shard_batches);
  EXPECT_EQ(diff.service_requests, a.service_requests);
  EXPECT_EQ(diff.service_subtasks, 0u);
  EXPECT_EQ(diff.queue_full_waits, 0u);
  EXPECT_EQ(diff.queue_depth_sum, a.queue_depth_sum);
  EXPECT_EQ(diff.queue_wait_ns, 0u);
}

// Schema-v5 counters are queue/routing events, not shared-memory steps:
// they must never leak into the paper-bound sums (a ShardedEngine at
// shards=1 has to report exactly the unsharded step counts).
TEST(Stats, ShardAndServiceCountersAreNotSteps) {
  StepCounters c;
  c.node_hops = 5;
  c.hash_probes = 2;
  const uint64_t search = c.search_steps();
  const uint64_t total = c.total_steps();
  c.shard_batches = 100;
  c.service_requests = 100;
  c.service_subtasks = 100;
  c.queue_full_waits = 100;
  c.queue_depth_sum = 100;
  c.queue_wait_ns = 100;
  EXPECT_EQ(c.search_steps(), search);
  EXPECT_EQ(c.total_steps(), total);
}

TEST(Stats, SearchStepsDefinition) {
  StepCounters c;
  c.node_hops = 5;
  c.hash_probes = 2;
  c.back_steps = 1;
  c.prev_steps = 1;
  c.cas_attempts = 100;  // writes are not search steps
  // Attribution counters decompose hash_probes / node_hops / restarts;
  // adding them to the sums would double count (DESIGN.md §5.1, §5.2).
  c.probes_lookup = 2;
  c.probes_chain = 1;
  c.probes_binsearch = 2;
  c.walk_fallbacks = 3;
  c.hops_top = 2;
  c.hops_descent = 3;
  EXPECT_EQ(c.search_steps(), 9u);
  EXPECT_GT(c.total_steps(), c.search_steps());
  EXPECT_EQ(c.total_steps(), 109u);
}

TEST(Stats, ThreadLocalIsolation) {
  tls_counters().node_hops = 0;
  tls_counters().node_hops += 7;
  uint64_t other_thread_value = 1;
  std::thread t([&] { other_thread_value = tls_counters().node_hops; });
  t.join();
  EXPECT_EQ(other_thread_value, 0u);
  EXPECT_EQ(tls_counters().node_hops, 7u);
  tls_counters() = StepCounters{};
}

TEST(Stats, SnapshotDelta) {
  tls_counters() = StepCounters{};
  const StepCounters before = snapshot_counters();
  tls_counters().node_hops += 3;
  tls_counters().restarts += 1;
  const StepCounters delta = snapshot_counters() - before;
  EXPECT_EQ(delta.node_hops, 3u);
  EXPECT_EQ(delta.restarts, 1u);
  tls_counters() = StepCounters{};
}

}  // namespace
}  // namespace skiptrie
