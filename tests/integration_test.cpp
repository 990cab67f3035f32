// Cross-module integration: the workload driver against every set type,
// counter plumbing, and post-run structural validation.
#include <gtest/gtest.h>

#include <map>

#include "baseline/lockfree_skiplist.h"
#include "baseline/locked_map.h"
#include "core/skiptrie.h"
#include "core/validate.h"
#include "workload/driver.h"

namespace skiptrie {
namespace {

WorkloadConfig quick_cfg() {
  WorkloadConfig cfg;
  cfg.threads = 2;
  cfg.ops_per_thread = 20000;
  cfg.key_space = 1u << 14;
  cfg.prefill = 4000;
  return cfg;
}

TEST(Integration, WorkloadOnSkipTrieBalancedMix) {
  Config c;
  c.universe_bits = 24;
  SkipTrie t(c);
  WorkloadConfig cfg = quick_cfg();
  cfg.mix = OpMix::balanced();
  const WorkloadResult r = run_workload(t, cfg);
  EXPECT_EQ(r.total_ops, cfg.threads * cfg.ops_per_thread);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.steps.node_hops, 0u);
  EXPECT_GT(r.steps.hash_probes, 0u);  // trie is being consulted
  EXPECT_GT(r.inserts, 0u);
  EXPECT_GT(r.preds, 0u);
  const auto errors = validate_structure(t);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
}

TEST(Integration, WorkloadReadOnlyMakesNoStructuralWrites) {
  Config c;
  c.universe_bits = 24;
  SkipTrie t(c);
  WorkloadConfig cfg = quick_cfg();
  cfg.mix = OpMix::read_only();
  const WorkloadResult r = run_workload(t, cfg);
  EXPECT_EQ(r.preds, r.total_ops);
  // The first read pass may lazily initialize hash buckets left
  // uninitialized by table growth during prefill (a one-time, amortized
  // cost: at most a couple of CASes per directory bucket), but never more.
  const size_t buckets = t.trie().map().bucket_count();
  EXPECT_LE(r.steps.cas_attempts, 2 * buckets);
  EXPECT_EQ(r.steps.dcss_attempts, 0u);

  // Once warmed, queries never write: no CAS/DCSS attempts at all.
  cfg.prefill = 0;
  const WorkloadResult r2 = run_workload(t, cfg);
  EXPECT_EQ(r2.preds, r2.total_ops);
  EXPECT_EQ(r2.steps.cas_attempts, 0u);
  EXPECT_EQ(r2.steps.dcss_attempts, 0u);
}

TEST(Integration, WorkloadOnBaselines) {
  LockFreeSkipList s(16);
  WorkloadConfig cfg = quick_cfg();
  const WorkloadResult r1 = run_workload(s, cfg);
  EXPECT_EQ(r1.total_ops, cfg.threads * cfg.ops_per_thread);
  EXPECT_GT(r1.steps.node_hops, 0u);
  EXPECT_EQ(r1.steps.hash_probes, 0u);  // no trie in the baseline

  LockedMap m;
  const WorkloadResult r2 = run_workload(m, cfg);
  EXPECT_EQ(r2.total_ops, cfg.threads * cfg.ops_per_thread);
}

TEST(Integration, StepCountersSeparateSearchFromUpdateCost) {
  Config c;
  c.universe_bits = 32;
  SkipTrie t(c);
  WorkloadConfig cfg = quick_cfg();
  cfg.threads = 1;
  cfg.mix = OpMix::write_heavy();
  const WorkloadResult w = run_workload(t, cfg);

  SkipTrie t2(c);
  cfg.mix = OpMix::read_only();
  run_workload(t2, cfg);  // warm-up pass: may initialize hash buckets
  cfg.prefill = 0;
  const WorkloadResult r = run_workload(t2, cfg);
  // Write-heavy runs must record update work; warmed read-only must not.
  EXPECT_GT(w.steps.cas_attempts + w.steps.dcss_attempts, 0u);
  EXPECT_EQ(r.steps.cas_attempts + r.steps.dcss_attempts, 0u);
}

TEST(Integration, DistributionsProduceInRangeKeys) {
  for (KeyDist d : {KeyDist::kUniform, KeyDist::kZipf, KeyDist::kClustered,
                    KeyDist::kSequential}) {
    KeyGenerator gen(d, 10000, 42);
    for (int i = 0; i < 5000; ++i) {
      ASSERT_LT(gen.next(), 10000u) << key_dist_name(d);
    }
  }
}

TEST(Integration, ZipfIsSkewed) {
  KeyGenerator gen(KeyDist::kZipf, 1u << 20, 7);
  std::map<uint64_t, int> freq;
  for (int i = 0; i < 50000; ++i) freq[gen.next()]++;
  // The most frequent key should be dramatically over-represented vs the
  // uniform expectation of ~0.05 hits per key.
  int max_freq = 0;
  for (const auto& [k, f] : freq) max_freq = std::max(max_freq, f);
  EXPECT_GT(max_freq, 500);
}

TEST(Integration, SequentialDistributionIsDeterministic) {
  KeyGenerator a(KeyDist::kSequential, 100, 1);
  KeyGenerator b(KeyDist::kSequential, 100, 2);  // seed must not matter
  for (int i = 0; i < 250; ++i) ASSERT_EQ(a.next(), b.next());
}

TEST(Integration, WorkloadResultSummaryIsHumanReadable) {
  Config c;
  c.universe_bits = 16;
  SkipTrie t(c);
  WorkloadConfig cfg = quick_cfg();
  cfg.ops_per_thread = 2000;
  const WorkloadResult r = run_workload(t, cfg);
  const std::string s = r.summary();
  EXPECT_NE(s.find("Mops/s"), std::string::npos);
  EXPECT_NE(s.find("steps/op"), std::string::npos);
}

}  // namespace
}  // namespace skiptrie
