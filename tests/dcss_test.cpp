#include "dcss/dcss.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/spin_barrier.h"
#include "common/stats.h"

namespace skiptrie {
namespace {

class DcssTest : public ::testing::Test {
 protected:
  EbrDomain ebr_;
};

TEST_F(DcssTest, SucceedsWhenBothMatch) {
  std::atomic<uint64_t> target{16};
  std::atomic<uint64_t> guard{256};
  EbrDomain::Guard g(ebr_);
  const auto r = dcss(ebr_, target, 16, 32, guard, 256);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(dcss_read(target), 32u);
}

TEST_F(DcssTest, FailsOnTargetMismatch) {
  std::atomic<uint64_t> target{16};
  std::atomic<uint64_t> guard{256};
  EbrDomain::Guard g(ebr_);
  const auto r = dcss(ebr_, target, 24, 32, guard, 256);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.guard_failed);
  EXPECT_EQ(dcss_read(target), 16u);
}

TEST_F(DcssTest, FailsOnGuardMismatchAndRestoresTarget) {
  std::atomic<uint64_t> target{16};
  std::atomic<uint64_t> guard{256};
  EbrDomain::Guard g(ebr_);
  const auto r = dcss(ebr_, target, 16, 32, guard, 1000);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.guard_failed);
  EXPECT_EQ(dcss_read(target), 16u);  // restored, not left as descriptor
}

TEST_F(DcssTest, MarkedValuesSupported) {
  // DCSS operands carry mark bits (bit 0) freely; only the descriptor bit
  // is reserved.
  std::atomic<uint64_t> target{16 | kMark};
  std::atomic<uint64_t> guard{0};
  EbrDomain::Guard g(ebr_);
  const auto r = dcss(ebr_, target, 16 | kMark, 32 | kMark, guard, 0);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(dcss_read(target), 32 | kMark);
}

TEST_F(DcssTest, GuardEqualExpectedEqualDesiredIsNoopSuccess) {
  std::atomic<uint64_t> target{16};
  std::atomic<uint64_t> guard{8};
  EbrDomain::Guard g(ebr_);
  const auto r = dcss(ebr_, target, 16, 16, guard, 8);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(dcss_read(target), 16u);
}

TEST_F(DcssTest, StatsCountAttemptsAndGuardFails) {
  tls_counters() = StepCounters{};
  std::atomic<uint64_t> target{16};
  std::atomic<uint64_t> guard{256};
  EbrDomain::Guard g(ebr_);
  dcss(ebr_, target, 16, 32, guard, 256);
  dcss(ebr_, target, 32, 48, guard, 1000);
  EXPECT_EQ(tls_counters().dcss_attempts, 2u);
  EXPECT_EQ(tls_counters().dcss_guard_fails, 1u);
  tls_counters() = StepCounters{};
}

TEST_F(DcssTest, ConcurrentDisjointGuardsAllSucceedOnce) {
  // N threads race DCSS on one counter word; each transition is
  // (v -> v+1) guarded on a constant word.  Exactly max value wins overall.
  std::atomic<uint64_t> target{0};
  std::atomic<uint64_t> guard{8};
  const int kThreads = 4;
  const uint64_t kPerThread = 5000;
  std::atomic<uint64_t> successes{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        EbrDomain::Guard g(ebr_);
        for (;;) {
          const uint64_t cur = dcss_read(target);
          const auto r = dcss(ebr_, target, cur, cur + 4, guard, 8);
          if (r.success) {
            successes.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(successes.load(), kThreads * kPerThread);
  EXPECT_EQ(dcss_read(target), kThreads * kPerThread * 4);
}

TEST_F(DcssTest, GuardFlipsConcurrently) {
  // Writers flip the guard word; DCSS attempts must only succeed when the
  // guard read truly matched, and the target must never be corrupted.
  std::atomic<uint64_t> target{0};
  std::atomic<uint64_t> guard{0};
  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    uint64_t v = 0;
    while (!stop.load()) guard.store(((++v) & 1) * 8, std::memory_order_seq_cst);
  });
  uint64_t ok = 0;
  for (int i = 0; i < 20000; ++i) {
    EbrDomain::Guard g(ebr_);
    const uint64_t cur = dcss_read(target);
    const auto r = dcss(ebr_, target, cur, cur + 4, guard, 0);
    if (r.success) ok++;
  }
  stop.store(true);
  flipper.join();
  EXPECT_EQ(dcss_read(target), ok * 4);
}

TEST_F(DcssTest, ReadersHelpInstalledDescriptors) {
  // A reader thread hammers dcss_read while writers DCSS; the reader must
  // never observe a descriptor-tagged value.
  std::atomic<uint64_t> target{0};
  std::atomic<uint64_t> guard{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> saw_desc{false};
  std::thread reader([&] {
    EbrDomain::Guard g(ebr_);
    while (!stop.load()) {
      if (is_desc(dcss_read(target))) saw_desc.store(true);
    }
  });
  for (int i = 0; i < 30000; ++i) {
    EbrDomain::Guard g(ebr_);
    const uint64_t cur = dcss_read(target);
    dcss(ebr_, target, cur, cur + 4, guard, 0);
  }
  stop.store(true);
  reader.join();
  EXPECT_FALSE(saw_desc.load());
}

TEST_F(DcssTest, GuardOnDcssTargetWordReadsThrough) {
  // The guard word is itself a DCSS target being modified: evaluation must
  // read through descriptors rather than deadlock or crash.
  std::atomic<uint64_t> a{0};
  std::atomic<uint64_t> b{0};
  std::atomic<bool> stop{false};
  std::thread t1([&] {
    while (!stop.load()) {
      EbrDomain::Guard g(ebr_);
      const uint64_t cur = dcss_read(a);
      dcss(ebr_, a, cur, cur + 4, b, dcss_read(b));
    }
  });
  std::thread t2([&] {
    while (!stop.load()) {
      EbrDomain::Guard g(ebr_);
      const uint64_t cur = dcss_read(b);
      dcss(ebr_, b, cur, cur + 4, a, dcss_read(a));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  t1.join();
  t2.join();
  // Progress happened and both words are clean values.
  EXPECT_FALSE(is_desc(a.load()));
  EXPECT_FALSE(is_desc(b.load()));
}

TEST_F(DcssTest, CrossedGuardsNeverBothSucceed) {
  // Two DCSS operations, each guarding the OTHER's target, both from the
  // (0, 0) state: sequentially one must fail (whichever runs second sees
  // the other's write in its guard).  Blind read-through of undecided
  // descriptors let both succeed — the bug that could half-kill an x-fast
  // trie entry (DESIGN.md §3.5(3)); guard evaluation now serializes crossed
  // descriptors by target-address order.
  // The racy window needs true parallelism (both descriptors installed,
  // neither decided), so scale the rounds to the hardware: on a single
  // core this is only a smoke test.
  const int rounds = std::thread::hardware_concurrency() >= 2 ? 2000 : 200;
  for (int round = 0; round < rounds; ++round) {
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
    DcssResult ra, rb;
    SpinBarrier bar(2);
    std::thread t1([&] {
      EbrDomain::Guard g(ebr_);
      bar.arrive_and_wait();
      ra = dcss(ebr_, a, 0, 8, b, 0);
    });
    std::thread t2([&] {
      EbrDomain::Guard g(ebr_);
      bar.arrive_and_wait();
      rb = dcss(ebr_, b, 0, 16, a, 0);
    });
    t1.join();
    t2.join();
    ASSERT_FALSE(ra.success && rb.success) << "round " << round;
    // And the words reflect the outcomes exactly.
    ASSERT_EQ(dcss_read(a), ra.success ? 8u : 0u) << "round " << round;
    ASSERT_EQ(dcss_read(b), rb.success ? 16u : 0u) << "round " << round;
  }
}

}  // namespace
}  // namespace skiptrie
