// Concurrency stress tests: exactness on disjoint keys, invariant
// preservation under shared-key churn, query sanity during mutation, and
// per-op answers checked against per-client reference models while client
// threads mix batch calls with single-key ops.
#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/spin_barrier.h"
#include "core/skiptrie.h"
#include "core/validate.h"

namespace skiptrie {
namespace {

Config cfg(uint32_t bits) {
  Config c;
  c.universe_bits = bits;
  return c;
}

unsigned worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 4 ? 4 : (hw >= 2 ? hw : 2);
}

TEST(SkipTrieConcurrent, DisjointKeyRangesAreExact) {
  SkipTrie t(cfg(24));
  const unsigned kThreads = worker_count();
  const uint64_t kPer = 4000;
  SpinBarrier barrier(kThreads);
  std::vector<std::thread> ts;
  for (unsigned w = 0; w < kThreads; ++w) {
    ts.emplace_back([&, w] {
      barrier.arrive_and_wait();
      const uint64_t base = w * 1000000ull;
      // Insert everything, erase the odd ones, re-check.
      for (uint64_t i = 0; i < kPer; ++i) {
        ASSERT_TRUE(t.insert(base + i));
      }
      for (uint64_t i = 1; i < kPer; i += 2) {
        ASSERT_TRUE(t.erase(base + i));
      }
      for (uint64_t i = 0; i < kPer; ++i) {
        ASSERT_EQ(t.contains(base + i), i % 2 == 0) << base + i;
      }
    });
  }
  for (auto& th : ts) th.join();
  EXPECT_EQ(t.size(), kThreads * (kPer / 2));
  const auto errors = validate_structure(t);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
}

TEST(SkipTrieConcurrent, InsertRaceExactlyOneWinner) {
  SkipTrie t(cfg(16));
  const unsigned kThreads = worker_count();
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> wins{0};
    SpinBarrier barrier(kThreads);
    std::vector<std::thread> ts;
    for (unsigned w = 0; w < kThreads; ++w) {
      ts.emplace_back([&] {
        barrier.arrive_and_wait();
        if (t.insert(round)) wins.fetch_add(1);
      });
    }
    for (auto& th : ts) th.join();
    ASSERT_EQ(wins.load(), 1) << "round " << round;
  }
}

TEST(SkipTrieConcurrent, EraseRaceExactlyOneWinner) {
  SkipTrie t(cfg(16));
  const unsigned kThreads = worker_count();
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(t.insert(round));
    std::atomic<int> wins{0};
    SpinBarrier barrier(kThreads);
    std::vector<std::thread> ts;
    for (unsigned w = 0; w < kThreads; ++w) {
      ts.emplace_back([&] {
        barrier.arrive_and_wait();
        if (t.erase(round)) wins.fetch_add(1);
      });
    }
    for (auto& th : ts) th.join();
    ASSERT_EQ(wins.load(), 1) << "round " << round;
    ASSERT_FALSE(t.contains(round));
  }
}

TEST(SkipTrieConcurrent, InsertEraseSameKeyToggleStress) {
  // Threads hammer the SAME small key set with inserts and erases; the
  // structure must stay valid and every op must report a coherent result.
  SkipTrie t(cfg(16));
  const unsigned kThreads = worker_count();
  std::atomic<int64_t> net{0};
  std::vector<std::thread> ts;
  for (unsigned w = 0; w < kThreads; ++w) {
    ts.emplace_back([&, w] {
      Xoshiro256 rng(w + 1);
      int64_t local = 0;
      for (int i = 0; i < 8000; ++i) {
        const uint64_t k = rng.next_below(16);  // extreme contention
        if (rng.next() & 1) {
          if (t.insert(k)) local++;
        } else {
          if (t.erase(k)) local--;
        }
      }
      net.fetch_add(local);
    });
  }
  for (auto& th : ts) th.join();
  // Net successful inserts minus erases equals the surviving key count.
  int64_t remaining = 0;
  for (uint64_t k = 0; k < 16; ++k) remaining += t.contains(k) ? 1 : 0;
  EXPECT_EQ(net.load(), remaining);
  const auto errors = validate_structure(t);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
}

TEST(SkipTrieConcurrent, QueriesDuringChurnReturnSaneAnswers) {
  SkipTrie t(cfg(20));
  // Anchor keys that are never touched: queries between anchors must always
  // see them.
  for (uint64_t a = 0; a <= 10; ++a) ASSERT_TRUE(t.insert(a * 100000));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checked{0};
  std::thread churn([&] {
    Xoshiro256 rng(404);
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t k = rng.next_below(9) * 100000 + 1 + rng.next_below(99998);
      if (rng.next() & 1) {
        t.insert(k);
      } else {
        t.erase(k);
      }
    }
  });
  std::vector<std::thread> readers;
  for (unsigned w = 0; w < worker_count() - 1; ++w) {
    readers.emplace_back([&, w] {
      Xoshiro256 rng(w * 7 + 1);
      for (int i = 0; i < 20000; ++i) {
        const uint64_t anchor = rng.next_below(10);
        // predecessor(anchor*100000 + 0) must be exactly the anchor.
        const auto p = t.predecessor(anchor * 100000);
        ASSERT_TRUE(p.has_value());
        ASSERT_EQ(*p, anchor * 100000);
        // successor just below the next anchor must be <= next anchor and
        // > this anchor.
        const auto s = t.successor(anchor * 100000);
        ASSERT_TRUE(s.has_value());
        ASSERT_GT(*s, anchor * 100000);
        ASSERT_LE(*s, (anchor + 1) * 100000);
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : readers) th.join();
  stop.store(true, std::memory_order_release);
  churn.join();
  EXPECT_GT(checked.load(), 0u);
  const auto errors = validate_structure(t);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
}

TEST(SkipTrieConcurrent, MixedChurnKeepsInvariants) {
  SkipTrie t(cfg(24));
  const unsigned kThreads = worker_count();
  std::vector<std::thread> ts;
  for (unsigned w = 0; w < kThreads; ++w) {
    ts.emplace_back([&, w] {
      Xoshiro256 rng(w * 13 + 5);
      for (int i = 0; i < 15000; ++i) {
        const uint64_t k = rng.next_below(1u << 12);
        switch (rng.next_below(4)) {
          case 0: t.insert(k); break;
          case 1: t.erase(k); break;
          case 2: t.contains(k); break;
          default: t.predecessor(k); break;
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  const auto errors = validate_structure(t);
  EXPECT_TRUE(errors.empty())
      << errors.size() << " violations, first: "
      << (errors.empty() ? "" : errors.front());
  // And the structure still behaves after the storm.
  t.insert(99999);
  EXPECT_TRUE(t.contains(99999));
  EXPECT_EQ(t.predecessor(99999).value(), 99999u);
}

TEST(SkipTrieConcurrent, TeardownRunsParkedThreadsRecycles) {
  // A thread that erased top-level keys and then parked, alive and
  // unpinned, still holds their retire callbacks when the structure is
  // destroyed.  ~EbrDomain runs them, recycling skiplist nodes, TreeNodes
  // and HNodes into their pools, so every pool must still be alive then
  // (DESIGN.md §3.2).  ASan reports any pool destroyed first.
  auto t = std::make_unique<SkipTrie>(cfg(16));
  for (uint64_t k = 0; k < 2000; ++k) t->insert(k * 31);
  std::vector<uint64_t> tops;
  {
    EbrDomain::Guard g(t->ebr());
    const uint32_t top = t->engine().top_level();
    for (Node* n = t->engine().first_at(top); n != nullptr;
         n = t->engine().next_at(n)) {
      tops.push_back(n->ikey() - 1);
    }
  }
  ASSERT_FALSE(tops.empty());
  SpinBarrier parked(2);
  std::thread worker([&] {
    // Erasing the last top-level key kills every prefix entry but the
    // root's, so the final operation alone retires TreeNodes and HNodes
    // that no later scan can reclaim.
    for (const uint64_t k : tops) EXPECT_TRUE(t->erase(k));
    parked.arrive_and_wait();  // erases done; stay alive until teardown
    parked.arrive_and_wait();
  });
  parked.arrive_and_wait();
  EXPECT_EQ(t->trie().entry_count(), 1u);  // only the root entry is left
  t.reset();
  parked.arrive_and_wait();
  worker.join();
}

TEST(SkipTrieConcurrent, MemoryIsRecycledUnderChurn) {
  SkipTrie t(cfg(20));
  // Repeated insert/erase of the same keys must not grow the arena without
  // bound: recycled nodes get reused.
  for (uint64_t k = 0; k < 2000; ++k) t.insert(k);
  for (uint64_t k = 0; k < 2000; ++k) t.erase(k);
  const size_t after_warmup = t.structure_stats().arena_bytes;
  for (int round = 0; round < 20; ++round) {
    for (uint64_t k = 0; k < 2000; ++k) t.insert(k);
    for (uint64_t k = 0; k < 2000; ++k) t.erase(k);
  }
  const size_t after_churn = t.structure_stats().arena_bytes;
  EXPECT_LE(after_churn, after_warmup * 3 + (1u << 20));
}

// --- Multi-writer histories against reference models ------------------------
//
// Client threads call one SkipTrie (B = 20) directly.  Requests alternate
// between batch calls and single-key ops; histories are bounded and
// seed-stable.

// Each client owns one contiguous key stripe, so every insert/erase/contains
// answer is exact against the client's stripe model.  A predecessor answer
// is exact whenever the model holds an in-stripe predecessor p of the query
// q: any key strictly between p and q lies in the stripe, which only this
// client writes.  Otherwise the answer, if any, is a key of a lower stripe.
TEST(SkipTrieConcurrent, StripedClientsExactPerOpLinearization) {
  constexpr uint32_t kBits = 20;
  constexpr uint32_t kClients = 4;
  constexpr uint32_t kRequests = 120;
  constexpr uint32_t kOpsPerRequest = 24;
  constexpr uint64_t kStripe = (1ull << kBits) / kClients;

  SkipTrie st(cfg(kBits));
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> clients;
  for (uint32_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      const uint64_t lo = t * kStripe;
      Xoshiro256 rng(0x1234 + t);
      std::set<uint64_t> model;  // this stripe's reference content
      const auto check_pred = [&](uint64_t q, std::optional<uint64_t> got) {
        auto it = model.upper_bound(q);
        if (it != model.begin()) return got == *std::prev(it);
        return !got.has_value() || *got < lo;
      };
      std::vector<uint64_t> keys(kOpsPerRequest);
      std::vector<uint8_t> hits(kOpsPerRequest);
      std::vector<std::optional<uint64_t>> preds(kOpsPerRequest);
      for (uint32_t r = 0; r < kRequests; ++r) {
        for (uint64_t& k : keys) {
          // Dense sub-range so duplicates and hits are common.
          k = lo + rng.next_below(1024) * (kStripe / 1024);
        }
        const uint64_t op = rng.next_below(4);
        bool ok = true;
        if (r % 2 == 0) {
          // One batch call of a single op type; duplicates resolve in
          // input order, so the model replays the batch in input order.
          switch (op) {
            case 0:
              st.insert_batch(keys, hits.data());
              for (size_t i = 0; i < keys.size(); ++i) {
                ok &= hits[i] == model.insert(keys[i]).second;
              }
              break;
            case 1:
              st.erase_batch(keys, hits.data());
              for (size_t i = 0; i < keys.size(); ++i) {
                ok &= hits[i] == (model.erase(keys[i]) > 0);
              }
              break;
            case 2:
              st.contains_batch(keys, hits.data());
              for (size_t i = 0; i < keys.size(); ++i) {
                ok &= hits[i] == (model.count(keys[i]) > 0);
              }
              break;
            default:
              st.predecessor_batch(keys, preds.data());
              for (size_t i = 0; i < keys.size(); ++i) {
                ok &= check_pred(keys[i], preds[i]);
              }
              break;
          }
        } else {
          // Single-key ops of mixed types, checked as each returns.
          for (const uint64_t k : keys) {
            switch (rng.next_below(4)) {
              case 0:
                ok &= st.insert(k) == model.insert(k).second;
                break;
              case 1:
                ok &= st.erase(k) == (model.erase(k) > 0);
                break;
              case 2:
                ok &= st.contains(k) == (model.count(k) > 0);
                break;
              default:
                ok &= check_pred(k, st.predecessor(k));
                break;
            }
          }
        }
        if (!ok) violations.fetch_add(1, std::memory_order_relaxed);
      }
      // Quiescent stripe reconciliation: the structure holds exactly the
      // model's keys inside this stripe.
      for (uint64_t probe = 0; probe < 1024; ++probe) {
        const uint64_t key = lo + probe * (kStripe / 1024);
        if (st.contains(key) != (model.count(key) > 0)) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(violations.load(), 0u);
}

// All clients fight over 32 keys spread over the universe, writes only.  An
// insert succeeds only on an absent key and an erase only on a present one,
// so per key the successes strictly alternate: at quiescence a key is
// present iff successful inserts == successful erases + 1.
TEST(SkipTrieConcurrent, SharedKeysSuccessCountsLinearize) {
  constexpr uint32_t kBits = 20;
  constexpr uint32_t kClients = 4;
  constexpr uint32_t kRequests = 100;
  constexpr uint32_t kOpsPerRequest = 16;
  constexpr uint64_t kSharedKeys = 32;
  constexpr uint64_t kKeyStride = (1ull << kBits) / kSharedKeys;

  SkipTrie st(cfg(kBits));
  std::atomic<uint64_t> succ_ins[kSharedKeys] = {};
  std::atomic<uint64_t> succ_era[kSharedKeys] = {};
  std::vector<std::thread> clients;
  for (uint32_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Xoshiro256 rng(0xfeed + t);
      std::vector<uint64_t> ins, era;
      std::vector<uint8_t> hits;
      const auto tally = [](uint64_t key, bool hit,
                            std::atomic<uint64_t>* succ) {
        if (hit) succ[key / kKeyStride].fetch_add(1, std::memory_order_relaxed);
      };
      for (uint32_t r = 0; r < kRequests; ++r) {
        ins.clear();
        era.clear();
        for (uint32_t i = 0; i < kOpsPerRequest; ++i) {
          const uint64_t key = rng.next_below(kSharedKeys) * kKeyStride;
          (rng.next_below(2) == 0 ? ins : era).push_back(key);
        }
        if (r % 2 == 0) {
          hits.resize(ins.size());
          st.insert_batch(ins, hits.data());
          for (size_t i = 0; i < ins.size(); ++i) {
            tally(ins[i], hits[i], succ_ins);
          }
          hits.resize(era.size());
          st.erase_batch(era, hits.data());
          for (size_t i = 0; i < era.size(); ++i) {
            tally(era[i], hits[i], succ_era);
          }
        } else {
          for (const uint64_t k : ins) tally(k, st.insert(k), succ_ins);
          for (const uint64_t k : era) tally(k, st.erase(k), succ_era);
        }
      }
    });
  }
  for (auto& th : clients) th.join();

  for (uint64_t s = 0; s < kSharedKeys; ++s) {
    const uint64_t ins = succ_ins[s].load();
    const uint64_t era = succ_era[s].load();
    ASSERT_TRUE(ins == era || ins == era + 1) << "key slot " << s;
    EXPECT_EQ(st.contains(s * kKeyStride), ins == era + 1) << "key slot " << s;
  }
}

}  // namespace
}  // namespace skiptrie
