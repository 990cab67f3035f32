// ShardedEngine property tests (DESIGN.md §4.1, §4.3).
//
// Pins the contracts the sharded engine makes: (1) routing is a bijection
// between keys and (shard, low) pairs, with the shard index equal to the
// key's top bits; (2) every batch operation — duplicates, empty, unsorted
// inputs included — returns byte-identical results (values and input
// order) to the unsharded engine run over the same (key, op) sequence;
// (3) per-shard structure stats sum to the unsharded totals, and shards=1
// reproduces the unsharded engine's step counts exactly; (4) under client
// threads calling it concurrently, answers match per-stripe reference
// models and per-key insert/erase successes alternate.  The stress cases
// must pass under -DSKIPTRIE_SANITIZE=address and thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "core/skiptrie.h"
#include "shard/sharded_engine.h"

namespace skiptrie {
namespace {

constexpr uint32_t kBits = 20;

Config small_cfg() {
  Config cfg;
  cfg.universe_bits = kBits;
  return cfg;
}

// --- Routing ----------------------------------------------------------------

TEST(ShardRouting, BijectionOnKeyPrefixes) {
  for (uint32_t shards : {1u, 2u, 4u, 16u}) {
    ShardedEngine e(shards, small_cfg());
    ASSERT_EQ(e.shard_count(), shards);
    const uint32_t low_bits = kBits - e.shard_bits();
    Xoshiro256 rng(0xb1d5eed + shards);
    for (int i = 0; i < 4096; ++i) {
      const uint64_t k = rng.next_below(1ull << kBits);
      const uint32_t s = e.shard_of(k);
      const uint64_t low = e.low_of(k);
      // The shard is exactly the top log2(N) bits; low is the rest.
      EXPECT_EQ(s, static_cast<uint32_t>(k >> low_bits));
      EXPECT_LT(s, shards);
      EXPECT_LT(low, 1ull << low_bits);
      // Round trip: (shard, low) identifies the key uniquely.
      EXPECT_EQ(e.global_key(s, low), k);
    }
    // Every shard is reachable: the prefix map is onto [0, N).
    for (uint32_t s = 0; s < shards; ++s) {
      EXPECT_EQ(e.shard_of(e.global_key(s, 0)), s);
    }
  }
}

TEST(ShardRouting, RoutedKeysLandInTheirShardOnly) {
  ShardedEngine e(8, small_cfg());
  Xoshiro256 rng(42);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 512; ++i) keys.push_back(rng.next_below(1ull << kBits));
  for (uint64_t k : keys) e.insert(k);
  size_t total = 0;
  for (uint32_t s = 0; s < e.shard_count(); ++s) {
    const size_t n = e.shard(s).size();
    total += n;
    // Each shard holds exactly the keys whose prefix routes to it.
    size_t expect = 0;
    std::sort(keys.begin(), keys.end());
    for (size_t i = 0; i < keys.size(); ++i) {
      if ((i == 0 || keys[i] != keys[i - 1]) && e.shard_of(keys[i]) == s) {
        ++expect;
      }
    }
    EXPECT_EQ(n, expect) << "shard " << s;
  }
  EXPECT_EQ(total, e.size());
}

// --- Single-key cross-shard queries -----------------------------------------

TEST(ShardQueries, CrossShardFallbacksMatchUnsharded) {
  ShardedEngine sharded(8, small_cfg());
  SkipTrie flat(small_cfg());
  // Sparse keys leaving several shards empty, so predecessor/successor must
  // scan across empty shards.
  const std::vector<uint64_t> keys = {3,       (1ull << 17) + 5,
                                      1 << 18, (3ull << 17) + 1234,
                                      7 << 16, (1ull << kBits) - 1};
  for (uint64_t k : keys) {
    EXPECT_TRUE(sharded.insert(k));
    EXPECT_TRUE(flat.insert(k));
  }
  EXPECT_EQ(sharded.min_key(), flat.min_key());
  EXPECT_EQ(sharded.max_key_present(), flat.max_key_present());
  Xoshiro256 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t q = rng.next_below(1ull << kBits);
    EXPECT_EQ(sharded.predecessor(q), flat.predecessor(q)) << q;
    EXPECT_EQ(sharded.strict_predecessor(q), flat.strict_predecessor(q)) << q;
    EXPECT_EQ(sharded.successor(q), flat.successor(q)) << q;
    EXPECT_EQ(sharded.contains(q), flat.contains(q)) << q;
  }
  // Empty-engine edge.
  ShardedEngine empty(4, small_cfg());
  EXPECT_FALSE(empty.predecessor(123).has_value());
  EXPECT_FALSE(empty.successor(123).has_value());
  EXPECT_FALSE(empty.min_key().has_value());
  EXPECT_FALSE(empty.max_key_present().has_value());
}

// --- Batch equivalence ------------------------------------------------------

// Runs the same scripted (op, batch) sequence against a sharded and an
// unsharded engine and requires byte-identical result arrays.
void run_batch_equivalence(uint32_t shards, uint64_t seed) {
  ShardedEngine sharded(shards, small_cfg());
  SkipTrie flat(small_cfg());
  Xoshiro256 rng(seed);

  for (int round = 0; round < 60; ++round) {
    // Batch shapes: empty, tiny, large; sorted, unsorted; with duplicates.
    const size_t n = static_cast<size_t>(rng.next_below(97));
    std::vector<uint64_t> keys;
    keys.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      uint64_t k = rng.next_below(1ull << kBits);
      if (!keys.empty() && rng.next_below(4) == 0) {
        k = keys[rng.next_below(keys.size())];  // forced duplicate
      }
      keys.push_back(k);
    }
    if (rng.next_below(3) == 0) std::sort(keys.begin(), keys.end());

    const uint32_t op = static_cast<uint32_t>(rng.next_below(4));
    if (op == 3) {
      std::vector<std::optional<uint64_t>> rs(n), rf(n);
      const size_t hs = sharded.predecessor_batch(keys.data(), n, rs.data());
      const size_t hf = flat.predecessor_batch(keys.data(), n, rf.data());
      EXPECT_EQ(hs, hf) << "round " << round;
      EXPECT_EQ(rs, rf) << "round " << round;
    } else {
      std::vector<uint8_t> rs(n, 0xee), rf(n, 0xee);
      size_t hs = 0, hf = 0;
      switch (op) {
        case 0:
          hs = sharded.insert_batch(keys.data(), n, rs.data());
          hf = flat.insert_batch(keys.data(), n, rf.data());
          break;
        case 1:
          hs = sharded.erase_batch(keys.data(), n, rs.data());
          hf = flat.erase_batch(keys.data(), n, rf.data());
          break;
        case 2:
          hs = sharded.contains_batch(keys.data(), n, rs.data());
          hf = flat.contains_batch(keys.data(), n, rf.data());
          break;
      }
      EXPECT_EQ(hs, hf) << "round " << round;
      EXPECT_EQ(rs, rf) << "round " << round;  // values AND input order
    }
  }
  EXPECT_EQ(sharded.size(), flat.size());
}

TEST(ShardBatch, ByteIdenticalToUnshardedAt2Shards) {
  run_batch_equivalence(2, 0xfeed0001);
}
TEST(ShardBatch, ByteIdenticalToUnshardedAt8Shards) {
  run_batch_equivalence(8, 0xfeed0002);
}
TEST(ShardBatch, ByteIdenticalToUnshardedAt1Shard) {
  run_batch_equivalence(1, 0xfeed0003);
}

TEST(ShardBatch, EmptyAndNullResultBatches) {
  ShardedEngine e(4, small_cfg());
  EXPECT_EQ(e.insert_batch(nullptr, 0, nullptr), 0u);
  EXPECT_EQ(e.predecessor_batch(nullptr, 0, nullptr), 0u);
  // results == nullptr still returns the hit count.
  std::vector<uint64_t> keys = {5, 9, 5, (1ull << 19) + 3};
  EXPECT_EQ(e.insert_batch(keys.data(), keys.size(), nullptr), 3u);
  EXPECT_EQ(e.contains_batch(keys.data(), keys.size(), nullptr), 4u);
  // Predecessor hit count includes cross-shard fallbacks.
  std::vector<uint64_t> qs = {(1ull << 19) + 1, 4};
  EXPECT_EQ(e.predecessor_batch(qs.data(), qs.size(), nullptr), 1u);
}

// --- Stats ------------------------------------------------------------------

TEST(ShardStats, PerShardStatsSumToUnshardedTotals) {
  ShardedEngine sharded(8, small_cfg());
  SkipTrie flat(small_cfg());
  Xoshiro256 rng(0x57a7);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t k = rng.next_below(1ull << kBits);
    sharded.insert(k);
    flat.insert(k);
  }
  for (int i = 0; i < 1000; ++i) {
    const uint64_t k = rng.next_below(1ull << kBits);
    sharded.erase(k);
    flat.erase(k);
  }
  // Key-population invariants must agree exactly; distribution-shaped
  // fields (tower heights, trie entries) depend on each shard's narrower
  // universe, so only the additive key counts are compared.
  EXPECT_EQ(sharded.size(), flat.size());
  const SkipTrie::StructureStats agg = sharded.structure_stats();
  const SkipTrie::StructureStats one = flat.structure_stats();
  EXPECT_EQ(agg.keys, one.keys);
  size_t shard_key_sum = 0, shard_size_sum = 0;
  for (uint32_t s = 0; s < sharded.shard_count(); ++s) {
    shard_key_sum += sharded.shard(s).structure_stats().keys;
    shard_size_sum += sharded.shard(s).size();
  }
  EXPECT_EQ(shard_key_sum, agg.keys);
  EXPECT_EQ(shard_size_sum, sharded.size());
}

TEST(ShardStats, ShardBatchCounterCountsSubBatches) {
  std::thread probe([] {
    ShardedEngine e(4, small_cfg());
    tls_counters() = StepCounters{};
    // Keys spanning 3 distinct shards -> exactly 3 sub-batches.
    std::vector<uint64_t> keys = {1, 2, (1ull << 18) + 1, (3ull << 18) + 7};
    e.insert_batch(keys.data(), keys.size(), nullptr);
    EXPECT_EQ(tls_counters().shard_batches, 3u);
    EXPECT_EQ(tls_counters().batch_ops, 3u);  // one engine batch per shard
    EXPECT_EQ(tls_counters().batch_keys, keys.size());
    tls_counters() = StepCounters{};
  });
  probe.join();
}

// --- shards=1 step reproduction ---------------------------------------------
//
// The acceptance bar: a ShardedEngine at shards=1 must report exactly the
// unsharded engine's per-op step counts on the same stream.  Fresh threads
// give both engines cold thread-local cursor state; seed-stable
// tower heights make the structures identical; so every search counter must
// match to the step.
TEST(ShardStats, ShardsEqualOneReproducesUnshardedStepCounts) {
  const auto run = [](auto& engine) {
    StepCounters out;
    std::thread probe([&] {
      Xoshiro256 rng(0xabc123);
      tls_counters() = StepCounters{};
      std::vector<uint64_t> batch;
      for (int round = 0; round < 40; ++round) {
        batch.clear();
        for (int i = 0; i < 64; ++i) {
          batch.push_back(rng.next_below(1ull << kBits));
        }
        engine.insert_batch(batch.data(), batch.size(), nullptr);
        engine.predecessor_batch(batch.data(), batch.size(), nullptr);
        for (int i = 0; i < 16; ++i) {
          engine.predecessor(rng.next_below(1ull << kBits));
          engine.contains(rng.next_below(1ull << kBits));
        }
        engine.erase_batch(batch.data(), batch.size() / 2, nullptr);
      }
      out = tls_counters();
      tls_counters() = StepCounters{};
    });
    probe.join();
    return out;
  };

  SkipTrie flat(small_cfg());
  ShardedEngine one(1, small_cfg());
  const StepCounters cf = run(flat);
  const StepCounters cs = run(one);
  EXPECT_EQ(cs.node_hops, cf.node_hops);
  EXPECT_EQ(cs.hops_top, cf.hops_top);
  EXPECT_EQ(cs.hops_descent, cf.hops_descent);
  EXPECT_EQ(cs.hash_probes, cf.hash_probes);
  EXPECT_EQ(cs.probes_lookup, cf.probes_lookup);
  EXPECT_EQ(cs.probes_chain, cf.probes_chain);
  EXPECT_EQ(cs.probes_binsearch, cf.probes_binsearch);
  EXPECT_EQ(cs.search_steps(), cf.search_steps());
  EXPECT_EQ(cs.total_steps(), cf.total_steps());
  EXPECT_EQ(cs.batch_ops, cf.batch_ops);
  EXPECT_EQ(cs.batch_keys, cf.batch_keys);
  // The only divergence allowed: the pass-through's event counter.
  EXPECT_GT(cs.shard_batches, 0u);
  EXPECT_EQ(cf.shard_batches, 0u);
  EXPECT_EQ(one.size(), flat.size());
}

// --- Concurrent stress --------------------------------------------------------
//
// Client threads call one 4-shard engine directly.  Requests alternate
// between batch calls and single-key ops; histories are bounded and
// seed-stable.

// Each client owns one contiguous key stripe, which at 4 shards is exactly
// one shard, so every insert/erase/contains answer is exact against the
// client's stripe model.  A predecessor answer is exact whenever the model
// holds an in-stripe predecessor p of the query q: any key strictly between
// p and q lies in the stripe, which only this client writes.  Otherwise the
// answer, if any, is a cross-shard fallback and must land below the stripe.
TEST(ShardStress, StripedClientsExactPerOpLinearization) {
  constexpr uint32_t kClients = 4;
  constexpr uint32_t kRequests = 120;
  constexpr uint32_t kOpsPerRequest = 24;
  constexpr uint64_t kStripe = (1ull << kBits) / kClients;

  ShardedEngine e(4, small_cfg());
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
              e.insert_batch(keys, hits.data());
              for (size_t i = 0; i < keys.size(); ++i) {
                ok &= hits[i] == model.insert(keys[i]).second;
              }
              break;
            case 1:
              e.erase_batch(keys, hits.data());
              for (size_t i = 0; i < keys.size(); ++i) {
                ok &= hits[i] == (model.erase(keys[i]) > 0);
              }
              break;
            case 2:
              e.contains_batch(keys, hits.data());
              for (size_t i = 0; i < keys.size(); ++i) {
                ok &= hits[i] == (model.count(keys[i]) > 0);
              }
              break;
            default:
              e.predecessor_batch(keys, preds.data());
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
                ok &= e.insert(k) == model.insert(k).second;
                break;
              case 1:
                ok &= e.erase(k) == (model.erase(k) > 0);
                break;
              case 2:
                ok &= e.contains(k) == (model.count(k) > 0);
                break;
              default:
                ok &= check_pred(k, e.predecessor(k));
                break;
            }
          }
        }
        if (!ok) violations.fetch_add(1, std::memory_order_relaxed);
      }
      // Quiescent stripe reconciliation: the engine holds exactly the
      // model's keys inside this stripe.
      for (uint64_t probe = 0; probe < 1024; ++probe) {
        const uint64_t key = lo + probe * (kStripe / 1024);
        if (e.contains(key) != (model.count(key) > 0)) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(violations.load(), 0u);
}

// All clients fight over 32 keys spread over every shard, writes only, so
// several threads write each shard at once.  An insert succeeds only on an
// absent key and an erase only on a present one, so per key the successes
// strictly alternate: at quiescence a key is present iff successful
// inserts == successful erases + 1.
TEST(ShardStress, SharedKeysSuccessCountsLinearize) {
  constexpr uint32_t kClients = 4;
  constexpr uint32_t kRequests = 100;
  constexpr uint32_t kOpsPerRequest = 16;
  constexpr uint64_t kSharedKeys = 32;
  constexpr uint64_t kKeyStride = (1ull << kBits) / kSharedKeys;

  ShardedEngine e(4, small_cfg());
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
          e.insert_batch(ins, hits.data());
          for (size_t i = 0; i < ins.size(); ++i) {
            tally(ins[i], hits[i], succ_ins);
          }
          hits.resize(era.size());
          e.erase_batch(era, hits.data());
          for (size_t i = 0; i < era.size(); ++i) {
            tally(era[i], hits[i], succ_era);
          }
        } else {
          for (const uint64_t k : ins) tally(k, e.insert(k), succ_ins);
          for (const uint64_t k : era) tally(k, e.erase(k), succ_era);
        }
      }
    });
  }
  for (auto& th : clients) th.join();

  for (uint64_t s = 0; s < kSharedKeys; ++s) {
    const uint64_t ins = succ_ins[s].load();
    const uint64_t era = succ_era[s].load();
    ASSERT_TRUE(ins == era || ins == era + 1) << "key slot " << s;
    EXPECT_EQ(e.contains(s * kKeyStride), ins == era + 1) << "key slot " << s;
  }
}

// --- Key range ---------------------------------------------------------------

template <typename Traits>
class ShardKeyRange : public ::testing::Test {};
using ShardTraitTypes = ::testing::Types<U64Traits, Bytes16Traits>;
TYPED_TEST_SUITE(ShardKeyRange, ShardTraitTypes);

// With four shards, max_key() works in every keyed op, and every key above
// it throws std::out_of_range before it is routed: below B = W such a key's
// shard index is past the last shard, and at B = W the two sentinel-reserved
// keys would land in the last shard as ordinary low keys.
TYPED_TEST(ShardKeyRange, KeysAboveMaxKeyThrowFromEveryOp) {
  using Engine = BasicShardedEngine<TypeParam>;
  using K = typename TypeParam::key_type;
  for (const uint32_t bits : {32u, TypeParam::kMaxBits}) {
    Config c;
    c.universe_bits = bits;
    Engine e(4, c);
    const K top = e.max_key();
    const std::vector<K> edge = {K(7), top};

    EXPECT_TRUE(e.insert(K(7))) << "B=" << bits;
    EXPECT_TRUE(e.insert(top)) << "B=" << bits;
    EXPECT_TRUE(e.contains(top)) << "B=" << bits;
    EXPECT_TRUE(e.predecessor(top) == std::optional<K>(top)) << "B=" << bits;
    EXPECT_TRUE(e.strict_predecessor(top) == std::optional<K>(K(7)))
        << "B=" << bits;
    EXPECT_TRUE(e.successor(K(7)) == std::optional<K>(top)) << "B=" << bits;
    EXPECT_FALSE(e.successor(top).has_value()) << "B=" << bits;
    EXPECT_TRUE(e.erase(top)) << "B=" << bits;
    EXPECT_EQ(e.insert_batch(edge), 1u) << "B=" << bits;
    EXPECT_EQ(e.contains_batch(edge), 2u) << "B=" << bits;
    std::vector<std::optional<K>> preds(edge.size());
    EXPECT_EQ(e.predecessor_batch(edge, preds.data()), 2u) << "B=" << bits;
    EXPECT_TRUE(preds[1] == std::optional<K>(top)) << "B=" << bits;

    std::vector<K> overs = {top + K(1)};
    if (bits == TypeParam::kMaxBits) overs.push_back(top + K(2));
    for (const K over : overs) {
      const std::vector<K> mixed = {K(1), over, K(2)};
      EXPECT_THROW(e.insert(over), std::out_of_range) << "B=" << bits;
      EXPECT_THROW(e.erase(over), std::out_of_range) << "B=" << bits;
      EXPECT_THROW(e.contains(over), std::out_of_range) << "B=" << bits;
      EXPECT_THROW(e.predecessor(over), std::out_of_range) << "B=" << bits;
      EXPECT_THROW(e.strict_predecessor(over), std::out_of_range)
          << "B=" << bits;
      EXPECT_THROW(e.successor(over), std::out_of_range) << "B=" << bits;
      EXPECT_THROW(e.insert_batch(mixed), std::out_of_range) << "B=" << bits;
      EXPECT_THROW(e.erase_batch(std::vector<K>{K(7), over}),
                   std::out_of_range)
          << "B=" << bits;
      EXPECT_THROW(e.contains_batch(mixed), std::out_of_range)
          << "B=" << bits;
      EXPECT_THROW(e.predecessor_batch(mixed), std::out_of_range)
          << "B=" << bits;
    }

    // The set is unchanged: exactly {7, max_key()}.
    EXPECT_EQ(e.size(), 2u) << "B=" << bits;
    EXPECT_TRUE(e.min_key() == std::optional<K>(K(7))) << "B=" << bits;
    EXPECT_TRUE(e.max_key_present() == std::optional<K>(top)) << "B=" << bits;
  }
}

}  // namespace
}  // namespace skiptrie
