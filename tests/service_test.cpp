// Service front-end tests (DESIGN.md §4.3): correctness of the queue /
// split / merge machinery, then a concurrent stress harness against a
// mutex-guarded std::map reference model with per-op linearization checks.
//
// The stress design makes exact per-op checking possible under concurrency:
//
//  * Striped phase — each client owns a disjoint *contiguous* key stripe
//    and submits one request at a time (bounded history per stripe).  Every
//    write answer is exact: insert/erase/contains are key-local and only
//    the owner touches the stripe.  Predecessor answers are exact whenever
//    the stripe-local model has a predecessor p for the query q: any key
//    strictly between p and q would lie inside [stripe_lo, stripe_hi] and
//    therefore be owned (and tracked) by this client — foreign keys cannot
//    interpose.  When the local model has *no* in-stripe predecessor the
//    answer may come from a lower stripe and only its range is checked.
//
//  * Shared phase — all clients hammer one small key set with bursty
//    async requests; per-key atomic tallies of *successful* inserts/erases
//    give the linearization invariant at quiescence: a key is present iff
//    successes(insert) == successes(erase) + 1 (every success strictly
//    alternates per key).
//
// Histories are bounded and seed-stable; the suite must pass under
// -DSKIPTRIE_SANITIZE=asan and tsan (CI runs all three configs).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "service/service.h"
#include "workload/client_sim.h"

namespace skiptrie {
namespace {

constexpr uint32_t kBits = 20;

ServiceConfig service_cfg(uint32_t shards, size_t queue_cap = 1024) {
  ServiceConfig cfg;
  cfg.shards = shards;
  cfg.trie.universe_bits = kBits;
  cfg.queue_capacity = queue_cap;
  return cfg;
}

// --- Sequential correctness through the queue machinery ----------------------

// At shards=1 a single worker replays each request in exact input order, so
// every op of a mixed request — predecessor included — checks exactly
// against an input-order replay on the model.
TEST(ServiceBasic, SequentialRequestsMatchReferenceModel) {
  Service svc(service_cfg(1));
  std::set<uint64_t> model;
  Xoshiro256 rng(0x5e11ce);
  for (int round = 0; round < 50; ++round) {
    const size_t n = 1 + rng.next_below(48);
    std::vector<ServiceOpItem> ops;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = rng.next_below(1ull << 12);  // dense: collisions
      const auto op = static_cast<ServiceOp>(rng.next_below(4));
      ops.push_back({op, key});
    }
    const std::vector<ServiceOpItem> sent = ops;  // submit() moves the batch
    const ServiceResult res = svc.submit(std::move(ops)).get();
    ASSERT_EQ(res.results.size(), sent.size());
    for (size_t i = 0; i < sent.size(); ++i) {
      const uint64_t k = sent[i].key;
      const OpResult& r = res.results[i];
      switch (sent[i].op) {
        case ServiceOp::kInsert:
          EXPECT_EQ(r.ok, model.insert(k).second) << "op " << i;
          break;
        case ServiceOp::kErase:
          EXPECT_EQ(r.ok, model.erase(k) > 0) << "op " << i;
          break;
        case ServiceOp::kContains:
          EXPECT_EQ(r.ok, model.count(k) > 0) << "op " << i;
          break;
        case ServiceOp::kPredecessor: {
          auto it = model.upper_bound(k);
          if (it == model.begin()) {
            EXPECT_FALSE(r.ok) << "op " << i;
          } else {
            ASSERT_TRUE(r.ok) << "op " << i;
            EXPECT_EQ(*r.value, *std::prev(it)) << "op " << i;
          }
          break;
        }
      }
    }
  }
  svc.stop();
  EXPECT_EQ(svc.engine().size(), model.size());
}

// Multi-shard variant: a request's subtasks run on different workers
// concurrently, so mixed read/write requests are not input-order checkable
// across shards (a predecessor's cross-shard fallback may race the same
// request's writes elsewhere).  Alternating write-only and read-only
// requests — each awaited before the next — keeps every answer exact while
// exercising the split/merge across all four shards.
TEST(ServiceBasic, CrossShardRequestsMatchReferenceModelWhenPhased) {
  Service svc(service_cfg(4));
  std::set<uint64_t> model;
  Xoshiro256 rng(0xcafe01);
  for (int round = 0; round < 40; ++round) {
    // Write phase: keys spread over every shard; insert/erase are key-local
    // so results check exactly in input order even across workers.
    const size_t n = 1 + rng.next_below(64);
    std::vector<ServiceOpItem> writes;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = rng.next_below(1ull << kBits);
      writes.push_back({rng.next_below(3) == 0 ? ServiceOp::kErase
                                               : ServiceOp::kInsert,
                        key});
    }
    const std::vector<ServiceOpItem> sentw = writes;
    const ServiceResult resw = svc.submit(std::move(writes)).get();
    for (size_t i = 0; i < sentw.size(); ++i) {
      if (sentw[i].op == ServiceOp::kInsert) {
        EXPECT_EQ(resw.results[i].ok, model.insert(sentw[i].key).second);
      } else {
        EXPECT_EQ(resw.results[i].ok, model.erase(sentw[i].key) > 0);
      }
    }
    // Read phase against the now-quiescent engine: predecessor answers
    // (cross-shard fallback included) must be exact.
    std::vector<ServiceOpItem> reads;
    for (size_t i = 0; i < 32; ++i) {
      reads.push_back({ServiceOp::kPredecessor, rng.next_below(1ull << kBits)});
    }
    const std::vector<ServiceOpItem> sentr = reads;
    const ServiceResult resr = svc.submit(std::move(reads)).get();
    for (size_t i = 0; i < sentr.size(); ++i) {
      auto it = model.upper_bound(sentr[i].key);
      if (it == model.begin()) {
        EXPECT_FALSE(resr.results[i].ok);
      } else {
        ASSERT_TRUE(resr.results[i].ok);
        EXPECT_EQ(*resr.results[i].value, *std::prev(it));
      }
    }
  }
  svc.stop();
  EXPECT_EQ(svc.engine().size(), model.size());
}

TEST(ServiceBasic, EmptyRequestAndCallbackFlavor) {
  Service svc(service_cfg(2));
  // Empty request: completes immediately, empty results.
  EXPECT_TRUE(svc.submit({}).get().results.empty());
  // Callback flavor: invoked exactly once with the results.
  std::atomic<int> called{0};
  std::vector<ServiceOpItem> ops = {{ServiceOp::kInsert, 7},
                                    {ServiceOp::kContains, 7}};
  std::promise<void> done;
  svc.submit(std::move(ops), [&](ServiceResult r) {
    EXPECT_EQ(r.results.size(), 2u);
    EXPECT_TRUE(r.results[0].ok);
    EXPECT_TRUE(r.results[1].ok);
    called.fetch_add(1);
    done.set_value();
  });
  done.get_future().wait();
  EXPECT_EQ(called.load(), 1);
}

// An out-of-universe key is rejected on the submitting thread before any op
// of its request is queued: past the last shard it would index outside the
// routing table, and on a worker the shard's exception would end the
// process.
TEST(ServiceBasic, OutOfUniverseKeyThrowsOnSubmit) {
  for (const uint32_t shards : {1u, 4u}) {
    Service svc(service_cfg(shards));
    const uint64_t over = svc.engine().max_key() + 1;
    EXPECT_THROW(svc.submit({{ServiceOp::kInsert, 7},
                             {ServiceOp::kInsert, over}}),
                 std::out_of_range)
        << shards;
    EXPECT_FALSE(svc.submit({{ServiceOp::kContains, 7}}).get().results[0].ok)
        << shards;
  }
}

TEST(ServiceBasic, QueueAttributionCountersFlow) {
  std::thread probe([] {
    // Tiny queue so bursts must block; counters are per-thread, so probe
    // from a fresh thread with clean counters.
    Service svc(service_cfg(2, /*queue_cap=*/2));
    tls_counters() = StepCounters{};
    std::vector<std::future<ServiceResult>> fs;
    for (int r = 0; r < 64; ++r) {
      std::vector<ServiceOpItem> ops;
      for (uint64_t i = 0; i < 32; ++i) {
        ops.push_back({ServiceOp::kInsert, (r * 37 + i * 131) % (1ull << kBits)});
      }
      fs.push_back(svc.submit(std::move(ops)));
    }
    for (auto& f : fs) f.get();
    const StepCounters& c = tls_counters();
    EXPECT_EQ(c.service_requests, 64u);
    EXPECT_GE(c.service_subtasks, 64u);   // >= one per request
    EXPECT_LE(c.service_subtasks, 128u);  // <= shards per request
    EXPECT_GT(c.queue_depth_sum, 0u);
    svc.stop();
    // Worker-side counters landed in the service's fold, not here.
    EXPECT_EQ(c.queue_wait_ns, 0u);
    EXPECT_GT(svc.worker_counters().queue_wait_ns, 0u);
    EXPECT_GT(svc.worker_counters().shard_batches, 0u);
    EXPECT_GT(svc.worker_counters().node_hops, 0u);
    tls_counters() = StepCounters{};
  });
  probe.join();
}

// --- Concurrent stress: striped exact phase ----------------------------------

TEST(ServiceStress, StripedClientsExactPerOpLinearization) {
  constexpr uint32_t kClients = 4;
  constexpr uint32_t kRequests = 120;  // bounded history
  constexpr uint32_t kOpsPerRequest = 24;
  constexpr uint64_t kStripe = (1ull << kBits) / kClients;

  Service svc(service_cfg(4, /*queue_cap=*/16));
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> clients;
  for (uint32_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      const uint64_t lo = t * kStripe;
      Xoshiro256 rng(0x1234 + t);
      std::set<uint64_t> model;  // this stripe's reference content
      for (uint32_t r = 0; r < kRequests; ++r) {
        std::vector<ServiceOpItem> ops;
        for (uint32_t i = 0; i < kOpsPerRequest; ++i) {
          // Dense sub-range so duplicates and hits are common.
          const uint64_t key = lo + rng.next_below(1024) * (kStripe / 1024);
          ops.push_back({static_cast<ServiceOp>(rng.next_below(4)), key});
        }
        const std::vector<ServiceOpItem> sent = ops;
        const ServiceResult res = svc.submit(std::move(ops)).get();
        for (size_t i = 0; i < sent.size(); ++i) {
          const uint64_t k = sent[i].key;
          const OpResult& out = res.results[i];
          bool ok = true;
          switch (sent[i].op) {
            case ServiceOp::kInsert:
              ok = out.ok == model.insert(k).second;
              break;
            case ServiceOp::kErase:
              ok = out.ok == (model.erase(k) > 0);
              break;
            case ServiceOp::kContains:
              ok = out.ok == (model.count(k) > 0);
              break;
            case ServiceOp::kPredecessor: {
              auto it = model.upper_bound(k);
              if (it != model.begin()) {
                // In-stripe predecessor exists: exact (see header proof).
                ok = out.ok && *out.value == *std::prev(it);
              } else {
                // Answer, if any, must come from a lower stripe.
                ok = !out.ok || *out.value < lo;
              }
              break;
            }
          }
          if (!ok) violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // Quiescent stripe reconciliation: the engine holds exactly the
      // model's keys inside this stripe.
      for (uint64_t probe = 0; probe < 1024; ++probe) {
        const uint64_t key = lo + probe * (kStripe / 1024);
        if (svc.engine().contains(key) != (model.count(key) > 0)) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(violations.load(), 0u);
}

// --- Concurrent stress: shared-key phase --------------------------------------

TEST(ServiceStress, SharedKeysSuccessCountsLinearize) {
  constexpr uint32_t kClients = 4;
  constexpr uint32_t kRequests = 100;
  constexpr uint32_t kOpsPerRequest = 16;
  constexpr uint64_t kSharedKeys = 32;  // all clients fight over these
  constexpr uint64_t kKeyStride = (1ull << kBits) / kSharedKeys;  // all shards

  Service svc(service_cfg(4, /*queue_cap=*/8));
  std::atomic<uint64_t> succ_ins[kSharedKeys] = {};
  std::atomic<uint64_t> succ_era[kSharedKeys] = {};

  std::vector<std::thread> clients;
  for (uint32_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Xoshiro256 rng(0xfeed + t);
      std::vector<std::future<ServiceResult>> inflight;
      std::vector<std::vector<ServiceOpItem>> sent;
      const auto drain = [&] {
        for (size_t r = 0; r < inflight.size(); ++r) {
          const ServiceResult res = inflight[r].get();
          for (size_t i = 0; i < sent[r].size(); ++i) {
            if (!res.results[i].ok) continue;
            const uint64_t slot = sent[r][i].key / kKeyStride;
            if (sent[r][i].op == ServiceOp::kInsert) {
              succ_ins[slot].fetch_add(1, std::memory_order_relaxed);
            } else if (sent[r][i].op == ServiceOp::kErase) {
              succ_era[slot].fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
        inflight.clear();
        sent.clear();
      };
      for (uint32_t r = 0; r < kRequests; ++r) {
        std::vector<ServiceOpItem> ops;
        for (uint32_t i = 0; i < kOpsPerRequest; ++i) {
          const uint64_t key = rng.next_below(kSharedKeys) * kKeyStride;
          // Writes only: the success-count invariant needs every answer.
          const auto op = rng.next_below(2) == 0 ? ServiceOp::kInsert
                                                 : ServiceOp::kErase;
          ops.push_back({op, key});
        }
        sent.push_back(ops);
        inflight.push_back(svc.submit(std::move(ops)));
        if (inflight.size() >= 4) drain();  // bursty but bounded
      }
      drain();
    });
  }
  for (auto& th : clients) th.join();

  // Linearizability at quiescence: per key, successful inserts and erases
  // strictly alternate (an insert succeeds only on an absent key, an erase
  // only on a present one), so presence == (inserts - erases == 1).
  for (uint64_t s = 0; s < kSharedKeys; ++s) {
    const uint64_t ins = succ_ins[s].load();
    const uint64_t era = succ_era[s].load();
    ASSERT_TRUE(ins == era || ins == era + 1) << "key slot " << s;
    EXPECT_EQ(svc.engine().contains(s * kKeyStride), ins == era + 1)
        << "key slot " << s;
  }
}

// --- Client simulator smoke ---------------------------------------------------

TEST(ClientSim, RunsDeterministicRequestCountsAndQuiesces) {
  Service svc(service_cfg(4, /*queue_cap=*/32));
  ClientSimConfig cfg;
  cfg.clients = 3;
  cfg.requests_per_client = 40;
  cfg.ops_per_request = 16;
  cfg.burst = 6;
  cfg.tenants = 32;
  cfg.key_space = 1ull << kBits;
  cfg.seed = 99;
  cfg.prefill = 500;
  const ClientSimResult r = run_client_sim(svc, cfg);
  EXPECT_EQ(r.requests, 3u * 40u);
  EXPECT_EQ(r.ops, 3u * 40u * 16u);
  uint64_t by_type = 0;
  for (size_t k = 0; k < kOpTypeCount; ++k) by_type += r.op_counts[k];
  EXPECT_EQ(by_type, r.ops);
  EXPECT_EQ(r.client_steps.service_requests, r.requests);
  EXPECT_GE(r.client_steps.service_subtasks, r.requests);
  svc.stop();
  EXPECT_GT(svc.worker_counters().shard_batches, 0u);
  EXPECT_GT(svc.engine().size(), 0u);
}

}  // namespace
}  // namespace skiptrie
