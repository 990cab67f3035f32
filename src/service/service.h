// Asynchronous batched front-end over the sharded engine (DESIGN.md §4.3).
//
// A Service owns a ShardedEngine plus one worker thread and one bounded
// MPSC subtask queue *per shard*.  Clients submit requests — each request a
// batch of (op, key) items — from any number of threads; the submitting
// thread splits the request by the routing rule (DESIGN.md §4.1) into one
// subtask per shard touched and enqueues each subtask on its shard's
// queue.  Queues are bounded (ServiceConfig::queue_capacity): a full queue
// blocks the submitter (counted in steps.queue_full_waits), which is the
// back-pressure that keeps a burst from buffering unboundedly.
//
// Each shard's worker drains its own queue only, so all mutations of shard
// s's SkipTrie made through the Service happen on one thread — per-shard
// execution is sequential while distinct shards run genuinely in parallel.
// (The SkipTrie itself stays fully concurrent; the Service adds no locks
// around it, and external threads may still read the engine directly.)
//
// A request completes when its last subtask finishes (atomic countdown);
// completion fulfills the std::future returned by submit(), or invokes the
// completion callback on the worker that finished last.  Results land in
// the request's *input* order regardless of shard interleaving.  Ops of one
// request on one shard execute in input order, flushed through the engine's
// batch API one same-op run at a time; ops of *different* requests
// interleave per shard in FIFO queue order.  Each op linearizes
// individually, exactly like a direct engine call — a request is a
// performance construct, not a transaction.
//
// Templated on KeyTraits like the engine below it (DESIGN.md §6): the op
// items, results and routing all run in the traits' key word, so a
// BasicService<Bytes16Traits> serves encoded byte-string/IPv6 keys through
// the identical queue protocol.  `Service` is the u64 alias.
//
// Queueing attribution (schema v5, DESIGN.md §5.4): submitters count
// service_requests / service_subtasks / queue_full_waits / queue_depth_sum;
// workers count queue_wait_ns plus all the engine counters their execution
// produces.  Worker-side counters are thread-local like everything else and
// are folded into a per-service sum readable after stop().
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "shard/sharded_engine.h"

namespace skiptrie {

enum class ServiceOp : uint8_t { kInsert = 0, kErase, kContains, kPredecessor };

template <typename Traits>
struct BasicServiceOpItem {
  ServiceOp op;
  typename Traits::key_type key;
};

// One per-op answer: `ok` is the boolean result (insert/erase success,
// membership, predecessor-exists); `value` is the predecessor answer.
template <typename Traits>
struct BasicOpResult {
  bool ok = false;
  std::optional<typename Traits::key_type> value;
};

template <typename Traits>
struct BasicServiceResult {
  // input order, one per submitted op
  std::vector<BasicOpResult<Traits>> results;
};

using ServiceOpItem = BasicServiceOpItem<U64Traits>;
using OpResult = BasicOpResult<U64Traits>;
using ServiceResult = BasicServiceResult<U64Traits>;

struct ServiceConfig {
  uint32_t shards = 1;      // power of two (ShardedEngine's rule)
  Config trie;              // per-shard SkipTrie config (full universe_bits)
  size_t queue_capacity = 1024;  // subtasks per shard queue before blocking
};

template <typename Traits>
class BasicService {
 public:
  using key_type = typename Traits::key_type;
  using OpItem = BasicServiceOpItem<Traits>;
  using Result = BasicServiceResult<Traits>;
  using Engine = BasicShardedEngine<Traits>;
  using Callback = std::function<void(Result)>;

  explicit BasicService(const ServiceConfig& cfg = ServiceConfig{});
  ~BasicService();  // stop()s

  BasicService(const BasicService&) = delete;
  BasicService& operator=(const BasicService&) = delete;

  // Submit a batch; the future is fulfilled by the worker that completes
  // the request's last subtask.  An empty batch completes immediately.
  // Both flavors throw std::out_of_range, before queueing any op, when a
  // key exceeds engine().max_key().
  std::future<Result> submit(std::vector<OpItem> ops);
  // Callback flavor: `cb` runs on the last-finishing worker thread (or the
  // submitting thread for an empty batch); it must not block on the queues
  // of the service that invoked it.
  void submit(std::vector<OpItem> ops, Callback cb);

  // Drain every queued subtask, join the workers, and fold their
  // thread-local counters into worker_counters().  Idempotent; implied by
  // destruction.  submit() must not be called after (or concurrently with)
  // stop().
  void stop();

  // Sum of the worker threads' StepCounters deltas.  Valid after stop().
  const StepCounters& worker_counters() const { return worker_counters_; }

  // The engine, for direct (non-queued) access: prefill, verification.
  Engine& engine() { return engine_; }
  const Engine& engine() const { return engine_; }
  const ServiceConfig& config() const { return cfg_; }

 private:
  struct RequestState {
    std::vector<OpItem> ops;
    std::vector<BasicOpResult<Traits>> results;
    std::atomic<uint32_t> pending{0};
    std::promise<Result> promise;
    bool has_promise = false;
    Callback cb;
  };
  struct SubTask {
    std::shared_ptr<RequestState> req;
    std::vector<uint32_t> idx;  // indices into req->ops, input order
    std::chrono::steady_clock::time_point enqueued;
  };
  struct ShardQueue {
    std::mutex mu;
    std::condition_variable not_full;
    std::condition_variable not_empty;
    std::deque<SubTask> q;
  };

  void submit_split(std::shared_ptr<RequestState> st);
  static void complete(RequestState& st);
  void run_subtask(const SubTask& t);
  void worker_loop(uint32_t shard);

  ServiceConfig cfg_;
  Engine engine_;
  std::vector<std::unique_ptr<ShardQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;
  std::mutex counters_mu_;
  StepCounters worker_counters_;
};

using Service = BasicService<U64Traits>;

}  // namespace skiptrie
