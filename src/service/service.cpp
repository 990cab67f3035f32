#include "service/service.h"

#include <cassert>
#include <stdexcept>

namespace skiptrie {

using Clock = std::chrono::steady_clock;

template <typename Traits>
BasicService<Traits>::BasicService(const ServiceConfig& cfg)
    : cfg_(cfg), engine_(cfg.shards, cfg.trie) {
  queues_.reserve(cfg.shards);
  workers_.reserve(cfg.shards);
  for (uint32_t s = 0; s < cfg.shards; ++s) {
    queues_.push_back(std::make_unique<ShardQueue>());
  }
  for (uint32_t s = 0; s < cfg.shards; ++s) {
    workers_.emplace_back([this, s] { worker_loop(s); });
  }
}

template <typename Traits>
BasicService<Traits>::~BasicService() {
  stop();
}

template <typename Traits>
void BasicService<Traits>::stop() {
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true, std::memory_order_release);
  for (auto& q : queues_) {
    std::lock_guard<std::mutex> lk(q->mu);
    q->not_empty.notify_all();
    q->not_full.notify_all();
  }
  for (auto& w : workers_) w.join();
}

template <typename Traits>
void BasicService<Traits>::complete(RequestState& st) {
  Result r;
  r.results = std::move(st.results);
  if (st.has_promise) {
    st.promise.set_value(std::move(r));
  } else if (st.cb) {
    st.cb(std::move(r));
  }
}

template <typename Traits>
auto BasicService<Traits>::submit(std::vector<OpItem> ops)
    -> std::future<Result> {
  auto st = std::make_shared<RequestState>();
  st->ops = std::move(ops);
  st->has_promise = true;
  std::future<Result> f = st->promise.get_future();
  submit_split(std::move(st));
  return f;
}

template <typename Traits>
void BasicService<Traits>::submit(std::vector<OpItem> ops, Callback cb) {
  auto st = std::make_shared<RequestState>();
  st->ops = std::move(ops);
  st->cb = std::move(cb);
  submit_split(std::move(st));
}

template <typename Traits>
void BasicService<Traits>::submit_split(std::shared_ptr<RequestState> st) {
  assert(!stopped_);
  // Reject out-of-universe keys on the submitting thread, before anything
  // is queued: past the last shard they would index outside the routing
  // table, and on a worker the shard's std::out_of_range would end the
  // process.
  for (const OpItem& item : st->ops) {
    if (item.key > engine_.max_key()) {
      throw std::out_of_range("Service key outside the universe");
    }
  }
  auto& c = tls_counters();
  c.service_requests++;
  st->results.resize(st->ops.size());
  // Group op indices by home shard, preserving input order within each
  // group (the worker replays a group in index order, so one request's ops
  // on one shard execute exactly as submitted).
  std::vector<std::vector<uint32_t>> groups(engine_.shard_count());
  for (uint32_t i = 0; i < st->ops.size(); ++i) {
    groups[engine_.shard_of(st->ops[i].key)].push_back(i);
  }
  uint32_t nsub = 0;
  for (const auto& g : groups) nsub += g.empty() ? 0 : 1;
  if (nsub == 0) {  // empty request: complete on the submitting thread
    complete(*st);
    return;
  }
  st->pending.store(nsub, std::memory_order_relaxed);
  for (uint32_t s = 0; s < groups.size(); ++s) {
    if (groups[s].empty()) continue;
    SubTask t;
    t.req = st;
    t.idx = std::move(groups[s]);
    ShardQueue& q = *queues_[s];
    std::unique_lock<std::mutex> lk(q.mu);
    if (q.q.size() >= cfg_.queue_capacity) {
      c.queue_full_waits++;
      q.not_full.wait(lk, [&] {
        return q.q.size() < cfg_.queue_capacity ||
               stopping_.load(std::memory_order_acquire);
      });
    }
    t.enqueued = Clock::now();
    q.q.push_back(std::move(t));
    c.service_subtasks++;
    c.queue_depth_sum += q.q.size();
    q.not_empty.notify_one();
  }
}

template <typename Traits>
void BasicService<Traits>::run_subtask(const SubTask& t) {
  auto& ops = t.req->ops;
  auto& results = t.req->results;
  // Flush maximal same-op runs through the engine's batch API: every key of
  // a run lives on this worker's shard, so each flush is exactly one
  // sub-batch (one cursor stream) there, and results scatter back to the
  // request's input positions.
  std::vector<key_type> keys;
  std::vector<uint32_t> run;
  std::vector<uint8_t> r8;
  std::vector<std::optional<key_type>> rp;
  size_t i = 0;
  while (i < t.idx.size()) {
    const ServiceOp op = ops[t.idx[i]].op;
    keys.clear();
    run.clear();
    while (i < t.idx.size() && ops[t.idx[i]].op == op) {
      keys.push_back(ops[t.idx[i]].key);
      run.push_back(t.idx[i]);
      ++i;
    }
    const size_t n = keys.size();
    switch (op) {
      case ServiceOp::kInsert:
        r8.assign(n, 0);
        engine_.insert_batch(keys.data(), n, r8.data());
        for (size_t j = 0; j < n; ++j) results[run[j]] = {r8[j] != 0, {}};
        break;
      case ServiceOp::kErase:
        r8.assign(n, 0);
        engine_.erase_batch(keys.data(), n, r8.data());
        for (size_t j = 0; j < n; ++j) results[run[j]] = {r8[j] != 0, {}};
        break;
      case ServiceOp::kContains:
        r8.assign(n, 0);
        engine_.contains_batch(keys.data(), n, r8.data());
        for (size_t j = 0; j < n; ++j) results[run[j]] = {r8[j] != 0, {}};
        break;
      case ServiceOp::kPredecessor:
        rp.assign(n, std::nullopt);
        engine_.predecessor_batch(keys.data(), n, rp.data());
        for (size_t j = 0; j < n; ++j) {
          results[run[j]] = {rp[j].has_value(), rp[j]};
        }
        break;
    }
  }
  // acq_rel: the last subtask's completion must observe every other
  // subtask's result writes (release), and the completion path must see
  // them all (acquire) before moving the results out.
  if (t.req->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    complete(*t.req);
  }
}

template <typename Traits>
void BasicService<Traits>::worker_loop(uint32_t shard) {
  ShardQueue& q = *queues_[shard];
  auto& c = tls_counters();
  const StepCounters base = c;
  for (;;) {
    SubTask t;
    {
      std::unique_lock<std::mutex> lk(q.mu);
      q.not_empty.wait(lk, [&] {
        return !q.q.empty() || stopping_.load(std::memory_order_acquire);
      });
      if (q.q.empty()) break;  // stopping and drained
      t = std::move(q.q.front());
      q.q.pop_front();
      q.not_full.notify_one();
    }
    c.queue_wait_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t.enqueued)
            .count());
    run_subtask(t);
  }
  std::lock_guard<std::mutex> lk(counters_mu_);
  worker_counters_ += c - base;
}

template class BasicService<U64Traits>;
template class BasicService<Bytes16Traits>;

}  // namespace skiptrie
