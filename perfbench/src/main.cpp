// perfbench: wall-clock benchmark of the SkipTrie, with an outside-in
// per-layer trace.
//
//   perfbench --workload <pred_uniform|hot_zipf|churn> --seed N
//             --seconds S --trace <0|1> [--trace-out DIR] [--git-rev REV]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, measured from spans the benchmark records around calls into the
// layers' public functions (nothing in the library is instrumented).  The
// last line of stdout is one JSON object: correct, attempted, failed,
// metrics.  perfbench/README.md describes the workloads and every metric.

#include <pthread.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "baseline/locked_map.h"
#include "baseline/lockfree_skiplist.h"
#include "common/key_traits.h"
#include "common/stats.h"
#include "core/skiptrie.h"
#include "core/validate.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using skiptrie::EbrDomain;
using skiptrie::NodeKind;
using skiptrie::SkipTrie;
using skiptrie::StepCounters;
using skiptrie::tls_counters;
using Node = SkipTrie::Node_t;
using Engine = SkipTrie::Engine;

// ---------------------------------------------------------------------------
// Run-length and buffer constants.

// Timed seconds per measurement round of an untraced run; see run_untraced.
constexpr double kRoundSeconds = 2.0;
// Latency samples kept per (client, op kind); see Samples.
constexpr size_t kLatencyCap = size_t{1} << 19;
// Span capacity per client in the traced run, and spans one traced sample
// adds (public call, decomposed read with 4 children, 3 more requests).
constexpr size_t kSpanCap = size_t{1} << 19;
constexpr size_t kSpansPerSample = 9;
constexpr size_t kCsvRowsPerClient = size_t{1} << 16;
// Queries per baseline structure in the traced run.
constexpr size_t kBaselineQueries = size_t{1} << 16;

enum Phase : int { kWarmup = 0, kTimed = 1, kStop = 2 };

inline uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Keeps the compiler from discarding a value or the call that produced it.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

size_t rss_bytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return got == 2 ? resident * static_cast<size_t>(sysconf(_SC_PAGESIZE)) : 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile q in (0, 1] of v (reordered).
double percentile(std::vector<uint32_t>& v, double q) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (static_cast<double>(rank) < q * static_cast<double>(v.size())) ++rank;
  const size_t idx = rank == 0 ? 0 : rank - 1;
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return v[idx];
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

uint64_t answer_of(const Engine::Bracket& b) {
  return b.left->kind() == NodeKind::kInterior ? b.left->ikey() - 1 : kNoKey;
}

uint64_t do_op(SkipTrie& st, OpKind k, uint64_t key) {
  switch (k) {
    case kPred: {
      const std::optional<uint64_t> r = st.predecessor(key);
      return r.has_value() ? *r : kNoKey;
    }
    case kContains:
      return st.contains(key);
    case kInsert:
      return st.insert(key);
    case kErase:
      return st.erase(key);
  }
  return kNoKey;
}

// ---------------------------------------------------------------------------
// CPU placement.  Each client runs pinned to its own CPU, so it never
// migrates, and one CPU stays free for the coordinator (which also does the
// bulk load) and the OS.  The assignment rotates with the round: CPUs of one
// host can run at different speeds for seconds at a time (a busy sibling
// hyperthread), and a run's rounds then spread over all of them.  Without a
// spare CPU nothing is pinned.

// The CPUs the process was started with; main() reads them before any
// thread is pinned.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> v;
    if (sched_getaffinity(0, sizeof set, &set) != 0) return v;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) v.push_back(c);
    }
    return v;
  }();
  return cpus;
}

struct Placement {
  int coordinator = -1;      // -1: not pinned
  std::vector<int> clients;  // empty: not pinned
};

Placement placement(size_t clients, size_t round) {
  const std::vector<int>& cpus = allowed_cpus();
  const size_t n = cpus.size();
  Placement p;
  if (n <= clients) return p;
  p.coordinator = cpus[round % n];
  for (size_t i = 0; i < clients; ++i) {
    p.clients.push_back(cpus[(round + 1 + i) % n]);
  }
  return p;
}

void pin_self(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

// ---------------------------------------------------------------------------
// Clients.

// Latency samples of one op kind on one client: every op at first, in a
// fixed buffer that drops every other sample and doubles the stride when it
// fills, so the kept samples stay spread evenly over the whole run.
class Samples {
 public:
  explicit Samples(size_t cap) : v_(cap) {}
  bool want() { return (seen_++ & (stride_ - 1)) == 0; }
  void add(uint64_t ns) {
    if (n_ == v_.size()) {
      for (size_t i = 0; i < n_ / 2; ++i) v_[i] = v_[2 * i];
      n_ /= 2;
      stride_ *= 2;
    }
    v_[n_++] = static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
  }
  void reset() { n_ = 0, seen_ = 0, stride_ = 1; }
  void append_to(std::vector<uint32_t>* out) const {
    out->insert(out->end(), v_.begin(), v_.begin() + n_);
  }

 private:
  std::vector<uint32_t> v_;
  size_t n_ = 0;
  uint64_t seen_ = 0;
  uint64_t stride_ = 1;
};

// A failed answer, kept so the run can say what failed.
struct FailureNote {
  const char* what;
  uint64_t key;
  uint64_t answer;
};
constexpr size_t kFailureNotes = 4;

struct Client {
  uint32_t id = 0;
  const std::vector<uint64_t>* stream = nullptr;
  const std::vector<uint64_t>* side = nullptr;
  std::vector<uint8_t> side_len;      // landing prefix length per side key
  // Read-only workloads: the answer to each stream op and side query.
  const std::vector<uint64_t>* expected = nullptr;
  const std::vector<uint64_t>* side_expected = nullptr;
  std::unique_ptr<ChurnModel> model;  // churn
  std::vector<Samples> latency;       // per OpKind

  // Per phase.
  uint64_t executed = 0;
  uint64_t failed = 0;
  std::vector<FailureNote> failures;  // the first kFailureNotes of `failed`
  uint64_t timed_ops[kOpKinds] = {};

  // Traced phase only.
  std::unique_ptr<SpanBuffer> spans;
  uint64_t trace_stride = 0;
  size_t side_pos = 0;
  uint32_t next_request = 0;
  StepCounters at_start, at_end;  // the thread's counters around the phase
  StepCounters extra;             // deltas of the extra requests
  StepCounters decomposed;        // deltas of the decomposed reads
  uint64_t decomposed_calls = 0;
  uint64_t off_top_starts = 0;
  uint64_t extra_checked = 0;

  // Ops done, read by the coordinator; on a cache line of its own.
  alignas(64) std::atomic<uint64_t> progress{0};
};

void note_failure(Client& cl, const char* what, uint64_t key,
                  uint64_t answer) {
  if (cl.failures.size() < kFailureNotes) {
    cl.failures.push_back({what, key, answer});
  }
  ++cl.failed;
}

const char* op_name(OpKind k) {
  static const char* const kNames[kOpKinds] = {"predecessor", "contains",
                                               "insert", "erase"};
  return kNames[k];
}

struct RunCtx {
  SkipTrie* st = nullptr;
  Placement place;
  std::atomic<int> phase{kWarmup};
};

// Checks the predecessor answer for side key number `idx`.
bool check_side_answer(const Client& cl, size_t idx, uint64_t got) {
  return cl.side_expected != nullptr
             ? (*cl.side_expected)[idx] == got
             : cl.model->check_pred((*cl.side)[idx], got);
}

struct TrieEnv {
  SkipTrie::Trie* trie;
  uint64_t key;
};

Node* trie_start(void* env, uint64_t x) {
  auto* e = static_cast<TrieEnv*>(env);
  return e->trie->pred_start(e->key, x);
}

uint64_t next_side(Client& cl, size_t* idx) {
  *idx = cl.side_pos;
  if (++cl.side_pos == cl.side->size()) cl.side_pos = 0;
  return (*cl.side)[*idx];
}

// One traced sample: the public call, then four extra requests on other
// keys, each recorded as spans with the counter deltas read around them.
uint64_t traced_sample(RunCtx& rc, Client& cl, OpKind kind, uint64_t key) {
  SkipTrie& st = *rc.st;
  SpanBuffer& sb = *cl.spans;

  uint64_t t0 = now_ns();
  const uint64_t ans = do_op(st, kind, key);
  uint64_t t1 = now_ns();
  sb.add(static_cast<SpanName>(kind), cl.next_request++, kNoParent, t0, t1);

  const StepCounters c0 = tls_counters();
  size_t idx = 0;
  {
    // The decomposed read: SkipTrie::predecessor's path minus the finger,
    // cursor, leaf and adaptive layers, with the arguments locate() passes.
    const uint64_t k = next_side(cl, &idx);
    const uint64_t x = k + 2;  // ikey(k) + 1
    const uint32_t req = cl.next_request++;
    std::optional<EbrDomain::Guard> g;
    const uint64_t a = now_ns();
    g.emplace(st.ebr());
    const uint64_t b = now_ns();
    Node* start = st.trie().pred_start(k, x);
    const uint64_t c = now_ns();
    const Engine::Bracket br = st.engine().descend(x, start);
    const uint64_t d = now_ns();
    const uint64_t got = answer_of(br);
    cl.off_top_starts += !(start->kind() == NodeKind::kInterior &&
                           start->level() == st.engine().top_level());
    const uint64_t e = now_ns();
    g.reset();
    const uint64_t f = now_ns();
    const uint32_t p = sb.add(kSpanDecomposed, req, kNoParent, a, f);
    sb.add(kSpanEbrPin, req, p, a, b);
    sb.add(kSpanPredStart, req, p, b, c);
    sb.add(kSpanDescend, req, p, c, d);
    sb.add(kSpanEbrUnpin, req, p, e, f);
    cl.decomposed_calls++;
    if (!check_side_answer(cl, idx, got)) {
      note_failure(cl, "decomposed predecessor", k, got);
    }
    cl.extra_checked++;
  }
  const StepCounters c1 = tls_counters();
  {
    const uint64_t k = next_side(cl, &idx);
    TrieEnv env{&st.trie(), k};
    EbrDomain::Guard g(st.ebr());
    t0 = now_ns();
    const Engine::Bracket br =
        st.engine().fingered_descend(k + 2, 0, &trie_start, &env);
    t1 = now_ns();
    sb.add(kSpanFingered, cl.next_request++, kNoParent, t0, t1);
    const uint64_t got = answer_of(br);
    if (!check_side_answer(cl, idx, got)) {
      note_failure(cl, "fingered_descend predecessor", k, got);
    }
    cl.extra_checked++;
  }
  {
    const uint64_t k = next_side(cl, &idx);
    const uint64_t prefix =
        skiptrie::U64Traits::encode_prefix(k, cl.side_len[idx], kUniverseBits);
    t0 = now_ns();
    const std::optional<uint64_t> v = st.trie().map().lookup(prefix);
    t1 = now_ns();
    keep(v);
    sb.add(kSpanHashLookup, cl.next_request++, kNoParent, t0, t1);
  }
  {
    t0 = now_ns();
    {
      EbrDomain::Guard g(st.ebr());
      StepCounters& c = tls_counters();
      auto& finger = st.engine().finger();
      auto& cursor = st.engine().cursor();
      keep(c);
      keep(finger);
      keep(cursor);
    }
    t1 = now_ns();
    sb.add(kSpanEmptyOp, cl.next_request++, kNoParent, t0, t1);
  }
  cl.decomposed += c1 - c0;
  cl.extra += tls_counters() - c0;
  return ans;
}

bool check_churn(ChurnModel& m, OpKind kind, uint64_t key, uint64_t ans) {
  switch (kind) {
    case kPred:
      return m.check_pred(key, ans);
    case kContains:
      return m.check_contains(key, ans != 0);
    case kInsert:
      return m.check_insert(key, ans != 0);
    case kErase:
      return m.check_erase(key, ans != 0);
  }
  return false;
}

// The closed loop: each op is issued after the previous one returns.
template <bool kChurn, bool kTraced>
void run_client(RunCtx& rc, Client& cl) {
  SkipTrie& st = *rc.st;
  const uint64_t* ops = cl.stream->data();
  const size_t len = cl.stream->size();
  size_t pos = 0;
  bool timing = false;
  uint64_t n = 0, traced_n = 0;
  for (;;) {
    const int ph = rc.phase.load(std::memory_order_relaxed);
    if (ph == kStop) break;
    if (ph == kTimed && !timing) {
      timing = true;
      if constexpr (kTraced) cl.at_start = tls_counters();
    }
    const uint64_t w = ops[pos];
    const OpKind kind = op_kind(w);
    const uint64_t key = op_key(w);
    uint64_t ans;
    if constexpr (kTraced) {
      if (timing && (traced_n++ & (cl.trace_stride - 1)) == 0 &&
          cl.spans->room(kSpansPerSample)) {
        ans = traced_sample(rc, cl, kind, key);
      } else {
        ans = do_op(st, kind, key);
      }
    } else {
      Samples* s =
          timing && cl.latency[kind].want() ? &cl.latency[kind] : nullptr;
      const uint64_t t0 = s != nullptr ? now_ns() : 0;
      ans = do_op(st, kind, key);
      if (s != nullptr) s->add(now_ns() - t0);
    }
    if (timing) cl.timed_ops[kind]++;
    bool ok;
    if constexpr (kChurn) {
      ok = check_churn(*cl.model, kind, key, ans);
    } else {
      ok = ans == (*cl.expected)[pos];
    }
    if (!ok) note_failure(cl, op_name(kind), key, ans);
    cl.progress.store(++n, std::memory_order_relaxed);
    if (++pos == len) pos = 0;
  }
  if constexpr (kTraced) {
    if (timing) cl.at_end = tls_counters();
  }
  cl.executed = n;
}

// The timed phase is cut into kWindows equal windows at coordinator
// checkpoints; a multiple of 4 so quarters are whole windows.
constexpr int kWindows = 20;

struct PhaseResult {
  double seconds = 0;
  uint64_t ops = 0;
  std::array<double, kWindows> window_mops{};
  uint64_t backlog_max = 0;
  uint64_t epochs = 0;

  double mops() const { return ratio(static_cast<double>(ops), seconds) / 1e6; }
  double quarter_mops(int q) const {
    double s = 0;
    for (int i = q * kWindows / 4; i < (q + 1) * kWindows / 4; ++i) {
      s += window_mops[i];
    }
    return s / (kWindows / 4);
  }
};

// Runs every client for a warm-up and then a timed phase.  The coordinator
// sleeps between checkpoints; it never spins while clients run.
template <bool kChurn, bool kTraced>
PhaseResult run_phase(RunCtx& rc, std::vector<std::unique_ptr<Client>>& cls,
                      double warmup_s, double timed_s) {
  using Clock = std::chrono::steady_clock;
  for (auto& c : cls) {
    c->executed = 0;
    c->failed = 0;
    c->failures.clear();
    std::fill(std::begin(c->timed_ops), std::end(c->timed_ops), 0);
    c->progress.store(0, std::memory_order_relaxed);
    for (Samples& s : c->latency) s.reset();
  }
  rc.phase.store(kWarmup);
  std::latch ready(static_cast<std::ptrdiff_t>(cls.size()));
  std::latch go(1);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < cls.size(); ++i) {
    const int cpu = rc.place.clients.empty() ? -1 : rc.place.clients[i];
    threads.emplace_back([&rc, &ready, &go, cpu, cl = cls[i].get()] {
      pin_self(cpu);
      ready.count_down();
      go.wait();
      run_client<kChurn, kTraced>(rc, *cl);
    });
  }
  auto total = [&cls] {
    uint64_t s = 0;
    for (auto& c : cls) s += c->progress.load(std::memory_order_relaxed);
    return s;
  };
  ready.wait();
  go.count_down();
  std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));

  PhaseResult r;
  const uint64_t epoch0 = rc.st->ebr().global_epoch();
  rc.phase.store(kTimed, std::memory_order_relaxed);
  const Clock::time_point t0 = Clock::now();
  const uint64_t base = total();
  uint64_t prev = base;
  Clock::time_point tprev = t0;
  for (int i = 0; i < kWindows; ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(timed_s * (i + 1) / kWindows)));
    const Clock::time_point ti = Clock::now();
    const uint64_t cur = total();
    r.window_mops[i] =
        ratio(static_cast<double>(cur - prev),
              std::chrono::duration<double>(ti - tprev).count()) / 1e6;
    r.backlog_max = std::max<uint64_t>(r.backlog_max,
                                       rc.st->ebr().pending_retired());
    prev = cur;
    tprev = ti;
  }
  rc.phase.store(kStop, std::memory_order_relaxed);
  r.ops = prev - base;
  r.seconds = std::chrono::duration<double>(tprev - t0).count();
  for (std::thread& t : threads) t.join();
  // Exited clients hand their unreclaimed retirements to the domain, so
  // this last checkpoint sees the backlog the run left behind.
  r.backlog_max =
      std::max<uint64_t>(r.backlog_max, rc.st->ebr().pending_retired());
  r.epochs = rc.st->ebr().global_epoch() - epoch0;
  return r;
}

void print_windows(const std::string& label,
                   const std::array<double, kWindows>& window_mops) {
  std::printf("%s", label.c_str());
  for (double m : window_mops) std::printf(" %.4g", m);
  std::printf("\n");
}

// ---------------------------------------------------------------------------
// Set-up.

struct Built {
  std::unique_ptr<SkipTrie> st;
  double seconds = 0;
  StepCounters batch;  // counter deltas of the bulk load
  bool ok = false;
};

Built build(const Inputs& in) {
  skiptrie::Config cfg;
  cfg.universe_bits = kUniverseBits;
  Built b;
  const StepCounters c0 = tls_counters();
  const uint64_t t0 = now_ns();
  b.st = std::make_unique<SkipTrie>(cfg);
  const size_t added = b.st->insert_batch(in.loaded);
  b.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  b.batch = tls_counters() - c0;
  b.ok = added == in.loaded.size();
  return b;
}

// Runs `f` in a child process forked while this process is still
// single-threaded and returns its trivially copyable result through a
// pipe.  False when the child fails.
template <typename T, typename F>
bool run_in_child(F&& f, T* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  int fd[2];
  if (pipe(fd) != 0) return false;
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fd[0]);
    close(fd[1]);
    return false;
  }
  if (pid == 0) {
    close(fd[0]);
    const T r = f();
    std::fflush(nullptr);
    const bool wrote = write(fd[1], &r, sizeof r) == sizeof r;
    _exit(wrote ? 0 : 1);
  }
  close(fd[1]);
  size_t got = 0;
  while (got < sizeof(T)) {
    const ssize_t n =
        read(fd[0], reinterpret_cast<char*>(out) + got, sizeof(T) - got);
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  close(fd[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return got == sizeof(T) && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// Landing prefix length of each side key: its longest common prefix with a
// top-level key, as x-fast lowest_ancestor finds it (at most B - 1).
std::vector<uint8_t> landing_lengths(SkipTrie& st,
                                     const std::vector<uint64_t>& keys) {
  std::vector<uint64_t> top;
  {
    EbrDomain::Guard g(st.ebr());
    const uint32_t lvl = st.engine().top_level();
    for (Node* n = st.engine().first_at(lvl); n != nullptr;
         n = st.engine().next_at(n)) {
      top.push_back(n->ikey() - 1);
    }
  }
  auto lcp = [](uint64_t a, uint64_t b) {
    const uint64_t d = a ^ b;
    const uint32_t len = d == 0 ? kUniverseBits
                                : kUniverseBits - (64 - __builtin_clzll(d));
    return std::min(len, kUniverseBits - 1);
  };
  std::vector<uint8_t> out(keys.size(), 0);
  for (size_t i = 0; i < keys.size(); ++i) {
    auto it = std::lower_bound(top.begin(), top.end(), keys[i]);
    uint32_t best = 0;
    if (it != top.end()) best = std::max(best, lcp(keys[i], *it));
    if (it != top.begin()) best = std::max(best, lcp(keys[i], *(it - 1)));
    out[i] = static_cast<uint8_t>(best);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Checks after a phase.

struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool structure_ok = true;
};

void verify_phase(const WorkloadSpec& w, SkipTrie& st, const Inputs& in,
                  const std::vector<std::unique_ptr<Client>>& cls,
                  Verdict* v) {
  for (const auto& c : cls) {
    v->attempted += c->executed + c->extra_checked;
    v->failed += c->failed;
    for (const FailureNote& f : c->failures) {
      std::printf("failed answer: client %u %s key=%llu answer=%llu\n", c->id,
                  f.what, static_cast<unsigned long long>(f.key),
                  static_cast<unsigned long long>(f.answer));
    }
  }
  const std::vector<std::string> violations =
      skiptrie::validate_structure(st);
  for (size_t i = 0; i < violations.size() && i < 5; ++i) {
    std::printf("structure violation: %s\n", violations[i].c_str());
  }
  std::vector<uint64_t> expected;
  if (w.id == WorkloadId::kChurn) {
    for (uint64_t b = 0; b < ChurnLayout::kBlocks; ++b) {
      expected.push_back(ChurnLayout::key_of(b * 64));
    }
    for (const auto& c : cls) c->model->append_present(&expected);
  } else {
    expected = in.loaded;
  }
  std::sort(expected.begin(), expected.end());
  std::vector<uint64_t> actual;
  actual.reserve(expected.size());
  st.for_each_in_range(0, st.max_key(),
                       [&actual](uint64_t k) { actual.push_back(k); });
  const bool contents_ok = actual == expected;
  if (!contents_ok) {
    std::printf("final contents differ: %zu keys present, %zu expected\n",
                actual.size(), expected.size());
  }
  v->structure_ok = v->structure_ok && violations.empty() && contents_ok;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

void print_result(const Verdict& v, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("metric %-36s %14s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  const bool correct = v.failed == 0 && v.structure_ok;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(v.attempted);
  out += ", \"failed\": " + std::to_string(v.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_host(const WorkloadSpec& w, const std::string& git_rev) {
#if defined(__clang__)
  const char* compiler = "clang++ " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "g++ " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::printf(
      "host {\"nproc\": %zu, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"git_rev\": \"%s\", \"clients_pinned\": %s}\n",
      allowed_cpus().size(), compiler, PERFBENCH_BUILD_TYPE, git_rev.c_str(),
      placement(w.clients, 0).clients.empty() ? "false" : "true");
}

// ---------------------------------------------------------------------------
// The two kinds of run.

struct Options {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string git_rev = "unknown";
};

double warmup_for(double timed_s) { return std::min(1.0, 0.25 * timed_s); }

// The answers of the read-only workloads' stream ops and side queries,
// computed once per run, before any timing.  Empty for churn, whose clients
// check against their models.
struct Expected {
  std::vector<std::vector<uint64_t>> stream, side;
};

Expected expected_answers(const WorkloadSpec& w, const Inputs& in) {
  Expected e;
  if (w.id == WorkloadId::kChurn) return e;
  const ReadOracle oracle(in.loaded);
  for (uint32_t c = 0; c < w.clients; ++c) {
    e.stream.push_back(oracle.answers(in.streams[c]));
    std::vector<uint64_t> queries;
    for (uint64_t k : in.side[c]) queries.push_back(encode_op(kPred, k));
    e.side.push_back(oracle.answers(queries));
  }
  return e;
}

std::vector<std::unique_ptr<Client>> make_clients(const WorkloadSpec& w,
                                                  const Inputs& in,
                                                  const Expected& e,
                                                  bool trace) {
  std::vector<std::unique_ptr<Client>> cls;
  for (uint32_t i = 0; i < w.clients; ++i) {
    auto c = std::make_unique<Client>();
    c->id = i;
    c->stream = &in.streams[i];
    c->side = &in.side[i];
    c->failures.reserve(kFailureNotes);
    if (!e.stream.empty()) {
      c->expected = &e.stream[i];
      c->side_expected = &e.side[i];
    }
    for (int k = 0; k < kOpKinds; ++k) c->latency.emplace_back(kLatencyCap);
    if (trace) c->spans = std::make_unique<SpanBuffer>(kSpanCap);
    cls.push_back(std::move(c));
  }
  return cls;
}

void reset_models(const WorkloadSpec& w, const Inputs& in,
                  std::vector<std::unique_ptr<Client>>& cls) {
  if (w.id != WorkloadId::kChurn) return;
  for (auto& c : cls) c->model = std::make_unique<ChurnModel>(c->id, in.loaded);
}

template <bool kTraced>
PhaseResult run_workload_phase(const WorkloadSpec& w, RunCtx& rc,
                               std::vector<std::unique_ptr<Client>>& cls,
                               double timed_s) {
  return w.id == WorkloadId::kChurn
             ? run_phase<true, kTraced>(rc, cls, warmup_for(timed_s), timed_s)
             : run_phase<false, kTraced>(rc, cls, warmup_for(timed_s),
                                         timed_s);
}

// What one measurement round reports to the parent.
struct RoundResult {
  double setup_s;
  double mops;
  double bytes_per_key;
  double pred_p50, pred_p99, op_p50, op_p99;
  double lookup_p50, lookup_p99, update_p50, update_p99;
  uint64_t pred_samples, op_samples, lookup_samples, update_samples;
  uint64_t attempted, failed;
  bool build_ok, structure_ok;
  std::array<double, kWindows> window_mops;
};

// One round: generate the round's inputs, allocate the clients' buffers,
// read RSS, bulk-load a fresh structure, run the closed loop, check every
// answer.
RoundResult measure_round(const WorkloadSpec& w, uint64_t seed, int round,
                          double timed_s) {
  RoundResult rr{};
  RunCtx rc;
  rc.place = placement(w.clients, round);
  pin_self(rc.place.coordinator);
  const Inputs in = make_inputs(w, seed);
  const Expected e = expected_answers(w, in);
  auto cls = make_clients(w, in, e, /*trace=*/false);
  reset_models(w, in, cls);
  const size_t rss0 = rss_bytes();
  Built b = build(in);
  rr.setup_s = b.seconds;
  rr.build_ok = b.ok;
  if (!b.ok) return rr;

  rc.st = b.st.get();
  const PhaseResult r = run_workload_phase<false>(w, rc, cls, timed_s);
  const size_t rss1 = rss_bytes();
  rr.mops = r.mops();
  rr.window_mops = r.window_mops;
  rr.bytes_per_key =
      ratio(static_cast<double>(rss1) - static_cast<double>(rss0),
            static_cast<double>(b.st->size()));

  Verdict v;
  verify_phase(w, *b.st, in, cls, &v);
  rr.attempted = v.attempted;
  rr.failed = v.failed;
  rr.structure_ok = v.structure_ok;

  std::array<std::vector<uint32_t>, kOpKinds> lat;
  for (const auto& c : cls) {
    for (int k = 0; k < kOpKinds; ++k) c->latency[k].append_to(&lat[k]);
  }
  std::vector<uint32_t> all, updates = lat[kInsert];
  updates.insert(updates.end(), lat[kErase].begin(), lat[kErase].end());
  for (const auto& l : lat) all.insert(all.end(), l.begin(), l.end());
  rr.pred_samples = lat[kPred].size();
  rr.op_samples = all.size();
  rr.lookup_samples = lat[kContains].size();
  rr.update_samples = updates.size();
  rr.pred_p50 = percentile(lat[kPred], 0.50);
  rr.pred_p99 = percentile(lat[kPred], 0.99);
  rr.op_p50 = percentile(all, 0.50);
  rr.op_p99 = percentile(all, 0.99);
  rr.lookup_p50 = percentile(lat[kContains], 0.50);
  rr.lookup_p99 = percentile(lat[kContains], 0.99);
  rr.update_p50 = percentile(updates, 0.50);
  rr.update_p99 = percentile(updates, 0.99);
  return rr;
}

// The untraced run: --seconds is split into rounds of kRoundSeconds, each
// in a fresh child process so each bulk load and each timed phase gets its
// own page placement.  Each round draws its own inputs from (seed, round):
// tail latency depends on which keys a draw loads, so one run averages over
// several draws.  Every reported metric is the median over the rounds.
int run_untraced(const Options& o) {
  const WorkloadSpec& w = *o.workload;
  const int n = std::max(1, static_cast<int>(o.seconds / kRoundSeconds + 0.5));
  std::vector<RoundResult> rounds(n);
  for (int i = 0; i < n; ++i) {
    const uint64_t seed = o.seed ^ (0x9e3779b97f4a7c15ull * (i + 1));
    const bool ok = run_in_child(
        [&] { return measure_round(w, seed, i, o.seconds / n); },
        &rounds[i]);
    if (!ok || !rounds[i].build_ok) {
      std::fprintf(stderr, "perfbench: round %d failed\n", i);
      return 1;
    }
    const RoundResult& r = rounds[i];
    std::printf("round %d setup_s=%s mops=%s pred_p50=%s pred_p99=%s op_p50=%s "
                "op_p99=%s bytes_per_key=%s samples_pred=%llu samples_op=%llu\n",
                i, num(r.setup_s).c_str(), num(r.mops).c_str(),
                num(r.pred_p50).c_str(), num(r.pred_p99).c_str(),
                num(r.op_p50).c_str(), num(r.op_p99).c_str(),
                num(r.bytes_per_key).c_str(),
                static_cast<unsigned long long>(r.pred_samples),
                static_cast<unsigned long long>(r.op_samples));
    print_windows("round " + std::to_string(i) + " window_mops", r.window_mops);
  }
  auto med = [&rounds](double RoundResult::*f) {
    std::vector<double> v;
    for (const RoundResult& r : rounds) v.push_back(r.*f);
    return median(v);
  };
  Verdict v;
  for (const RoundResult& r : rounds) {
    v.attempted += r.attempted;
    v.failed += r.failed;
    v.structure_ok = v.structure_ok && r.structure_ok;
  }
  // Reported by name here for the workloads that issue them; they are not
  // in the result line because a metric there must exist on every workload.
  if (rounds[0].lookup_samples > 0) {
    std::printf("metric %-36s %14s ns\n", "lookup_p50_ns",
                num(med(&RoundResult::lookup_p50)).c_str());
    std::printf("metric %-36s %14s ns\n", "lookup_p99_ns",
                num(med(&RoundResult::lookup_p99)).c_str());
  }
  if (rounds[0].update_samples > 0) {
    std::printf("metric %-36s %14s ns\n", "update_p50_ns",
                num(med(&RoundResult::update_p50)).c_str());
    std::printf("metric %-36s %14s ns\n", "update_p99_ns",
                num(med(&RoundResult::update_p99)).c_str());
  }
  std::printf("metric %-36s %14s ratio\n", "failed_op_frac",
              num(ratio(static_cast<double>(v.failed),
                        static_cast<double>(v.attempted))).c_str());

  const std::vector<Metric> ms = {
      {"throughput_mops", med(&RoundResult::mops), "Mops/s"},
      {"pred_p50_ns", med(&RoundResult::pred_p50), "ns"},
      {"pred_p99_ns", med(&RoundResult::pred_p99), "ns"},
      {"op_p50_ns", med(&RoundResult::op_p50), "ns"},
      {"op_p99_ns", med(&RoundResult::op_p99), "ns"},
      {"setup_s", med(&RoundResult::setup_s), "s"},
      {"bytes_per_key", med(&RoundResult::bytes_per_key), "B"},
  };
  print_host(w, o.git_rev);
  print_result(v, ms);
  return 0;
}

// Mean span time of predecessor queries on a baseline structure, with
// answers checked against the oracle of the loaded keys.
template <typename Set>
double baseline_pred_ns(const Set& set, const std::vector<uint64_t>& queries,
                        const ReadOracle& oracle, Verdict* v) {
  std::vector<uint64_t> got(queries.size());
  double total = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const uint64_t t0 = now_ns();
    const std::optional<uint64_t> r = set.predecessor(queries[i]);
    const uint64_t t1 = now_ns();
    got[i] = r.has_value() ? *r : kNoKey;
    total += static_cast<double>(t1 - t0);
  }
  uint64_t bad = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (got[i] == oracle.predecessor(queries[i])) continue;
    if (bad++ == 0) {
      std::printf("failed answer: baseline predecessor key=%llu answer=%llu\n",
                  static_cast<unsigned long long>(queries[i]),
                  static_cast<unsigned long long>(got[i]));
    }
  }
  v->failed += bad;
  v->attempted += queries.size();
  return ratio(total, static_cast<double>(queries.size()));
}

// Cost of one back-to-back clock pair, the overhead one span adds.
double timer_pair_ns() {
  constexpr int kPairs = 1 << 16;
  std::vector<double> rounds;
  for (int r = 0; r < 5; ++r) {
    const uint64_t t0 = now_ns();
    for (int i = 0; i < kPairs; ++i) {
      const uint64_t a = now_ns();
      const uint64_t b = now_ns();
      keep(a);
      keep(b);
    }
    rounds.push_back(static_cast<double>(now_ns() - t0) / kPairs);
  }
  return median(rounds);
}

int run_traced(const Options& o) {
  const WorkloadSpec& w = *o.workload;
  const Inputs in = make_inputs(w, o.seed);
  const Expected e = expected_answers(w, in);
  RunCtx rc;
  rc.place = placement(w.clients, 0);
  pin_self(rc.place.coordinator);
  auto cls = make_clients(w, in, e, /*trace=*/true);
  const double half = o.seconds / 2;
  Verdict v;

  // Untraced half: the reference throughput and the quarter profile.
  reset_models(w, in, cls);
  Built b = build(in);
  if (!b.ok) {
    std::fprintf(stderr, "perfbench: bulk load did not insert every key\n");
    return 1;
  }
  const double batch_s = b.seconds;
  const StepCounters batch = b.batch;
  rc.st = b.st.get();
  const PhaseResult plain = run_workload_phase<false>(w, rc, cls, half);
  verify_phase(w, *b.st, in, cls, &v);
  b.st.reset();

  // Traced half on a fresh structure with the same inputs.
  reset_models(w, in, cls);
  b = build(in);
  if (!b.ok) {
    std::fprintf(stderr, "perfbench: bulk load did not insert every key\n");
    return 1;
  }
  SkipTrie& st = *b.st;
  rc.st = &st;
  const double per_client_ops =
      plain.mops() * 1e6 * half / static_cast<double>(cls.size());
  uint64_t stride = 16;
  while (static_cast<double>(stride) <
         per_client_ops * 2 * kSpansPerSample / kSpanCap) {
    stride *= 2;
  }
  for (auto& c : cls) {
    c->side_len = landing_lengths(st, *c->side);
    c->trace_stride = stride;
  }
  const PhaseResult traced = run_workload_phase<true>(w, rc, cls, half);

  StepCounters pub, dec;
  uint64_t kind_ops[kOpKinds] = {};
  uint64_t calls = 0, off_top = 0;
  std::vector<const SpanBuffer*> bufs;
  for (const auto& c : cls) {
    pub += (c->at_end - c->at_start) - c->extra;
    dec += c->decomposed;
    for (int k = 0; k < kOpKinds; ++k) kind_ops[k] += c->timed_ops[k];
    calls += c->decomposed_calls;
    off_top += c->off_top_starts;
    bufs.push_back(c->spans.get());
  }
  const auto spans = aggregate(bufs);
  if (!o.trace_out.empty()) {
    const std::string path = o.trace_out + "/" + w.name + ".spans.csv";
    if (!write_spans_csv(path, bufs, kCsvRowsPerClient)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
  }
  const double live = static_cast<double>(st.size());
  const double leaf_occupancy = st.leaf_live_stats().avg_occupancy();
  const double top_count =
      static_cast<double>(st.structure_live_stats().top_count);
  const double load_factor = st.trie().map().load_factor();
  const double trie_bytes = static_cast<double>(st.trie().approx_bytes());
  const double arena_bytes = static_cast<double>(st.engine().approx_bytes());
  verify_phase(w, st, in, cls, &v);
  b.st.reset();

  // References on the loaded keys and this workload's predecessor queries.
  std::vector<uint64_t> queries;
  for (uint64_t op : in.streams[0]) {
    if (op_kind(op) == kPred) queries.push_back(op_key(op));
    if (queries.size() == kBaselineQueries) break;
  }
  const ReadOracle loaded_oracle(in.loaded);
  double skiplist_ns = 0, locked_map_ns = 0;
  {
    skiptrie::LockFreeSkipList sl;
    sl.insert_batch(in.loaded);
    skiplist_ns = baseline_pred_ns(sl, queries, loaded_oracle, &v);
  }
  {
    skiptrie::LockedMap lm;
    for (uint64_t k : in.loaded) lm.insert(k);
    locked_map_ns = baseline_pred_ns(lm, queries, loaded_oracle, &v);
  }

  const double ops = static_cast<double>(
      kind_ops[kPred] + kind_ops[kContains] + kind_ops[kInsert] +
      kind_ops[kErase]);
  const double kops = ops / 1000;
  const double updates = static_cast<double>(kind_ops[kInsert] +
                                             kind_ops[kErase]);
  const double dcalls = static_cast<double>(calls);
  auto mean = [&spans](SpanName n) { return spans[n].mean_ns(); };
  auto d = [](uint64_t x) { return static_cast<double>(x); };

  std::printf("stride %llu traced_samples %llu\n",
              static_cast<unsigned long long>(stride),
              static_cast<unsigned long long>(spans[kSpanDecomposed].count));
  print_windows("window_mops untraced", plain.window_mops);
  print_windows("window_mops traced", traced.window_mops);

  const std::vector<Metric> ms = {
      {"core.pred_ns", mean(kSpanPred), "ns"},
      {"core.lookup_ns", mean(kSpanContains), "ns"},
      {"core.insert_ns", mean(kSpanInsert), "ns"},
      {"core.erase_ns", mean(kSpanErase), "ns"},
      {"core.decomposed_pred_ns", mean(kSpanDecomposed), "ns"},
      {"core.hint_stack_ns",
       spans[kSpanPred].count ? mean(kSpanPred) - mean(kSpanDecomposed) : 0,
       "ns"},
      {"core.empty_op_ns", mean(kSpanEmptyOp), "ns"},
      {"core.unattributed_ns", spans[kSpanDecomposed].mean_self_ns(), "ns"},
      {"core.throughput_decay",
       ratio(plain.quarter_mops(3), plain.quarter_mops(0)), "ratio"},
      {"core.batch_ns_per_key",
       batch_s * 1e9 / static_cast<double>(in.loaded.size()), "ns"},
      {"core.batch_cursor_reuse_frac",
       ratio(d(batch.cursor_reuses),
             d(batch.cursor_reuses + batch.cursor_redescends)),
       "ratio"},
      {"reclaim.ebr_pin_ns", mean(kSpanEbrPin) + mean(kSpanEbrUnpin), "ns"},
      {"reclaim.ebr_backlog_max", d(traced.backlog_max), "count"},
      {"reclaim.ebr_epochs_per_kop", ratio(d(traced.epochs), kops),
       "count/kop"},
      {"reclaim.retired_per_kop", ratio(d(pub.retired_nodes), kops),
       "count/kop"},
      {"reclaim.arena_bytes_per_key", ratio(arena_bytes, live), "B"},
      {"hash.lookup_ns", mean(kSpanHashLookup), "ns"},
      {"hash.probes_per_op", ratio(d(pub.hash_probes), ops), "count"},
      {"hash.chain_per_lookup",
       ratio(d(pub.probes_chain), d(pub.probes_lookup)), "count"},
      {"hash.load_factor", load_factor, "ratio"},
      {"hash.updates_per_kop", ratio(d(pub.hash_updates), kops), "count/kop"},
      {"hash.bytes_per_key", ratio(trie_bytes, live), "B"},
      {"xfast.pred_start_ns", mean(kSpanPredStart), "ns"},
      {"xfast.binsearch_probes_per_call",
       ratio(d(dec.probes_binsearch), dcalls), "count"},
      {"xfast.walk_steps_per_call",
       ratio(d(dec.prev_steps + dec.back_steps), dcalls), "count"},
      {"xfast.walk_fallback_frac", ratio(d(dec.walk_fallbacks), dcalls),
       "ratio"},
      {"xfast.walk_fallbacks_per_kop", ratio(d(pub.walk_fallbacks), kops),
       "count/kop"},
      {"xfast.off_top_start_frac", ratio(d(off_top), dcalls), "ratio"},
      {"xfast.level_ops_per_update", ratio(d(pub.trie_level_ops), updates),
       "count"},
      {"skiplist.descend_ns", mean(kSpanDescend), "ns"},
      {"skiplist.fingered_descend_ns", mean(kSpanFingered), "ns"},
      {"skiplist.hops_top_per_op", ratio(d(pub.hops_top), ops), "count"},
      {"skiplist.hops_descent_per_op", ratio(d(pub.hops_descent), ops),
       "count"},
      {"skiplist.restarts_per_kop", ratio(d(pub.restarts), kops),
       "count/kop"},
      {"skiplist.bytes_touched_per_op", ratio(d(pub.bytes_touched), ops),
       "B"},
      {"skiplist.finger_hit_frac",
       ratio(d(pub.finger_hits), d(pub.finger_hits + pub.finger_misses)),
       "ratio"},
      {"skiplist.leaf_chunk_scans_per_op", ratio(d(pub.chunk_scans), ops),
       "count"},
      {"skiplist.leaf_occupancy", leaf_occupancy, "ratio"},
      {"skiplist.adapt_checks_per_kop", ratio(d(pub.adapt_checks), kops),
       "count/kop"},
      {"skiplist.promotions_per_kop", ratio(d(pub.promotions), kops),
       "count/kop"},
      {"skiplist.demotions_per_kop", ratio(d(pub.demotions), kops),
       "count/kop"},
      {"skiplist.top_count", top_count, "count"},
      {"dcss.attempts_per_update", ratio(d(pub.dcss_attempts), updates),
       "count"},
      {"dcss.guard_fail_frac",
       ratio(d(pub.dcss_guard_fails), d(pub.dcss_attempts)), "ratio"},
      {"dcss.helps_per_kop", ratio(d(pub.dcss_helps), kops), "count/kop"},
      {"dcss.cas_fail_frac", ratio(d(pub.cas_failures), d(pub.cas_attempts)),
       "ratio"},
      {"baseline.skiplist_pred_ns", skiplist_ns, "ns"},
      {"baseline.locked_map_pred_ns", locked_map_ns, "ns"},
      {"workload.timer_ns", timer_pair_ns(), "ns"},
      {"workload.trace_overhead_frac", ratio(traced.mops(), plain.mops()),
       "ratio"},
  };
  print_host(w, o.git_rev);
  print_result(v, ms);
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <pred_uniform|hot_zipf|churn> "
               "--seed N --seconds S --trace <0|1> [--trace-out DIR] "
               "[--git-rev REV]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* val = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = find_workload(val);
      if (o.workload == nullptr) usage("unknown workload");
    } else if (a == "--seed") {
      o.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(o.seconds > 0 && o.seconds <= 120)) {
        usage("--seconds must be in (0, 120]");
      }
    } else if (a == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        usage("--trace must be 0 or 1");
      }
      o.trace = val[0] == '1';
    } else if (a == "--trace-out") {
      o.trace_out = val;
    } else if (a == "--git-rev") {
      o.git_rev = val;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse(argc, argv);
  perfbench::allowed_cpus();
  std::printf("perfbench workload=%s clients=%u seed=%llu seconds=%s trace=%d\n",
              o.workload->name, o.workload->clients,
              static_cast<unsigned long long>(o.seed),
              perfbench::num(o.seconds).c_str(), o.trace ? 1 : 0);
  return o.trace ? perfbench::run_traced(o) : perfbench::run_untraced(o);
}
