#include "reclaim/ebr.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace skiptrie {

namespace {

// Runs and drops every entry of `list` past its grace period at `now`:
// entries retired at epoch r are safe once global >= r + 2, since every
// thread pinned when the entry was retired has since re-pinned at a later
// epoch or unpinned.
void reclaim_list(std::vector<detail::Retired>& list, uint64_t now) {
  size_t kept = 0;
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i].epoch + 2 <= now) {
      list[i].fn(list[i].ptr, list[i].ctx);
    } else {
      list[kept++] = list[i];
    }
  }
  list.resize(kept);
}

}  // namespace

namespace detail {

EbrThreadState::EbrThreadState(EbrDomain& d) : domain(&d) {
  {
    std::lock_guard<std::mutex> lk(d.slot_mu_);
    // Checked in every build: past this point a thread beyond the slot
    // table would index out of bounds.
    if (d.free_slots_.empty()) {
      std::fprintf(stderr,
                   "EbrDomain: more than kMaxThreads = %u live threads "
                   "registered with one domain\n",
                   EbrDomain::kMaxThreads);
      std::abort();
    }
    slot = d.free_slots_.back();
    d.free_slots_.pop_back();
  }
  uint32_t wm = d.slot_watermark_.load(std::memory_order_relaxed);
  while (wm < slot + 1 &&
         !d.slot_watermark_.compare_exchange_weak(wm, slot + 1,
                                                  std::memory_order_acq_rel)) {
  }
}

void EbrThreadState::thread_exit() {
  // Still-pending retirements go to the domain's orphan list, reclaimed by
  // other threads (or by drain()).
  if (!retired.empty()) {
    std::lock_guard<std::mutex> lk(domain->orphan_mu_);
    domain->orphans_.insert(domain->orphans_.end(), retired.begin(),
                            retired.end());
    domain->orphan_count_.store(domain->orphans_.size(),
                                std::memory_order_relaxed);
    retired.clear();
  }
  domain->slots_[slot].value.store(0, std::memory_order_release);
  std::lock_guard<std::mutex> lk(domain->slot_mu_);
  domain->free_slots_.push_back(slot);
}

}  // namespace detail

EbrDomain::EbrDomain() {
  free_slots_.reserve(kMaxThreads);
  for (uint32_t i = kMaxThreads; i > 0; --i) free_slots_.push_back(i - 1);
}

EbrDomain::~EbrDomain() {
  // Every callback still pending runs now, including those of threads that
  // are alive but unpinned: the domain dying asserts that no thread is
  // pinned, so everything is reclaimable.
  states_.close([](detail::EbrThreadState& s) {
    for (auto& r : s.retired) r.fn(r.ptr, r.ctx);
    s.retired.clear();
  });
  std::lock_guard<std::mutex> lk(orphan_mu_);
  for (auto& r : orphans_) r.fn(r.ptr, r.ctx);
  orphans_.clear();
}

void EbrDomain::pin(detail::EbrThreadState* ts) {
  if (ts->pin_depth++ > 0) return;
  auto& slot = slots_[ts->slot].value;
  uint64_t e = global_epoch_.load(std::memory_order_acquire);
  for (;;) {
    slot.store((e << 1) | 1, std::memory_order_seq_cst);
    const uint64_t e2 = global_epoch_.load(std::memory_order_seq_cst);
    if (e2 == e) return;  // our announcement is visible at epoch e == current
    e = e2;
  }
}

void EbrDomain::unpin(detail::EbrThreadState* ts) {
  assert(ts->pin_depth > 0);
  if (--ts->pin_depth > 0) return;
  slots_[ts->slot].value.store(0, std::memory_order_release);
}

void EbrDomain::retire(void* ptr, void (*fn)(void*, void*), void* ctx) {
  auto* ts = &states_.local(*this);
  assert(ts->pin_depth > 0 && "retire() requires a pinned Guard");
  ts->retired.push_back(detail::Retired{
      ptr, fn, ctx, global_epoch_.load(std::memory_order_acquire)});
  ts->publish();
  if (ts->retired.size() % kScanThreshold == 0) {
    try_advance_and_reclaim(ts);
  }
}

bool EbrDomain::all_quiescent_at(uint64_t epoch) const {
  const uint32_t wm = slot_watermark_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < wm; ++i) {
    const uint64_t v = slots_[i].value.load(std::memory_order_seq_cst);
    if ((v & 1) != 0 && (v >> 1) < epoch) return false;
  }
  return true;
}

void EbrDomain::try_advance_and_reclaim(detail::EbrThreadState* ts) {
  const uint64_t e = global_epoch_.load(std::memory_order_acquire);
  if (all_quiescent_at(e)) {
    uint64_t expect = e;
    global_epoch_.compare_exchange_strong(expect, e + 1,
                                          std::memory_order_acq_rel);
  }
  const uint64_t now = global_epoch_.load(std::memory_order_acquire);
  reclaim_list(ts->retired, now);
  ts->publish();
  // Opportunistically adopt orphans when the backlog grows.
  if (orphan_count_.load(std::memory_order_relaxed) > 0 &&
      ts->retired.size() < 8) {
    reclaim_orphans(now);
  }
}

void EbrDomain::reclaim_orphans(uint64_t now) {
  std::lock_guard<std::mutex> lk(orphan_mu_);
  reclaim_list(orphans_, now);
  orphan_count_.store(orphans_.size(), std::memory_order_relaxed);
}

void EbrDomain::drain() {
  // Force epochs forward until everything pending is past its grace period.
  // Only callable when no thread is pinned (asserted via quiescence check).
  for (int i = 0; i < 4; ++i) {
    const uint64_t e = global_epoch_.load(std::memory_order_acquire);
    if (!all_quiescent_at(e)) return;  // someone is pinned; give up silently
    uint64_t expect = e;
    global_epoch_.compare_exchange_strong(expect, e + 1,
                                          std::memory_order_acq_rel);
  }
  const uint64_t now = global_epoch_.load(std::memory_order_acquire);
  if (detail::EbrThreadState* ts = states_.find()) {
    reclaim_list(ts->retired, now);
    ts->publish();
  }
  reclaim_orphans(now);
}

size_t EbrDomain::pending_retired() const {
  size_t n = 0;
  states_.for_each([&n](const detail::EbrThreadState& s) {
    n += s.pending.load(std::memory_order_relaxed);
  });
  return n + orphan_count_.load(std::memory_order_relaxed);
}

}  // namespace skiptrie
