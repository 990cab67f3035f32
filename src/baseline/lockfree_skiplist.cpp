#include "baseline/lockfree_skiplist.h"

#include <stdexcept>
#include <string>

#include "common/random.h"
#include "core/batch.h"
#include "skiplist/cursor.h"

namespace skiptrie {

namespace {

// Runs as engine_'s initializer: the engine only asserts its level count,
// and past kMaxLevels its head array overflows.
uint32_t checked_levels(uint32_t levels) {
  if (levels < 1 || levels > SkipListEngine::kMaxLevels) {
    throw std::invalid_argument(
        "LockFreeSkipList levels = " + std::to_string(levels) +
        " is outside [1, " + std::to_string(SkipListEngine::kMaxLevels) + "]");
  }
  return levels;
}

}  // namespace

LockFreeSkipList::LockFreeSkipList(uint32_t levels, uint64_t seed)
    : seed_(seed),
      arena_(sizeof(Node), kCacheLine, 4096),
      ebr_(),
      engine_(ebr_, arena_, checked_levels(levels)) {}

void LockFreeSkipList::check_key(uint64_t key) {
  if (key > max_key()) {
    throw std::out_of_range("LockFreeSkipList key above max_key()");
  }
}

bool LockFreeSkipList::insert(uint64_t key) {
  check_key(key);
  EbrDomain::Guard g(ebr_);
  const uint64_t x = ikey_of(key);
  const uint32_t h = deterministic_height(seed_, x, engine_.top_level());
  const auto r = engine_.insert(x, top_head(), h);
  if (r.inserted) size_.fetch_add(1, std::memory_order_relaxed);
  return r.inserted;
}

bool LockFreeSkipList::erase(uint64_t key) {
  check_key(key);
  EbrDomain::Guard g(ebr_);
  const uint64_t x = ikey_of(key);
  auto r = engine_.erase(x, top_head());
  if (!r.erased) return false;
  size_.fetch_sub(1, std::memory_order_relaxed);
  engine_.retire_owned(r);
  return true;
}

bool LockFreeSkipList::contains(uint64_t key) const {
  check_key(key);
  EbrDomain::Guard g(ebr_);
  const uint64_t x = ikey_of(key);
  const auto b = engine_.descend(x, top_head());
  return b.right->ikey() == x;
}

std::optional<uint64_t> LockFreeSkipList::predecessor(uint64_t key) const {
  check_key(key);
  EbrDomain::Guard g(ebr_);
  const uint64_t x = ikey_of(key) + 1;
  const auto b = engine_.descend(x, top_head());
  if (b.left->kind() != NodeKind::kInterior) return std::nullopt;
  return b.left->ikey() - 1;
}

std::optional<uint64_t> LockFreeSkipList::successor(uint64_t key) const {
  check_key(key);
  EbrDomain::Guard g(ebr_);
  const uint64_t x = ikey_of(key) + 1;
  const auto b = engine_.descend(x, top_head());
  if (b.right->kind() != NodeKind::kInterior) return std::nullopt;
  return b.right->ikey() - 1;
}

size_t LockFreeSkipList::size() const {
  const int64_t s = size_.load(std::memory_order_relaxed);
  return s > 0 ? static_cast<size_t>(s) : 0;
}

size_t LockFreeSkipList::insert_batch(const uint64_t* keys, size_t n,
                                      uint8_t* results) {
  check_keys(keys, n);
  if (n == 0) return 0;
  DescentCursor& cur = engine_.cursor();
  return batch_detail::for_each_sorted_pinned(
      ebr_, cur, keys, n, [&](uint64_t k, uint32_t i) {
        const uint64_t x = ikey_of(k);
        const uint32_t h = deterministic_height(seed_, x, engine_.top_level());
        const auto r = engine_.cursor_insert(cur, x, h, nullptr, nullptr);
        if (r.inserted) size_.fetch_add(1, std::memory_order_relaxed);
        if (results != nullptr) results[i] = r.inserted;
        return r.inserted;
      });
}

size_t LockFreeSkipList::erase_batch(const uint64_t* keys, size_t n,
                                     uint8_t* results) {
  check_keys(keys, n);
  if (n == 0) return 0;
  DescentCursor& cur = engine_.cursor();
  return batch_detail::for_each_sorted_pinned(
      ebr_, cur, keys, n, [&](uint64_t k, uint32_t i) {
        auto r = engine_.cursor_erase(cur, ikey_of(k), nullptr, nullptr);
        if (r.erased) {
          size_.fetch_sub(1, std::memory_order_relaxed);
          engine_.retire_owned(r);
        }
        if (results != nullptr) results[i] = r.erased;
        return r.erased;
      });
}

size_t LockFreeSkipList::contains_batch(const uint64_t* keys, size_t n,
                                        uint8_t* results) const {
  check_keys(keys, n);
  if (n == 0) return 0;
  DescentCursor& cur = engine_.cursor();
  return batch_detail::for_each_sorted_pinned(
      ebr_, cur, keys, n, [&](uint64_t k, uint32_t i) {
        const uint64_t x = ikey_of(k);
        const auto b = engine_.cursor_descend(cur, x, nullptr, nullptr);
        const bool hit = b.right->ikey() == x;
        if (results != nullptr) results[i] = hit;
        return hit;
      });
}

size_t LockFreeSkipList::predecessor_batch(
    const uint64_t* keys, size_t n, std::optional<uint64_t>* results) const {
  check_keys(keys, n);
  if (n == 0) return 0;
  DescentCursor& cur = engine_.cursor();
  return batch_detail::for_each_sorted_pinned(
      ebr_, cur, keys, n, [&](uint64_t k, uint32_t i) {
        const uint64_t x = ikey_of(k) + 1;
        const auto b = engine_.cursor_descend(cur, x, nullptr, nullptr);
        std::optional<uint64_t> p;
        if (b.left->kind() == NodeKind::kInterior) p = b.left->ikey() - 1;
        if (results != nullptr) results[i] = p;
        return p.has_value();
      });
}

}  // namespace skiptrie
