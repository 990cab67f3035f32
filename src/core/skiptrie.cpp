#include "core/skiptrie.h"

#include <cassert>
#include <stdexcept>
#include <string>

#include "common/bitops.h"
#include "common/random.h"

namespace skiptrie {

template <typename Traits>
auto BasicSkipTrie<Traits>::trie_start(void* env, Ikey x) -> Node_t* {
  auto* e = static_cast<TrieStartEnv*>(env);
  return e->trie->pred_start(e->key, x);
}

template <typename Traits>
uint32_t BasicSkipTrie<Traits>::tower_height(Ikey x) const {
  return deterministic_height_mixed(cfg_.seed, Traits::height_mix(x),
                                    engine_.top_level());
}

namespace {

// Runs as cfg_'s initializer, i.e. before any member that derives its shape
// from universe_bits (the engine's level count, the trie's prefix lengths)
// is constructed.
[[noreturn]] void throw_out_of_universe(uint32_t bits) {
  throw std::out_of_range("SkipTrie key outside the " +
                          std::to_string(bits) + "-bit universe");
}

template <typename Traits>
const Config& checked_config(const Config& cfg) {
  if (cfg.universe_bits < 4 || cfg.universe_bits > Traits::kMaxBits) {
    throw std::invalid_argument(
        "Config::universe_bits = " + std::to_string(cfg.universe_bits) +
        " is outside [4, " + std::to_string(Traits::kMaxBits) + "]");
  }
  return cfg;
}

}  // namespace

template <typename Traits>
BasicSkipTrie<Traits>::BasicSkipTrie(const Config& cfg)
    : cfg_(checked_config<Traits>(cfg)),
      arena_(sizeof(Node_t), kCacheLine, 4096),
      tree_pool_(sizeof(TreeNode), alignof(TreeNode)),
      hash_pool_(sizeof(typename Trie::Map::HNode),
                 alignof(typename Trie::Map::HNode)),
      ebr_(),
      engine_(ebr_, arena_, ceil_log2(cfg.universe_bits)),
      trie_(ebr_, engine_, cfg.universe_bits, tree_pool_, hash_pool_) {}

template <typename Traits>
auto BasicSkipTrie<Traits>::locate(key_type key, Ikey x) const ->
    typename Engine::Bracket {
  return engine_.descend(x, trie_.pred_start(key, x));
}

template <typename Traits>
auto BasicSkipTrie<Traits>::max_key() const -> key_type {
  const Ikey mask = Traits::universe_mask(cfg_.universe_bits);
  return cfg_.universe_bits >= Traits::kMaxBits ? mask - Ikey(2) : mask;
}

template <typename Traits>
void BasicSkipTrie<Traits>::check_key(key_type key) const {
  if (key > max_key()) throw_out_of_universe(cfg_.universe_bits);
}

template <typename Traits>
bool BasicSkipTrie<Traits>::finish_insert(
    key_type key, const typename Engine::InsertResult& r) {
  if (!r.inserted) return false;
  size_.fetch_add(1, std::memory_order_relaxed);
  if (r.top != nullptr) {
    trie_.insert_prefixes(key, r.top);
    top_live_.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

template <typename Traits>
bool BasicSkipTrie<Traits>::finish_erase(key_type key,
                                         const typename Engine::EraseResult& r) {
  if (!r.erased) return false;
  size_.fetch_sub(1, std::memory_order_relaxed);
  if (r.top != nullptr) {
    // Algorithm 7's trie sweep must finish before the tower's storage can
    // be recycled; only then retire the nodes we own.
    trie_.remove_prefixes(key, r.top, r.top_left);
    top_live_.fetch_sub(1, std::memory_order_relaxed);
  }
  engine_.retire_owned(r);
  return true;
}

template <typename Traits>
bool BasicSkipTrie<Traits>::insert(key_type key) {
  check_key(key);
  EbrDomain::Guard g(ebr_);
  const Ikey x = ikey_of(key);
  const typename Engine::InsertResult r =
      engine_.insert(x, trie_.pred_start(key, x), tower_height(x));
  return finish_insert(key, r);
}

template <typename Traits>
bool BasicSkipTrie<Traits>::erase(key_type key) {
  check_key(key);
  EbrDomain::Guard g(ebr_);
  const Ikey x = ikey_of(key);
  const typename Engine::EraseResult r =
      engine_.erase(x, trie_.pred_start(key, x));
  return finish_erase(key, r);
}

template <typename Traits>
bool BasicSkipTrie<Traits>::contains(key_type key) const {
  check_key(key);
  EbrDomain::Guard g(ebr_);
  const Ikey x = ikey_of(key);
  return locate(key, x).right->ikey() == x;
}

template <typename Traits>
auto BasicSkipTrie<Traits>::predecessor(key_type key) const
    -> std::optional<key_type> {
  check_key(key);
  EbrDomain::Guard g(ebr_);
  // Largest ikey <= ikey(key)  <=>  bracket left of x = ikey(key) + 1.
  const Ikey x = ikey_of(key) + Ikey(1);
  const typename Engine::Bracket b = locate(key, x);
  if (b.left->kind() != NodeKind::kInterior) return std::nullopt;  // head
  return b.left->ikey() - Ikey(1);
}

template <typename Traits>
auto BasicSkipTrie<Traits>::strict_predecessor(key_type key) const
    -> std::optional<key_type> {
  check_key(key);
  EbrDomain::Guard g(ebr_);
  const Ikey x = ikey_of(key);
  const typename Engine::Bracket b = locate(key, x);
  if (b.left->kind() != NodeKind::kInterior) return std::nullopt;
  return b.left->ikey() - Ikey(1);
}

template <typename Traits>
auto BasicSkipTrie<Traits>::successor(key_type key) const
    -> std::optional<key_type> {
  check_key(key);
  EbrDomain::Guard g(ebr_);
  const Ikey x = ikey_of(key) + Ikey(1);  // first node with ikey >= ikey(key)+1
  const typename Engine::Bracket b = locate(key, x);
  if (b.right->kind() != NodeKind::kInterior) return std::nullopt;  // tail
  return b.right->ikey() - Ikey(1);
}

template <typename Traits>
auto BasicSkipTrie<Traits>::min_key() const -> std::optional<key_type> {
  EbrDomain::Guard g(ebr_);
  // First node with ikey >= 1, i.e. the smallest key.  No trie query:
  // pred_start(x=1) can only ever land on the head anyway.
  const typename Engine::Bracket b =
      engine_.descend(Ikey(1), engine_.head(engine_.top_level()));
  if (b.right->kind() != NodeKind::kInterior) return std::nullopt;
  return b.right->ikey() - Ikey(1);
}

template <typename Traits>
auto BasicSkipTrie<Traits>::max_key_present() const
    -> std::optional<key_type> {
  return predecessor(max_key());
}

template <typename Traits>
size_t BasicSkipTrie<Traits>::size() const {
  // Counter updates are relaxed and happen after the operation linearizes,
  // so a reader racing an insert/erase pair may observe the decrement before
  // the increment: transiently negative, but never by more than the number
  // of threads with an erase in flight.  Saturate those windows to 0; a
  // deficit beyond the thread bound would be a real accounting bug (a lost
  // or double update), which the assert surfaces in debug builds instead of
  // silently clamping away.
  const int64_t s = size_.load(std::memory_order_relaxed);
  assert(s >= -static_cast<int64_t>(EbrDomain::kMaxThreads));
  return s > 0 ? static_cast<size_t>(s) : 0;
}

template <typename Traits>
auto BasicSkipTrie<Traits>::structure_stats() const -> StructureStats {
  EbrDomain::Guard g(ebr_);
  StructureStats s;
  const uint32_t top = engine_.top_level();
  for (uint32_t l = 0; l <= top; ++l) {
    size_t n = 0;
    for (Node_t* it = engine_.first_at(l); it != nullptr;
         it = engine_.next_at(it)) {
      ++n;
    }
    s.level_counts[l] = n;
  }
  s.keys = s.level_counts[0];
  s.top_count = s.level_counts[top];
  s.trie_entries = trie_.entry_count();
  s.arena_bytes = engine_.approx_bytes();
  s.trie_bytes = trie_.approx_bytes();
  s.hash_buckets = trie_.map().bucket_count();
  s.hash_dummies = trie_.map().dummy_count();
  s.hash_load_factor = trie_.map().load_factor();

  // Gap statistics: number of level-0 keys strictly between consecutive
  // top-level nodes (the paper's "bucket" size, expected O(log u)).
  size_t gaps = 0, gap_total = 0, gap_cur = 0;
  Node_t* next_top = engine_.first_at(top);
  Ikey next_top_key =
      next_top != nullptr ? next_top->ikey() : Traits::ikey_max();
  for (Node_t* it = engine_.first_at(0); it != nullptr;
       it = engine_.next_at(it)) {
    if (it->ikey() >= next_top_key) {
      ++gaps;
      gap_total += gap_cur;
      if (gap_cur > s.max_top_gap) s.max_top_gap = gap_cur;
      gap_cur = 0;
      next_top = next_top != nullptr ? engine_.next_at(next_top) : nullptr;
      next_top_key =
          next_top != nullptr ? next_top->ikey() : Traits::ikey_max();
    } else {
      ++gap_cur;
    }
  }
  if (gap_cur > s.max_top_gap) s.max_top_gap = gap_cur;
  gap_total += gap_cur;
  s.avg_top_gap = gaps > 0 ? static_cast<double>(gap_total) /
                                 static_cast<double>(gaps + 1)
                           : static_cast<double>(gap_total);
  return s;
}

// Instantiates every member defined in this TU; the batch members are
// defined (and member-level instantiated) in batch.cpp.
template class BasicSkipTrie<U64Traits>;
template class BasicSkipTrie<Bytes16Traits>;

}  // namespace skiptrie
