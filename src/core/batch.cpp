// SkipTrie batched operations (DESIGN.md §3.7): sort, then stream the keys
// through one DescentCursor under one EBR pin per kKeysPerPin keys
// (batch_detail::for_each_sorted_pinned).  Each key linearizes exactly like
// its single-key counterpart; the cursor is invalidated at every new pin,
// so no retained row outlives the pin it was recorded under.
//
// Explicit instantiation note: skiptrie.cpp carries the class-level
// explicit instantiations of BasicSkipTrie (covering every member defined
// there); this TU instantiates only the four batch members it defines, at
// member-function granularity, so the two TUs never instantiate the same
// entity twice.
#include "core/batch.h"
#include "core/skiptrie.h"
#include "skiplist/cursor.h"

namespace skiptrie {

template <typename Traits>
size_t BasicSkipTrie<Traits>::insert_batch(const key_type* keys, size_t n,
                                           uint8_t* results) {
  for (size_t i = 0; i < n; ++i) check_key(keys[i]);
  if (n == 0) return 0;
  BasicDescentCursor<Traits>& cur = engine_.cursor();
  return batch_detail::for_each_sorted_pinned(
      ebr_, cur, keys, n, [&](key_type k, uint32_t i) {
        const Ikey x = ikey_of(k);
        TrieStartEnv env{&trie_, k};
        const typename Engine::InsertResult r = engine_.cursor_insert(
            cur, x, tower_height(x), &trie_start, &env);
        const bool hit = finish_insert(k, r);
        if (results != nullptr) results[i] = hit;
        return hit;
      });
}

template <typename Traits>
size_t BasicSkipTrie<Traits>::erase_batch(const key_type* keys, size_t n,
                                          uint8_t* results) {
  for (size_t i = 0; i < n; ++i) check_key(keys[i]);
  if (n == 0) return 0;
  BasicDescentCursor<Traits>& cur = engine_.cursor();
  return batch_detail::for_each_sorted_pinned(
      ebr_, cur, keys, n, [&](key_type k, uint32_t i) {
        const Ikey x = ikey_of(k);
        TrieStartEnv env{&trie_, k};
        const typename Engine::EraseResult r =
            engine_.cursor_erase(cur, x, &trie_start, &env);
        const bool hit = finish_erase(k, r);
        if (results != nullptr) results[i] = hit;
        return hit;
      });
}

template <typename Traits>
size_t BasicSkipTrie<Traits>::contains_batch(const key_type* keys, size_t n,
                                             uint8_t* results) const {
  for (size_t i = 0; i < n; ++i) check_key(keys[i]);
  if (n == 0) return 0;
  BasicDescentCursor<Traits>& cur = engine_.cursor();
  return batch_detail::for_each_sorted_pinned(
      ebr_, cur, keys, n, [&](key_type k, uint32_t i) {
        const Ikey x = ikey_of(k);
        TrieStartEnv env{&trie_, k};
        const typename Engine::Bracket b =
            engine_.cursor_descend(cur, x, &trie_start, &env);
        const bool hit = b.right->ikey() == x;
        if (results != nullptr) results[i] = hit;
        return hit;
      });
}

template <typename Traits>
size_t BasicSkipTrie<Traits>::predecessor_batch(
    const key_type* keys, size_t n, std::optional<key_type>* results) const {
  for (size_t i = 0; i < n; ++i) check_key(keys[i]);
  if (n == 0) return 0;
  BasicDescentCursor<Traits>& cur = engine_.cursor();
  return batch_detail::for_each_sorted_pinned(
      ebr_, cur, keys, n, [&](key_type k, uint32_t i) {
        // Largest ikey <= ikey(k)  <=>  bracket left of x = ikey(k) + 1.
        const Ikey x = ikey_of(k) + Ikey(1);
        TrieStartEnv env{&trie_, k};
        const typename Engine::Bracket b =
            engine_.cursor_descend(cur, x, &trie_start, &env);
        std::optional<key_type> p;
        if (b.left->kind() == NodeKind::kInterior) p = b.left->ikey() - Ikey(1);
        if (results != nullptr) results[i] = p;
        return p.has_value();
      });
}

// Member-level explicit instantiations (see the note at the top).
template size_t BasicSkipTrie<U64Traits>::insert_batch(const uint64_t*,
                                                       size_t, uint8_t*);
template size_t BasicSkipTrie<U64Traits>::erase_batch(const uint64_t*, size_t,
                                                      uint8_t*);
template size_t BasicSkipTrie<U64Traits>::contains_batch(const uint64_t*,
                                                         size_t,
                                                         uint8_t*) const;
template size_t BasicSkipTrie<U64Traits>::predecessor_batch(
    const uint64_t*, size_t, std::optional<uint64_t>*) const;

template size_t BasicSkipTrie<Bytes16Traits>::insert_batch(
    const Bytes16Traits::key_type*, size_t, uint8_t*);
template size_t BasicSkipTrie<Bytes16Traits>::erase_batch(
    const Bytes16Traits::key_type*, size_t, uint8_t*);
template size_t BasicSkipTrie<Bytes16Traits>::contains_batch(
    const Bytes16Traits::key_type*, size_t, uint8_t*) const;
template size_t BasicSkipTrie<Bytes16Traits>::predecessor_batch(
    const Bytes16Traits::key_type*, size_t,
    std::optional<Bytes16Traits::key_type>*) const;

}  // namespace skiptrie
