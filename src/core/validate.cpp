#include "core/validate.h"

#include <iomanip>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common/bitops.h"
#include "xfast/tree_node.h"

namespace skiptrie {

namespace {

template <typename Ikey>
std::string hex(Ikey v) {
  std::ostringstream os;
  os << "0x" << std::hex;
  if constexpr (sizeof(Ikey) > 8) {
    const uint64_t hi = u128_hi(v);
    const uint64_t lo = u128_lo(v);
    if (hi != 0) os << hi << std::setw(16) << std::setfill('0');
    os << lo;
  } else {
    os << static_cast<uint64_t>(v);
  }
  return os.str();
}

// Hash ikeys through the traits' own mix (u128 has no std::hash).
template <typename Traits>
struct IkeyHash {
  size_t operator()(typename Traits::ikey_type k) const {
    return static_cast<size_t>(Traits::hash_mix(k));
  }
};

}  // namespace

template <typename Traits>
std::vector<std::string> validate_structure(const BasicSkipTrie<Traits>& t) {
  using Ikey = typename Traits::ikey_type;
  using Node_t = NodeT<Ikey>;
  using IkeySet = std::unordered_set<Ikey, IkeyHash<Traits>>;

  std::vector<std::string> errors;
  auto fail = [&](const std::string& msg) { errors.push_back(msg); };

  const BasicSkipListEngine<Traits>& eng = t.engine();
  const uint32_t top = eng.top_level();
  const uint32_t bits = t.universe_bits();
  EbrDomain::Guard g(t.ebr());

  // Per-level sortedness + tower integrity.
  std::vector<IkeySet> level_keys(top + 1);
  for (uint32_t l = 0; l <= top; ++l) {
    Ikey prev = Ikey(0);
    for (Node_t* n = eng.first_at(l); n != nullptr; n = eng.next_at(n)) {
      const Ikey ik = n->ikey();
      if (ik <= prev) {
        fail("level " + std::to_string(l) + ": not strictly sorted at " +
             hex(ik));
      }
      prev = ik;
      if (n->level() != l) {
        fail("level " + std::to_string(l) + ": node " + hex(ik) +
             " has level field " + std::to_string(n->level()));
      }
      if (!n->linked()) {
        fail("level " + std::to_string(l) + ": node " + hex(ik) +
             " is reachable but lacks the linked bit");
      }
      if (!level_keys[l].insert(ik).second) {
        fail("level " + std::to_string(l) + ": duplicate key " + hex(ik));
      }
      if (l > 0) {
        Node_t* d = n->down();
        if (d == nullptr || d->ikey() != ik || d->level() != l - 1) {
          fail("level " + std::to_string(l) + ": broken down link at " +
               hex(ik));
        }
        Node_t* r = n->root();
        if (r == nullptr || r->ikey() != ik || r->level() != 0) {
          fail("level " + std::to_string(l) + ": broken root link at " +
               hex(ik));
        }
      }
    }
  }
  // Towers must be supported below: a key at level l must exist at l-1.
  for (uint32_t l = 1; l <= top; ++l) {
    for (const Ikey& ik : level_keys[l]) {
      if (level_keys[l - 1].find(ik) == level_keys[l - 1].end()) {
        fail("key " + hex(ik) + " at level " + std::to_string(l) +
             " missing from level " + std::to_string(l - 1));
      }
    }
  }

  // Top-level prev pointers.  prev is a *guide*: it may lag behind inserts
  // and — in this C++ reproduction — may even name storage that was
  // recycled into a different (possibly larger-keyed) node after its old
  // target was deleted (DESIGN.md §3.3; the paper's GC would keep the old
  // node alive instead).  No ordering can therefore be asserted about the
  // target; traversals validate at use time and fall back to heads.  What
  // MUST hold quiescently: a live (unmarked) node's own prev word carries
  // no mark — the mark is only ever set by the node's deleter, after the
  // next-word mark.
  for (Node_t* n = eng.first_at(top); n != nullptr; n = eng.next_at(n)) {
    const uint64_t pv = n->prevw.load(std::memory_order_acquire);
    if (is_marked(pv)) {
      fail("top node " + hex(n->ikey()) + " unmarked but prev word marked");
    }
  }

  // Trie consistency: every entry's pointers are null or land on a live
  // top-level node matching the prefix.
  std::unordered_map<Ikey, const TreeNode*, IkeyHash<Traits>> entries;
  t.trie().map().for_each([&](Ikey k, uint64_t v) {
    entries.emplace(k, reinterpret_cast<const TreeNode*>(v));
  });
  for (const auto& [enc, tn] : entries) {
    // Decode the 1-prefixed encoding: length = index of leading 1.
    uint32_t len = Traits::kMaxBits - 1;
    while (len > 0 && (enc >> len) != Ikey(1)) --len;
    for (int d = 0; d < 2; ++d) {
      const uint64_t w = tn->ptrs[d].load(std::memory_order_acquire);
      Node_t* n = unpack_ptr<Node_t>(w);
      if (n == nullptr) continue;
      const Ikey ik = n->ikey();
      if (ik == Ikey(0) || ik == Traits::ikey_max() ||
          n->kind() != NodeKind::kInterior) {
        fail("trie entry " + hex(enc) + " dir " + std::to_string(d) +
             " points at a non-interior node");
        continue;
      }
      const Ikey key = ik - Ikey(1);
      if (len > 0 && Traits::encode_prefix(key, len, bits) != enc) {
        fail("trie entry " + hex(enc) + " dir " + std::to_string(d) +
             " points outside its prefix (key " + hex(key) + ")");
      }
      if (level_keys[top].find(ik) == level_keys[top].end()) {
        fail("trie entry " + hex(enc) + " dir " + std::to_string(d) +
             " points at key " + hex(key) + " not present at top level");
      }
    }
  }

  // Coverage: every top-level key's full prefix path must exist and cover
  // the key in its direction.
  for (const Ikey& ik : level_keys[top]) {
    const Ikey key = ik - Ikey(1);
    for (uint32_t len = 0; len < bits; ++len) {
      const Ikey enc = Traits::encode_prefix(key, len, bits);
      auto it = entries.find(enc);
      if (it == entries.end()) {
        fail("top key " + hex(key) + ": missing trie entry at length " +
             std::to_string(len));
        continue;
      }
      const uint64_t d = Traits::bit(key, len, bits);
      const uint64_t w = it->second->ptrs[d].load(std::memory_order_acquire);
      Node_t* n = unpack_ptr<Node_t>(w);
      if (n == nullptr) {
        fail("top key " + hex(key) + ": null trie pointer at length " +
             std::to_string(len));
        continue;
      }
      const Ikey ck = n->ikey();
      const bool covered = (d == 0) ? ck >= ik : ck <= ik;
      if (!covered) {
        fail("top key " + hex(key) + ": uncovered at length " +
             std::to_string(len) + " (candidate " + hex(ck - Ikey(1)) + ")");
      }
    }
  }

  return errors;
}

template std::vector<std::string> validate_structure<U64Traits>(
    const BasicSkipTrie<U64Traits>&);
template std::vector<std::string> validate_structure<Bytes16Traits>(
    const BasicSkipTrie<Bytes16Traits>&);

}  // namespace skiptrie
