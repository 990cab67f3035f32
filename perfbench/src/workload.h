// Seeded inputs and answer oracles for the three benchmark workloads.
//
// Everything a run feeds the structure is generated here from --seed before
// any timing starts: the bulk-loaded keys, one encoded (op, key) stream per
// client, and a side stream of keys for the traced run's extra requests.
// The generator is the benchmark's own, so a change to the library's
// workload code cannot change the benchmark's inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// B: every workload runs in a 32-bit universe.
inline constexpr uint32_t kUniverseBits = 32;

// Ops are encoded as (kind << 56) | key; keys are < 2^32.
enum OpKind : uint8_t { kPred = 0, kContains = 1, kInsert = 2, kErase = 3 };
inline constexpr int kOpKinds = 4;
inline constexpr uint64_t encode_op(OpKind k, uint64_t key) {
  return (static_cast<uint64_t>(k) << 56) | key;
}
inline constexpr OpKind op_kind(uint64_t w) {
  return static_cast<OpKind>(w >> 56);
}
inline constexpr uint64_t op_key(uint64_t w) {
  return w & ((1ull << 56) - 1);
}

// Answer encoding: a predecessor's key, or kNoKey when absent; 0/1 for the
// boolean ops.
inline constexpr uint64_t kNoKey = ~0ull;

enum class WorkloadId { kPredUniform, kHotZipf, kChurn };

struct WorkloadSpec {
  WorkloadId id;
  const char* name;
  uint32_t clients;
};

// nullptr when `name` is not a workload.
const WorkloadSpec* find_workload(const std::string& name);

// Per-client stream lengths; clients cycle their stream.
inline constexpr size_t kStreamLen = size_t{1} << 20;
inline constexpr size_t kSideLen = size_t{1} << 16;

struct Inputs {
  std::vector<uint64_t> loaded;                 // bulk-load keys, unsorted
  std::vector<std::vector<uint64_t>> streams;   // per client, encoded ops
  std::vector<std::vector<uint64_t>> side;      // per client, query keys
};

Inputs make_inputs(const WorkloadSpec& w, uint64_t seed);

// Exact answers over a fixed key set: the read-only workloads' loaded set
// never changes.
class ReadOracle {
 public:
  explicit ReadOracle(std::vector<uint64_t> keys);  // any order
  uint64_t predecessor(uint64_t x) const;           // largest key <= x

  // The answer to each encoded op, in answer encoding, computed by one
  // merge of the sorted ops with the sorted keys.
  std::vector<uint64_t> answers(const std::vector<uint64_t>& ops) const;

 private:
  std::vector<uint64_t> sorted_;
};

// churn's key layout: 2^19 candidate keys i << 13.  Every 64th candidate is
// an anchor that is loaded and never updated; the other 63 of each block of
// 64 are split round-robin between the 3 clients, and only the owner ever
// inserts or erases them.
struct ChurnLayout {
  static constexpr uint32_t kClients = 3;
  static constexpr uint32_t kCandidateBits = 19;
  static constexpr uint64_t kCandidates = 1ull << kCandidateBits;
  static constexpr uint32_t kShift = kUniverseBits - kCandidateBits;
  static constexpr uint64_t kBlocks = kCandidates / 64;
  static constexpr uint32_t kOwnPerBlock = 63 / kClients;

  static uint64_t key_of(uint64_t i) { return i << kShift; }
  static bool is_anchor(uint64_t i) { return (i & 63) == 0; }
  static uint32_t owner(uint64_t i) {
    return static_cast<uint32_t>(((i & 63) - 1) % kClients);
  }
  // The j-th key of `client`'s stripe, j < kBlocks * kOwnPerBlock.
  static uint64_t own_candidate(uint32_t client, uint64_t j) {
    return (j / kOwnPerBlock) * 64 + 1 + kClients * (j % kOwnPerBlock) +
           client;
  }
  // Bit positions within a block owned by `client`.
  static uint64_t own_mask(uint32_t client);
};

// One churn client's exact view of its own stripe.  Every check returns
// true when the structure's answer is consistent with the model and, for
// updates, advances the model.  Predecessor answers get the sound check the
// layout allows: the answer lies between the largest anchor <= x and x, is
// a candidate key, and agrees with the stripe's present keys.
class ChurnModel {
 public:
  ChurnModel(uint32_t client, const std::vector<uint64_t>& loaded);

  bool check_insert(uint64_t key, bool inserted);
  bool check_erase(uint64_t key, bool erased);
  bool check_contains(uint64_t key, bool found) const;
  bool check_pred(uint64_t x, uint64_t answer) const;

  // Appends the stripe's present keys.
  void append_present(std::vector<uint64_t>* out) const;

 private:
  bool present(uint64_t i) const { return (bits_[i >> 6] >> (i & 63)) & 1; }

  uint32_t client_;
  uint64_t mask_;
  std::vector<uint64_t> bits_;  // one word per 64-candidate block
};

}  // namespace perfbench
