// Shows that the answer oracles count deliberately wrong answers: every
// check below feeds one correct and one wrong answer and expects exactly
// the wrong one to be counted.  Exits non-zero on the first mismatch.

#include <cstdio>
#include <vector>

#include "workload.h"

namespace {

int failures = 0;

void expect(bool cond, const char* what) {
  if (!cond) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

using perfbench::ChurnLayout;
using perfbench::ChurnModel;
using perfbench::encode_op;
using perfbench::kNoKey;

// A benchmark client counts an answer as failed when it differs from the
// oracle's answer for that op.
size_t count_failures(const perfbench::ReadOracle& o,
                      const std::vector<uint64_t>& ops,
                      const std::vector<uint64_t>& got) {
  const std::vector<uint64_t> want = o.answers(ops);
  size_t bad = 0;
  for (size_t i = 0; i < ops.size(); ++i) bad += got[i] != want[i];
  return bad;
}

void read_oracle() {
  const perfbench::ReadOracle o({30, 10, 20});
  const std::vector<uint64_t> ops = {
      encode_op(perfbench::kPred, 25),     encode_op(perfbench::kPred, 5),
      encode_op(perfbench::kPred, 30),     encode_op(perfbench::kContains, 20),
      encode_op(perfbench::kContains, 21), encode_op(perfbench::kPred, 99),
  };
  const std::vector<uint64_t> right = {20, kNoKey, 30, 1, 0, 30};
  expect(count_failures(o, ops, right) == 0, "correct read answers pass");
  for (size_t i = 0; i < ops.size(); ++i) {
    std::vector<uint64_t> wrong = right;
    wrong[i] = perfbench::op_kind(ops[i]) == perfbench::kPred
                   ? (right[i] == kNoKey ? 10 : right[i] - 10)
                   : !right[i];
    expect(count_failures(o, ops, wrong) == 1,
           "one wrong read answer is counted once");
  }
  expect(o.predecessor(25) == 20 && o.predecessor(9) == kNoKey,
         "single predecessor");
}

void churn_model() {
  // Candidates of block 1: anchor 64, client 0 owns 65, 68, ...; client 1
  // owns 66, 69, ...  Loaded: anchors 0 and 64, and keys 65 and 66.
  auto key = [](uint64_t i) { return ChurnLayout::key_of(i); };
  const std::vector<uint64_t> loaded = {key(0), key(64), key(65), key(66)};
  ChurnModel m(0, loaded);

  expect(m.check_contains(key(65), true), "present own key found");
  expect(!m.check_contains(key(65), false), "present own key reported absent");
  expect(!m.check_contains(key(68), true), "absent own key reported present");

  // x between 68 and 69: 65 is the largest own present key; 66 belongs to
  // client 1, so either 65 or 66 is acceptable.
  const uint64_t x = key(68) + 5;
  expect(m.check_pred(x, key(65)), "predecessor at own key");
  expect(m.check_pred(x, key(66)), "predecessor at another stripe's key");
  expect(!m.check_pred(x, key(64)), "predecessor skips a present own key");
  expect(!m.check_pred(x, key(68)), "predecessor at an absent own key");
  expect(!m.check_pred(x, key(0)), "predecessor below the anchor");
  expect(!m.check_pred(x, key(68) + 1), "predecessor not a candidate key");
  expect(!m.check_pred(x, key(70)), "predecessor above the query");
  expect(!m.check_pred(x, kNoKey), "missing predecessor");

  // The last candidate of a block (127) is client 2's: another stripe's
  // answer for client 0, and a present own key client 2 must not skip.
  expect(m.check_pred(key(127) + 9, key(127)), "predecessor at block end");
  const ChurnModel m2(2, {key(0), key(64), key(127)});
  expect(m2.check_pred(key(127) + 9, key(127)), "own key at block end");
  expect(!m2.check_pred(key(127) + 9, key(125)),
         "predecessor skips an own key at block end");

  expect(!m.check_insert(key(65), true), "insert of a present key succeeds");
  expect(m.check_insert(key(68), true), "insert of an absent key");
  expect(m.check_pred(x, key(68)), "predecessor sees the insert");
  expect(!m.check_pred(x, key(65)), "predecessor misses the insert");
  expect(!m.check_erase(key(71), true), "erase of an absent key succeeds");
  expect(m.check_erase(key(68), true), "erase of a present key");
  expect(!m.check_contains(key(68), true), "contains sees an erased key");

  std::vector<uint64_t> present;
  m.append_present(&present);
  expect(present == std::vector<uint64_t>{key(65)}, "model contents");
}

}  // namespace

int main() {
  read_oracle();
  churn_model();
  if (failures == 0) std::printf("oracle test: OK\n");
  return failures == 0 ? 0 : 1;
}
