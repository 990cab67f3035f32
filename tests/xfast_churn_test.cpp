// Regression stress for the x-fast trie's prefix-maintenance races
// (DESIGN.md §3.5(3) and the coverage-monotonicity invariant of §3.4).
//
// Multi-threaded insert/erase churn over a small key range drives the
// Alg. 6 (bottom-up cover) / Alg. 7 (top-down sweep) crossing hard:
// re-inserted keys meet their previous incarnation's in-flight sweep, and
// entry kill/recreate cycles meet concurrent child-pointer installs.  Each
// round then validates the full quiescent structure.  The seed tree had
// three distinct bugs here — a marked candidate accepted as coverage, a
// lost install into an entry that was concurrently compareAndDelete'd, and
// a marked candidate overwritten with a less-extreme key — each of which
// this test catches within a few dozen rounds.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/random.h"
#include "core/skiptrie.h"
#include "core/validate.h"

namespace skiptrie {
namespace {

void churn_rounds(int rounds, uint64_t seed_base) {
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned kThreads = hw >= 4 ? 4 : (hw >= 2 ? hw : 2);
  for (int round = 0; round < rounds; ++round) {
    Config c;
    c.universe_bits = 24;
    c.seed = seed_base + round * 977 + 1;
    SkipTrie t(c);
    std::vector<std::thread> ts;
    for (unsigned w = 0; w < kThreads; ++w) {
      ts.emplace_back([&, w] {
        Xoshiro256 rng(w * 31 + round + seed_base + 1);
        for (int i = 0; i < 8000; ++i) {
          const uint64_t k = rng.next_below(1u << 12);
          if (rng.next() & 1) {
            t.insert(k);
          } else {
            t.erase(k);
          }
        }
      });
    }
    for (auto& th : ts) th.join();
    const auto errors = validate_structure(t);
    ASSERT_TRUE(errors.empty())
        << "round " << round << ": " << errors.size()
        << " violations, first: " << errors.front();
  }
}

TEST(XFastChurn, CoverageSurvivesReinsertChurn) {
  churn_rounds(25, 0);
}

}  // namespace
}  // namespace skiptrie
