// PerThread (common/per_thread.h, DESIGN.md §3.8): the per-(thread, owner)
// state behind EbrDomain, SlabArena and the engine's batch cursor.  Pins
// both end orders — a thread exiting while its owners live, an owner dying
// while threads that touched it live or exit — and that a thread forgets
// the states of dead owners.  The race tests are written for the ASan and
// TSan legs: each thread touches owners that another thread destroys.
#include "common/per_thread.h"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "core/skiptrie.h"
#include "reclaim/arena.h"
#include "reclaim/ebr.h"
#include "skiplist/cursor.h"
#include "skiplist/engine.h"

namespace skiptrie {
namespace {

// The calling thread's live states of each kind the library keeps.
struct Counts {
  size_t ebr, arena, cursor;
  bool operator==(const Counts&) const = default;
};
Counts thread_counts() {
  return {PerThread<detail::EbrThreadState>::count_on_this_thread(),
          PerThread<SlabArena::ThreadCache>::count_on_this_thread(),
          PerThread<DescentCursor>::count_on_this_thread()};
}

// Registers the calling thread with every per-thread state of `t`: EBR
// (retirements pending), the three arenas, and the batch cursor.
void touch(SkipTrie& t) {
  const std::vector<uint64_t> keys{11, 12, 13};
  t.insert_batch(keys);
  for (uint64_t k = 100; k < 164; ++k) t.insert(k);
  for (uint64_t k = 100; k < 164; ++k) t.erase(k);
}

struct Probe {
  explicit Probe(std::atomic<int>& e) : exits(&e) {}
  void thread_exit() { exits->fetch_add(1); }
  std::atomic<int>* exits;
};

TEST(PerThreadTest, OneStatePerThreadAndEitherEndRunsOnce) {
  std::atomic<int> exits{0};
  int hooked = 0;
  auto owner = std::make_unique<PerThread<Probe>>();
  EXPECT_EQ(owner->find(), nullptr);
  Probe* mine = &owner->local(exits);
  EXPECT_EQ(&owner->local(exits), mine);
  EXPECT_EQ(owner->find(), mine);

  // The thread ends first: its exit runs, the owner's hook later does not
  // see it.
  std::thread([&] { EXPECT_NE(&owner->local(exits), mine); }).join();
  EXPECT_EQ(exits.load(), 1);

  // The owner ends first: its hook runs on the live thread's state, whose
  // exit then does not run.
  std::latch made(1), closed(1);
  std::thread t([&] {
    owner->local(exits);
    made.count_down();
    closed.wait();
  });
  made.wait();
  owner->close([&](Probe&) { ++hooked; });
  owner.reset();
  closed.count_down();
  t.join();
  EXPECT_EQ(hooked, 2);  // this thread's state and t's
  EXPECT_EQ(exits.load(), 1);
  EXPECT_EQ(PerThread<Probe>::count_on_this_thread(), 0u);
}

// (a) Thread T works on A while the main thread destroys B, which T touched
// first: B's destructors close T's states while T looks up (and frees) its
// states for A.
TEST(PerThreadTest, OwnerDiesWhileAThreadWorksOnAnother) {
  for (int round = 0; round < 10; ++round) {
    auto a = std::make_unique<SkipTrie>();
    auto b = std::make_unique<SkipTrie>();
    std::latch touched(1);
    std::atomic<bool> stop{false};
    std::thread t([&] {
      touch(*b);
      touch(*a);
      touched.count_down();
      for (uint64_t i = 0; !stop.load(); ++i) {
        a->insert(1000 + i % 512);
        a->erase(1000 + i % 512);
        if (i % 64 == 0) (void)thread_counts();
      }
      EXPECT_EQ(thread_counts(), (Counts{1, 3, 1}));
    });
    touched.wait();
    b.reset();
    stop.store(true);  // after b.reset(): T then sees B closed
    t.join();
    EXPECT_TRUE(a->contains(12));
  }
}

// (b) A thread that builds and drops 1,000 structures holds the states of
// the live one only.
TEST(PerThreadTest, DroppedStructuresAreForgotten) {
  std::thread([] {
    const Counts before = thread_counts();
    Counts one{};
    for (int i = 0; i < 1000; ++i) {
      SkipTrie t;
      touch(t);
      if (i == 0) one = thread_counts();
      ASSERT_EQ(thread_counts(), one) << i;
    }
    EXPECT_EQ(one, (Counts{before.ebr + 1, before.arena + 3,
                           before.cursor + 1}));
    EXPECT_EQ(thread_counts(), before);
  }).join();
}

// (c) Threads that touched several structures exit while the main thread
// destroys them, in each order and concurrently.
TEST(PerThreadTest, ThreadsExitWhileOwnersDie) {
  constexpr int kThreads = 3;
  constexpr int kTries = 3;
  for (int round = 0; round < 30; ++round) {
    std::vector<std::unique_ptr<SkipTrie>> tries;
    for (int i = 0; i < kTries; ++i) {
      tries.push_back(std::make_unique<SkipTrie>());
    }
    std::latch touched(kThreads);
    std::latch release(1);
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&] {
        for (auto& tr : tries) touch(*tr);
        touched.count_down();
        release.wait();
      });
    }
    touched.wait();
    switch (round % 3) {
      case 0:  // concurrently
        release.count_down();
        tries.clear();
        break;
      case 1:  // owners first
        tries.clear();
        release.count_down();
        break;
      default:  // threads first
        release.count_down();
        for (auto& th : ts) th.join();
        ts.clear();
        tries.clear();
    }
    for (auto& th : ts) th.join();
  }
}

// A thread's cursors for live engines are distinct objects, and each keeps
// its address however many other engines the thread visits in between: an
// outer frame may still hold a reference.  (The first cursor registry
// recycled 4 slots per thread round-robin and rebound them in place.)
TEST(PerThreadTest, CursorsOfLiveEnginesStayDistinctAndStable) {
  SlabArena arena(sizeof(Node), kCacheLine, 1024);
  EbrDomain ebr;
  constexpr int kEngines = 8;
  std::vector<std::unique_ptr<SkipListEngine>> engines;
  for (int i = 0; i < kEngines; ++i) {
    engines.push_back(std::make_unique<SkipListEngine>(ebr, arena, 3));
  }
  std::thread probe([&] {
    DescentCursor* cursors[kEngines];
    for (int i = 0; i < kEngines; ++i) cursors[i] = &engines[i]->cursor();
    for (int i = 0; i < kEngines; ++i) {
      for (int j = i + 1; j < kEngines; ++j) {
        EXPECT_NE(cursors[i], cursors[j]) << i << "," << j;
      }
    }
    for (int round = 0; round < 3; ++round) {
      for (int i = kEngines - 1; i >= 0; --i) {
        EXPECT_EQ(&engines[i]->cursor(), cursors[i]) << i;
      }
    }
  });
  probe.join();
}

TEST(PerThreadTest, CursorCountReturnsOnceEnginesDie) {
  std::thread probe([] {
    const size_t c0 = PerThread<DescentCursor>::count_on_this_thread();
    {
      SlabArena arena(sizeof(Node), kCacheLine, 2048);
      EbrDomain ebr;
      std::vector<std::unique_ptr<SkipListEngine>> engines;
      for (int i = 0; i < 6; ++i) {
        engines.push_back(std::make_unique<SkipListEngine>(ebr, arena, 3));
        engines.back()->cursor();
      }
      EXPECT_EQ(PerThread<DescentCursor>::count_on_this_thread(), c0 + 6);
    }
    EXPECT_EQ(PerThread<DescentCursor>::count_on_this_thread(), c0);
  });
  probe.join();
}

}  // namespace
}  // namespace skiptrie
