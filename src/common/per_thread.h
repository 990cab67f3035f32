// One State per (thread, owner) — DESIGN.md §3.8.
//
// EbrDomain keeps each thread's pin slot and retired list here, SlabArena
// each thread's free-block cache, and the skiplist engine each thread's
// batch cursor.  An owner holds a PerThread<State>; local() hands the
// calling thread its State, making it on first use.  Each thread keeps its
// States of one type in a most-recently-used list, so the owner the thread
// used last is found with one compare.
//
// Either side may end first:
//  - a thread's exit runs State::thread_exit() (when State has one) for
//    every owner still alive, so the State can hand its resources back;
//  - an owner's close(hook) runs hook on every remaining State and marks it
//    closed.  The thread frees a closed State at its next lookup that
//    misses the head, or at exit, without touching the owner again.
// Both run under a mutex in a block the owner and its States share, which
// lives until the last of them is gone, so neither side can free the lock
// the other is about to take.  The lock is per owner, never per process:
// a hook may make States of other owners (EBR callbacks recycle into
// arenas), so a process-wide lock would order owners against each other.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace skiptrie {

template <typename State>
class PerThread {
 public:
  PerThread() = default;
  ~PerThread() {
    close([](State&) {});
  }

  PerThread(const PerThread&) = delete;
  PerThread& operator=(const PerThread&) = delete;

  // The calling thread's State, made as State(args...) on first use.
  template <typename... Args>
  State& local(Args&&... args) {
    Slot* head = tls_.head;
    if (head != nullptr && head->shared == shared_) [[likely]] {
      return head->state;
    }
    return local_slow(std::forward<Args>(args)...);
  }

  // The calling thread's State, or nullptr; never makes one.
  State* find() const {
    for (Slot* s = tls_.head; s != nullptr; s = s->next) {
      if (s->shared == shared_) return &s->state;
    }
    return nullptr;
  }

  // fn(state) for every thread's State, under the owner lock.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::lock_guard<std::mutex> lk(shared_->mu);
    for (Slot* s : shared_->slots) fn(s->state);
  }

  // Runs hook(state) on every remaining State and marks it closed; call at
  // the top of the owner's destructor, while the members a hook or a
  // thread_exit() uses are still alive.  Idempotent.
  template <typename Fn>
  void close(Fn&& hook) {
    std::lock_guard<std::mutex> lk(shared_->mu);
    for (Slot* s : shared_->slots) {
      hook(s->state);
      s->closed.store(true, std::memory_order_release);
    }
    shared_->slots.clear();
  }

  // Test hook: States of this type the calling thread holds, after freeing
  // the closed ones.
  static size_t count_on_this_thread() {
    size_t n = 0;
    for (Slot** link = &tls_.head; *link != nullptr; link = &(*link)->next) {
      free_closed(link);
      if (*link == nullptr) break;
      ++n;
    }
    return n;
  }

 private:
  struct Slot;
  struct Shared {
    std::mutex mu;
    std::vector<Slot*> slots;  // every thread's live State of this owner
  };
  struct Slot {
    template <typename... Args>
    explicit Slot(std::shared_ptr<Shared> sh, Args&&... args)
        : shared(std::move(sh)), state(std::forward<Args>(args)...) {}
    // Keeps the block alive, so its address also names the owner: no new
    // owner can get it while this Slot holds it.
    std::shared_ptr<Shared> shared;
    std::atomic<bool> closed{false};
    Slot* next = nullptr;
    State state;
  };
  // The calling thread's Slots of this State type, most recently used
  // first.  Its destructor is the thread's exit.
  struct ThreadList {
    Slot* head = nullptr;
    ~ThreadList() {
      while (Slot* s = head) {
        head = s->next;
        {
          std::lock_guard<std::mutex> lk(s->shared->mu);
          if (!s->closed.load(std::memory_order_relaxed)) {
            if constexpr (requires { s->state.thread_exit(); }) {
              s->state.thread_exit();
            }
            std::erase(s->shared->slots, s);
          }
        }
        delete s;
      }
    }
  };

  // Unlinks and frees *link while it names a closed Slot.  The acquire
  // pairs with close()'s release: the hook is done with the State.
  static void free_closed(Slot** link) {
    while (*link != nullptr &&
           (*link)->closed.load(std::memory_order_acquire)) {
      Slot* dead = *link;
      *link = dead->next;
      delete dead;
    }
  }

  template <typename... Args>
  State& local_slow(Args&&... args) {
    for (Slot** link = &tls_.head; *link != nullptr; link = &(*link)->next) {
      free_closed(link);
      Slot* s = *link;
      if (s == nullptr) break;
      if (s->shared == shared_) {
        *link = s->next;
        s->next = tls_.head;
        tls_.head = s;
        return s->state;
      }
    }
    auto* s = new Slot(shared_, std::forward<Args>(args)...);
    {
      std::lock_guard<std::mutex> lk(shared_->mu);
      shared_->slots.push_back(s);
    }
    s->next = tls_.head;
    tls_.head = s;
    return s->state;
  }

  inline static thread_local ThreadList tls_;
  const std::shared_ptr<Shared> shared_ = std::make_shared<Shared>();
};

}  // namespace skiptrie
