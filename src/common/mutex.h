// Annotated, rank-ordered mutex wrapper for clang thread-safety analysis
// and lock-hierarchy auditing.
//
// libstdc++'s std::mutex / std::lock_guard carry no capability annotations,
// so code locking through them is invisible to -Wthread-safety and every
// PDPA_GUARDED_BY member access would be flagged. pdpa::Mutex wraps
// std::mutex with the capability attributes, and pdpa::MutexLock is the
// RAII guard the analysis understands. Zero overhead in normal builds: both
// compile to the std::mutex calls they wrap.
//
// Lock ranks. Every pdpa::Mutex must declare its place in the repo-wide
// lock hierarchy at construction:
//
//   Mutex mutex_{PDPA_LOCK_RANK(40)};
//
// Locks may only be acquired in strictly increasing rank order; the
// hierarchy itself (who ranks below whom, and why) is documented in
// DESIGN.md §8. The contract is enforced three ways, and all three pin the
// *same* hierarchy:
//   * construction: Mutex has no default constructor, so an unranked mutex
//     does not compile (tests/tsa_probe/unranked_mutex.cc keeps that
//     load-bearing);
//   * statically: pdpa_lint's `lock-order` rule indexes every PDPA_LOCK_RANK
//     declaration and every MutexLock site repo-wide and flags any
//     acquisition whose textually-held set violates the rank order;
//   * at runtime (-DPDPA_AUDIT): every thread keeps a thread-local stack of
//     held ranks, and Lock() PDPA_CHECK-fails on the first out-of-order
//     acquisition — covering the executed paths the textual static rule
//     over- or under-approximates.
//
// Also here: ThreadConfinementChecker, the audit-build companion for
// structures that are *not* mutex-protected because they are confined to a
// single thread by construction (per-cell EventLog / TimeSeriesSampler
// sinks in the sweep engine). Under PDPA_AUDIT it binds to the first thread
// that touches the structure and aborts if any other thread follows; in
// normal builds it is an empty struct and every call is a no-op.
#ifndef SRC_COMMON_MUTEX_H_
#define SRC_COMMON_MUTEX_H_

#include <mutex>

#include "src/common/thread_annotations.h"

#ifdef PDPA_AUDIT
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/common/logging.h"
#endif

namespace pdpa {

// A mutex's position in the repo-wide lock hierarchy. Spell it with
// PDPA_LOCK_RANK so pdpa_lint's repo index can find every assignment.
struct LockRank {
  int value = 0;
};

// Declares a mutex's rank at its construction site:
//   Mutex mutex_{PDPA_LOCK_RANK(40)};
// Ranks are unique per mutex declaration and must strictly increase along
// every acquisition chain (see DESIGN.md §8 for the table).
#define PDPA_LOCK_RANK(n) \
  ::pdpa::LockRank { n }

#ifdef PDPA_AUDIT
namespace lock_audit {
// Ranks currently held by this thread, in acquisition order. Function-local
// thread_local so the header stays include-anywhere.
inline std::vector<int>& HeldRanks() {
  thread_local std::vector<int> held;
  return held;
}
}  // namespace lock_audit
#endif

class PDPA_CAPABILITY("mutex") Mutex {
 public:
  // No unranked mutexes: every Mutex states its hierarchy position.
  // tests/tsa_probe/unranked_mutex.cc pins this as a negative-compile probe.
  Mutex() = delete;
  explicit Mutex(LockRank rank)
#ifdef PDPA_AUDIT
      : rank_(rank.value)
#endif
  {
    (void)rank;
  }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PDPA_ACQUIRE() {
    // Order is checked *before* blocking: an inversion should fail the
    // audit run deterministically, not only when it happens to deadlock.
    AuditCheckOrder();
    mutex_.lock();
    AuditPush();
  }
  void Unlock() PDPA_RELEASE() {
    AuditPop();
    mutex_.unlock();
  }
  bool TryLock() PDPA_TRY_ACQUIRE(true) {
    if (!mutex_.try_lock()) {
      return false;
    }
    // A try-lock cannot deadlock, but an out-of-order success still
    // violates the hierarchy the static rule enforces; keep them aligned.
    AuditCheckOrder();
    AuditPush();
    return true;
  }

 private:
#ifdef PDPA_AUDIT
  void AuditCheckOrder() const {
    const std::vector<int>& held = lock_audit::HeldRanks();
    PDPA_CHECK(held.empty() || held.back() < rank_)
        << "[PDPA_AUDIT] lock-order inversion: acquiring rank " << rank_
        << " while holding rank " << held.back()
        << " (ranks must strictly increase; see DESIGN.md §8)";
  }
  void AuditPush() const { lock_audit::HeldRanks().push_back(rank_); }
  void AuditPop() const {
    std::vector<int>& held = lock_audit::HeldRanks();
    // Unlock order may differ from reverse-acquisition order (manual
    // Lock/Unlock); drop the most recent occurrence of this rank.
    for (std::size_t i = held.size(); i > 0; --i) {
      if (held[i - 1] == rank_) {
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(i - 1));
        return;
      }
    }
    PDPA_CHECK(false) << "[PDPA_AUDIT] unlocking rank " << rank_ << " that is not held";
  }
  const int rank_;
#else
  void AuditCheckOrder() const {}
  void AuditPush() const {}
  void AuditPop() const {}
#endif

  std::mutex mutex_;
};

// RAII lock; the scoped_lockable annotation lets the analysis track the
// critical section's extent.
class PDPA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mutex) PDPA_ACQUIRE(mutex) : mutex_(mutex) { mutex_->Lock(); }
  ~MutexLock() PDPA_RELEASE() { mutex_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mutex_;
};

#ifdef PDPA_AUDIT
class ThreadConfinementChecker {
 public:
  // Call from every mutating entry point. Binds to the calling thread on
  // first use; any later call from a different thread is a fatal error
  // (`what` names the structure in the abort message).
  void AssertConfined(const char* what) {
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};  // id() == "no thread"
    if (owner_.compare_exchange_strong(expected, self)) {
      return;  // First touch: this thread owns the structure now.
    }
    if (expected != self) {
      std::fprintf(  // lint: direct-io-ok (crash-path diagnostic before abort)
          stderr, "[PDPA_AUDIT] %s touched by a second thread\n", what);
      std::abort();
    }
  }

 private:
  std::atomic<std::thread::id> owner_{};
};
#else
class ThreadConfinementChecker {
 public:
  void AssertConfined(const char*) {}
};
#endif

}  // namespace pdpa

#endif  // SRC_COMMON_MUTEX_H_
