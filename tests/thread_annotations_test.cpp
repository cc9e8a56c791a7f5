// util::Mutex / util::SharedMutex wrapper semantics — the annotated
// drop-ins (util/thread_annotations.hpp) must behave exactly like the std
// types they wrap, because every concurrency class in src/ now holds its
// locks through them. Each test pins one contract the std types promise:
// defer/adopt/try construction, mid-scope unlock/relock, owns_lock
// bookkeeping, reader/writer exclusion, and condition-variable interop via
// MutexLock::native(). Under Clang the annotations additionally make lock
// misuse a compile error (tests/negative/); here we verify the runtime
// half on any compiler.
#include "util/thread_annotations.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace meloppr::util {
namespace {

TEST(MutexWrapper, LockUnlockTryLockMatchStdSemantics) {
  Mutex mu;
  mu.lock();
  // A held (non-recursive) mutex refuses try_lock from another thread —
  // same contract as std::mutex (same-thread try_lock is UB there, so the
  // probe runs on a second thread).
  bool acquired = true;
  std::thread probe([&] { acquired = mu.try_lock(); });
  probe.join();
  EXPECT_FALSE(acquired);
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(MutexLock, ScopedAcquireReleases) {
  Mutex mu;
  {
    MutexLock lock(mu);
    EXPECT_TRUE(lock.owns_lock());
  }
  // Released at scope exit: immediately reacquirable.
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(MutexLock, DeferLockMatchesStdUniqueLock) {
  Mutex mu;
  MutexLock lock(mu, std::defer_lock);
  EXPECT_FALSE(lock.owns_lock());
  lock.lock();
  EXPECT_TRUE(lock.owns_lock());
  lock.unlock();
  EXPECT_FALSE(lock.owns_lock());
  // Destroying a non-owning lock must not unlock anything (std::unique_lock
  // contract): take the mutex first and verify it stays ours.
  mu.lock();
  { MutexLock deferred(mu, std::defer_lock); }
  bool acquired = true;
  std::thread probe([&] { acquired = mu.try_lock(); });
  probe.join();
  EXPECT_FALSE(acquired);  // still held: the deferred dtor didn't release
  mu.unlock();
}

TEST(MutexLock, AdoptLockTakesOverAHeldMutex) {
  Mutex mu;
  mu.lock();
  {
    MutexLock lock(mu, std::adopt_lock);
    EXPECT_TRUE(lock.owns_lock());
  }  // adopting lock releases on destruction, like std::unique_lock
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(MutexLock, TryToLockReportsContention) {
  Mutex mu;
  {
    MutexLock lock(mu, std::try_to_lock);
    EXPECT_TRUE(lock.owns_lock());  // uncontended: acquired
    bool contended_owns = true;
    std::thread probe([&] {
      MutexLock contended(mu, std::try_to_lock);
      contended_owns = contended.owns_lock();
    });
    probe.join();
    EXPECT_FALSE(contended_owns);  // contended: constructed unlocked
  }
}

TEST(MutexLock, MidScopeUnlockAndRelock) {
  // The farm's pattern: drop the lock around a slow operation,
  // retake it after. The destructor must cope with every exit state.
  Mutex mu;
  MutexLock lock(mu);
  lock.unlock();
  EXPECT_TRUE(mu.try_lock());  // genuinely released mid-scope
  mu.unlock();
  lock.lock();
  EXPECT_TRUE(lock.owns_lock());
}

TEST(MutexLock, NativeHandleDrivesConditionVariable) {
  // cv waits go through MutexLock::native() (std::condition_variable needs
  // the underlying std::unique_lock); the wait must atomically release and
  // reacquire exactly like a plain unique_lock wait.
  Mutex mu;
  std::condition_variable cv;
  bool ready = false;
  std::thread signaller([&] {
    MutexLock lock(mu);
    ready = true;
    cv.notify_one();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.wait(lock.native());
    EXPECT_TRUE(ready);
    EXPECT_TRUE(lock.owns_lock());  // reacquired on wakeup
  }
  signaller.join();
}

TEST(MutexWrapper, ExcludesConcurrentCriticalSections) {
  // Mutual exclusion smoke test: racing unprotected ++ on a plain int from
  // many threads must still total exactly N when every increment holds the
  // wrapper lock.
  Mutex mu;
  int counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(SharedMutexWrapper, ReadersShareWritersExclude) {
  SharedMutex mu;
  {
    ReaderLock r1(mu);
    // A second reader enters while the first holds shared — std
    // shared_mutex semantics (probe from another thread to avoid
    // same-thread recursion UB).
    bool second_reader = false;
    std::thread probe1([&] {
      second_reader = mu.try_lock_shared();
      if (second_reader) mu.unlock_shared();
    });
    probe1.join();
    EXPECT_TRUE(second_reader);
    // A writer cannot.
    bool writer = true;
    std::thread probe2([&] { writer = mu.try_lock(); });
    probe2.join();
    EXPECT_FALSE(writer);
  }
  {
    WriterLock w(mu);
    // The writer excludes readers and other writers.
    bool reader = true;
    bool writer = true;
    std::thread probe([&] {
      reader = mu.try_lock_shared();
      writer = mu.try_lock();
    });
    probe.join();
    EXPECT_FALSE(reader);
    EXPECT_FALSE(writer);
  }
  // Fully released after both scopes.
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(SharedMutexWrapper, WriterSeesAllReaderSideEffects) {
  // Reader/writer coherence under churn: writers bump two counters under
  // the writer lock; readers assert they never observe a torn pair.
  SharedMutex mu;
  long a = 0;
  long b = 0;
  std::atomic<bool> torn{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  readers.reserve(4);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ReaderLock lock(mu);
        if (a != b) torn.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 5000; ++i) {
    WriterLock lock(mu);
    ++a;
    ++b;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(a, 5000);
  EXPECT_EQ(b, a);
}

TEST(Annotations, MacrosCompileToNothingWhereUnsupported) {
  // The macro layer must be inert text on non-Clang compilers (and valid
  // attributes on Clang): a function using the full macro set both
  // compiles and runs. The lambda-free helper below exercises REQUIRES
  // via a real acquire.
  struct Guarded {
    Mutex mu;
    int value MELOPPR_GUARDED_BY(mu) = 0;
    void bump() MELOPPR_EXCLUDES(mu) {
      MutexLock lock(mu);
      ++value;
    }
    int read() MELOPPR_EXCLUDES(mu) {
      MutexLock lock(mu);
      return value;
    }
  };
  Guarded g;
  g.bump();
  g.bump();
  EXPECT_EQ(g.read(), 2);
}

}  // namespace
}  // namespace meloppr::util
