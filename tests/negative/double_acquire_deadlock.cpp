// MUST NOT COMPILE under -Wthread-safety -Werror=thread-safety-analysis:
// acquires the same (non-recursive) mutex twice on one path — a
// guaranteed self-deadlock at runtime, caught at compile time — and calls
// a MELOPPR_EXCLUDES function while holding the lock it excludes (the
// contract of any release() that retakes its own lock).
#include "util/thread_annotations.hpp"

namespace {

struct Pool {
  meloppr::util::Mutex mu;
  int free_slots MELOPPR_GUARDED_BY(mu) = 0;

  void release() MELOPPR_EXCLUDES(mu) {
    meloppr::util::MutexLock lock(mu);
    ++free_slots;
  }
};

void deadlock(Pool& p) {
  meloppr::util::MutexLock outer(p.mu);
  meloppr::util::MutexLock inner(p.mu);  // error: 'mu' already held
  p.release();  // error: calling excludes-'mu' function while holding it
}

}  // namespace

int main() {
  Pool p;
  deadlock(p);
  return 0;
}
