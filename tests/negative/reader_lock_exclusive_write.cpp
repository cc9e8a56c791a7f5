// MUST NOT COMPILE under -Wthread-safety -Werror=thread-safety-analysis:
// writes a field guarded by a SharedMutex while holding only the SHARED
// (reader) side. This is the bug class DynamicGraph's readers must avoid:
// extraction and degree queries run under ReaderLock, while applying an
// edge update needs the WriterLock.
#include "util/thread_annotations.hpp"

namespace {

struct Scores {
  meloppr::util::SharedMutex mu;
  double total MELOPPR_GUARDED_BY(mu) = 0.0;
};

double read_ok_write_bad(Scores& s) {
  meloppr::util::ReaderLock lock(s.mu);
  s.total += 1.0;  // error: writing requires exclusive (writer) hold
  return s.total;  // reading under the shared hold alone is legal
}

}  // namespace

int main() {
  Scores s;
  return read_ok_write_bad(s) > 0.0 ? 0 : 1;
}
