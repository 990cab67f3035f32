// Spans recorded by the traced run, around calls into the layers' public
// functions.  Each client thread owns one preallocated buffer; spans are
// aggregated and written out after the run ends.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// The first four names match OpKind: the public call of that op.
enum SpanName : uint8_t {
  kSpanPred,
  kSpanContains,
  kSpanInsert,
  kSpanErase,
  kSpanDecomposed,  // pin -> trie().pred_start -> engine().descend -> unpin
  kSpanEbrPin,      // child of kSpanDecomposed: Guard construction
  kSpanPredStart,   // child of kSpanDecomposed
  kSpanDescend,     // child of kSpanDecomposed
  kSpanEbrUnpin,    // child of kSpanDecomposed: Guard destruction
  kSpanFingered,    // engine().fingered_descend, trie start callback
  kSpanHashLookup,  // trie().map().lookup at the landing prefix length
  kSpanEmptyOp,     // Guard + tls_counters + finger() + cursor()
  kSpanNames
};

const char* span_name(SpanName n);

inline constexpr uint32_t kNoParent = ~0u;

struct Span {
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t request;
  uint32_t parent;  // index in the same buffer, or kNoParent
  SpanName name;
};

class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity) : spans_(capacity) {}

  bool room(size_t n) const { return spans_.size() - size_ >= n; }
  // Returns the new span's index.  The caller checks room() first.
  uint32_t add(SpanName name, uint32_t request, uint32_t parent,
               uint64_t start_ns, uint64_t end_ns) {
    spans_[size_] = Span{start_ns, end_ns, request, parent, name};
    return static_cast<uint32_t>(size_++);
  }
  size_t size() const { return size_; }
  const Span& operator[](size_t i) const { return spans_[i]; }

 private:
  std::vector<Span> spans_;
  size_t size_ = 0;
};

struct SpanStats {
  uint64_t count = 0;
  double total_ns = 0;  // sum of durations
  double self_ns = 0;   // sum of durations minus the child spans they cover

  double mean_ns() const { return count ? total_ns / count : 0.0; }
  double mean_self_ns() const { return count ? self_ns / count : 0.0; }
};

std::array<SpanStats, kSpanNames> aggregate(
    const std::vector<const SpanBuffer*>& buffers);

// CSV of at most `max_rows_per_buffer` spans of each buffer (buffer index
// as the client column).  Returns false when the file cannot be written.
bool write_spans_csv(const std::string& path,
                     const std::vector<const SpanBuffer*>& buffers,
                     size_t max_rows_per_buffer);

}  // namespace perfbench
