#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const char* span_name(SpanName n) {
  static const char* const kNames[kSpanNames] = {
      "core.pred",         "core.lookup",    "core.insert",
      "core.erase",        "core.decomposed_pred",
      "reclaim.ebr_pin",   "xfast.pred_start",
      "skiplist.descend",  "reclaim.ebr_unpin",
      "skiplist.fingered_descend",
      "hash.lookup",       "core.empty_op",
  };
  return n < kSpanNames ? kNames[n] : "?";
}

std::array<SpanStats, kSpanNames> aggregate(
    const std::vector<const SpanBuffer*>& buffers) {
  std::array<SpanStats, kSpanNames> out{};
  std::vector<double> covered;
  for (const SpanBuffer* b : buffers) {
    // Children of one parent run one after another on the parent's thread,
    // so the part of the parent they cover is the sum of their durations.
    covered.assign(b->size(), 0.0);
    for (size_t i = 0; i < b->size(); ++i) {
      const Span& s = (*b)[i];
      if (s.parent != kNoParent) {
        covered[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (size_t i = 0; i < b->size(); ++i) {
      const Span& s = (*b)[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      SpanStats& st = out[s.name];
      st.count++;
      st.total_ns += dur;
      st.self_ns += std::max(0.0, dur - covered[i]);
    }
  }
  return out;
}

bool write_spans_csv(const std::string& path,
                     const std::vector<const SpanBuffer*>& buffers,
                     size_t max_rows_per_buffer) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "client,request,span,parent_span,start_ns,end_ns\n");
  for (size_t c = 0; c < buffers.size(); ++c) {
    const SpanBuffer& b = *buffers[c];
    const size_t n = std::min(b.size(), max_rows_per_buffer);
    for (size_t i = 0; i < n; ++i) {
      const Span& s = b[i];
      std::fprintf(f, "%zu,%u,%s,%s,%llu,%llu\n", c, s.request,
                   span_name(s.name),
                   s.parent == kNoParent ? "" : span_name(b[s.parent].name),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
