#pragma once
// The harness's own span recorder for the traced run. A span wraps one
// call from the benchmark into a library layer (hg, ml, part, place); its
// name starts with the layer ("ml.contract"), and "bench." spans mark the
// harness's own roots (one sample's set-up or solve). Spans stay in memory
// and are written once, as JSON lines, when the run ends. The library's
// internal tracing (obs::ScopedSpan) is not used: it is part of what is
// measured, not of the measurement.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = root
  std::int64_t sample = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<std::pair<const char*, std::int64_t>> args;
};

/// One recorder per thread; not thread-safe. `stream` keeps span ids
/// unique across the recorders of one run.
class SpanLog {
 public:
  explicit SpanLog(std::int64_t stream) : next_id_(stream << 32) {}

  /// Closes its span on destruction; arg() attaches integer attributes.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& arg(const char* key, std::int64_t value);

   private:
    SpanLog& log_;
    std::size_t index_;
  };

  void set_sample(std::int64_t sample) { sample_ = sample; }
  /// Records an already-timed span (intervals the library reports after
  /// the fact, such as placement levels).
  std::int64_t add(const char* name, std::int64_t parent, std::int64_t start_ns,
                   std::int64_t end_ns,
                   std::vector<std::pair<const char*, std::int64_t>> args = {});
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::int64_t next_id_;
  std::int64_t sample_ = 0;
};

/// Writes every span of every log as one JSON object per line.
void write_spans(const std::string& path, const std::vector<SpanLog>& logs);

}  // namespace perfbench
