#pragma once
// Shared pieces of the fpbench harness: run options, the sampling loop
// and small JSON helpers. Each in-process workload (bisect.cpp, place.cpp)
// prints one JSON line of raw per-sample records; perfbench/run.py turns
// those into the end-to-end and per-layer metrics.

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string dir;  ///< directory holding the generated inputs
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< trace: spans are written here at the end
  int threads = 1;         ///< concurrent sample workers
  int min_samples = 30;    ///< samples that always run, even past `seconds`
};

/// Seed of sample i: a fixed list drawn from the workload seed, so the
/// same seed replays the same starts.
std::uint64_t sample_seed(std::uint64_t workload_seed, std::int64_t i);

/// Runs body(i, worker) for i = 0, 1, ... on options.threads workers.
/// Sample i starts only while fewer than min_samples have started or less
/// than options.seconds have elapsed, so the samples run are exactly
/// 0..n-1; returns n. Exceptions from `body` are rethrown after all
/// workers have joined.
std::int64_t run_samples(const RunOptions& options, std::int64_t cap,
                         const std::function<void(std::int64_t, int)>& body);

int run_bisect(const RunOptions& options);
int run_place(const RunOptions& options);

std::string json_string(const std::string& text);

/// Full-precision number formatting for the JSON the harness prints.
inline std::string num(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

}  // namespace perfbench
