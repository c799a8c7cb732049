// place_topdown: the paper's motivating application. A fixed, seeded list
// of ~10k-cell IBM-like circuits (built like examples/topdown_placer
// builds them) is read from .fpb plus a pad-location file; a sample is one
// placement of circuit i mod K by place::TopDownPlacer with 8 levels and
// the example's 25 % FM pass cutoff, seeded from the fixed sample list.
//
// The traced run attaches an obs::PassObserver through
// PlacerConfig::ml.refine.observer and reads PlacementResult::levels. Each
// sample places the circuit twice, with and without the observer
// (alternating which goes first); the two HPWLs must be identical.

#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "hg/io_bookshelf.hpp"
#include "obs/pass_observer.hpp"
#include "place/hpwl.hpp"
#include "place/placer.hpp"
#include "spans.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using namespace fixedpart;

constexpr std::int64_t kMaxSamples = 4096;
constexpr int kLevels = 8;
constexpr double kPassCutoff = 0.25;

struct Sample {
  std::uint64_t seed = 0;
  std::int64_t circuit = 0;
  std::string error;
  double setup_s = 0.0;
  double solve_s = 0.0;
  double traced_solve_s = 0.0;
  double hpwl = 0.0;
  std::int64_t cells = 0;
};

/// Die size and pad coordinates written next to each circuit's .fpb.
struct PadFile {
  double width = 0.0;
  double height = 0.0;
  std::vector<double> x;
  std::vector<double> y;
};

PadFile read_pads(const std::string& path, hg::VertexId num_vertices) {
  std::ifstream in(path);
  PadFile pads;
  if (!(in >> pads.width >> pads.height)) {
    throw std::runtime_error("bad pad file " + path);
  }
  pads.x.assign(static_cast<std::size_t>(num_vertices), 0.0);
  pads.y.assign(static_cast<std::size_t>(num_vertices), 0.0);
  hg::VertexId v = 0;
  double x = 0.0;
  double y = 0.0;
  while (in >> v >> x >> y) {
    if (v < 0 || v >= num_vertices) {
      throw std::runtime_error("pad id out of range in " + path);
    }
    pads.x[static_cast<std::size_t>(v)] = x;
    pads.y[static_cast<std::size_t>(v)] = y;
  }
  return pads;
}

std::string check_placement(const hg::Hypergraph& g, const PadFile& pads,
                            const place::PlacementResult& result) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  if (result.x.size() != n || result.y.size() != n) {
    return "placement has the wrong length";
  }
  for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (g.is_pad(v)) {
      if (result.x[i] != pads.x[i] || result.y[i] != pads.y[i]) {
        return "pad " + std::to_string(v) + " moved";
      }
    } else if (!(result.x[i] >= 0.0 && result.x[i] <= pads.width &&
                 result.y[i] >= 0.0 && result.y[i] <= pads.height)) {
      return "cell " + std::to_string(v) + " outside the die";
    }
  }
  const double hpwl = place::half_perimeter_wirelength(g, result.x, result.y);
  if (hpwl != result.hpwl) {
    return "reported HPWL " + num(result.hpwl) + " != recomputed " + num(hpwl);
  }
  return "";
}

/// Times every FM pass the placer's partition calls make.
class PassTimer : public obs::PassObserver {
 public:
  struct Pass {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t performed;
    std::int64_t kept;
  };

  void on_pass_begin(const obs::PassBegin&) override { begin_ns_ = now_ns(); }
  void on_pass_end(const obs::PassEnd& end) override {
    passes.push_back({begin_ns_, now_ns(), end.moves_performed,
                      end.best_prefix});
  }

  std::vector<Pass> passes;

 private:
  std::int64_t begin_ns_ = 0;
};

/// Turns one traced placement into spans: the solve root, one span per
/// placement level (laid end to end from the run's start, as the placer
/// runs its levels in order) and each FM pass under the level it started
/// in.
void record_placement(SpanLog& log, std::int64_t start_ns,
                      std::int64_t end_ns,
                      const place::PlacementResult& result,
                      const PassTimer& timer) {
  const std::int64_t root = log.add("bench.solve", 0, start_ns, end_ns);
  std::vector<std::int64_t> level_ids;
  std::vector<std::int64_t> level_ends;
  std::int64_t cursor = start_ns;
  for (std::size_t level = 0; level < result.levels.size(); ++level) {
    const auto length =
        static_cast<std::int64_t>(result.levels[level].seconds * 1e9);
    level_ids.push_back(log.add("place.level", root, cursor, cursor + length,
                                {{"level", static_cast<std::int64_t>(level)}}));
    cursor += length;
    level_ends.push_back(cursor);
  }
  std::size_t level = 0;
  for (const PassTimer::Pass& pass : timer.passes) {
    while (level + 1 < level_ends.size() && pass.start_ns >= level_ends[level]) {
      ++level;
    }
    log.add("part.fm_pass", level_ids.empty() ? root : level_ids[level],
            pass.start_ns, pass.end_ns,
            {{"level", static_cast<std::int64_t>(level)},
             {"performed", pass.performed},
             {"kept", pass.kept}});
  }
}

}  // namespace

int run_place(const RunOptions& options) {
  std::vector<std::string> stems;
  {
    std::ifstream list(options.dir + "/circuits.txt");
    for (std::string stem; list >> stem;) stems.push_back(options.dir + "/" + stem);
  }
  if (stems.empty()) throw std::runtime_error("no circuits in " + options.dir);

  std::vector<Sample> samples(static_cast<std::size_t>(kMaxSamples));
  std::vector<SpanLog> logs;
  for (int w = 0; w < options.threads; ++w) logs.emplace_back(w + 1);

  const std::int64_t count = run_samples(
      options, kMaxSamples, [&](std::int64_t i, int worker) {
        Sample& sample = samples[static_cast<std::size_t>(i)];
        sample.seed = sample_seed(options.seed, i);
        sample.circuit = i % static_cast<std::int64_t>(stems.size());
        const std::string& stem = stems[static_cast<std::size_t>(sample.circuit)];
        SpanLog& log = logs[static_cast<std::size_t>(worker)];
        log.set_sample(i);
        try {
          std::optional<SpanLog::Scope> setup_span;
          if (options.trace) setup_span.emplace(log, "bench.setup");
          const util::Timer setup_timer;
          const hg::BenchmarkInstance instance = [&] {
            std::optional<SpanLog::Scope> load_span;
            if (options.trace) load_span.emplace(log, "hg.load");
            return hg::read_fpb_file(stem + ".fpb");
          }();
          PadFile pads = read_pads(stem + ".pads", instance.graph.num_vertices());
          place::PlacementProblem problem;
          problem.graph = &instance.graph;
          problem.width = pads.width;
          problem.height = pads.height;
          problem.pad_x = pads.x;
          problem.pad_y = pads.y;
          const place::TopDownPlacer placer(problem);
          sample.setup_s = setup_timer.seconds();
          setup_span.reset();
          sample.cells = instance.graph.num_vertices() - instance.graph.num_pads();

          place::PlacerConfig config;
          config.max_levels = kLevels;
          config.ml.refine.pass_cutoff = kPassCutoff;
          const auto untraced = [&] {
            util::Rng rng(sample.seed);
            const util::Timer timer;
            const place::PlacementResult result = placer.run(config, rng);
            sample.solve_s = timer.seconds();
            sample.hpwl = result.hpwl;
            sample.error = check_placement(instance.graph, pads, result);
          };
          if (!options.trace) {
            untraced();
            return;
          }
          double traced_hpwl = 0.0;
          const auto traced = [&] {
            PassTimer timer;
            place::PlacerConfig traced_config = config;
            traced_config.ml.refine.observer = &timer;
            util::Rng rng(sample.seed);
            const std::int64_t start = now_ns();
            const place::PlacementResult result = placer.run(traced_config, rng);
            const std::int64_t end = now_ns();
            sample.traced_solve_s = static_cast<double>(end - start) * 1e-9;
            traced_hpwl = result.hpwl;
            record_placement(log, start, end, result, timer);
          };
          if (i % 2 == 0) {
            untraced();
            traced();
          } else {
            traced();
            untraced();
          }
          if (sample.error.empty() && traced_hpwl != sample.hpwl) {
            sample.error = "observed placement diverged: HPWL " +
                           num(traced_hpwl) + " vs " + num(sample.hpwl);
          }
        } catch (const std::exception& error) {
          sample.error = std::string("exception: ") + error.what();
        }
      });

  if (options.trace) write_spans(options.spans_path, logs);
  std::cout << "{\"workload\": \"place_topdown\", \"threads\": "
            << options.threads << ", \"peak_rss_kb\": " << util::peak_rss_kb()
            << ", \"samples\": [";
  for (std::int64_t i = 0; i < count; ++i) {
    const Sample& s = samples[static_cast<std::size_t>(i)];
    std::cout << (i ? ", " : "") << "{\"seed\": " << s.seed
              << ", \"circuit\": " << s.circuit
              << ", \"error\": " << json_string(s.error)
              << ", \"setup_s\": " << num(s.setup_s)
              << ", \"solve_s\": " << num(s.solve_s)
              << ", \"traced_solve_s\": " << num(s.traced_solve_s)
              << ", \"hpwl\": " << num(s.hpwl) << ", \"cells\": " << s.cells
              << "}";
  }
  std::cout << "]}" << std::endl;
  return 0;
}

}  // namespace perfbench
