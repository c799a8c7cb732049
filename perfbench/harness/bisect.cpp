// bisect_large: 100k-cell streamed Rent-rule circuits (the bench_large
// family: no fixed vertices, 10 % relative tolerance), reloaded from .fpbin
// for every sample. A sample is one serial MultilevelPartitioner::run of
// circuit i mod kCircuits with the library-default configuration (LIFO FM)
// and the next start seed of the fixed list. Rotating over several
// circuits keeps one unusually easy or hard instance from setting a run's
// medians.
//
// The traced run times every layer call by re-driving run()'s serial
// sequence through the libraries' public functions: heavy_edge_matching
// and contract per level, random_feasible_assignment plus refine on the
// coarsest graph, then projection plus refine per level on the way up.
// Each sample runs both run() and the re-drive (alternating which goes
// first); they must agree on cut, moves and passes, or the sample fails.

#include <algorithm>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <vector>

#include "harness.hpp"
#include "hg/io_binary.hpp"
#include "ml/coarsen.hpp"
#include "ml/matching.hpp"
#include "ml/multilevel.hpp"
#include "part/balance.hpp"
#include "part/fm.hpp"
#include "part/initial.hpp"
#include "part/partition.hpp"
#include "spans.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using namespace fixedpart;

constexpr double kTolerancePct = 10.0;  // bench_large's balance window
constexpr std::int64_t kCircuits = 4;  // files circuit0..3.fpbin
constexpr std::int64_t kMaxSamples = 4096;

struct Sample {
  std::uint64_t seed = 0;
  std::int64_t circuit = 0;
  std::string error;  ///< empty = every check passed
  double setup_s = 0.0;
  double solve_s = 0.0;
  double traced_solve_s = 0.0;  ///< trace: the re-drive's wall time
  hg::Weight cut = 0;
  std::int64_t moves = 0;
  std::int32_t passes = 0;
  std::int64_t pins = 0;
};

/// Checks a result against its instance; returns "" or what is wrong.
std::string check_result(const hg::Hypergraph& g,
                         const hg::FixedAssignment& fixed,
                         const part::BalanceConstraint& balance,
                         const ml::MultilevelResult& result) {
  if (result.truncated) return "truncated";
  if (result.assignment.size() != static_cast<std::size_t>(g.num_vertices())) {
    return "assignment has the wrong length";
  }
  part::PartitionState state(g, 2);
  for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
    const hg::PartitionId p = result.assignment[static_cast<std::size_t>(v)];
    if (p != 0 && p != 1) return "vertex assigned outside {0, 1}";
    state.assign(v, p);
  }
  try {
    part::check_respects_fixed(state, fixed);
  } catch (const std::logic_error& error) {
    return error.what();
  }
  if (!balance.satisfied(state.part_weights())) return "balance violated";
  if (state.cut() != result.cut) {
    return "reported cut " + std::to_string(result.cut) + " != recomputed " +
           std::to_string(state.cut());
  }
  return "";
}

hg::VertexId movable_count(const hg::Hypergraph& g,
                           const hg::FixedAssignment& fixed) {
  hg::VertexId n = 0;
  for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
    n += fixed.allowed_mask(v) == fixed.full_mask();
  }
  return n;
}

struct Effort {
  std::int64_t moves = 0;
  std::int64_t passes = 0;
  std::int64_t performed = 0;
  std::int64_t kept = 0;

  void add(const part::FmResult& fm) {
    moves += fm.total_moves;
    passes += fm.passes;
    for (const part::PassRecord& pass : fm.pass_records) {
      performed += pass.moves_performed;
      kept += pass.best_prefix;
    }
  }
  void attach(SpanLog::Scope& span) const {
    span.arg("moves", moves)
        .arg("passes", passes)
        .arg("performed", performed)
        .arg("kept", kept);
  }
};

struct Redrive {
  hg::Weight cut = 0;
  std::int64_t moves = 0;
  std::int32_t passes = 0;
};

/// MultilevelPartitioner::run's serial path (threads == 1, no V-cycles,
/// no deadline, no preflight) through public functions, one span per
/// layer call. Consumes `rng` exactly as run() does.
Redrive redrive(const hg::Hypergraph& graph, const hg::FixedAssignment& fixed,
                const part::BalanceConstraint& balance, util::Rng& rng,
                const ml::MultilevelConfig& config, SpanLog& log) {
  Redrive out;
  part::FmScratch scratch;
  ml::CoarsenScratch coarsen_scratch;
  std::vector<ml::CoarseLevel> levels;
  const hg::Hypergraph* g = &graph;
  const hg::FixedAssignment* f = &fixed;
  while (movable_count(*g, *f) > config.coarsest_size) {
    const auto index = static_cast<std::int64_t>(levels.size());
    std::vector<hg::VertexId> match;
    {
      SpanLog::Scope span(log, "ml.match");
      span.arg("level", index);
      match = ml::heavy_edge_matching(*g, *f, config.matching, rng);
    }
    ml::CoarseLevel level;
    {
      SpanLog::Scope span(log, "ml.contract");
      level = ml::contract(*g, *f, match, &coarsen_scratch);
      span.arg("level", index)
          .arg("fine_vertices", g->num_vertices())
          .arg("coarse_vertices", level.graph.num_vertices());
    }
    if (static_cast<double>(level.graph.num_vertices()) >
        config.stagnation_ratio * static_cast<double>(g->num_vertices())) {
      break;
    }
    levels.push_back(std::move(level));
    g = &levels.back().graph;
    f = &levels.back().fixed;
  }

  part::PartitionState state(*g, 2);
  part::FmBipartitioner coarse_fm(*g, *f, balance, &scratch);
  std::vector<hg::PartitionId> assignment;
  hg::Weight best_cut = 0;
  {
    SpanLog::Scope span(log, "part.initial");
    Effort effort;
    for (int s = 0; s < std::max(1, config.coarse_starts); ++s) {
      part::random_feasible_assignment(state, *f, balance, rng,
                                       /*require_feasible=*/false);
      effort.add(coarse_fm.refine(state, rng, config.refine));
      if (assignment.empty() || state.cut() < best_cut) {
        best_cut = state.cut();
        assignment.assign(state.assignment().begin(),
                          state.assignment().end());
      }
    }
    span.arg("level", static_cast<std::int64_t>(levels.size()));
    effort.attach(span);
    out.moves += effort.moves;
    out.passes += static_cast<std::int32_t>(effort.passes);
  }

  out.cut = best_cut;
  std::optional<part::PartitionState> finer;
  for (std::size_t i = levels.size(); i-- > 0;) {
    const hg::Hypergraph& fine_graph = i == 0 ? graph : levels[i - 1].graph;
    const hg::FixedAssignment& fine_fixed = i == 0 ? fixed : levels[i - 1].fixed;
    {
      SpanLog::Scope span(log, "ml.project");
      span.arg("level", static_cast<std::int64_t>(i));
      if (finer) {
        assignment.assign(finer->assignment().begin(),
                          finer->assignment().end());
      }
      finer.emplace(fine_graph, 2);
      for (hg::VertexId v = 0; v < fine_graph.num_vertices(); ++v) {
        finer->assign(v, assignment[static_cast<std::size_t>(levels[i].map[v])]);
      }
    }
    {
      SpanLog::Scope span(log, "part.refine");
      part::FmBipartitioner fm(fine_graph, fine_fixed, balance, &scratch);
      Effort effort;
      effort.add(fm.refine(*finer, rng, config.refine));
      span.arg("level", static_cast<std::int64_t>(i));
      effort.attach(span);
      out.moves += effort.moves;
      out.passes += static_cast<std::int32_t>(effort.passes);
    }
    out.cut = finer->cut();
  }
  return out;
}

}  // namespace

int run_bisect(const RunOptions& options) {
  const ml::MultilevelConfig config;  // library defaults: serial, LIFO FM
  std::vector<Sample> samples(static_cast<std::size_t>(kMaxSamples));
  std::vector<SpanLog> logs;
  for (int w = 0; w < options.threads; ++w) logs.emplace_back(w + 1);

  const std::int64_t count = run_samples(
      options, kMaxSamples, [&](std::int64_t i, int worker) {
        Sample& sample = samples[static_cast<std::size_t>(i)];
        sample.seed = sample_seed(options.seed, i);
        sample.circuit = i % kCircuits;
        const std::string path = options.dir + "/circuit" +
                                 std::to_string(sample.circuit) + ".fpbin";
        SpanLog& log = logs[static_cast<std::size_t>(worker)];
        log.set_sample(i);
        try {
          std::optional<SpanLog::Scope> setup_span;
          if (options.trace) setup_span.emplace(log, "bench.setup");
          const util::Timer setup_timer;
          hg::BinaryInstance instance = [&] {
            std::optional<SpanLog::Scope> load_span;
            if (options.trace) load_span.emplace(log, "hg.load");
            return hg::read_fpbin_file(path);
          }();
          const auto balance =
              part::BalanceConstraint::relative(instance.graph, 2,
                                                kTolerancePct);
          const ml::MultilevelPartitioner partitioner(instance.graph,
                                                      instance.fixed, balance);
          sample.setup_s = setup_timer.seconds();
          setup_span.reset();
          sample.pins = instance.graph.num_pins();

          const auto untraced = [&] {
            util::Rng rng(sample.seed);
            const util::Timer timer;
            const ml::MultilevelResult result = partitioner.run(rng, config);
            sample.solve_s = timer.seconds();
            sample.cut = result.cut;
            sample.moves = result.total_moves;
            sample.passes = result.total_passes;
            sample.error = check_result(instance.graph, instance.fixed,
                                        balance, result);
          };
          if (!options.trace) {
            untraced();
            return;
          }
          Redrive traced;
          const auto traced_run = [&] {
            util::Rng rng(sample.seed);
            SpanLog::Scope span(log, "bench.solve");
            const util::Timer timer;
            traced = redrive(instance.graph, instance.fixed, balance, rng,
                             config, log);
            sample.traced_solve_s = timer.seconds();
          };
          if (i % 2 == 0) {
            untraced();
            traced_run();
          } else {
            traced_run();
            untraced();
          }
          if (sample.error.empty() &&
              (traced.cut != sample.cut || traced.moves != sample.moves ||
               traced.passes != sample.passes)) {
            sample.error = "re-drive diverged from run(): cut " +
                           std::to_string(traced.cut) + " vs " +
                           std::to_string(sample.cut) + ", moves " +
                           std::to_string(traced.moves) + " vs " +
                           std::to_string(sample.moves);
          }
        } catch (const std::exception& error) {
          sample.error = std::string("exception: ") + error.what();
        }
      });

  if (options.trace) write_spans(options.spans_path, logs);
  std::cout << "{\"workload\": \"bisect_large\", \"threads\": "
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
              << ", \"cut\": " << s.cut << ", \"moves\": " << s.moves
              << ", \"passes\": " << s.passes << ", \"pins\": " << s.pins
              << "}";
  }
  std::cout << "]}" << std::endl;
  return 0;
}

}  // namespace perfbench
