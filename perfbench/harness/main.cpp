// fpbench — the benchmark's C++ harness; perfbench/run.py drives it.
//
//   fpbench gen-bisect --seed=S --out=DIR   100k-cell .fpbin circuits
//   fpbench gen-place  --seed=S --out=DIR   ~10k-cell .fpb circuits + pads
//   fpbench gen-serve  --out=DIR            paper-scale IBM-like A-D .fpb blocks
//   fpbench bisect|place --dir=DIR --seed=S --seconds=T [--threads=W]
//           [--min-samples=M] [--trace --spans=FILE]
//   fpbench serve-ref --jobs=FILE [--threads=N]
//
// gen-* write a workload's input files (gen-serve's are the same for every
// seed), and nothing else reaches the program under test. bisect/place run an in-process workload
// and print one JSON line of per-sample records. serve-ref computes, in
// process, the result partitiond must return for each "<file> <seed>" job.

#include <algorithm>
#include <atomic>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "gen/derive.hpp"
#include "gen/netlist_gen.hpp"
#include "gen/stream_gen.hpp"
#include "gen/suite.hpp"
#include "harness.hpp"
#include "hg/io_bookshelf.hpp"
#include "svc/executor.hpp"
#include "util/cli.hpp"
#include "util/deadline.hpp"
#include "util/errors.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using namespace fixedpart;

constexpr hg::VertexId kBisectCells = 100'000;
constexpr int kBisectCircuits = 4;
constexpr int kPlaceCircuits = 16;
constexpr hg::VertexId kPlaceCells = 10'000;
constexpr double kBlockTolerancePct = 2.0;  // the paper's Table IV window

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Generator seed of item `index` of an input family.
std::uint64_t input_seed(std::uint64_t seed, std::uint64_t family,
                         std::uint64_t index) {
  return splitmix64(splitmix64(seed ^ (family << 56)) + index) % 1'000'000'007ULL;
}

void gen_bisect(std::uint64_t seed, const std::string& out) {
  for (int k = 0; k < kBisectCircuits; ++k) {
    gen::stream_circuit_fpbin(
        gen::stream_spec_for_cells(
            kBisectCells, input_seed(seed, 4, static_cast<std::uint64_t>(k))),
        out + "/circuit" + std::to_string(k) + ".fpbin");
  }
}

void gen_place(std::uint64_t seed, const std::string& out) {
  std::ofstream list(out + "/circuits.txt");
  for (int k = 0; k < kPlaceCircuits; ++k) {
    // The circuit family of examples/topdown_placer.
    gen::CircuitSpec spec;
    spec.name = "place" + std::to_string(k);
    spec.num_cells = kPlaceCells;
    spec.num_nets = spec.num_cells + spec.num_cells / 10;
    spec.num_pads = std::max<hg::VertexId>(16, spec.num_cells / 50);
    spec.seed = input_seed(seed, 2, static_cast<std::uint64_t>(k));
    gen::GeneratedCircuit circuit = gen::generate_circuit(spec);

    const std::string stem = out + "/" + spec.name;
    std::ofstream pads(stem + ".pads");
    pads.precision(17);
    pads << circuit.placement.width << " " << circuit.placement.height << "\n";
    for (hg::VertexId v = 0; v < circuit.graph.num_vertices(); ++v) {
      if (!circuit.graph.is_pad(v)) continue;
      pads << v << " " << circuit.placement.x[static_cast<std::size_t>(v)]
           << " " << circuit.placement.y[static_cast<std::size_t>(v)] << "\n";
    }
    if (!pads.flush()) throw util::InputError("cannot write " + stem + ".pads");

    hg::BenchmarkInstance instance;
    instance.names = hg::default_names(circuit.graph.num_vertices());
    instance.fixed = hg::FixedAssignment(circuit.graph.num_vertices(), 2);
    instance.graph = std::move(circuit.graph);
    hg::write_fpb_file(stem + ".fpb", instance);
    list << spec.name << "\n";
  }
  if (!list.flush()) throw util::InputError("cannot write circuits.txt");
}

void gen_serve(const std::string& out) {
  for (int index = 1; index <= 5; ++index) {
    const gen::GeneratedCircuit circuit = gen::generate_circuit(
        gen::ibm_like_spec(index, util::Scale::kPaper));
    for (const gen::DerivedInstance& derived :
         gen::derive_family(circuit, kBlockTolerancePct)) {
      hg::write_fpb_file(out + "/" + derived.name + ".fpb", derived.instance);
    }
  }
}

/// In-process reference results for partitiond jobs: the same JobSpec the
/// daemon builds from an upload plus its `seed` query, without a budget.
void serve_reference(const std::string& jobs_path, int threads) {
  std::vector<svc::JobSpec> specs;
  {
    std::ifstream in(jobs_path);
    std::string path;
    std::uint64_t seed = 0;
    while (in >> path >> seed) {
      svc::JobSpec spec;
      spec.id = "reference";
      spec.instance = path;
      spec.seed = seed;
      specs.push_back(spec);
    }
  }
  std::vector<svc::JobResult> results(specs.size());
  std::vector<std::string> errors(specs.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < specs.size();) {
      try {
        results[i] = svc::run_partition_job(specs[i], util::Deadline());
      } catch (const std::exception& error) {
        errors[i] = error.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& thread : pool) thread.join();

  std::cout << "{\"results\": [";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    std::cout << (i ? ", " : "") << "{\"cut\": " << results[i].cut
              << ", \"moves\": " << results[i].moves
              << ", \"passes\": " << results[i].passes
              << ", \"truncated\": " << (results[i].truncated ? "true" : "false")
              << ", \"error\": " << json_string(errors[i]) << "}";
  }
  std::cout << "]}" << std::endl;
}

int dispatch(const util::Cli& cli) {
  cli.require_known({"seed", "out", "dir", "seconds", "threads", "min-samples",
                     "trace", "spans", "jobs"});
  if (cli.positional().size() != 1) {
    throw util::UsageError(
        "usage: fpbench gen-bisect|gen-place|gen-serve|bisect|place|serve-ref "
        "[--options]");
  }
  const std::string command = cli.positional()[0];
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  if (command.starts_with("gen-")) {
    const std::string out = cli.get_or("out", "");
    if (out.empty()) throw util::UsageError(command + " needs --out=DIR");
    std::filesystem::create_directories(out);
    if (command == "gen-bisect") {
      gen_bisect(seed, out);
    } else if (command == "gen-place") {
      gen_place(seed, out);
    } else if (command == "gen-serve") {
      gen_serve(out);
    } else {
      throw util::UsageError("unknown command " + command);
    }
    return 0;
  }
  if (command == "serve-ref") {
    const std::string jobs = cli.get_or("jobs", "");
    if (jobs.empty()) throw util::UsageError("serve-ref needs --jobs=FILE");
    serve_reference(jobs, static_cast<int>(cli.get_int("threads", 1)));
    return 0;
  }
  RunOptions options;
  options.dir = cli.get_or("dir", "");
  options.seed = seed;
  options.seconds = cli.get_double("seconds", 10.0);
  options.trace = cli.get_bool("trace", false);
  options.spans_path = cli.get_or("spans", "");
  options.threads = static_cast<int>(cli.get_int("threads", 1));
  options.min_samples = static_cast<int>(cli.get_int("min-samples", 30));
  if (options.dir.empty() || options.threads < 1 ||
      (options.trace && options.spans_path.empty())) {
    throw util::UsageError(command + " needs --dir, --threads >= 1, and "
                           "--spans with --trace");
  }
  if (command == "bisect") return run_bisect(options);
  if (command == "place") return run_place(options);
  throw util::UsageError("unknown command " + command);
}

}  // namespace

std::uint64_t sample_seed(std::uint64_t workload_seed, std::int64_t i) {
  return input_seed(workload_seed, 1, static_cast<std::uint64_t>(i));
}

std::int64_t run_samples(const RunOptions& options, std::int64_t cap,
                         const std::function<void(std::int64_t, int)>& body) {
  const util::Timer clock;
  std::mutex mu;
  std::int64_t started = 0;  // guarded by mu
  bool stop = false;         // guarded by mu
  std::exception_ptr failure;
  const auto worker = [&](int w) {
    for (;;) {
      std::int64_t i = 0;
      {
        // Deciding and claiming under one lock keeps the samples run a
        // prefix 0..n-1 whatever the interleaving.
        const std::lock_guard<std::mutex> lock(mu);
        if (stop || started >= cap ||
            (started >= options.min_samples &&
             clock.seconds() >= options.seconds)) {
          stop = true;
          return;
        }
        i = started++;
      }
      try {
        body(i, w);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!failure) failure = std::current_exception();
        stop = true;
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  for (int w = 1; w < options.threads; ++w) pool.emplace_back(worker, w);
  worker(0);
  for (std::thread& thread : pool) thread.join();
  if (failure) std::rethrow_exception(failure);
  return started;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const fixedpart::util::Cli cli(argc, argv);
  return fixedpart::util::run_cli_main(
      "fpbench", [&] { return perfbench::dispatch(cli); });
}
