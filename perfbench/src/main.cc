// perfbench: the repository benchmark program.
//
//   perfbench --workload <hub|sparse> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--trace-out <file>]
//
// Each workload has a static part (Decompose() of a stand-in graph) and a
// serving part (a BitrussService over another stand-in, fed a seeded
// update stream).  --trace 0 measures the end-to-end metrics; --trace 1
// times each layer's public calls separately, records spans, checks the
// workload's premises and writes the spans to --trace-out.  Inputs depend
// only on the workload and the seed.  The exit code is 0 only if every
// correctness check passed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/decompose.h"
#include "parts.h"
#include "stats.h"

namespace perfbench {
namespace {

/// Set-up is repeated for at least kSetupSeconds (and kMinSetupRepeats
/// times): a set-up of the hub graphs takes ~15 ms, too short to time
/// steadily once.
constexpr double kSetupSeconds = 2.0;
constexpr int kMinSetupRepeats = 7;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->work_dir.empty() && args->seconds > 0;
}

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024;
    }
  }
  return 0;
}

struct SetupTimes {
  double setup_s = 0;      ///< median
  double csr_s = 0;        ///< median
  std::size_t repeats = 0;
};

/// Builds both graphs and constructs the service repeatedly; keeps the
/// last graphs.
SetupTimes MeasureSetup(const Inputs& in, RunContext& ctx,
                        bitruss::BipartiteGraph* static_graph,
                        bitruss::BipartiteGraph* serve_graph) {
  std::vector<double> setup_s;
  std::vector<double> csr_s;
  const Clock::time_point start = Clock::now();
  for (int i = 0;
       i < kMinSetupRepeats || SecondsSince(start) < kSetupSeconds; ++i) {
    const std::string dir = ctx.work_dir + "/setup-" + std::to_string(i);
    const Clock::time_point t0 = Clock::now();
    *static_graph = BuildGraph(in.static_edges);
    *serve_graph = BuildGraph(in.serve_edges);
    csr_s.push_back(SecondsSince(t0));
    bitruss::BitrussService service(*serve_graph, ServiceOptions(dir));
    setup_s.push_back(SecondsSince(t0));
    service.Shutdown(false);
    std::filesystem::remove_all(dir);
  }
  return {Median(setup_s), Median(csr_s), setup_s.size()};
}

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Report report;
  SpanRecorder spans;
  RunContext ctx;
  ctx.spec = spec;
  ctx.seconds = args.seconds;
  ctx.work_dir = args.work_dir;
  ctx.report = &report;
  ctx.spans = args.trace ? &spans : nullptr;
  std::filesystem::create_directories(ctx.work_dir);

  const Inputs in = MakeInputs(*spec, args.seed, args.seconds);
  ReleaseFreeHeap();
  char line[320];
  std::snprintf(line, sizeof(line),
                "workload %s seed %llu seconds %g trace %d: static %s "
                "(%zu edges), serve %s (%zu edges), %zu burst + %zu paced "
                "updates at %g/s (%g of the measured capacity, %g/s)",
                spec->name, static_cast<unsigned long long>(args.seed),
                args.seconds, args.trace ? 1 : 0, spec->static_graph.name,
                in.static_edges.edges.size(), spec->serve_graph.name,
                in.serve_edges.edges.size(), in.burst, in.paced,
                in.paced_rate, kPacedLoad, spec->measured_capacity);
  report.Line(line);

  bitruss::BipartiteGraph static_graph;
  bitruss::BipartiteGraph serve_graph;
  const SetupTimes setup = MeasureSetup(in, ctx, &static_graph, &serve_graph);
  // Warm-up: the serving path's first burst in a fresh process runs far
  // slower than later ones.
  const std::uint64_t serve_butterflies =
      bitruss::Decompose(serve_graph).total_butterflies;
  std::snprintf(line, sizeof(line), "serve graph: %llu butterflies",
                static_cast<unsigned long long>(serve_butterflies));
  report.Line(line);
  WarmUpServe(serve_graph, in, ctx);
  ReleaseFreeHeap();

  if (!args.trace) {
    report.Metric("setup_s", setup.setup_s, "s", setup.repeats);
    RunStatic(static_graph, ctx);
    RunServe(serve_graph, in, ctx);
    report.Metric("peak_rss_mb", PeakRssMiB(), "MiB", 1);
  } else {
    report.Metric("graph.csr_build_s", setup.csr_s, "s", setup.repeats);
    const StaticShares shares = RunStaticTraced(static_graph, ctx);
    const double replay_share = RunServeTraced(serve_graph, in, ctx);
    // Each workload's premise: which layers carry its time.
    const bool hub = std::string(spec->name) == "hub";
    const auto premise = [&](bool holds, const char* what, double value) {
      std::snprintf(line, sizeof(line), "premise %s: %s (measured %.3f)",
                    holds ? "holds" : "FAILS", what, value);
      report.Line(line);
    };
    if (hub) {
      premise(shares.peel > 0.9, "peel > 90% of the traced BU++ pipeline",
              shares.peel);
      premise(replay_share > 0.8,
              "IncrementalBitruss replay (local repair + fallback) > 80% of "
              "the service's burst time",
              replay_share);
    } else {
      premise(shares.prep > 0.8,
              "priority + counting + index build > 80% of the traced BU++ "
              "pipeline",
              shares.prep);
      premise(replay_share < 1.0 / 3,
              "IncrementalBitruss replays the burst >= 3x faster than the "
              "service drains it (replay share < 1/3)",
              replay_share);
    }
    for (const auto& [name, self_s] : SelfTimeByName(spans.spans())) {
      std::snprintf(line, sizeof(line), "self   %-34s %.6f s", name.c_str(),
                    self_s);
      report.Line(line);
    }
    if (!args.trace_out.empty()) {
      std::ofstream(args.trace_out) << spans.ToJson();
    }
  }
  report.Finish();
  return report.Correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir> [--trace-out <file>]\n");
    return 2;
  }
  try {
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
