// stsbench: the repository's native end-to-end benchmark.
//
//   stsbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//            [--smoke] [--work-dir DIR]
//   stsbench --list
//
// Prints a human-readable metric table (name, value, unit, sample count),
// a reference line (streaming bandwidth and a fixed compute loop), and as
// its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the spans go to <work-dir>/spans-<workload>-<seed>.json.
// Exits 1 when any result check failed, 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

std::vector<std::string> workload_names() {
  return {"lanczos-fem", "lobpcg-nuclear"};
}

} // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "stsbench: %s\nusage: stsbench --workload <name> [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--work-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        cfg.workload = value();
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (arg == "--trace") {
        cfg.trace = std::stoi(value()) != 0;
      } else if (arg == "--smoke") {
        cfg.smoke = true;
      } else if (arg == "--work-dir") {
        cfg.work_dir = value();
      } else if (arg == "--list") {
        for (const std::string& w : workload_names()) std::printf("%s\n", w.c_str());
        std::exit(0);
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  bool known = false;
  for (const std::string& w : workload_names()) known = known || w == cfg.workload;
  if (!known) usage("unknown workload '" + cfg.workload + "'");
  if (!(cfg.seconds > 0.0)) usage("--seconds must be positive");
  return cfg;
}

/// Prints the table and the final JSON line; returns the exit code.
int report(Outcome& out, const MetricSet& metrics) {
  for (const Metric& m : metrics.items) {
    if (!std::isfinite(m.value)) out.record("metric " + m.name + " is not finite");
  }
  for (const std::string& f : out.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  std::printf("%-34s %16s  %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics.items) {
    std::printf("%-34s %16.6g  %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              out.failed == 0 ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  for (std::size_t i = 0; i < metrics.items.size(); ++i) {
    const Metric& m = metrics.items[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return out.failed == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  const RunConfig cfg = parse(argc, argv);
  Tracer tracer(cfg.trace);
  Outcome out;
  try {
    out = run_solver_workload(cfg, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stsbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    return 1;
  }

  // Host reference, after the workload's peak RSS was read: reported in
  // every run, gated in none.
  const Reference ref = measure_reference(kWorkers, cfg.smoke);
  std::printf("reference: env.stream_gbps=%.3f (triad, %u threads, 3 arrays "
              "x %.0f MiB, LLC %.0f MiB) env.compute_loop_s=%.4f\n",
              ref.stream_gbps, kWorkers,
              static_cast<double>(ref.array_bytes) / (1 << 20),
              static_cast<double>(ref.llc_bytes) / (1 << 20),
              ref.compute_loop_s);

  if (!cfg.trace) return report(out, out.e2e);

  out.layer.add("env.stream_gbps", ref.stream_gbps, "GB/s");
  out.layer.add("env.compute_loop_s", ref.compute_loop_s, "s");
  if (const Metric* bw = out.layer.find("bsp.spmv_csb_gbps")) {
    out.layer.add("bsp.spmv_bw_frac", bw->value / ref.stream_gbps, "ratio",
                  bw->samples);
  }
  try {
    std::filesystem::create_directories(cfg.work_dir);
    const std::string path = cfg.work_dir + "/spans-" + cfg.workload + "-" +
                             std::to_string(cfg.seed) + ".json";
    tracer.write(path, cfg.workload, cfg.seed, out.e2e);
    std::fprintf(stderr, "spans: %zu written to %s\n", tracer.spans().size(),
                 path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stsbench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "self time by span (s):\n");
  for (const auto& [name, secs] : tracer.self_seconds()) {
    std::fprintf(stderr, "  %-28s %.6f\n", name.c_str(), secs);
  }
  return report(out, out.layer);
}
