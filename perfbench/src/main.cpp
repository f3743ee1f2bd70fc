// ptherm_perfbench: runs one benchmark workload and prints its metrics.
//
//   ptherm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--reference-seed <n>] [--trace-out <chrome.json>]
//
// The untraced run (--trace 0) reports the end-to-end metrics; the traced
// run (--trace 1) installs a span tracer and reports the per-layer split.
// Output: a human-readable table (lines starting with '#'), then one JSON
// line with the metrics, the operation accounting and the values the stored
// reference pins. perfbench/run.py builds this program, runs it, and turns
// that line into the benchmark result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

using perfbench::Report;
using perfbench::RunConfig;

struct Workload {
  const char* name;
  void (*run)(const RunConfig&, Report&);
};

constexpr Workload kWorkloads[] = {
    {"steady_manycore_4096", perfbench::run_steady_manycore},
    {"batch_mc_10k", perfbench::run_batch_mc},
    {"rtm_trace_100k", perfbench::run_rtm_trace},
    {"spice_selfheat_sweep", perfbench::run_spice_sweep},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ptherm_perfbench: %s\n"
               "usage: ptherm_perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--reference-seed <n>] [--trace-out <path>]\nworkloads:",
               why);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_seed(const std::string& s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0') usage("seed must be a non-negative integer");
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool reference_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = parse_seed(value);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
      if (!(cfg.seconds > 0.0)) usage("seconds must be positive");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("trace must be 0 or 1");
      cfg.trace = value == "1";
    } else if (flag == "--reference-seed") {
      cfg.reference_seed = parse_seed(value);
      reference_given = true;
    } else if (flag == "--trace-out") {
      cfg.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!reference_given) cfg.reference_seed = cfg.seed;

  for (const auto& w : kWorkloads) {
    if (cfg.workload != w.name) continue;
    Report report;
    try {
      w.run(cfg, report);
    } catch (const std::exception& e) {
      // A workload that throws has no result to report: run.py
      // sees the non-zero exit and prints nothing.
      std::fprintf(stderr, "ptherm_perfbench: %s failed: %s\n", w.name, e.what());
      return 1;
    }
    report.print(cfg);
    return 0;
  }
  usage(("unknown workload '" + cfg.workload + "'").c_str());
}
