#include "harness.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

namespace perfbench {

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss carries over the high-water mark of the
  // process image that exec replaced (the launching interpreter), VmHWM
  // belongs to this program's address space alone.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("peak_rss_mb: no VmHWM in /proc/self/status");
}

void Report::fail(long long op, const std::string& why) {
  if (std::find(failed_ops_.begin(), failed_ops_.end(), op) == failed_ops_.end()) {
    failed_ops_.push_back(op);
  }
  if (notes_.size() < 20) notes_.push_back("check failed (op " + std::to_string(op) + "): " + why);
}

void expect_same(Report& report, long long op, const char* what, double value,
                 double expected) {
  if (value != expected) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s = %.17g, first operation gave %.17g", what, value,
                  expected);
    report.fail(op, buf);
  }
}

namespace {

/// JSON number: full precision, finite only (NaN/inf become null so the
/// run.py rejects the run instead of parsing garbage).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
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

}  // namespace

void Report::print(const RunConfig& cfg) const {
  std::printf("# workload %s, seed %llu, %s run, %lld operations checked, %lld failed\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.trace ? "traced" : "untraced", attempted_, failed());
  for (const auto& m : metrics_) {
    std::printf("#   %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& n : notes_) std::printf("# note: %s\n", n.c_str());

  std::string line = "{\"workload\": " + json_string(cfg.workload) +
                     ", \"seed\": " + std::to_string(cfg.seed) +
                     ", \"reference_seed\": " + std::to_string(cfg.reference_seed) +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed()) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(metrics_[i].name) + ": {\"value\": " + json_number(metrics_[i].value) +
            ", \"unit\": " + json_string(metrics_[i].unit) + "}";
  }
  line += "}, \"reference\": {";
  for (std::size_t i = 0; i < reference_.size(); ++i) {
    if (i > 0) line += ", ";
    line += json_string(reference_[i].first) + ": " + json_number(reference_[i].second);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

TraceSession::~TraceSession() { enable(false); }

void TraceSession::enable(bool on) { ptherm::telemetry::set_tracer(on ? &tracer_ : nullptr); }

SpanSum TraceSession::sum(const char* name, const char* parent) const {
  const auto events = tracer_.events();
  std::vector<std::pair<std::int64_t, std::int64_t>> windows;  // parent [start, end]
  if (parent != nullptr) {
    for (const auto& e : events) {
      if (std::strcmp(e.name, parent) == 0) {
        windows.emplace_back(e.start_ns, e.start_ns + e.duration_ns);
      }
    }
    std::sort(windows.begin(), windows.end());
  }
  const auto inside = [&](const ptherm::telemetry::SpanEvent& e) {
    // Parents of one thread do not overlap: the candidate is the last
    // window starting at or before the child.
    auto it = std::upper_bound(windows.begin(), windows.end(),
                               std::make_pair(e.start_ns, INT64_MAX));
    return it != windows.begin() && e.start_ns + e.duration_ns <= std::prev(it)->second;
  };
  SpanSum out;
  std::int64_t ns = 0;
  for (const auto& e : events) {
    if (std::strcmp(e.name, name) == 0 && (parent == nullptr || inside(e))) {
      ++out.count;
      ns += e.duration_ns;
    }
  }
  out.seconds = 1e-9 * static_cast<double>(ns);
  return out;
}

void TraceSession::write(const std::string& path, Report& report) const {
  if (path.empty()) return;
  auto events = tracer_.events();
  const std::size_t recorded = events.size();
  constexpr std::size_t kMaxExported = 200000;  // keeps a trace file under ~20 MB
  if (events.size() > kMaxExported) events.resize(kMaxExported);
  std::ofstream out(path);
  if (!out) {
    report.note("cannot write Chrome trace to " + path);
    return;
  }
  ptherm::telemetry::write_chrome_trace(out, events);
  report.note("Chrome trace: " + path + " (" + std::to_string(events.size()) + " of " +
              std::to_string(recorded) + " spans, " +
              std::to_string(tracer_.dropped_events()) + " dropped by the tracer cap)");
}

double host_probe() {
  // Both arrays in one static buffer, y 4 KiB + 64 B after x: a fixed
  // layout, and loads of x never alias stores to y modulo 4 KiB (which
  // stalls the loop, and a heap allocation would hit or miss by chance).
  constexpr std::size_t kN = 512;
  alignas(64) static double buf[2 * kN + 8];
  static const bool filled = [] {
    std::fill(buf, buf + kN, 1.0001);
    std::fill(buf + kN + 8, buf + 2 * kN + 8, 0.5);
    return true;
  }();
  (void)filled;
  const double* x = buf;
  double* y = buf + kN + 8;
  const auto t0 = Clock::now();
  for (int k = 0; k < 5000; ++k) {
    const double a = 1e-9 * k;
    for (std::size_t i = 0; i < kN; ++i) y[i] += a * x[i];
  }
  const double s = seconds_since(t0);
  keep(y[0]);
  return s;
}

void ProbeLog::probe() {
  seconds_ += host_probe();
  ++count_;
}

void report_end_to_end(Report& report, const LoopSamples& loop) {
  const Samples& ops = loop.ops;
  report.metric("solve_cost", loop.cost.median(), "probe");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "%zu operations: wall time fastest %.4g ms, median %.4g ms; host probe "
                "fastest %.4g ms, median %.4g ms",
                ops.size(), 1e3 * ops.min(), 1e3 * ops.median(), 1e3 * loop.probes.min(),
                1e3 * loop.probes.median());
  report.note(buf);
}

void report_setup(Report& report, const Samples& setups) {
  report.metric("setup_s", setups.min(), "s");
  report.note("setup_s over " + std::to_string(setups.size()) + " constructions");
}

void report_split(Report& report, const SplitSamples& split, double scenarios_per_op) {
  report.metric("solve_ms_p50", 1e3 * split.untraced.median(), "ms");
  report.metric("solve_ms_p90", 1e3 * split.untraced.quantile(0.9), "ms");
  // One caller in a closed loop: throughput is the inverse of operation time.
  report.metric("scenarios_per_s", scenarios_per_op / split.untraced.median(), "1/s");
  report.metric("telemetry.overhead_frac",
                paired_share(split, [&](std::size_t k) { return split.traced[k]; }) - 1.0,
                "frac");
}

}  // namespace perfbench
