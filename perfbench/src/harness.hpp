// Shared machinery of the ptherm benchmark: closed-loop timing, replay
// timing of single public calls, seeded sub-streams, and the run report
// (metrics by name and unit, attempted/failed operations, the values the
// reference check compares).
//
// Every timing here is taken from OUTSIDE the library: the benchmark wraps
// calls into the public API of each module with a monotonic clock (and, in
// the traced run, with a benchmark-side telemetry span). Nothing inside
// src/ is instrumented for the benchmark's sake.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

/// Command-line configuration of one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Seed whose outputs go into Report::reference. Equal to `seed` when the
  /// stored reference covers the run's own seed; otherwise the workload
  /// solves this seed's inputs once more, outside the timed region.
  std::uint64_t reference_seed = 1;
  std::string trace_out;  ///< Chrome trace path (traced run only)
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Times one call [s].
template <class F>
double time_call(F&& f) {
  const auto t0 = Clock::now();
  f();
  return seconds_since(t0);
}

/// Per-operation wall times [s] with order statistics.
class Samples {
 public:
  void add(double s) { values_.push_back(s); }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] double operator[](std::size_t k) const { return values_.at(k); }
  /// Nearest-rank quantile, q in [0, 1].
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double min() const { return quantile(0.0); }

 private:
  std::vector<double> values_;
};

/// Wall time [s] of a fixed, throughput-bound loop that shares no code with
/// the library (5000 axpys over two 4 KiB arrays, about 0.36 ms on a quiet
/// 2.1 GHz Xeon KVM guest). It reads how fast the host runs this thread
/// right now: contention that slows the library's solves by 1.5-2x slows
/// it by nearly as much, while its own cost never changes from commit to
/// commit. Loops that are latency-bound or stream from memory slow far less
/// than the solves, so they would not do.
double host_probe();

/// Host probes taken while an operation runs, for an operation long enough
/// that the host's speed changes during it (see closed_loop).
class ProbeLog {
 public:
  /// Runs one host probe now and logs its time.
  void probe();
  void clear() {
    seconds_ = 0.0;
    count_ = 0;
  }
  [[nodiscard]] double seconds() const noexcept { return seconds_; }
  [[nodiscard]] int count() const noexcept { return count_; }

 private:
  double seconds_ = 0.0;
  int count_ = 0;
};

/// Operation and probe times of a closed loop.
struct LoopSamples {
  Samples ops;     ///< wall time of each operation, without probes inside it [s]
  Samples probes;  ///< host_probe() before the first and after each operation [s]
  /// Each operation's wall time over the mean of its probes: the two
  /// around it and those inside it [probe units].
  Samples cost;
};

/// Closed loop, one caller: runs `op` back to back (the next call starts
/// when the previous one returns) until `seconds` have elapsed and at least
/// `min_ops` calls were made. `check` gets every result outside the timed
/// region, and a host probe runs between operations. An operation may also
/// probe into `inside` while it runs; those probes' time is taken out of
/// its wall time.
template <class Op, class Check>
LoopSamples closed_loop(double seconds, int min_ops, Op&& op, Check&& check,
                        ProbeLog* inside = nullptr) {
  LoopSamples out;
  double before = host_probe();
  out.probes.add(before);
  const auto start = Clock::now();
  while (static_cast<int>(out.ops.size()) < min_ops || seconds_since(start) < seconds) {
    if (inside != nullptr) inside->clear();
    const auto t0 = Clock::now();
    const auto result = op();
    const double wall = seconds_since(t0);
    check(result);
    const double after = host_probe();
    out.probes.add(after);
    double probe_sum = before + after;
    double probe_count = 2.0;
    double net = wall;
    if (inside != nullptr) {
      net -= inside->seconds();
      probe_sum += inside->seconds();
      probe_count += inside->count();
    }
    out.ops.add(net);
    out.cost.add(net / (probe_sum / probe_count));
    before = after;
  }
  return out;
}

/// Set-up timing: calls `make` (which returns a std::unique_ptr to the
/// constructed object) at least `min_reps` times and until `budget` seconds
/// are spent, at most `max_reps`. Only construction is timed; destroying the
/// previous object is not. Adds each construction time [s] to `times` and
/// returns the last object.
///
/// A workload builds the object its operations use with one call, and
/// repeats the construction after peak_rss_mb is read: repeated large
/// constructions can leave the heap fragmented by a few MB, which would
/// otherwise show as peak RSS.
template <class Make>
auto timed_setup(Make&& make, Samples& times, int min_reps, int max_reps, double budget) {
  decltype(make()) last;
  int reps = 0;
  const auto start = Clock::now();
  while (reps < min_reps || (reps < max_reps && seconds_since(start) < budget)) {
    last.reset();
    const auto t0 = Clock::now();
    auto built = make();
    times.add(seconds_since(t0));
    last = std::move(built);
    ++reps;
  }
  return last;
}

/// Keeps replayed results observable so the optimizer cannot drop the call.
inline volatile double g_sink = 0.0;
inline void keep(double v) { g_sink = g_sink + v; }

/// Replay timing of one public call at the converged state. The traced run
/// calls run() once per round (see traced_split), right after the round's
/// operations, so each replay sample shares its operations' machine
/// conditions. Each run() times one batch of calls sized to take about a
/// millisecond, inside a benchmark-side span named `span` (static storage);
/// batching keeps span and clock overhead out of sub-microsecond calls. A
/// call that takes a millisecond or more is timed alone.
class Replay {
 public:
  explicit Replay(const char* span) : span_(span) {}

  template <class F>
  void run(F&& fn) {
    const ptherm::telemetry::Span guard(span_);
    if (reps_ == 0) {
      const double once = time_call(fn);
      if (once >= 1e-3) {
        reps_ = 1;
        per_call_.add(once);
        return;
      }
      reps_ = std::clamp(static_cast<int>(1e-3 / std::max(once, 1e-9)), 1, 100000);
    }
    per_call_.add(time_call([&] {
                    for (int r = 0; r < reps_; ++r) fn();
                  }) /
                  reps_);
  }
  /// Median per-call time [us].
  [[nodiscard]] double us() const { return 1e6 * per_call_.median(); }
  /// Per-call time [s] in round `k`.
  [[nodiscard]] double seconds(std::size_t k) const { return per_call_[k]; }

 private:
  const char* span_;
  int reps_ = 0;
  Samples per_call_;
};

/// Seed of the `k`-th independent input stream of a workload seed (floorplan,
/// Monte Carlo base seed, sensor noise, trace, circuit jitter), so changing
/// one generator's consumption never shifts another's inputs.
[[nodiscard]] inline std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  return ptherm::Rng::stream(seed, k).next_u64();
}

/// Peak resident set size of this process [MB].
[[nodiscard]] double peak_rss_mb();

/// The run's result: metrics in insertion order, operation accounting, and
/// the reference values run.py compares against the stored
/// reference within a physical tolerance.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void count(const std::string& name, long long value) {
    metric(name, static_cast<double>(value), "count");
  }

  /// One operation whose output was checked.
  void attempt() { ++attempted_; }
  /// Records a failed output check. Several failed checks of the same
  /// operation count once: `op` identifies the operation.
  void fail(long long op, const std::string& why);
  [[nodiscard]] long long attempted() const noexcept { return attempted_; }
  [[nodiscard]] long long failed() const noexcept {
    return static_cast<long long>(failed_ops_.size());
  }

  /// A value the stored reference pins (temperatures [K], runaway flags as
  /// 0/1).
  void reference(const std::string& key, double value) { reference_.push_back({key, value}); }

  void note(std::string text) { notes_.push_back(std::move(text)); }

  /// Human-readable table, then the machine-readable JSON line (last line).
  void print(const RunConfig& cfg) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, double>> reference_;
  std::vector<long long> failed_ops_;
  std::vector<std::string> notes_;
  long long attempted_ = 0;
};

/// Compares `value` with `expected` bitwise; on mismatch records a failure
/// of operation `op`. The benchmark's ops are deterministic, so every
/// repeat of an operation must reproduce the first one exactly.
void expect_same(Report& report, long long op, const char* what, double value,
                 double expected);

// The four workloads. Each generates its inputs from cfg.seed before any
// timing, then fills `report` with the end-to-end metrics (untraced run) or
// the per-layer split (traced run, cfg.trace).
void run_steady_manycore(const RunConfig& cfg, Report& report);
void run_batch_mc(const RunConfig& cfg, Report& report);
void run_rtm_trace(const RunConfig& cfg, Report& report);
void run_spice_sweep(const RunConfig& cfg, Report& report);

/// Recorded spans of one name: how many, and their total duration [s].
struct SpanSum {
  long long count = 0;
  double seconds = 0.0;
};

/// Span bookkeeping of the traced run: owns the Tracer, installs it while
/// enabled, sums recorded span durations by name, and writes the Chrome
/// trace.
class TraceSession {
 public:
  TraceSession() = default;
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Installs (true) or uninstalls (false) the session's tracer.
  void enable(bool on);

  /// The recorded spans called `name`; with a `parent`, only those that lie
  /// inside a span called `parent`.
  [[nodiscard]] SpanSum sum(const char* name, const char* parent) const;
  /// Writes the Chrome trace (its first 200 000 events) to `path`; an empty
  /// path writes nothing.
  void write(const std::string& path, Report& report) const;

 private:
  ptherm::telemetry::Tracer tracer_;
};

/// Operation times of the traced run, one of each per round.
struct SplitSamples {
  Samples untraced;
  Samples traced;
};

/// The traced run's loop. Each round runs one operation with the tracer
/// uninstalled, one with it installed, then `replay` (tracer installed, so
/// the replays' spans land in the trace), until `seconds` have elapsed and
/// at least `min_rounds` rounds ran. `check` gets every result outside the
/// timed region. Rounds keep an operation, its traced twin and its replays
/// within seconds of each other, so per-round ratios see one machine state
/// even when a shared host slows down for minutes.
template <class Op, class Check, class ReplayFn>
SplitSamples traced_split(TraceSession& session, double seconds, int min_rounds, Op&& op,
                          Check&& check, ReplayFn&& replay) {
  SplitSamples out;
  const auto start = Clock::now();
  while (static_cast<int>(out.untraced.size()) < min_rounds || seconds_since(start) < seconds) {
    for (Samples* phase : {&out.untraced, &out.traced}) {
      session.enable(phase == &out.traced);
      const auto t0 = Clock::now();
      const auto result = op();
      phase->add(seconds_since(t0));
      check(result);
    }
    replay();
  }
  session.enable(false);
  return out;
}

/// A layer's share of the untraced operation time: the median over rounds
/// of layer_seconds(k) / untraced[k], where layer_seconds(k) is built from
/// the replays of round k (per-call time x calls per operation).
template <class F>
double paired_share(const SplitSamples& split, F&& layer_seconds) {
  Samples shares;
  for (std::size_t k = 0; k < split.untraced.size(); ++k) {
    shares.add(layer_seconds(k) / split.untraced[k]);
  }
  return shares.median();
}

/// The operation metrics every workload reports in the untraced run, and
/// peak_rss_mb, which is read here: call it before repeating the set-up.
///
/// solve_cost is the median over operations of LoopSamples::cost, each
/// operation's cost in probe units, which other tenants of a shared host
/// move far less than wall time. Their contention comes in phases of
/// seconds to tens of minutes that slow every operation of a run by up to
/// 2x, so no statistic of wall time alone repeats from run to run.
void report_end_to_end(Report& report, const LoopSamples& loop);

/// setup_s: the fastest of the run's constructions. Contention only ever
/// adds time, and with hundreds of constructions some run on a quiet host.
void report_setup(Report& report, const Samples& setups);

/// The traced run's metrics of its rounds: the median and 90th percentile
/// untraced operation time, the throughput at the median (scenarios per
/// operation over it), and the tracing overhead (median over rounds of
/// traced over untraced time, minus one). The wall times live here, without
/// a bound, because host contention moves them by up to 2x from run to run
/// (see report_end_to_end).
void report_split(Report& report, const SplitSamples& split, double scenarios_per_op);

}  // namespace perfbench
