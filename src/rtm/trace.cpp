#include "rtm/trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace ptherm::rtm {

WorkloadTrace::WorkloadTrace(std::size_t block_count, double sample_dt)
    : block_count_(block_count), sample_dt_(sample_dt) {
  PTHERM_REQUIRE(block_count > 0, "WorkloadTrace: need at least one block");
  PTHERM_REQUIRE(sample_dt > 0.0, "WorkloadTrace: sample_dt must be positive");
}

void WorkloadTrace::append(std::span<const double> activities) {
  PTHERM_REQUIRE(block_count_ > 0, "WorkloadTrace::append: default-constructed trace");
  PTHERM_REQUIRE(activities.size() == block_count_,
                 "WorkloadTrace::append: one activity per block required");
  for (double a : activities) {
    PTHERM_REQUIRE(std::isfinite(a) && a >= 0.0,
                   "WorkloadTrace::append: activity must be finite and >= 0");
  }
  samples_.insert(samples_.end(), activities.begin(), activities.end());
}

double WorkloadTrace::activity(std::size_t sample, std::size_t block) const {
  PTHERM_REQUIRE(block < block_count_, "WorkloadTrace::activity: block out of range");
  PTHERM_REQUIRE(sample < sample_count(), "WorkloadTrace::activity: sample out of range");
  return samples_[sample * block_count_ + block];
}

double WorkloadTrace::activity_at(std::size_t block, double t) const {
  PTHERM_REQUIRE(block < block_count_, "WorkloadTrace::activity_at: block out of range");
  const std::size_t count = sample_count();
  PTHERM_REQUIRE(count > 0, "WorkloadTrace::activity_at: empty trace");
  std::size_t sample = 0;
  if (t > 0.0) {
    const double f = std::floor(t / sample_dt_);
    sample = f >= static_cast<double>(count - 1) ? count - 1 : static_cast<std::size_t>(f);
  }
  return samples_[sample * block_count_ + block];
}

// ----------------------------------------------------------- generators ---

WorkloadTrace make_burst_trace(std::size_t blocks, std::size_t samples, double sample_dt,
                               const BurstPattern& pattern) {
  PTHERM_REQUIRE(pattern.period > 0.0, "make_burst_trace: period must be positive");
  PTHERM_REQUIRE(pattern.duty >= 0.0 && pattern.duty <= 1.0,
                 "make_burst_trace: duty must lie in [0, 1]");
  PTHERM_REQUIRE(pattern.high >= 0.0 && pattern.low >= 0.0,
                 "make_burst_trace: activities must be >= 0");
  WorkloadTrace trace(blocks, sample_dt);
  std::vector<double> row(blocks);
  for (std::size_t s = 0; s < samples; ++s) {
    const double t = static_cast<double>(s) * sample_dt;
    for (std::size_t b = 0; b < blocks; ++b) {
      // Per-block phase shift, wrapped into [0, period).
      const double shifted = t - static_cast<double>(b) * pattern.phase_step * pattern.period;
      const double phase =
          shifted - pattern.period * std::floor(shifted / pattern.period);
      row[b] = phase < pattern.duty * pattern.period ? pattern.high : pattern.low;
    }
    trace.append(row);
  }
  return trace;
}

WorkloadTrace make_random_walk_trace(std::size_t blocks, std::size_t samples,
                                     double sample_dt, const RandomWalkPattern& pattern,
                                     Rng& rng) {
  PTHERM_REQUIRE(pattern.floor >= 0.0 && pattern.ceil > pattern.floor,
                 "make_random_walk_trace: need 0 <= floor < ceil");
  PTHERM_REQUIRE(pattern.start >= pattern.floor && pattern.start <= pattern.ceil,
                 "make_random_walk_trace: start outside [floor, ceil]");
  PTHERM_REQUIRE(pattern.step >= 0.0, "make_random_walk_trace: step must be >= 0");
  WorkloadTrace trace(blocks, sample_dt);
  std::vector<double> level(blocks, pattern.start);
  for (std::size_t s = 0; s < samples; ++s) {
    for (std::size_t b = 0; b < blocks; ++b) {
      double next = level[b] + rng.uniform(-pattern.step, pattern.step);
      // Reflect off the bounds so the walk hugs neither rail.
      if (next > pattern.ceil) next = 2.0 * pattern.ceil - next;
      if (next < pattern.floor) next = 2.0 * pattern.floor - next;
      level[b] = std::clamp(next, pattern.floor, pattern.ceil);
    }
    trace.append(level);
  }
  return trace;
}

WorkloadTrace make_migration_trace(std::size_t blocks, std::size_t samples, double sample_dt,
                                   const MigrationPattern& pattern) {
  PTHERM_REQUIRE(pattern.dwell > 0.0, "make_migration_trace: dwell must be positive");
  PTHERM_REQUIRE(pattern.hot >= 0.0 && pattern.cold >= 0.0,
                 "make_migration_trace: activities must be >= 0");
  WorkloadTrace trace(blocks, sample_dt);
  std::vector<double> row(blocks);
  for (std::size_t s = 0; s < samples; ++s) {
    const double t = static_cast<double>(s) * sample_dt;
    const std::size_t hot_block =
        static_cast<std::size_t>(std::floor(t / pattern.dwell)) % blocks;
    for (std::size_t b = 0; b < blocks; ++b) {
      row[b] = b == hot_block ? pattern.hot : pattern.cold;
    }
    trace.append(row);
  }
  return trace;
}

// ------------------------------------------------------------- text I/O ---

namespace {

constexpr const char* kMagic = "ptherm-trace";
constexpr const char* kVersion = "v1";

[[noreturn]] void malformed(const std::string& what) {
  throw IoError("trace: malformed input: " + what);
}

/// Next non-comment token; empty optional at clean EOF.
bool next_token(std::istream& is, std::string& token) {
  while (is >> token) {
    if (token.front() == '#') {
      std::string rest;
      std::getline(is, rest);  // drop the remainder of the comment line
      continue;
    }
    return true;
  }
  return false;
}

std::string expect_token(std::istream& is, const char* context) {
  std::string token;
  if (!next_token(is, token)) {
    malformed("unexpected end of input, expected " + std::string(context));
  }
  return token;
}

double parse_double(const std::string& token, const std::string& context) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &used);
  } catch (const std::exception&) {
    malformed("'" + token + "' is not a number (" + context + ")");
  }
  if (used != token.size()) {
    malformed("'" + token + "' is not a number (" + context + ")");
  }
  return value;
}

std::size_t parse_count(const std::string& token, const std::string& context,
                        double minimum = 1.0) {
  const double value = parse_double(token, context);
  if (value < minimum || value != std::floor(value) || value > 1e9) {
    malformed("'" + token + "' is not a valid count (" + context + ")");
  }
  return static_cast<std::size_t>(value);
}

}  // namespace

void write_trace(std::ostream& os, const WorkloadTrace& trace) {
  PTHERM_REQUIRE(trace.block_count() > 0, "write_trace: default-constructed trace");
  os << kMagic << ' ' << kVersion << '\n';
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "blocks " << trace.block_count() << '\n';
  os << "sample_dt " << trace.sample_dt() << '\n';
  os << "samples " << trace.sample_count() << '\n';
  for (std::size_t s = 0; s < trace.sample_count(); ++s) {
    for (std::size_t b = 0; b < trace.block_count(); ++b) {
      os << (b == 0 ? "" : " ") << trace.activity(s, b);
    }
    os << '\n';
  }
  if (!os) throw IoError("trace: write failed");
}

WorkloadTrace read_trace(std::istream& is) {
  if (expect_token(is, "header magic") != kMagic) malformed("missing 'ptherm-trace' header");
  const std::string version = expect_token(is, "format version");
  if (version != kVersion) malformed("unsupported version '" + version + "'");

  if (expect_token(is, "'blocks'") != "blocks") malformed("expected 'blocks <n>'");
  const std::size_t blocks = parse_count(expect_token(is, "block count"), "block count");
  if (expect_token(is, "'sample_dt'") != "sample_dt") malformed("expected 'sample_dt <s>'");
  const double sample_dt = parse_double(expect_token(is, "sample_dt value"), "sample_dt");
  if (!(sample_dt > 0.0)) malformed("sample_dt must be positive");
  if (expect_token(is, "'samples'") != "samples") malformed("expected 'samples <count>'");
  // Zero samples is a legal (if useless) trace — a validly constructed
  // WorkloadTrace with no appends must survive the round trip.
  const std::size_t samples =
      parse_count(expect_token(is, "sample count"), "sample count", 0.0);

  WorkloadTrace trace(blocks, sample_dt);
  // The row grows with the values actually read: sizing it from the header
  // would let a tiny file that declares a huge block count exhaust memory.
  std::vector<double> row;
  std::string token;
  for (std::size_t s = 0; s < samples; ++s) {
    row.clear();
    for (std::size_t b = 0; b < blocks; ++b) {
      // Hot loop (traces can run to millions of values): parse in place and
      // only build the "sample s, block b" context when something is wrong.
      if (!next_token(is, token)) malformed("unexpected end of input, expected activity value");
      std::size_t used = 0;
      double a = 0.0;
      bool numeric = true;
      try {
        a = std::stod(token, &used);
      } catch (const std::exception&) {
        numeric = false;
      }
      if (!numeric || used != token.size() || !(std::isfinite(a) && a >= 0.0)) {
        std::ostringstream where;
        where << "'" << token << "' is not a valid activity (finite, >= 0) at sample " << s
              << ", block " << b;
        malformed(where.str());
      }
      row.push_back(a);
    }
    trace.append(row);
  }
  std::string extra;
  if (next_token(is, extra)) malformed("trailing data after the declared samples");
  return trace;
}

void write_trace_file(const std::string& path, const WorkloadTrace& trace) {
  std::ofstream os(path);
  if (!os) throw IoError("trace: cannot open '" + path + "' for writing");
  write_trace(os, trace);
}

WorkloadTrace read_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw IoError("trace: cannot open '" + path + "' for reading");
  return read_trace(is);
}

}  // namespace ptherm::rtm
