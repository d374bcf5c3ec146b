// Shared plumbing of the benchmark driver: command-line options, timing
// helpers, the span tracer of the traced run and the result record that
// run.py turns into the benchmark's final JSON line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank quantile (q in [0, 1]) of `v`; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// The fastest of repeated identical work units.  Every bounded timing
/// reports it: on a shared host, neighbour load slows whole stretches of
/// a run by up to 2x, which moves a median from run to run but leaves
/// the fastest repetition in place.
[[nodiscard]] inline double fastest(const std::vector<double>& v) {
  return quantile(v, 0.0);
}
/// `v` in the stream's default notation (check details).
[[nodiscard]] std::string str(double v);

/// Keeps `v` observable, so the optimiser cannot drop the timed loop that
/// computed it.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Median cost of one back-to-back steady_clock reading, in ns.  The
/// replay harness subtracts it from its short per-batch timings.
[[nodiscard]] double clock_overhead_ns();

/// 64-bit FNV-1a of `s`, as 16 hex digits (the stats digest recorded in
/// digests.json).
[[nodiscard]] std::string fnv1a_hex(const std::string& s);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// JSONL span file of the traced run ("" = do not write).
  std::string trace_out;
  /// Smoke-test sizes: every phase runs, on tiny inputs.
  bool tiny = false;
};

/// In-memory span recorder for the traced run.  Spans (name, start, end,
/// parent) are appended as they close and written as JSONL at exit; a
/// disabled tracer records nothing.  Names must be string literals.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
  };

  explicit Tracer(bool on);
  /// Opens a span under the innermost open one; returns its id (-1 when
  /// disabled).
  int begin(const char* name);
  void end(int id);

  /// Per span name: summed duration minus the part its child spans
  /// cover, in seconds, in first-seen order.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_seconds()
      const;
  /// Writes `header_json` as the first line, then one line per span and
  /// a final self-time line.
  bool write_jsonl(const std::string& path,
                   const std::string& header_json) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Everything one workload run reports; main() prints it as one JSON
/// line, which run.py checks against the recorded digests.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A correctness or regime check; any failure fails the run.
  void check(const std::string& name, bool ok, const std::string& detail);
  /// Operations attempted in the timed phase (chunks, sweep shards) and
  /// how many of them failed.
  void ops(std::int64_t attempted, std::int64_t failed);
  /// Workload profile line (printed, not checked).
  void profile(const std::string& key, double value);
  /// Hexfloat statistics digest of the fixed-length verification run.
  void digest(const std::string& text) { digest_ = fnv1a_hex(text); }

  [[nodiscard]] std::string json(const Options& opt) const;

 private:
  [[nodiscard]] std::int64_t failed_checks() const;

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<std::pair<std::string, double>> profile_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ops_ = 0;
  std::string digest_;
};

/// Host and build fingerprint (CPU model, hardware threads, compiler,
/// build type and flags) as a JSON object.  `timing_meaningful` is false
/// for Debug, sanitizer and coverage builds.
[[nodiscard]] std::string fingerprint_json();

}  // namespace perfbench
