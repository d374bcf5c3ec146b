#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string str(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double clock_overhead_ns() {
  std::vector<double> v;
  v.reserve(2001);
  for (int i = 0; i < 2001; ++i) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    v.push_back(std::chrono::duration<double, std::nano>(b - a).count());
  }
  return median(std::move(v));
}

std::string fnv1a_hex(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  std::ostringstream os;
  os << std::hex;
  os.width(16);
  os.fill('0');
  os << h;
  return os.str();
}

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Shortest decimal that round-trips (JSON has no NaN/inf: null).
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto first = line.find_first_not_of(' ', colon + 1);
        return first == std::string::npos ? "" : line.substr(first);
      }
    }
  }
  return "unknown";
}

}  // namespace

Tracer::Tracer(bool on) : on_(on), t0_(Clock::now()) {
  if (on_) spans_.reserve(1 << 14);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0_)
      .count();
}

int Tracer::begin(const char* name) {
  if (!on_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<std::pair<std::string, double>> Tracer::self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<std::pair<std::string, double>> out;
  std::map<std::string, std::size_t> slot;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double self =
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
    const auto [it, fresh] = slot.emplace(s.name, out.size());
    if (fresh) out.emplace_back(s.name, 0.0);
    out[it->second].second += self;
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path,
                         const std::string& header_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << header_json << '\n';
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << "}\n";
  }
  out << "{\"self_time_s\": {";
  bool first = true;
  for (const auto& [name, secs] : self_seconds()) {
    out << (first ? "" : ", ") << '"' << name << "\": " << number(secs);
    first = false;
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back(Check{name, ok, detail});
}

void Report::ops(std::int64_t attempted, std::int64_t failed) {
  attempted_ = attempted;
  failed_ops_ = failed;
}

void Report::profile(const std::string& key, double value) {
  profile_.emplace_back(key, value);
}

std::int64_t Report::failed_checks() const {
  return std::count_if(checks_.begin(), checks_.end(),
                       [](const Check& c) { return !c.ok; });
}

std::string Report::json(const Options& opt) const {
  std::ostringstream os;
  os << "{\"workload\": \"" << escape(opt.workload)
     << "\", \"seed\": " << opt.seed << ", \"trace\": " << (opt.trace ? 1 : 0)
     << ", \"attempted\": " << attempted_ + static_cast<std::int64_t>(
                                                checks_.size())
     << ", \"failed\": " << failed_ops_ + failed_checks()
     << ", \"digest\": \"" << digest_ << "\", \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const Check& c = checks_[i];
    os << (i == 0 ? "" : ", ") << "{\"name\": \"" << escape(c.name)
       << "\", \"ok\": " << (c.ok ? "true" : "false") << ", \"detail\": \""
       << escape(c.detail) << "\"}";
  }
  os << "], \"profile\": {";
  for (std::size_t i = 0; i < profile_.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"' << escape(profile_[i].first)
       << "\": " << number(profile_[i].second);
  }
  os << "}, \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i == 0 ? "" : ", ") << '"' << escape(m.name)
       << "\": {\"value\": " << number(m.value) << ", \"unit\": \""
       << escape(m.unit) << "\"}";
  }
  os << "}, \"fingerprint\": " << fingerprint_json() << "}";
  return os.str();
}

std::string fingerprint_json() {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string flags = PERFBENCH_CXX_FLAGS;
  const bool instrumented = build_type == "Debug" ||
                            flags.find("-fsanitize") != std::string::npos ||
                            flags.find("--coverage") != std::string::npos ||
                            flags.find("-O0") != std::string::npos;
  std::ostringstream os;
  os << "{\"cpu_model\": \"" << escape(cpu_model())
     << "\", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << escape(
#if defined(__clang__)
                                     "clang "
#elif defined(__GNUC__)
                                     "g++ "
#endif
                                     __VERSION__)
     << "\", \"build_type\": \"" << escape(build_type)
     << "\", \"cxx_flags\": \"" << escape(flags)
     << "\", \"timing_meaningful\": " << (instrumented ? "false" : "true")
     << "}";
  return os.str();
}

}  // namespace perfbench
