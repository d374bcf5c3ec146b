// perfbench: runs one named workload of the repository benchmark and
// prints its report as the last line of standard output (run.py checks
// the digest and emits the benchmark's result line).
//
// Usage: perfbench --workload <tcma32|planned32|sweep-mixed> --seed <n>
//                  --seconds <s> --trace <0|1> [--trace-out <file.jsonl>]
//                  [--tiny]
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else {
      std::cerr << "perfbench: unknown or incomplete argument " << a << "\n";
      return false;
    }
  }
  return opt.seconds > 0.0 &&
         (opt.workload == "tcma32" || opt.workload == "planned32" ||
          opt.workload == "sweep-mixed");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) {
      std::cerr << "usage: perfbench --workload <tcma32|planned32|"
                   "sweep-mixed> --seed <n> --seconds <s> --trace <0|1> "
                   "[--trace-out <file>] [--tiny]\n";
      return 2;
    }
    perfbench::Tracer tracer(opt.trace);
    perfbench::Report report;
    if (opt.workload == "sweep-mixed") {
      perfbench::run_sweep_mixed(opt, tracer, report);
    } else {
      perfbench::run_ring(opt, opt.workload == "planned32", tracer, report);
    }
    if (opt.trace) {
      std::cout << "self time per span (s):\n";
      for (const auto& [name, secs] : tracer.self_seconds()) {
        std::cout << "  " << name << " " << secs << "\n";
      }
      if (!opt.trace_out.empty() &&
          !tracer.write_jsonl(opt.trace_out,
                              "{\"fingerprint\": " +
                                  perfbench::fingerprint_json() + "}")) {
        std::cerr << "perfbench: cannot write " << opt.trace_out << "\n";
        return 1;
      }
    }
    std::cout << report.json(opt) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
