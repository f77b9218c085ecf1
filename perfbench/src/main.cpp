// pmcf_perfbench: the Engine-served benchmark program (see perfbench/README.md).
//
//   pmcf_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--scale full|tiny] [--spans FILE] [--work-dir DIR]
//                  [--commit ID]
//
// Prints one "metric" line per metric, then as its last line a JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 when every
// answer was right, 1 when some answer failed, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "trace.hpp"

namespace {

using perfbench::RunConfig;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "pmcf_perfbench: %s\n"
               "usage: pmcf_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "       [--scale full|tiny] [--spans FILE] [--work-dir DIR] [--commit ID]\n"
               "workloads:",
               why.c_str());
  for (const auto& n : perfbench::workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

RunConfig parse(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(cfg.seconds > 0.0))
        usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      cfg.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") usage("bad --scale " + value);
      cfg.scale = value == "tiny" ? perfbench::Scale::kTiny : perfbench::Scale::kFull;
    } else if (flag == "--spans") {
      cfg.spans_path = value;
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else if (flag == "--commit") {
      cfg.commit = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const auto& n : perfbench::workload_names()) known = known || n == cfg.workload;
  if (!known) usage("unknown workload " + cfg.workload);
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const RunConfig cfg = parse(argc, argv);
  perfbench::Report rep;
  try {
    rep = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pmcf_perfbench: %s failed: %s\n", cfg.workload.c_str(), e.what());
    std::filesystem::remove_all(cfg.work_dir);
    return 1;
  }
  std::filesystem::remove_all(cfg.work_dir);

  std::printf("workload %s seed %llu trace %d\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.trace ? 1 : 0);
  for (const std::string& note : rep.notes) std::printf("%s\n", note.c_str());
  for (const perfbench::Metric& m : rep.metrics) {
    if (m.samples > 0)
      std::printf("metric %s = %.6g %s (samples %zu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.samples);
    else
      std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : rep.failures) std::fprintf(stderr, "FAILED %s\n", f.c_str());

  // The metrics object holds exactly the metrics BENCHMARK.json lists for
  // this mode; failed_share is carried by attempted/failed instead, since a
  // listed metric must never be 0.
  std::ostringstream js;
  js.precision(17);
  const bool correct = rep.failed == 0;
  js << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << rep.attempted
     << ", \"failed\": " << rep.failed << ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : rep.metrics) {
    if (m.name == "failed_share") continue;
    js << (first ? "" : ", ") << '"' << perfbench::json_escape(m.name) << "\": {\"value\": "
       << m.value << ", \"unit\": \"" << perfbench::json_escape(m.unit) << "\"}";
    first = false;
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  return correct ? 0 : 1;
}
