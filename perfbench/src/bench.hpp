#pragma once
// Shared vocabulary of the Engine-served benchmark: run configuration, the
// metric report, seeded instance generation and the small statistics and
// host helpers every workload uses.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/digraph.hpp"

namespace perfbench {

enum class Scale { kFull, kTiny };

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// kTiny shrinks every instance and request count so the self-test can run
  /// all workloads in seconds; measured runs use kFull.
  Scale scale = Scale::kFull;
  /// Scratch directory inside the checkout (persistence directories).
  std::string work_dir = ".bench_build/work";
  /// Traced runs write their span file here.
  std::string spans_path = ".bench_build/spans.json";
  /// Build descriptor passed in by the wrapper (git commit or source digest).
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 = not a sampled statistic
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;  ///< requests sent (untraced) or traced
  std::uint64_t failed = 0;     ///< not kOk, not certified, or wrong by the oracle
  std::vector<std::string> failures;  ///< first few failure reasons
  /// Extra "key value" lines for the human-readable part of the output.
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    metrics.push_back({name, value, unit, samples});
  }
  void fail(std::string why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(why));
  }
};

/// Names of the workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Run one workload end to end (untraced or traced, per `cfg.trace`).
Report run_workload(const RunConfig& cfg);

// --- seeded inputs ---------------------------------------------------------

/// SplitMix64 finalizer over (seed, salt): independent streams per request.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Table-1-shaped instance: random_flow_network(n, 8n, 6, 6), s = 0,
/// t = n - 1, drawn from the stream (seed, salt).
pmcf::graph::Digraph table1_instance(pmcf::graph::Vertex n, std::uint64_t seed,
                                     std::uint64_t salt);

// --- statistics -------------------------------------------------------------

/// Linearly interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Accumulates per-request values of named layer metrics; value() is the
/// mean over the requests that reported one (0 when none did).
class Means {
 public:
  void add(const std::string& name, double v) {
    auto& [sum, n] = acc_[name];
    sum += v;
    ++n;
  }
  /// Replace whatever was accumulated for `name` with one value.
  void set(const std::string& name, double v) { acc_[name] = {v, 1}; }
  [[nodiscard]] double value(const std::string& name) const {
    const auto it = acc_.find(name);
    return it == acc_.end() || it->second.second == 0
               ? 0.0
               : it->second.first / static_cast<double>(it->second.second);
  }

 private:
  std::map<std::string, std::pair<double, std::size_t>> acc_;
};

// --- host -------------------------------------------------------------------

/// Process user + system CPU seconds so far (all threads).
double process_cpu_s();
/// Peak resident set of the process in MiB.
double peak_rss_mb();
/// Host and build descriptor as a JSON object: nproc, CPU model, AVX2
/// dispatch, build type, pool size and commit.
std::string host_json(const RunConfig& cfg, std::size_t pool_threads);
/// Online CPUs (hardware_concurrency, at least 1).
std::size_t nproc();

}  // namespace perfbench
