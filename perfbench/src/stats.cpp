#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "graph/generators.hpp"
#include "linalg/simd.hpp"
#include "parallel/rng.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return pmcf::par::splitmix64(state);
}

pmcf::graph::Digraph table1_instance(pmcf::graph::Vertex n, std::uint64_t seed,
                                     std::uint64_t salt) {
  pmcf::par::Rng rng(mix_seed(seed, salt));
  return pmcf::graph::random_flow_network(n, 8 * static_cast<std::int64_t>(n), 6, 6, rng);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would carry
  // the peak of the parent that forked it (the Python wrapper).
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

std::size_t nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(" \t"));
        return v;
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string host_json(const RunConfig& cfg, std::size_t pool_threads) {
  std::ostringstream os;
  os << "{\"nproc\": " << nproc() << ", \"cpu_model\": \"" << json_escape(cpu_model())
     << "\", \"avx2_dispatched\": "
     << (pmcf::linalg::simd::available() ? "true" : "false") << ", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"pool_threads\": " << pool_threads
     << ", \"commit\": \"" << json_escape(cfg.commit) << "\"}";
  return os.str();
}

}  // namespace perfbench
