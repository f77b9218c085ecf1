// Kill-and-restart recovery harness for the instance-store durability layer
// (DESIGN.md §16, EXPERIMENTS.md "Crash harness").
//
// The parent process forks a worker that runs an Engine with persistence on
// a shared state directory — registering instances and hammering them with
// seeded deltas, so the journal is being appended (and snapshots rotated)
// essentially continuously — then SIGKILLs it at a seeded random point a
// few hundred microseconds to tens of milliseconds in. A forked checker
// then recovers from the surviving files and asserts the consistency
// contract on every recovered instance:
//
//   resolve(h, {}) succeeds, is certified, and its cost/flow equal a cold
//   solve of the recovered instance's live graph.
//
// Dropped records and journal truncations are acceptable (a crash may lose
// the unacknowledged tail); a miscertified or wrong recovered optimum never
// is. State persists across kills, so later iterations recover from disk
// images that themselves survived earlier crashes.
//
// The parent never constructs an Engine (or any threads) before forking;
// workers and checkers each build their own in their own process.
//
// Usage: crash_harness [--kills N] [--seed S] [--dir PATH]
//                      [--snapshot-every K] [--keep-dir]

#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "graph/digraph.hpp"
#include "graph/generators.hpp"
#include "mcf/engine.hpp"
#include "mcf/min_cost_flow.hpp"
#include "mcf/store_persist.hpp"
#include "parallel/rng.hpp"

namespace {

namespace mcf = pmcf::mcf;
namespace par = pmcf::par;
namespace graph = pmcf::graph;

using graph::Digraph;
using graph::EdgeId;
using graph::Vertex;
using pmcf::Engine;
using pmcf::EngineConfig;
using pmcf::Instance;
using pmcf::InstanceDelta;
using pmcf::InstanceHandle;
using pmcf::SolveStatus;

struct Options {
  int kills = 20;
  std::uint64_t seed = 1234;
  std::string dir;
  std::size_t snapshot_every = 4;
  bool keep_dir = false;
};

mcf::SolveOptions combinatorial_opts() {
  mcf::SolveOptions opts;
  opts.method = mcf::Method::kCombinatorial;
  return opts;
}

mcf::SolveOptions ipm_opts() {
  mcf::SolveOptions opts;
  opts.ipm.mu_end = 1e-3;
  opts.ipm.leverage.sketch_dim = 8;
  return opts;
}

EngineConfig persist_cfg(const Options& opt, std::uint64_t seed) {
  EngineConfig cfg;
  cfg.seed = seed;
  cfg.use_global_pool = false;
  cfg.persist_dir = opt.dir;
  cfg.persist_snapshot_every = opt.snapshot_every;
  return cfg;
}

/// A live original arc id of `rec` (value changes / removals address
/// original ids; the compact→original map enumerates exactly the live ones).
EdgeId live_arc(const pmcf::InstanceRecord& rec, std::uint64_t draw) {
  if (!rec.compacted || rec.orig_of.empty()) {
    return static_cast<EdgeId>(
        draw % static_cast<std::uint64_t>(rec.solver_graph.num_arcs()));
  }
  return rec.orig_of[draw % rec.orig_of.size()];
}

/// Runs until SIGKILLed (iteration cap only as a leak-proof backstop).
[[noreturn]] void run_worker(const Options& opt, std::uint64_t kill_index) {
  const std::uint64_t seed = opt.seed * 1000003u + kill_index;
  const Engine engine(persist_cfg(opt, seed));
  while (engine.num_instances() < 3) {
    par::Rng grng(opt.seed * 131 + engine.num_instances());
    const Digraph g = graph::random_flow_network(10, 36, 8, 7, grng);
    if (engine.register_instance(Instance::max_flow(g, 0, g.num_vertices() - 1)) == 0)
      _exit(2);
  }
  const std::vector<InstanceHandle> handles = engine.instance_handles();
  par::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (std::uint64_t iter = 0; iter < 200000; ++iter) {
    const InstanceHandle h = handles[rng.next_u64() % handles.size()];
    const auto rec = engine.inspect_instance(h);
    if (rec == nullptr) _exit(2);
    InstanceDelta d;
    const std::uint64_t roll = rng.next_u64() % 10;
    if (roll < 6) {
      d.cost_changes.push_back(
          {live_arc(*rec, rng.next_u64()), static_cast<std::int64_t>(rng.next_u64() % 8)});
    } else if (roll < 8) {
      d.cap_changes.push_back(
          {live_arc(*rec, rng.next_u64()), static_cast<std::int64_t>(rng.next_u64() % 9)});
    } else if (roll == 8) {
      const auto n = static_cast<std::uint64_t>(rec->solver_graph.num_vertices());
      const auto from = static_cast<Vertex>(rng.next_u64() % n);
      const auto to = static_cast<Vertex>((from + 1 + rng.next_u64() % (n - 1)) % n);
      d.add_arcs.push_back({from, to, static_cast<std::int64_t>(1 + rng.next_u64() % 8),
                            static_cast<std::int64_t>(rng.next_u64() % 8)});
    } else if (rec->solver_graph.num_arcs() > 20) {
      d.remove_arcs.push_back(live_arc(*rec, rng.next_u64()));
    }
    // The occasional IPM-method resolve keeps warm central-path artifacts
    // flowing into snapshots whenever it runs the IPM (structural deltas and
    // repair fallbacks; other value deltas are served by the optimum
    // repair); the combinatorial bulk keeps the journal append rate high so
    // kills land mid-append.
    const auto res =
        engine.resolve(h, d, iter % 7 == 0 ? ipm_opts() : combinatorial_opts());
    if (res.result.status != SolveStatus::kOk &&
        res.result.status != SolveStatus::kInvalidInput) {
      _exit(2);  // max-flow deltas must never produce another status
    }
  }
  _exit(0);
}

/// Recover and verify; exit status is the verdict.
[[noreturn]] void run_checker(const Options& opt, std::uint64_t kill_index) {
  const Engine engine(persist_cfg(opt, opt.seed * 7919u + kill_index));
  const pmcf::RecoveryReport rep = engine.persist_recovery();
  bool ok = true;
  std::size_t checked = 0;
  for (const InstanceHandle h : engine.instance_handles()) {
    const auto rec = engine.inspect_instance(h);
    if (rec == nullptr) {
      ok = false;
      break;
    }
    const Digraph live = rec->solver_graph;  // copy before resolving
    const Vertex s = rec->source;
    const Vertex t = rec->sink;
    const auto replay = engine.resolve(h, {}, combinatorial_opts());
    EngineConfig cold_cfg;
    cold_cfg.use_global_pool = false;
    const Engine cold_engine(cold_cfg);
    const auto cold =
        cold_engine.solve(Instance::max_flow(live, s, t), combinatorial_opts());
    if (replay.result.status != SolveStatus::kOk || !replay.result.stats.certified ||
        cold.result.status != SolveStatus::kOk ||
        replay.result.cost != cold.result.cost ||
        replay.result.flow_value != cold.result.flow_value) {
      std::fprintf(stderr,
                   "[crash_harness] kill %llu: handle %llu INCONSISTENT "
                   "(replay status=%d certified=%d cost=%lld flow=%lld / "
                   "cold status=%d cost=%lld flow=%lld)\n",
                   static_cast<unsigned long long>(kill_index),
                   static_cast<unsigned long long>(h),
                   static_cast<int>(replay.result.status),
                   static_cast<int>(replay.result.stats.certified),
                   static_cast<long long>(replay.result.cost),
                   static_cast<long long>(replay.result.flow_value),
                   static_cast<int>(cold.result.status),
                   static_cast<long long>(cold.result.cost),
                   static_cast<long long>(cold.result.flow_value));
      ok = false;
    }
    ++checked;
  }
  std::printf(
      "[crash_harness] kill %llu: gen=%llu recovered=%zu dropped=%zu "
      "optima=%zu replayed=%zu truncations=%zu fallbacks=%zu checked=%zu %s\n",
      static_cast<unsigned long long>(kill_index),
      static_cast<unsigned long long>(rep.generation), rep.records_recovered,
      rep.records_dropped, rep.optima_recovered, rep.journal_frames_replayed,
      rep.journal_truncations, rep.snapshot_fallbacks, checked,
      ok ? "CONSISTENT" : "FAILED");
  std::fflush(stdout);
  std::fflush(stderr);
  _exit(ok ? 0 : 1);
}

/// Fork `fn(opt, k)`; returns the child's exit status (-1 on signal death).
template <typename Fn>
int in_child(Fn fn, const Options& opt, std::uint64_t k, pid_t* pid_out = nullptr) {
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(3);
  }
  if (pid == 0) fn(opt, k);  // never returns
  if (pid_out != nullptr) {
    *pid_out = pid;
    return 0;
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(3);
      }
      return argv[++i];
    };
    if (arg == "--kills") {
      opt.kills = std::atoi(next());
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--dir") {
      opt.dir = next();
      opt.keep_dir = true;
    } else if (arg == "--snapshot-every") {
      opt.snapshot_every = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--keep-dir") {
      opt.keep_dir = true;
    } else {
      std::fprintf(stderr,
                   "usage: crash_harness [--kills N] [--seed S] [--dir PATH] "
                   "[--snapshot-every K] [--keep-dir]\n");
      return arg == "--help" ? 0 : 3;
    }
  }
  if (opt.dir.empty()) {
    char tmpl[] = "/tmp/pmcf_crash_XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
      std::perror("mkdtemp");
      return 3;
    }
    opt.dir = tmpl;
  }
  std::filesystem::create_directories(opt.dir);
  std::printf("[crash_harness] dir=%s kills=%d seed=%llu snapshot_every=%zu\n",
              opt.dir.c_str(), opt.kills, static_cast<unsigned long long>(opt.seed),
              opt.snapshot_every);
  std::fflush(stdout);  // forked children inherit (and would replay) the buffer

  par::Rng kill_rng(opt.seed);
  int failures = 0;
  for (int k = 0; k < opt.kills; ++k) {
    pid_t worker = 0;
    in_child(run_worker, opt, static_cast<std::uint64_t>(k), &worker);
    // Seeded kill point: mid-recovery, mid-append, or mid-snapshot.
    usleep(static_cast<useconds_t>(500 + kill_rng.next_u64() % 30000));
    kill(worker, SIGKILL);
    int status = 0;
    waitpid(worker, &status, 0);
    if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "[crash_harness] worker %d died on its own: exit %d\n", k,
                   WEXITSTATUS(status));
      ++failures;
      continue;
    }
    if (in_child(run_checker, opt, static_cast<std::uint64_t>(k)) != 0) ++failures;
  }

  if (failures == 0 && !opt.keep_dir) std::filesystem::remove_all(opt.dir);
  if (failures != 0) {
    std::printf("[crash_harness] FAIL: %d of %d kills left inconsistent state (dir kept: %s)\n",
                failures, opt.kills, opt.dir.c_str());
    return 1;
  }
  std::printf("[crash_harness] PASS: %d kills, every restart recovered consistent state\n",
              opt.kills);
  return 0;
}
