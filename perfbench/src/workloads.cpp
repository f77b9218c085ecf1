// The four Engine-served workloads and the two ways of running them.
//
// Untraced run (end-to-end metrics): set up several times (setup_s is the
// median), then a closed loop of one client that sends its next request when
// the previous reply arrives, for at least cfg.seconds of timed phase and
// kMinRequests requests, and always a whole number of request-mix cycles.
// Only the Engine call is inside each latency sample; request generation is
// inside the timed phase (it is microseconds); the oracle check and the
// resolve stream's fleet rotation between cycles are outside it.
//
// Traced run (per-layer metrics): a fixed number of requests, so every count
// repeats exactly for a seed. Three passes over the same requests: untraced
// (the reference for the tracing overhead), PRAM-instrumented (model-level
// work/depth), and traced, where every request gets a root span, a child
// span around the Engine call, and sibling probe spans that call single
// layers directly on the request's instance.

#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "mcf/engine.hpp"
#include "oracle.hpp"
#include "parallel/rng.hpp"
#include "parallel/thread_pool.hpp"
#include "probes.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace pmcf;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Setups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 9;
/// Sketch rows of the Table-1 row (EXPERIMENTS.md): leverage/Lewis JL dim.
constexpr int kSketchDim = 8;
/// Seed of the instances that prime an Engine in setup. Fixed rather than
/// drawn from --seed, so setup_s varies with the host, not with the inputs.
constexpr std::uint64_t kPrimeSeed = 0xfeed;
/// Untraced runs hold at least this many requests, so at least ten lie
/// beyond p90 even on a slow host.
constexpr std::size_t kMinRequests = 100;

mcf::SolveOptions table1_options(mcf::Method method) {
  mcf::SolveOptions o;
  o.method = method;
  o.ipm.mu_end = 1e-3;
  o.ipm.leverage.sketch_dim = kSketchDim;
  return o;
}

/// One Engine call as the client saw it, plus the benchmark's own view of
/// every instance in it (post-delta for resolves) for the oracle and probes.
struct Served {
  double latency_ms = 0.0;
  std::uint64_t engine_span = 0;
  std::vector<EngineSolveResult> results;
  std::vector<const graph::Digraph*> graphs;
};

bool ran_solver(const mcf::MinCostFlowResult& r) {
  return r.stats.warm_source != "cached-result";
}

class Workload {
 public:
  explicit Workload(const RunConfig& cfg) : cfg_(cfg) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Everything before the timed phase: inputs, Engine, priming. Each call
  /// replaces the previous state and restarts the request stream.
  virtual void setup(bool instrument) = 0;
  /// Requests per cycle of the request mix; untraced runs end on a boundary.
  [[nodiscard]] virtual std::size_t cycle() const = 0;
  [[nodiscard]] virtual std::size_t traced_requests() const = 0;
  /// Send request i through the Engine and wait for the reply.
  virtual Served serve(std::size_t i, const SpanAt& at) = 0;
  /// Untimed work before cycle `cycle_index` (> 0) starts.
  virtual void between_cycles(std::size_t /*cycle_index*/) {}
  [[nodiscard]] virtual const Engine& engine() const = 0;
  /// Pool the Engine's inner primitives run on (nullptr = serial).
  [[nodiscard]] virtual par::ThreadPool* pool() const { return nullptr; }
  [[nodiscard]] virtual std::size_t pool_threads() const { return 1; }
  [[nodiscard]] const mcf::SolveOptions& options() const { return opts_; }
  /// Run-level probes after the traced pass (persistence, pool speed-up).
  virtual void after_traced(Tracer&, Means&) {}

 protected:
  [[nodiscard]] bool tiny() const { return cfg_.scale == Scale::kTiny; }

  const RunConfig& cfg_;
  mcf::SolveOptions opts_;
};

// --- cold_reference / cold_robust -------------------------------------------

/// One client, Engine::solve over fresh Table-1-shaped instances of one
/// size n; the seed draws the graphs. (A mix of sizes puts the percentiles
/// between the sizes' latency bands, where they jump from seed to seed.)
class ColdWorkload final : public Workload {
 public:
  ColdWorkload(const RunConfig& cfg, mcf::Method method, graph::Vertex n, std::size_t traced,
               std::uint64_t stream)
      : Workload(cfg),
        n_(n),
        traced_(traced),
        seed_(mix_seed(cfg.seed, stream)) {
    opts_ = table1_options(method);
  }

  void setup(bool instrument) override {
    engine_.reset();
    EngineConfig ec;
    ec.seed = seed_;
    ec.instrument = instrument;
    ec.use_global_pool = false;
    engine_ = std::make_unique<Engine>(ec);
    const graph::Digraph g = table1_instance(n_, kPrimeSeed, 0);
    const EngineSolveResult r =
        engine_->solve(Instance::max_flow(g, 0, g.num_vertices() - 1), opts_);
    if (r.result.status != SolveStatus::kOk) throw std::runtime_error("priming solve failed");
  }
  [[nodiscard]] std::size_t cycle() const override { return 1; }
  [[nodiscard]] std::size_t traced_requests() const override { return traced_; }
  [[nodiscard]] const Engine& engine() const override { return *engine_; }

  Served serve(std::size_t i, const SpanAt& at) override {
    graph_ = table1_instance(n_, seed_, i);
    Served s;
    SpanScope span(*at.tracer, "engine.solve", at.parent, at.request);
    const auto t0 = Clock::now();
    s.results.push_back(
        engine_->solve(Instance::max_flow(graph_, 0, graph_.num_vertices() - 1), opts_));
    s.latency_ms = ms_since(t0);
    span.end();
    s.engine_span = span.id();
    s.graphs.push_back(&graph_);
    return s;
  }

 private:
  graph::Vertex n_;
  std::size_t traced_;
  std::uint64_t seed_;
  graph::Digraph graph_;
  std::unique_ptr<Engine> engine_;
};

// --- resolve_stream ----------------------------------------------------------

enum class DeltaKind { kCost, kCap, kNoop, kAdd, kRemove };

struct StreamSlot {
  std::size_t instance;
  DeltaKind kind;
};

// One cycle of the resolve stream. Instances 0-2 are hot; 3 and 4 are
// visited once per cycle, so with capacity 4 each visit to one evicts the
// other (two cache misses per cycle, no LRU cascade). Shares: 10 cost
// perturbations, 3 capacity changes, 3 no-ops (replays), 2 structural.
// Setup primes in the order 3, 4, 0, 1, 2, which leaves the LRU exactly as
// every cycle leaves it, so cycle 0 is already the steady state.
constexpr StreamSlot kStream[] = {
    {0, DeltaKind::kCost}, {1, DeltaKind::kCost}, {2, DeltaKind::kCap},
    {0, DeltaKind::kCost}, {1, DeltaKind::kNoop}, {2, DeltaKind::kCost},
    {3, DeltaKind::kCost}, {0, DeltaKind::kAdd},  {1, DeltaKind::kCost},
    {2, DeltaKind::kCost}, {0, DeltaKind::kNoop}, {1, DeltaKind::kCap},
    {2, DeltaKind::kCost}, {0, DeltaKind::kCost}, {1, DeltaKind::kCost},
    {2, DeltaKind::kNoop}, {4, DeltaKind::kCost}, {0, DeltaKind::kCost},
    {1, DeltaKind::kRemove}, {2, DeltaKind::kCap},
};
constexpr std::size_t kStreamLen = sizeof(kStream) / sizeof(kStream[0]);
constexpr std::size_t kFleet = 5;
constexpr std::size_t kPrimeOrder[] = {3, 4, 0, 1, 2};
constexpr std::size_t kCacheCapacity = 4;

class ResolveWorkload final : public Workload {
 public:
  explicit ResolveWorkload(const RunConfig& cfg)
      : Workload(cfg), seed_(mix_seed(cfg.seed, 3)), n_(tiny() ? 9 : 16) {
    opts_ = table1_options(mcf::Method::kReferenceIpm);
  }

  void setup(bool instrument) override {
    engine_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
    dir_ = cfg_.work_dir + "/persist-" + std::to_string(setups_++);
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    config_ = EngineConfig{};
    config_.seed = seed_;
    config_.instrument = instrument;
    config_.use_global_pool = false;
    config_.instance_cache_capacity = kCacheCapacity;
    config_.persist_dir = dir_;
    engine_ = std::make_unique<Engine>(config_);
    fleet_.clear();
    rng_ = par::Rng(mix_seed(seed_, 1));
    admit_fleet(0);
  }
  [[nodiscard]] std::size_t cycle() const override { return kStreamLen; }
  [[nodiscard]] std::size_t traced_requests() const override { return kStreamLen; }
  [[nodiscard]] const Engine& engine() const override { return *engine_; }

  /// Every cycle serves a fresh fleet: the old one is deregistered, the new
  /// one registered and primed (cold solves), outside the timed phase. A warm
  /// resolve's latency varies ~20x between instances and little within one,
  /// so a run's medians must rest on many instances, not on five.
  void between_cycles(std::size_t cycle_index) override {
    for (const Member& m : fleet_)
      if (!engine_->deregister_instance(m.handle)) throw std::runtime_error("deregister failed");
    fleet_.clear();
    admit_fleet(cycle_index);
  }

  Served serve(std::size_t i, const SpanAt& at) override {
    const StreamSlot slot = kStream[i % kStreamLen];
    Member& m = fleet_[slot.instance];
    const InstanceDelta delta = make_delta(m, slot.kind);
    Served s;
    SpanScope span(*at.tracer, "engine.resolve", at.parent, at.request);
    const auto t0 = Clock::now();
    s.results.push_back(engine_->resolve(m.handle, delta, opts_));
    s.latency_ms = ms_since(t0);
    span.end();
    s.engine_span = span.id();
    s.graphs.push_back(&m.mirror);
    return s;
  }

  void after_traced(Tracer& t, Means& layers) override {
    layers.set("store.register_ms", register_ms_.value("store.register_ms"));
    {
      SpanScope span(t, "persist.snapshot", 0, 0);
      const bool ok = engine_->persist_snapshot();
      layers.add("persist.snapshot_ms", span.end());
      span.count("published", ok ? 1 : 0);
    }
    engine_.reset();  // release the directory before recovering from it
    SpanScope span(t, "persist.recover", 0, 0);
    const Engine recovered(config_);
    layers.add("persist.recover_ms", span.end());
    span.count("instances", static_cast<double>(recovered.num_instances()));
  }

  ~ResolveWorkload() override {
    engine_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }

 private:
  struct Member {
    graph::Digraph mirror;  ///< the instance as the client knows it; removed arcs have cap 0
    std::vector<bool> removed;
    InstanceHandle handle = 0;
  };

  /// Register five fresh instances and prime them in an order that leaves
  /// the LRU as every cycle of kStream leaves it.
  void admit_fleet(std::size_t generation) {
    for (std::size_t k = 0; k < kFleet; ++k) {
      Member m;
      m.mirror = table1_instance(n_, seed_, generation * kFleet + k);
      m.removed.assign(static_cast<std::size_t>(m.mirror.num_arcs()), false);
      const auto t0 = Clock::now();
      m.handle = engine_->register_instance(
          Instance::max_flow(m.mirror, 0, m.mirror.num_vertices() - 1));
      register_ms_.add("store.register_ms", ms_since(t0));
      if (m.handle == 0) throw std::runtime_error("register_instance failed");
      fleet_.push_back(std::move(m));
    }
    for (const std::size_t k : kPrimeOrder) {
      const EngineSolveResult r = engine_->resolve(fleet_[k].handle, {}, opts_);
      if (r.result.status != SolveStatus::kOk) throw std::runtime_error("priming resolve failed");
    }
  }

  graph::EdgeId live_arc(const Member& m) {
    for (;;) {
      const auto e = static_cast<graph::EdgeId>(
          rng_.next_below(static_cast<std::uint64_t>(m.mirror.num_arcs())));
      if (!m.removed[static_cast<std::size_t>(e)]) return e;
    }
  }

  /// +-1 step inside [lo, hi] that always changes the value.
  std::int64_t nudge(std::int64_t v, std::int64_t lo, std::int64_t hi) {
    if (v <= lo) return lo + 1;
    if (v >= hi) return hi - 1;
    return rng_.next_below(2) == 0 ? v - 1 : v + 1;
  }

  /// Draw the delta for `kind` and apply it to the client's mirror.
  InstanceDelta make_delta(Member& m, DeltaKind kind) {
    InstanceDelta d;
    graph::Digraph& g = m.mirror;
    switch (kind) {
      case DeltaKind::kCost: {  // ~1% of the arcs, costs stay in [0, 6]
        const auto k = std::max<std::int64_t>(2, g.num_arcs() / 100);
        for (std::int64_t j = 0; j < k; ++j) {
          const graph::EdgeId e = live_arc(m);
          const std::int64_t c = nudge(g.arc(e).cost, 0, 6);
          d.cost_changes.push_back({e, c});
          g.set_cost(e, c);
        }
        break;
      }
      case DeltaKind::kCap: {  // capacities stay in [1, 6]
        const graph::EdgeId e = live_arc(m);
        const std::int64_t c = nudge(g.arc(e).cap, 1, 6);
        d.cap_changes.push_back({e, c});
        g.set_cap(e, c);
        break;
      }
      case DeltaKind::kNoop: {  // rewrites a cost with its current value
        const graph::EdgeId e = live_arc(m);
        d.cost_changes.push_back({e, g.arc(e).cost});
        break;
      }
      case DeltaKind::kAdd: {
        const graph::Vertex n = g.num_vertices();
        const auto u = static_cast<graph::Vertex>(rng_.next_below(static_cast<std::uint64_t>(n)));
        auto v = static_cast<graph::Vertex>(rng_.next_below(static_cast<std::uint64_t>(n - 1)));
        if (v >= u) ++v;
        const auto cap = static_cast<std::int64_t>(1 + rng_.next_below(6));
        const auto cost = static_cast<std::int64_t>(rng_.next_below(7));
        d.add_arcs.push_back({u, v, cap, cost});
        g.add_arc(u, v, cap, cost);
        m.removed.push_back(false);
        break;
      }
      case DeltaKind::kRemove: {
        const graph::EdgeId e = live_arc(m);
        d.remove_arcs.push_back(e);
        g.set_cap(e, 0);
        m.removed[static_cast<std::size_t>(e)] = true;
        break;
      }
    }
    return d;
  }

  std::uint64_t seed_;
  graph::Vertex n_;
  std::string dir_;
  std::size_t setups_ = 0;
  EngineConfig config_;
  par::Rng rng_{0};
  Means register_ms_;  ///< register_instance times across every fleet admitted
  std::vector<Member> fleet_;
  std::unique_ptr<Engine> engine_;
};

// --- batch_pool -------------------------------------------------------------

/// One client calling Engine::solve_batch on batches of 2 x nproc instances;
/// the Engine runs on a pool of nproc threads with nproc admission slots and
/// a queue that holds a whole batch, so half of every batch waits in the
/// admission queue and nothing sheds.
class BatchWorkload final : public Workload {
 public:
  explicit BatchWorkload(const RunConfig& cfg)
      : Workload(cfg),
        seed_(mix_seed(cfg.seed, 4)),
        threads_(nproc()),
        batch_(2 * threads_),
        n_(tiny() ? 8 : 12) {
    opts_ = table1_options(mcf::Method::kReferenceIpm);
  }

  void setup(bool instrument) override {
    engine_.reset();
    pool_ = std::make_unique<par::ThreadPool>(threads_);
    engine_ = make_engine(pool_.get(), instrument);
    make_batch(kPrimeSeed, 0);
    for (const EngineSolveResult& r : engine_->solve_batch(batch_instances_, opts_))
      if (r.result.status != SolveStatus::kOk) throw std::runtime_error("priming batch failed");
  }
  [[nodiscard]] std::size_t cycle() const override { return 1; }
  [[nodiscard]] std::size_t traced_requests() const override { return tiny() ? 2 : 6; }
  [[nodiscard]] const Engine& engine() const override { return *engine_; }
  [[nodiscard]] par::ThreadPool* pool() const override { return pool_.get(); }
  [[nodiscard]] std::size_t pool_threads() const override { return threads_; }

  Served serve(std::size_t i, const SpanAt& at) override {
    make_batch(seed_, i);
    Served s;
    SpanScope span(*at.tracer, "engine.solve_batch", at.parent, at.request);
    const auto t0 = Clock::now();
    s.results = engine_->solve_batch(batch_instances_, opts_);
    s.latency_ms = ms_since(t0);
    span.end();
    s.engine_span = span.id();
    for (const graph::Digraph& g : graphs_) s.graphs.push_back(&g);
    return s;
  }

  /// The traced batches again, back to back, on this pool and on a 1-thread
  /// pool: parallel.speedup and the pool's CPU utilization.
  void after_traced(Tracer& t, Means& layers) override {
    par::ThreadPool single(1);
    const std::unique_ptr<Engine> serial = make_engine(&single, false);
    double wall_pool = 0.0;
    double wall_single = 0.0;
    double cpu_pool = 0.0;
    for (std::size_t i = 0; i < traced_requests(); ++i) {
      make_batch(seed_, i);
      {
        SpanScope span(t, "parallel.batch_pool", 0, 0);
        const double c0 = process_cpu_s();
        (void)engine_->solve_batch(batch_instances_, opts_);
        cpu_pool += process_cpu_s() - c0;
        wall_pool += span.end();
      }
      SpanScope span(t, "parallel.batch_1thread", 0, 0);
      (void)serial->solve_batch(batch_instances_, opts_);
      wall_single += span.end();
    }
    layers.set("parallel.speedup", wall_pool > 0.0 ? wall_single / wall_pool : 0.0);
    layers.set("parallel.cpu_utilization",
               wall_pool > 0.0
                   ? cpu_pool * 1000.0 / (wall_pool * static_cast<double>(threads_))
                   : 0.0);
  }

 private:
  std::unique_ptr<Engine> make_engine(par::ThreadPool* pool, bool instrument) const {
    EngineConfig ec;
    ec.seed = seed_;
    ec.instrument = instrument;
    ec.pool = pool;
    ec.use_global_pool = false;
    ec.max_in_flight = threads_;
    ec.max_queue = batch_;
    return std::make_unique<Engine>(ec);
  }

  void make_batch(std::uint64_t seed, std::uint64_t salt) {
    graphs_.clear();
    batch_instances_.clear();
    for (std::size_t j = 0; j < batch_; ++j) {
      graphs_.push_back(table1_instance(n_, seed, salt * batch_ + j));
      batch_instances_.push_back(
          Instance::max_flow(graphs_.back(), 0, graphs_.back().num_vertices() - 1));
    }
  }

  std::uint64_t seed_;
  std::size_t threads_;
  std::size_t batch_;
  graph::Vertex n_;
  std::deque<graph::Digraph> graphs_;  ///< stable addresses for the instances
  std::vector<Instance> batch_instances_;
  std::unique_ptr<par::ThreadPool> pool_;  ///< outlives engine_ (declared first)
  std::unique_ptr<Engine> engine_;
};

std::unique_ptr<Workload> make_workload(const RunConfig& cfg) {
  const bool tiny = cfg.scale == Scale::kTiny;
  if (cfg.workload == "cold_reference")
    return std::make_unique<ColdWorkload>(cfg, mcf::Method::kReferenceIpm, tiny ? 8 : 24,
                                          tiny ? 2 : 8, 1);
  if (cfg.workload == "cold_robust")
    return std::make_unique<ColdWorkload>(cfg, mcf::Method::kRobustIpm, tiny ? 5 : 7,
                                          tiny ? 2 : 6, 2);
  if (cfg.workload == "resolve_stream") return std::make_unique<ResolveWorkload>(cfg);
  if (cfg.workload == "batch_pool") return std::make_unique<BatchWorkload>(cfg);
  return nullptr;
}

// --- metrics ------------------------------------------------------------------

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run emits, in BENCHMARK.json order.
/// Metrics of a layer a workload does not use read 0 there.
constexpr LayerMetric kLayerMetrics[] = {
    {"engine.self_ms", "ms"},
    {"engine.queue_wait_ms_p50", "ms"},
    {"store.cache_hit_rate", "share"},
    {"store.warm_share", "share"},
    {"store.cold_share", "share"},
    {"store.warm_fallback_share", "share"},
    {"store.evictions_per_request", "count"},
    {"store.register_ms", "ms"},
    {"store.replay_ms", "ms"},
    {"persist.journal_appends_per_request", "count"},
    {"persist.snapshot_ms", "ms"},
    {"persist.recover_ms", "ms"},
    {"mcf.solve_ms", "ms"},
    {"mcf.degraded_share", "share"},
    {"certify.ms", "ms"},
    {"ipm.iterations_per_solve", "count"},
    {"ipm.repair_imbalance_per_solve", "count"},
    {"ipm.repair_cycles_per_solve", "count"},
    {"ipm.robust_steps_per_solve", "count"},
    {"ipm.robust_step_work", "ops"},
    {"linalg.precond_builds_per_solve", "count"},
    {"linalg.precond_hit_rate", "share"},
    {"linalg.laplacian_refreshes_per_solve", "count"},
    {"linalg.multi_rhs_columns_per_solve", "count"},
    {"linalg.cg_escalations_per_solve", "count"},
    {"linalg.dense_fallbacks_per_solve", "count"},
    {"linalg.sdd_ms", "ms"},
    {"linalg.sdd_iterations", "count"},
    {"linalg.sdd_multi_ms", "ms"},
    {"linalg.leverage_ms", "ms"},
    {"linalg.lewis_ms", "ms"},
    {"expander.vertex_decomp_ms", "ms"},
    {"expander.edge_decomp_ms", "ms"},
    {"expander.unit_flow_ms", "ms"},
    {"expander.structure_rebuilds_per_solve", "count"},
    {"ds.sketch_retries_per_solve", "count"},
    {"baselines.ssp_ms", "ms"},
    {"parallel.speedup", "x"},
    {"parallel.cpu_utilization", "share"},
    {"pram.work_per_solve", "ops"},
    {"pram.depth_per_solve", "ops"},
    {"trace.engine_span_p50_ms", "ms"},
    {"trace.untraced_engine_p50_ms", "ms"},
    {"trace.overhead_share", "share"},
};

double share(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Oracle-check instance j of a served request; a failure is recorded.
bool check_one(const Served& s, std::size_t j, std::uint64_t request, Report& rep) {
  ++rep.attempted;
  const graph::Digraph& g = *s.graphs[j];
  const std::string why = oracle_check(g, 0, g.num_vertices() - 1, s.results[j].result);
  if (!why.empty())
    rep.fail("request " + std::to_string(request) + " instance " + std::to_string(j) + ": " + why);
  return why.empty();
}

/// Check every instance of a served request; returns how many passed.
std::size_t check_served(const Served& s, std::uint64_t request, Report& rep) {
  std::size_t ok = 0;
  for (std::size_t j = 0; j < s.results.size(); ++j) ok += check_one(s, j, request, rep) ? 1 : 0;
  return ok;
}

Report run_untraced(Workload& w, const RunConfig& cfg) {
  Report rep;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    w.setup(false);
    setup_s.push_back(ms_since(t0) / 1000.0);
  }

  Tracer off(false);
  const SpanAt at{&off, 0, 0};
  std::vector<double> latency;
  std::size_t answered = 0;
  double timed_s = 0.0;
  double cpu_s = 0.0;
  std::size_t requests = 0;
  while (timed_s < cfg.seconds || requests < kMinRequests || requests % w.cycle() != 0) {
    if (requests > 0 && requests % w.cycle() == 0) w.between_cycles(requests / w.cycle());
    const double c0 = process_cpu_s();
    const auto t0 = Clock::now();
    const Served s = w.serve(requests, at);
    timed_s += ms_since(t0) / 1000.0;
    cpu_s += process_cpu_s() - c0;
    latency.push_back(s.latency_ms);
    answered += check_served(s, requests, rep);
    ++requests;
  }

  const double p90 = quantile(latency, 0.9);
  std::size_t beyond = 0;
  for (const double x : latency) beyond += x > p90 ? 1 : 0;
  rep.add("latency_ms_p50", median(latency), "ms", requests);
  rep.add("latency_ms_p90", p90, "ms", requests);
  rep.add("throughput_rps", static_cast<double>(answered) / timed_s, "1/s", answered);
  rep.add("cpu_ms_per_request", cpu_s * 1000.0 / static_cast<double>(requests), "ms", requests);
  rep.add("failed_share", share(rep.failed, rep.attempted), "share", rep.attempted);
  rep.add("setup_s", median(setup_s), "s", setup_s.size());
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.notes.push_back("requests " + std::to_string(requests) + " beyond_p90 " +
                      std::to_string(beyond) + " timed_s " + std::to_string(timed_s));
  return rep;
}

/// Histogram of the samples recorded between two snapshots.
HistogramSnapshot histogram_delta(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  HistogramSnapshot d;
  for (std::size_t k = 0; k < kHistogramBuckets; ++k) d.buckets[k] = b.buckets[k] - a.buckets[k];
  d.count = b.count - a.count;
  d.sum_us = b.sum_us - a.sum_us;
  return d;
}

Report run_traced(Workload& w, const RunConfig& cfg) {
  Report rep;
  const std::size_t n = w.traced_requests();
  Tracer off(false);
  const SpanAt untraced_at{&off, 0, 0};

  // Pass 1: the same requests untraced, the reference for tracing overhead.
  std::vector<double> untraced;
  w.setup(false);
  for (std::size_t i = 0; i < n; ++i) {
    const Served s = w.serve(i, untraced_at);
    untraced.push_back(s.latency_ms);
    check_served(s, i + 1, rep);
  }

  // Pass 2: PRAM-instrumented Engine; model-level counts, never timed.
  Means layers;
  w.setup(true);
  for (std::size_t i = 0; i < n; ++i) {
    const Served s = w.serve(i, untraced_at);
    check_served(s, i + 1, rep);
    for (const EngineSolveResult& r : s.results) {
      if (!ran_solver(r.result)) continue;
      layers.add("pram.work_per_solve", static_cast<double>(r.pram.work));
      layers.add("pram.depth_per_solve", static_cast<double>(r.pram.depth));
      if (r.result.stats.robust_steps > 0)
        layers.add("ipm.robust_step_work",
                   static_cast<double>(r.result.stats.robust_step_work) /
                       r.result.stats.robust_steps);
    }
  }

  // Pass 3: traced, with probes.
  Tracer tr(true);
  {
    SpanScope span(tr, "setup", 0, 0);
    w.setup(false);
  }
  const MetricsSnapshot m0 = w.engine().metrics_snapshot();
  std::vector<double> engine_ms;
  double engine_cpu_s = 0.0;
  double engine_wall_ms = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t req = i + 1;
    SpanScope root(tr, "request", 0, req);
    const SpanAt at{&tr, root.id(), req};
    const MetricsSnapshot before = w.engine().metrics_snapshot();
    const double c0 = process_cpu_s();
    const Served s = w.serve(i, at);
    engine_cpu_s += process_cpu_s() - c0;
    const MetricsSnapshot after = w.engine().metrics_snapshot();
    engine_ms.push_back(s.latency_ms);
    engine_wall_ms += s.latency_ms;

    double replay_certify_ms = 0.0;
    for (std::size_t j = 0; j < s.results.size(); ++j) {
      const mcf::MinCostFlowResult& r = s.results[j].result;
      const graph::Digraph& g = *s.graphs[j];
      const mcf::SolveStats& st = r.stats;
      tr.count(s.engine_span, "ipm_iterations", st.ipm_iterations);
      tr.count(s.engine_span, "tiers_attempted", st.tiers_attempted);
      tr.count(s.engine_span, "certified", st.certified ? 1 : 0);
      const std::uint64_t seed = mix_seed(cfg.seed, req * 64 + j);
      const bool solved = ran_solver(r);
      if (solved) {
        layers.add("mcf.degraded_share", st.tiers_attempted > 1 ? 1.0 : 0.0);
        layers.add("ipm.iterations_per_solve", st.ipm_iterations);
        layers.add("ipm.repair_imbalance_per_solve", static_cast<double>(st.imbalance_routed));
        layers.add("ipm.repair_cycles_per_solve", static_cast<double>(st.cycles_canceled));
        layers.add("ipm.robust_steps_per_solve", st.robust_steps);
        layers.add("linalg.precond_builds_per_solve", static_cast<double>(st.precond_builds));
        if (st.precond_builds + st.precond_reuses > 0)
          layers.add("linalg.precond_hit_rate", st.precond_hit_rate());
        layers.add("linalg.laplacian_refreshes_per_solve",
                   static_cast<double>(st.laplacian_refreshes));
        layers.add("linalg.multi_rhs_columns_per_solve",
                   static_cast<double>(st.multi_rhs_columns));
        layers.add("linalg.cg_escalations_per_solve",
                   static_cast<double>(st.cg_tolerance_escalations));
        layers.add("linalg.dense_fallbacks_per_solve", static_cast<double>(st.dense_fallbacks));
        layers.add("expander.structure_rebuilds_per_solve",
                   static_cast<double>(st.structure_rebuilds));
        layers.add("ds.sketch_retries_per_solve", static_cast<double>(st.sketch_retries));
      } else {
        layers.add("store.replay_ms", s.latency_ms);
      }
      probe_mcf(at, g, w.options(), w.pool(), layers);
      const double cert_ms = probe_certify(at, g, r, layers);
      if (!solved) replay_certify_ms += cert_ms;
      probe_ssp(at, g, layers);
      probe_linalg(at, g, kSketchDim, w.pool(), seed, layers);
      probe_expander(at, g, seed, layers);
      SpanScope oracle(tr, "oracle", root.id(), req);
      oracle.count("failed", check_one(s, j, req, rep) ? 0 : 1);
    }
    // The Engine's own time: its span minus the solver time it recorded and
    // the certification of replays (which run no solver). Only for
    // single-instance requests: a batch's items run at the same time, and
    // the Engine records no solver intervals to take the union of.
    if (s.results.size() == 1) {
      const double solver_ms =
          static_cast<double>(after.solve_time.sum_us - before.solve_time.sum_us) / 1000.0;
      layers.add("engine.self_ms", std::max(0.0, s.latency_ms - solver_ms - replay_certify_ms));
    }
  }
  const MetricsSnapshot m1 = w.engine().metrics_snapshot();

  const auto delta = [&](EngineCounter c) { return m1.of(c) - m0.of(c); };
  layers.set("engine.queue_wait_ms_p50",
             histogram_delta(m0.queue_wait, m1.queue_wait).quantile_us(0.5) / 1000.0);
  const std::uint64_t hits = delta(EngineCounter::kInstanceCacheHits);
  const std::uint64_t misses = delta(EngineCounter::kInstanceCacheMisses);
  const std::uint64_t warm = delta(EngineCounter::kResolveWarm);
  const std::uint64_t resolves = warm + delta(EngineCounter::kResolveCold);
  layers.set("store.cache_hit_rate", share(hits, hits + misses));
  layers.set("store.warm_share", share(warm, resolves));
  layers.set("store.cold_share", share(delta(EngineCounter::kResolveCold), resolves));
  layers.set("store.warm_fallback_share", share(delta(EngineCounter::kResolveWarmFallback), warm));
  layers.set("store.evictions_per_request", share(delta(EngineCounter::kInstanceCacheEvictions), n));
  layers.set("persist.journal_appends_per_request",
             share(delta(EngineCounter::kPersistJournalAppends), n));
  layers.set("parallel.speedup", 1.0);
  layers.set("parallel.cpu_utilization",
             engine_wall_ms > 0.0 ? engine_cpu_s * 1000.0 / engine_wall_ms : 0.0);
  const double traced_p50 = median(engine_ms);
  const double untraced_p50 = median(untraced);
  layers.set("trace.engine_span_p50_ms", traced_p50);
  layers.set("trace.untraced_engine_p50_ms", untraced_p50);
  layers.set("trace.overhead_share", untraced_p50 > 0.0 ? traced_p50 / untraced_p50 - 1.0 : 0.0);

  w.after_traced(tr, layers);

  for (const LayerMetric& lm : kLayerMetrics) rep.add(lm.name, layers.value(lm.name), lm.unit);

  const std::string span_error = tr.check();
  if (!span_error.empty()) rep.fail("span structure: " + span_error);
  std::filesystem::path spans(cfg.spans_path);
  if (spans.has_parent_path()) std::filesystem::create_directories(spans.parent_path());
  std::ofstream(spans) << tr.to_json(host_json(cfg, w.pool_threads()));
  rep.notes.push_back("spans " + cfg.spans_path + " (" + std::to_string(tr.spans().size()) +
                      " spans)");
  return rep;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"cold_reference", "cold_robust",
                                                 "resolve_stream", "batch_pool"};
  return names;
}

Report run_workload(const RunConfig& cfg) {
  const std::unique_ptr<Workload> w = make_workload(cfg);
  if (w == nullptr) throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
  Report rep = cfg.trace ? run_traced(*w, cfg) : run_untraced(*w, cfg);
  rep.notes.push_back("host " + host_json(cfg, w->pool_threads()));
  return rep;
}

}  // namespace perfbench
