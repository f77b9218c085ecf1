// Self-test of the benchmark's own checkers: the oracle must count tampered
// answers as failed, and the tracer must accept properly nested spans and
// reject a child that outlives its parent. This tests the checkers, not the
// solver. Exit code 0 = all checks passed.

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "bench.hpp"
#include "mcf/engine.hpp"
#include "oracle.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void sleep_us(int us) { std::this_thread::sleep_for(std::chrono::microseconds(us)); }

void test_oracle() {
  using namespace pmcf;
  const graph::Digraph g = perfbench::table1_instance(10, 7, 0);
  const graph::Vertex t = g.num_vertices() - 1;
  EngineConfig ec;
  ec.instrument = false;
  ec.use_global_pool = false;
  const Engine engine(ec);
  mcf::SolveOptions opts;
  opts.ipm.mu_end = 1e-3;
  opts.ipm.leverage.sketch_dim = 8;
  const mcf::MinCostFlowResult good = engine.solve(Instance::max_flow(g, 0, t), opts).result;
  expect(perfbench::oracle_check(g, 0, t, good).empty(), "oracle accepts the engine's answer");

  mcf::MinCostFlowResult r = good;
  r.cost += 1;
  expect(!perfbench::oracle_check(g, 0, t, r).empty(), "oracle rejects a tampered cost");

  r = good;
  r.flow_value -= 1;
  expect(!perfbench::oracle_check(g, 0, t, r).empty(), "oracle rejects a tampered flow value");

  r = good;
  for (auto& f : r.arc_flow) {
    if (f > 0) {
      --f;
      break;
    }
  }
  expect(!perfbench::oracle_check(g, 0, t, r).empty(),
         "oracle rejects a tampered arc flow with the claimed cost and value kept");

  r = good;
  r.stats.certified = false;
  expect(!perfbench::oracle_check(g, 0, t, r).empty(), "oracle rejects an uncertified answer");

  r = good;
  r.status = SolveStatus::kNumericalFailure;
  expect(!perfbench::oracle_check(g, 0, t, r).empty(), "oracle rejects a non-kOk answer");

  // Counted in the report the way the workloads count it.
  perfbench::Report rep;
  rep.attempted = 2;
  r = good;
  r.cost -= 1;
  if (!perfbench::oracle_check(g, 0, t, r).empty()) rep.fail("tampered");
  expect(rep.failed == 1 && rep.failures.size() == 1, "a rejected answer counts as failed");
}

void test_tracer() {
  using perfbench::Tracer;
  Tracer tr(true);
  const std::uint64_t root = tr.begin("request", 0, 1);
  sleep_us(200);
  const std::uint64_t engine = tr.begin("engine.solve", root, 1);
  sleep_us(500);
  tr.end(engine);
  const std::uint64_t probe = tr.begin("mcf.solve", root, 1);
  const std::uint64_t inner = tr.begin("inner", probe, 1);
  sleep_us(300);
  tr.end(inner);
  tr.end(probe);
  tr.end(root);
  expect(tr.check().empty(), "nested spans pass the structure check");
  const perfbench::Span* r = tr.find(root);
  const double kids = tr.find(engine)->duration_us() + tr.find(probe)->duration_us();
  expect(tr.self_us(root) >= 0.0 && tr.self_us(root) <= r->duration_us() - kids + 1e-6,
         "root self time = duration minus its children");
  expect(tr.self_us(engine) == tr.find(engine)->duration_us(), "leaf self time = duration");
  expect(tr.self_us(probe) >= 0.0 && tr.self_us(probe) < tr.find(probe)->duration_us(),
         "a parent's self time excludes its child");

  Tracer bad(true);
  const std::uint64_t p = bad.begin("request", 0, 1);
  const std::uint64_t c = bad.begin("engine.solve", p, 1);
  bad.end(p);
  sleep_us(100);
  bad.end(c);
  expect(!bad.check().empty(), "a child ending after its parent is rejected");

  Tracer wrong_req(true);
  const std::uint64_t p2 = wrong_req.begin("request", 0, 1);
  wrong_req.end(wrong_req.begin("engine.solve", p2, 2));
  wrong_req.end(p2);
  expect(!wrong_req.check().empty(), "a child of another request is rejected");

  Tracer off(false);
  expect(off.begin("request", 0, 1) == 0 && off.spans().empty(), "a disabled tracer records nothing");
}

void test_quantile() {
  expect(perfbench::quantile({4.0, 1.0, 3.0, 2.0}, 0.5) == 2.5, "median interpolates");
  expect(std::abs(perfbench::quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.9) - 4.6) < 1e-12,
         "p90 interpolates");
}

}  // namespace

int main() {
  test_oracle();
  test_tracer();
  test_quantile();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
