#pragma once
// Per-thread execution bindings: which tracker / fault injector / recovery
// log / thread pool the free-function instrumentation layer resolves to.
//
// A SolverContext (core/solver_context.hpp) bundles one of each and installs
// them here for the duration of a solve (ContextScope), making concurrent
// solves on different threads fully isolated: `par::charge`,
// `FaultInjector::should_fire` and `note_recovery` all consult the current
// bindings before falling back to the process-wide default context. The
// thread pool propagates the forking thread's bindings into every task it
// runs (thread_pool.cpp), so wall-clock fork-join regions inherit their
// solve's context on worker threads.
//
// This header is dependency-free (forward declarations only) so the lowest
// layers (parallel/) can consult the bindings without an include cycle with
// core/solver_context.hpp.

namespace pmcf {
class RecoveryLog;
namespace par {
class Tracker;
class FaultInjector;
class ThreadPool;
}  // namespace par
}  // namespace pmcf

namespace pmcf::core {

class Lifecycle;

/// The per-thread slots. Null members mean "fall back to the default
/// context's instance"; `pool_bound` distinguishes a context bound to no pool
/// (run sequentially) from one that defers to `ThreadPool::global()`. The
/// lifecycle slot has no default-context fallback — a null lifecycle simply
/// means no deadline/cancellation is in force.
struct ExecBindings {
  par::Tracker* tracker = nullptr;
  par::FaultInjector* injector = nullptr;
  RecoveryLog* recovery = nullptr;
  par::ThreadPool* pool = nullptr;
  Lifecycle* lifecycle = nullptr;
  bool pool_bound = false;
};

namespace detail {
/// Constant-initialized, so reads compile to a plain TLS load with no
/// init-guard wrapper.
inline constinit thread_local ExecBindings tls_bindings;
}  // namespace detail

/// The calling thread's current bindings (all-null when no context is
/// installed). Inline: every kernel call and PRAM charge consults it.
[[nodiscard]] inline const ExecBindings& current_bindings() { return detail::tls_bindings; }

/// Install `next` and return the previous bindings (for scoped restore).
inline ExecBindings exchange_bindings(const ExecBindings& next) {
  ExecBindings prev = detail::tls_bindings;
  detail::tls_bindings = next;
  return prev;
}

/// RAII install/restore of a bindings set on the current thread.
class BindingsScope {
 public:
  explicit BindingsScope(const ExecBindings& b) : prev_(exchange_bindings(b)) {}
  ~BindingsScope() { exchange_bindings(prev_); }

  BindingsScope(const BindingsScope&) = delete;
  BindingsScope& operator=(const BindingsScope&) = delete;

 private:
  ExecBindings prev_;
};

}  // namespace pmcf::core
