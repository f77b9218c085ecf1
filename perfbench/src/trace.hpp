#pragma once
// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around calls into each layer; each has a name, start,
// end, parent span and request id, plus counts attached at the same
// boundary. A disabled tracer records nothing, so untraced runs pay one
// branch per span.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root
  std::uint64_t request = 0;  ///< request ordinal; 0 = run-level span
  double start_us = 0.0;      ///< since the tracer was created
  double end_us = -1.0;       ///< < start_us while open
  std::vector<std::pair<std::string, double>> counts;

  [[nodiscard]] double duration_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span; returns its id (0 when disabled).
  std::uint64_t begin(std::string name, std::uint64_t parent, std::uint64_t request);
  /// Close span `id` and return its duration in ms (0 when disabled).
  double end(std::uint64_t id);
  /// Attach a count to span `id`.
  void count(std::uint64_t id, std::string key, double value);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const Span* find(std::uint64_t id) const;

  /// Span duration minus the part of its interval its children cover (µs).
  [[nodiscard]] double self_us(std::uint64_t id) const;

  /// Structural check: every span closed, every child inside its parent and
  /// sharing its request id, and every self time >= 0. Empty = valid;
  /// otherwise the first violation.
  [[nodiscard]] std::string check() const;

  /// {"host": <host_json>, "spans": [...]} with each span's self time.
  [[nodiscard]] std::string to_json(const std::string& host_json) const;

 private:
  using Clock = std::chrono::steady_clock;
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;  ///< index = id - 1
};

/// RAII span: opened on construction, closed on destruction or end().
class SpanScope {
 public:
  SpanScope(Tracer& t, std::string name, std::uint64_t parent, std::uint64_t request)
      : t_(t), id_(t.begin(std::move(name), parent, request)) {}
  ~SpanScope() { end(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  void count(std::string key, double value) { t_.count(id_, std::move(key), value); }
  /// Close now; returns the duration in ms (0 when already closed/disabled).
  double end() {
    if (open_) {
      open_ = false;
      return t_.end(id_);
    }
    return 0.0;
  }

 private:
  Tracer& t_;
  std::uint64_t id_;
  bool open_ = true;
};

/// Minimal JSON string escaping.
std::string json_escape(const std::string& s);

}  // namespace perfbench
