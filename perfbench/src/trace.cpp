#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace perfbench {

std::uint64_t Tracer::begin(std::string name, std::uint64_t parent, std::uint64_t request) {
  if (!enabled_) return 0;
  Span s;
  s.name = std::move(name);
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.request = request;
  s.start_us = std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

double Tracer::end(std::uint64_t id) {
  if (!enabled_ || id == 0 || id > spans_.size()) return 0.0;
  Span& s = spans_[id - 1];
  s.end_us = std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  return s.duration_us() / 1000.0;
}

void Tracer::count(std::uint64_t id, std::string key, double value) {
  if (!enabled_ || id == 0 || id > spans_.size()) return;
  spans_[id - 1].counts.emplace_back(std::move(key), value);
}

const Span* Tracer::find(std::uint64_t id) const {
  return id == 0 || id > spans_.size() ? nullptr : &spans_[id - 1];
}

double Tracer::self_us(std::uint64_t id) const {
  const Span* p = find(id);
  if (p == nullptr) return 0.0;
  std::vector<std::pair<double, double>> kids;
  for (const Span& s : spans_) {
    if (s.parent != id) continue;
    const double lo = std::max(s.start_us, p->start_us);
    const double hi = std::min(s.end_us, p->end_us);
    if (hi > lo) kids.emplace_back(lo, hi);
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  double reach = p->start_us;
  for (const auto& [lo, hi] : kids) {
    const double from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return p->duration_us() - covered;
}

std::string Tracer::check() const {
  char buf[256];
  for (const Span& s : spans_) {
    if (s.end_us < s.start_us) {
      std::snprintf(buf, sizeof(buf), "span %llu (%s) not closed",
                    static_cast<unsigned long long>(s.id), s.name.c_str());
      return buf;
    }
    if (s.parent != 0) {
      const Span* p = find(s.parent);
      if (p == nullptr || p->id >= s.id) {
        std::snprintf(buf, sizeof(buf), "span %llu (%s) has no earlier parent",
                      static_cast<unsigned long long>(s.id), s.name.c_str());
        return buf;
      }
      if (s.start_us < p->start_us || s.end_us > p->end_us) {
        std::snprintf(buf, sizeof(buf), "span %llu (%s) lies outside parent %llu (%s)",
                      static_cast<unsigned long long>(s.id), s.name.c_str(),
                      static_cast<unsigned long long>(p->id), p->name.c_str());
        return buf;
      }
      if (s.request != p->request) {
        std::snprintf(buf, sizeof(buf), "span %llu (%s) request differs from its parent's",
                      static_cast<unsigned long long>(s.id), s.name.c_str());
        return buf;
      }
    }
    if (self_us(s.id) < 0.0) {
      std::snprintf(buf, sizeof(buf), "span %llu (%s) has negative self time",
                    static_cast<unsigned long long>(s.id), s.name.c_str());
      return buf;
    }
  }
  return "";
}

std::string Tracer::to_json(const std::string& host_json) const {
  std::ostringstream os;
  os.precision(12);
  os << "{\"host\": " << host_json << ", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << json_escape(s.name)
       << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"request\": " << s.request << ", \"start_us\": " << s.start_us
       << ", \"end_us\": " << s.end_us << ", \"self_us\": " << self_us(s.id)
       << ", \"counts\": {";
    for (std::size_t k = 0; k < s.counts.size(); ++k)
      os << (k == 0 ? "" : ", ") << '"' << json_escape(s.counts[k].first)
         << "\": " << s.counts[k].second;
    os << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace perfbench
