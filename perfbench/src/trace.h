// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded around the benchmark's own calls into each layer's
// public API (nothing inside the program is instrumented). Each span has a
// name, start, end, the span that caused it, and the step it belongs to.
// Spans stay in memory and are written out once, when the run ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  long parent = -1;  // index into Tracer::spans(), -1 for a root span
  long step = -1;    // step the span belongs to, -1 outside the step loop
};

class Tracer {
 public:
  // Disarmed tracers record nothing; Span then costs one branch.
  void arm(bool on) { armed_ = on; }
  bool armed() const { return armed_; }

  long open(const std::string& name, long step) {
    SpanRecord rec;
    rec.name = name;
    rec.start_ns = now_ns();
    rec.parent = open_.empty() ? -1 : open_.back();
    rec.step = step;
    spans_.push_back(rec);
    open_.push_back(static_cast<long>(spans_.size() - 1));
    return open_.back();
  }
  void close(long id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Durations, in seconds, of every closed span named `name`.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const SpanRecord& s : spans_) {
      if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
    return out;
  }

  // Writes every span as one JSON document. Returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  bool armed_ = false;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<long> open_;
};

// RAII span: records [construction, destruction) when the tracer is armed.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name, long step = -1)
      : tracer_(tracer), id_(tracer.armed() ? tracer.open(name, step) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer_.close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  long id_;
};

// Median of `v`; 0 for an empty vector.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
