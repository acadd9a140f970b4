// In-memory span recorder and sample summaries for perfbench.
//
// Spans are recorded only in a traced run, around calls into the library's
// public functions (the library itself is not instrumented for this). Each
// span has a name, a start and end on the steady clock, the sequence number
// of the span that caused it, and a group id shared by the spans of one
// replicate, shard or probe trial. The whole list is written once, at exit.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::uint64_t seq = 0;
  std::uint64_t parent = 0;  ///< seq of the causing span; 0 = root
  std::string name;
  std::uint64_t group = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t tid = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint64_t next_seq() {
    std::lock_guard<std::mutex> lk(mu_);
    return ++last_seq_;
  }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }
  void add(Span s) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
  }

  /// Durations (ms) of every span called `name`, in completion order.
  std::vector<double> durations_ms(const std::string& name) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.name == name) out.push_back(s.ms());
    return out;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
  }

  /// Writes every span as one JSON document; false when the file cannot be
  /// written.
  bool write_json(const std::string& path, const std::string& workload,
                  std::uint64_t seed) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << "{\"schema\":\"perfbench-trace-v1\",\"workload\":\"" << workload
        << "\",\"seed\":" << seed << ",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"seq\":" << s.seq << ",\"parent\":" << s.parent
          << ",\"name\":\"" << s.name << "\",\"group\":" << s.group
          << ",\"tid\":" << s.tid << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::uint64_t last_seq_ = 0;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it a no-op, so the untraced path pays one
/// branch per scope.
class Scope {
 public:
  Scope(Tracer* tr, const char* name, std::uint64_t group = 0, std::uint64_t parent = 0)
      : tr_(tr) {
    if (!tr_) return;
    span_.seq = tr_->next_seq();
    span_.parent = parent;
    span_.name = name;
    span_.group = group;
    span_.tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
    span_.start_ns = tr_->now_ns();
  }
  ~Scope() {
    if (!tr_) return;
    span_.end_ns = tr_->now_ns();
    tr_->add(std::move(span_));
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Sequence number to pass as `parent` to child spans (0 when untraced).
  std::uint64_t seq() const { return tr_ ? span_.seq : 0; }

 private:
  Tracer* tr_;
  Span span_;
};

/// Median, tail and sample count of a timing. The tail is the highest
/// percentile with at least ten samples beyond it (sorted[n - 11]); with
/// fewer than eleven samples it is the maximum.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double max = 0.0;
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.count = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.p50 = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  s.max = v.back();
  s.tail = n >= 11 ? v[n - 11] : s.max;
  return s;
}

}  // namespace perfbench
