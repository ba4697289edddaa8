#pragma once
// In-memory span recorder for the traced run.  Spans are placed by the
// harness around each call into a simulator layer (never inside the models),
// kept in memory, and written out once at the end.  A null Trace* turns every
// ScopedSpan into a no-op, so traced and untraced repetitions run the same
// code.

#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  std::string name;
  double start_ms = 0.0;  ///< since the trace origin
  double end_ms = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  int run = 0;      ///< run id shared by the spans of one repetition
  int thread = 0;   ///< small per-trace index of the recording thread
  double queue_wait_ms = -1.0;  ///< sweep points only
};

class Trace {
 public:
  Trace() : origin_(Clock::now()) {}

  double now() const { return msBetween(origin_, Clock::now()); }

  /// Record a completed span; returns its index.
  int add(Span s) {
    std::lock_guard<std::mutex> lock(mu_);
    s.thread = threadIndex();
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Open a span now; close it with close().
  int open(const std::string& name, int parent, int run) {
    Span s;
    s.name = name;
    s.start_ms = now();
    s.parent = parent;
    s.run = run;
    return add(std::move(s));
  }
  void close(int id) {
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ms = t;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// A span's duration minus the part of it that its children cover.
  std::vector<double> selfTimes() const {
    std::vector<double> self;
    self.reserve(spans_.size());
    for (const auto& s : spans_) self.push_back(s.end_ms - s.start_ms);
    for (const auto& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_ms - s.start_ms;
      }
    }
    return self;
  }

  /// Write every span, with its self time, as one JSON document.
  bool write(const std::string& path, const std::string& header) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const std::vector<double> self = selfTimes();
    std::fprintf(f, "{%s,\n\"spans\": [\n", header.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"run\": %d, \"thread\": %d, \"start_ms\": %.6f, "
                   "\"end_ms\": %.6f, \"self_ms\": %.6f",
                   i, s.name.c_str(), s.parent, s.run, s.thread, s.start_ms,
                   s.end_ms, self[i]);
      if (s.queue_wait_ms >= 0.0) {
        std::fprintf(f, ", \"queue_wait_ms\": %.6f", s.queue_wait_ms);
      }
      std::fprintf(f, "}%s\n", i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  int threadIndex() {
    const auto id = std::this_thread::get_id();
    const auto it = threads_.find(id);
    if (it != threads_.end()) return it->second;
    const int idx = static_cast<int>(threads_.size());
    threads_.emplace(id, idx);
    return idx;
  }

  Clock::time_point origin_;
  std::mutex mu_;  // guards spans_ and threads_
  std::vector<Span> spans_;
  std::map<std::thread::id, int> threads_;
};

/// RAII span; a no-op when `trace` is null.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, const std::string& name, int parent, int run)
      : trace_(trace), id_(trace ? trace->open(name, parent, run) : -1) {}
  ~ScopedSpan() {
    if (trace_) trace_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Trace* trace_;
  int id_;
};

}  // namespace perfbench
