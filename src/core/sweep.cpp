#include "core/sweep.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "platform/platform.hpp"

namespace mpsoc::core {

namespace {

// Host timing only ever measures simulation work, it never feeds it: results
// and digests are identical whatever these clocks read.
using HostClock = std::chrono::steady_clock;  // mpsoc-lint: allow(nondeterminism)

double msSince(HostClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(HostClock::now() - t0)
      .count();
}

unsigned resolveJobs(unsigned jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? hw : 1;
}

}  // namespace

SweepOutcome SweepRunner::runJobs(
    const std::vector<std::string>& labels,
    const std::function<ScenarioResult(std::size_t)>& job) const {
  const std::size_t n = labels.size();
  SweepOutcome out;
  out.points.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.points[i].label = labels[i];
  if (n == 0) return out;

  const auto sweep_t0 = HostClock::now();
  std::atomic<bool> cancel{false};
  std::mutex progress_mutex;
  std::size_t completed = 0;

  // A point's result lands in its own pre-sized slot, so workers never
  // contend on the result vector; the body catches its own exceptions (a
  // failed point is a status, not an error), and only the progress report
  // is serialized.
  parallelFor(n, opts_.jobs, [&](std::size_t i) {
    PointResult& pr = out.points[i];
    if (cancel.load(std::memory_order_relaxed)) {
      pr.status = PointStatus::Skipped;
      return;
    }
    const auto t0 = HostClock::now();
    try {
      pr.result = job(i);
      pr.status = PointStatus::Ok;
    } catch (const std::exception& e) {
      pr.status = PointStatus::Failed;
      pr.error = e.what();
      if (opts_.stop_on_failure) {
        cancel.store(true, std::memory_order_relaxed);
      }
    }
    pr.wall_ms = msSince(t0);
    if (pr.status == PointStatus::Ok && pr.wall_ms > 0.0) {
      pr.sim_edges_per_s = static_cast<double>(pr.result.edges_executed) /
                           (pr.wall_ms / 1000.0);
    }
    if (opts_.on_progress) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      SweepProgress p;
      p.completed = ++completed;
      p.total = n;
      p.label = pr.label;
      p.status = pr.status;
      p.wall_ms = pr.wall_ms;
      opts_.on_progress(p);
    }
  });

  out.wall_ms = msSince(sweep_t0);
  for (const auto& p : out.points) {
    if (p.status != PointStatus::Ok) out.ok = false;
  }
  return out;
}

SweepOutcome SweepRunner::run(const std::vector<SweepPoint>& points) const {
  std::vector<std::string> labels;
  labels.reserve(points.size());
  for (const auto& p : points) labels.push_back(p.label);
  return runJobs(labels, [&points](std::size_t i) {
    const SweepPoint& pt = points[i];
    return pt.duration_ps > 0
               ? runScenarioFor(pt.config, pt.label, pt.duration_ps)
               : runScenario(pt.config, pt.label);
  });
}

void parallelFor(std::size_t count, unsigned jobs,
                 const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  const unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(resolveJobs(jobs), count));
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned t = 0; t < workers; ++t) pool.emplace_back(work);
  for (auto& t : pool) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace mpsoc::core
