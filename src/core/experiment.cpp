#include "core/experiment.hpp"

namespace mpsoc::core {

namespace {

FifoBuckets flatten(const std::string& name,
                    const stats::FifoStateProbe::Buckets& b) {
  FifoBuckets out;
  out.phase = name;
  out.frac_full = b.fracFull();
  out.frac_storing = b.fracStoring();
  out.frac_no_request = b.fracNoRequest();
  out.frac_empty = b.fracEmpty();
  out.mean_occupancy = b.occupancy.mean();
  return out;
}

MasterStats masterStats(const txn::MasterBase& m) {
  MasterStats s;
  s.name = m.name();
  s.issued = m.issued();
  s.retired = m.retired();
  s.mean_latency_ns = m.latency().latencyNs().mean();
  s.p95_latency_ns = m.latency().quantileNs(0.95);
  return s;
}

ScenarioResult harvest(platform::Platform& p, std::string label,
                       sim::Picos exec_ps) {
  ScenarioResult r;
  r.label = std::move(label);
  r.exec_ps = exec_ps;
  r.edges_executed = p.simulator().edgesExecuted();
  r.evaluations = p.simulator().evaluations();
  r.completed = p.allDone();

  const auto t = p.totals();
  r.retired = t.retired;
  r.bytes_total = t.bytes_read + t.bytes_written;
  r.mean_read_latency_ns = t.mean_read_latency_ns;
  r.p95_read_latency_ns = p.readLatencyQuantileNs(0.95);
  if (exec_ps > 0) {
    // bytes / ps -> MB/s:  B/ps * 1e12 ps/s / 1e6 = B*1e6
    r.bandwidth_mb_s = static_cast<double>(r.bytes_total) /
                       static_cast<double>(exec_ps) * 1.0e6;
  }

  if (p.lmi()) {
    r.lmi_row_hit_rate = p.lmi()->device().rowHitRate();
    r.lmi_merge_ratio = p.lmi()->mergeRatio();
    r.lmi_refreshes = p.lmi()->device().refreshes();
  }
  r.mem_fifo_total = flatten("total", p.memFifo().total());
  for (std::size_t i = 0; i < p.memFifo().phaseCount(); ++i) {
    r.mem_fifo_phases.push_back(
        flatten(p.phaseSchedule().phase(i).name, p.memFifo().phase(i)));
  }
  for (const auto& g : p.traffic()) r.masters.push_back(masterStats(*g));
  if (p.dsp()) r.masters.push_back(masterStats(*p.dsp()));
  if (p.dmaEngine()) r.masters.push_back(masterStats(*p.dmaEngine()));
  if (p.dsp()) r.cpu_cpi = p.dsp()->cpi();
  return r;
}

}  // namespace

ScenarioResult runScenario(const platform::PlatformConfig& cfg,
                           std::string label) {
  platform::Platform p(cfg);
  const sim::Picos t = p.run();
  return harvest(p, std::move(label), t);
}

ScenarioResult runScenarioFor(const platform::PlatformConfig& cfg,
                              std::string label, sim::Picos duration_ps) {
  platform::Platform p(cfg);
  const sim::Picos t = p.runFor(duration_ps);
  return harvest(p, std::move(label), t);
}

}  // namespace mpsoc::core
