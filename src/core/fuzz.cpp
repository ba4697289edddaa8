#include "core/fuzz.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/digest.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "platform/validate.hpp"

namespace mpsoc::core {

using platform::MemoryKind;
using platform::NamedScenario;
using platform::PlatformConfig;
using platform::Protocol;
using platform::Topology;
using platform::UseCase;

// --------------------------------------------------------------------------
// Generator.

NamedScenario generateScenario(std::uint64_t seed, std::uint64_t index) {
  // Decorrelate the per-case stream from (seed, index) with one extra
  // SplitMix64 scramble, so neighbouring indices share no low-bit structure.
  SplitMix64 rng(SplitMix64(seed ^ (index * 0x9E3779B97F4A7C15ull)).next());

  NamedScenario sc;
  sc.name = "fuzz-s" + std::to_string(seed) + "-c" + std::to_string(index);
  PlatformConfig& cfg = sc.config;

  cfg.protocol = rng.pick({Protocol::Stbus, Protocol::Ahb, Protocol::Axi});
  cfg.topology = rng.pick({Topology::Full, Topology::Collapsed,
                           Topology::SingleLayer, Topology::NocMesh});
  cfg.memory = rng.pick({MemoryKind::OnChip, MemoryKind::Lmi});
  cfg.onchip_wait_states = static_cast<unsigned>(rng.below(5));
  cfg.stbus_type = static_cast<stbus::StbusType>(1 + rng.below(3));
  cfg.arbitration = rng.pick(
      {txn::ArbPolicy::FixedPriority, txn::ArbPolicy::RoundRobin,
       txn::ArbPolicy::LeastRecentlyUsed, txn::ArbPolicy::Tdma,
       txn::ArbPolicy::Lottery});
  cfg.message_arbitration = rng.percent(50);

  // Bridge policy: reference, all-lightweight, or all-GenConv (exclusive —
  // the two force flags contradict each other).
  switch (rng.below(3)) {
    case 0: break;
    case 1: cfg.force_lightweight_bridges = true; break;
    case 2: cfg.force_split_bridges = true; break;
  }
  cfg.mem_bridge_split = rng.percent(75);

  // LMI / SDRAM timing set.  t_rc >= t_ras and t_refi > t_rfc are the
  // validateConfig() invariants; sample the deltas, not the raw values.
  cfg.lmi.clock_divider = static_cast<unsigned>(1 + rng.below(4));
  cfg.lmi.lookahead = rng.pick({1u, 2u, 4u, 8u});
  cfg.lmi.opcode_merging = rng.percent(50);
  cfg.lmi.merge_limit = rng.pick({1u, 2u, 4u, 8u});
  mem::SdramTiming& t = cfg.lmi.timing;
  t.cas_latency = static_cast<unsigned>(2 + rng.below(3));
  t.t_rcd = static_cast<unsigned>(2 + rng.below(3));
  t.t_rp = static_cast<unsigned>(2 + rng.below(3));
  t.t_ras = static_cast<unsigned>(5 + rng.below(6));
  t.t_rc = t.t_ras + static_cast<unsigned>(rng.below(5));
  t.t_wr = static_cast<unsigned>(2 + rng.below(3));
  t.t_rfc = static_cast<unsigned>(8 + rng.below(13));
  t.t_refi = t.t_rfc + static_cast<unsigned>(200 + rng.below(2000));
  t.ddr = rng.percent(75);
  cfg.mem_fifo_depth = rng.pick<std::size_t>({1, 2, 4, 8, 16});

  // NoC mesh dimensions (only meaningful on Topology::NocMesh; kept small so
  // fuzz campaigns stay fast — the golden scenario pins a bigger mesh).
  cfg.noc_width = static_cast<unsigned>(2 + rng.below(3));
  cfg.noc_height = static_cast<unsigned>(2 + rng.below(3));

  // Clock ratios: the CPU domain against the 250 MHz central node, in tenths
  // of a MHz so non-integer CDC ratios (e.g. 313.7:250) are routinely hit.
  cfg.cpu_mhz = static_cast<double>(2000 + rng.below(3001)) / 10.0;

  // Workload shaping (IPTG mixes).  Scales stay small: a fuzz case is a
  // probe, not a benchmark.
  cfg.use_case = rng.percent(50) ? UseCase::Playback : UseCase::Record;
  cfg.workload_scale = static_cast<double>(5 + rng.below(16)) / 100.0;
  cfg.master_limit =
      rng.percent(30) ? static_cast<unsigned>(1 + rng.below(9)) : 0;
  cfg.agent_outstanding_override =
      rng.percent(30) ? static_cast<unsigned>(1 + rng.below(8)) : 0;
  cfg.agent_burst_override_beats =
      rng.percent(30) ? rng.pick<std::uint32_t>({1, 2, 4, 8, 16}) : 0;
  cfg.include_cpu = rng.percent(80);
  cfg.include_dma = rng.percent(30);
  cfg.include_scratchpad =
      cfg.topology != Topology::NocMesh && rng.percent(20);
  cfg.scratchpad_wait_states = static_cast<unsigned>(rng.below(3));

  if (rng.percent(15)) {
    cfg.two_phase_workload = true;
    cfg.phase1_end_ps = (50 + rng.below(100)) * 1'000'000ull;
    cfg.phase2_end_ps = cfg.phase1_end_ps + (50 + rng.below(100)) * 1'000'000ull;
    sc.duration_ps = cfg.phase2_end_ps;
  }

  cfg.seed = 1 + rng.below(0xFFFFFFFFull);

  const std::string why = platform::validateConfig(cfg);
  if (!why.empty()) {
    // Constructive sampling above must keep every config legal; reaching
    // this is a generator bug, not a fuzz finding.
    throw std::logic_error("generateScenario(" + std::to_string(seed) + ", " +
                           std::to_string(index) +
                           ") produced an invalid config: " + why);
  }
  return sc;
}

// --------------------------------------------------------------------------
// Checking.

Fuzzer::Fuzzer(FuzzOptions opts) : opts_(std::move(opts)) {}

FuzzVerdict Fuzzer::check(const NamedScenario& sc) {
  if (opts_.runner) {
    ++simulations_;
    return opts_.runner(sc);
  }

  // Gating is behaviour-neutral by the activity contract (an asleep
  // component's evaluate() is a no-op), so the ungated run must reproduce
  // the gated digest exactly.
  const std::vector<std::string> labels = {sc.name + "@gated",
                                           sc.name + "@ungated"};
  simulations_ += labels.size();

  SweepOptions so;
  so.jobs = opts_.jobs;
  SweepRunner runner(so);
  const SweepOutcome out = runner.runJobs(labels, [&](std::size_t i) {
    PlatformConfig cfg = sc.config;
    cfg.verify = cfg.verify || opts_.verify;
    cfg.statecheck = cfg.statecheck || opts_.statecheck;
    cfg.activity_gating = i == 0;
    // Both runs carry the scenario's own label: the canonical digest covers
    // every result field *including* the label, so digesting under the
    // display labels would diverge by construction.
    return sc.duration_ps != 0 ? runScenarioFor(cfg, sc.name, sc.duration_ps)
                               : runScenario(cfg, sc.name);
  });

  if (const PointResult* f = out.firstFailure()) {
    return {true, f->label + ": " + f->error};
  }
  if (digestValue(out.points[0].result) != digestValue(out.points[1].result)) {
    std::ostringstream os;
    os << "gating digest divergence: " << labels[0] << " = "
       << digestHex(out.points[0].result) << " but " << labels[1] << " = "
       << digestHex(out.points[1].result);
    return {true, os.str()};
  }
  // Completion oracle: a run-to-completion case must retire its whole
  // workload.  Gated and ungated runs hang identically, so a deadlock passes
  // the digest comparison above and only shows up here.
  const ScenarioResult& gated = out.points[0].result;
  if (sc.duration_ps == 0 && !gated.completed) {
    std::ostringstream os;
    os << "completion oracle: " << labels[0]
       << " never completed (hang): stopped at t=" << gated.exec_ps
       << " ps with " << gated.retired << " transactions retired";
    return {true, os.str()};
  }
  return {};
}

// --------------------------------------------------------------------------
// Shrinking.

namespace {

/// One delta-debug dimension: a simplification candidate.  Passes that can
/// make progress repeatedly (halving) rely on the outer fixpoint loop.
struct ShrinkPass {
  const char* name;
  void (*apply)(NamedScenario&);
};

constexpr unsigned kReferenceMasters = 9;  // referenceWorkload() IP count

const ShrinkPass kShrinkPasses[] = {
    {"collapse topology to single-layer",
     [](NamedScenario& s) { s.config.topology = Topology::SingleLayer; }},
    {"shrink NoC mesh to 1x2",
     [](NamedScenario& s) {
       s.config.noc_width = 1;
       s.config.noc_height = 2;
     }},
    {"disable two-phase workload",
     [](NamedScenario& s) {
       s.config.two_phase_workload = false;
       s.duration_ps = 0;
     }},
    {"halve run duration",
     [](NamedScenario& s) {
       if (s.duration_ps > 2'000'000) s.duration_ps /= 2;
     }},
    {"drop DMA", [](NamedScenario& s) { s.config.include_dma = false; }},
    {"drop scratchpad",
     [](NamedScenario& s) {
       s.config.include_scratchpad = false;
       s.config.scratchpad_wait_states = 0;
     }},
    {"drop CPU", [](NamedScenario& s) { s.config.include_cpu = false; }},
    {"halve masters",
     [](NamedScenario& s) {
       unsigned& m = s.config.master_limit;
       if (m == 0) m = kReferenceMasters / 2;
       else if (m > 1) m /= 2;
     }},
    {"memory to onchip",
     [](NamedScenario& s) {
       s.config.memory = MemoryKind::OnChip;
       s.config.onchip_wait_states = 1;
     }},
    {"reset LMI/SDRAM timings",
     [](NamedScenario& s) { s.config.lmi = mem::LmiConfig{}; }},
    {"reset workload overrides",
     [](NamedScenario& s) {
       s.config.agent_outstanding_override = 0;
       s.config.agent_burst_override_beats = 0;
       s.config.use_case = UseCase::Playback;
     }},
    {"reset bridge policy",
     [](NamedScenario& s) {
       s.config.force_lightweight_bridges = false;
       s.config.force_split_bridges = false;
       s.config.mem_bridge_split = true;
     }},
    {"reset interconnect knobs",
     [](NamedScenario& s) {
       s.config.protocol = Protocol::Stbus;
       s.config.stbus_type = stbus::StbusType::T3;
       s.config.arbitration = txn::ArbPolicy::FixedPriority;
       s.config.message_arbitration = true;
     }},
    {"reset memory FIFO depth",
     [](NamedScenario& s) { s.config.mem_fifo_depth = 8; }},
    {"reset CPU clock", [](NamedScenario& s) { s.config.cpu_mhz = 400.0; }},
    {"halve workload scale",
     [](NamedScenario& s) {
       if (s.config.workload_scale > 0.02) s.config.workload_scale /= 2;
     }},
    {"reset RNG seed", [](NamedScenario& s) { s.config.seed = 1; }},
};

}  // namespace

NamedScenario Fuzzer::shrink(const NamedScenario& failing,
                             std::size_t* probes) {
  NamedScenario cur = failing;
  std::size_t used = 0;
  bool changed = true;
  while (changed && used < opts_.max_shrink_runs) {
    changed = false;
    for (const ShrinkPass& pass : kShrinkPasses) {
      if (used >= opts_.max_shrink_runs) break;
      NamedScenario cand = cur;
      pass.apply(cand);
      if (emitScenario(cand) == emitScenario(cur)) continue;  // no-op pass
      // A simplification must stay a *legal* scenario, or the "failure" it
      // preserves would just be the validator complaining.
      if (!platform::validateConfig(cand.config).empty()) continue;
      if (cand.config.two_phase_workload && cand.duration_ps == 0) continue;
      ++used;
      if (check(cand).failed) {
        cur = cand;
        changed = true;
        if (opts_.log) {
          *opts_.log << "  shrink: " << pass.name << " -> still failing\n";
        }
      }
    }
  }
  if (probes) *probes = used;
  return cur;
}

// --------------------------------------------------------------------------
// Campaign driver.

namespace {

std::string shellFlags(const FuzzOptions& o) {
  std::string flags;
  if (o.verify) flags += " --verify";
  if (o.statecheck) flags += " --statecheck";
  return flags;
}

}  // namespace

FuzzReport Fuzzer::run() {
  FuzzReport report;
  for (std::uint64_t i = 0; i < opts_.count; ++i) {
    const NamedScenario sc = generateScenario(opts_.seed, i);
    ++report.cases;
    const FuzzVerdict v = check(sc);
    if (opts_.log) {
      *opts_.log << "[" << (i + 1) << "/" << opts_.count << "] " << sc.name
                 << ": " << (v.failed ? "FAILED" : "ok") << "\n";
      if (v.failed) *opts_.log << "  " << v.error << "\n";
    }
    if (!v.failed) continue;

    FuzzFailure fail;
    fail.original = sc;
    fail.original_error = v.error;
    fail.minimal = sc;
    fail.error = v.error;
    if (opts_.shrink) {
      fail.minimal = shrink(sc, &fail.shrink_probes);
      fail.minimal.name = sc.name + "-min";
      const FuzzVerdict mv = check(fail.minimal);
      // The fixpoint loop only ever kept failing candidates, so the minimal
      // scenario still fails; re-checking records its (possibly sharper)
      // error text.
      if (mv.failed) fail.error = mv.error;
    }

    if (!opts_.corpus_dir.empty()) {
      std::filesystem::create_directories(opts_.corpus_dir);
      const std::string path =
          opts_.corpus_dir + "/" + fail.minimal.name + ".scn";
      std::ofstream ofs(path);
      ofs << "# minimal reproducer, shrunk from " << sc.name << " ("
          << fail.shrink_probes << " probes)\n"
          << "# " << fail.error << "\n"
          << emitScenario(fail.minimal);
      fail.repro_path = path;
    }
    fail.repro_command =
        fail.repro_path.empty()
            ? "mpsoc_fuzz --seed " + std::to_string(opts_.seed) + " --count " +
                  std::to_string(i + 1) + shellFlags(opts_)
            : "mpsoc_fuzz --repro " + fail.repro_path + shellFlags(opts_);
    if (opts_.log) {
      *opts_.log << "  minimal reproducer: " << fail.repro_command << "\n";
    }
    report.failures.push_back(std::move(fail));
    break;  // one actionable reproducer per campaign
  }
  report.simulations = simulations_;
  return report;
}

}  // namespace mpsoc::core
