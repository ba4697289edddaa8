// mpsoc_run — command-line scenario runner and sweep driver.
//
//   mpsoc_run [options] scenario1.scn [scenario2.scn ...]
//
//   --csv           print a machine-readable CSV block after the table
//   --json <path>   write the sweep outcome (per-point digest, wall-clock,
//                   simulation throughput, full metrics) as JSON; `-` writes
//                   to stdout.  This is the BENCH_sweep.json schema.
//   --normalize N   normalise execution times to scenario index N (default 0)
//   --verify        attach the protocol monitors and transaction auditor
//                   (src/verify) to every platform; a violation aborts with
//                   exit code 1
//   --statecheck    run the checkpoint-equivalence oracle on every platform:
//                   checkpoint mid-run, execute a window of edges, rewind,
//                   re-execute, and abort with exit code 1 naming the first
//                   diverging state holder if the digests differ (requires a
//                   build with MPSOC_STATECHECK=ON; warns and runs unchecked
//                   otherwise)
//   --checkpoint-at <ps>
//                   instant the statecheck oracle checkpoints at (default
//                   1000000 = 1 us).  0 or an instant at/past the scenario's
//                   duration is rejected — the oracle would silently never
//                   fire
//   --fast-forward-until <ps>
//                   run [0, ps) under the loosely-timed quantum engine
//                   (analytic latency/bandwidth, no cycle-accurate edges),
//                   then hand off to the accurate model through a
//                   checkpoint/restore boundary and continue normally.  LT
//                   statistics are reported separately and never enter the
//                   canonical digest.  0 or an instant at/past the scenario's
//                   duration is rejected
//   --quantum <ps>  temporal-decoupling quantum of the fast-forward engine
//                   (default 1000000 = 1 us)
//   --ff-check      after the fast-forward handoff, run the
//                   handoff-equivalence oracle: execute a window of edges
//                   from the handoff checkpoint, digest, rewind, re-execute,
//                   and abort with exit code 1 if the digests differ
//   --no-gating     disable kernel activity gating (evaluate every component
//                   on every edge).  Digests must not change — the check.sh
//                   kernel-perf smoke diffs gated vs. ungated runs with this
//   --sweep         print the sweep view: per-point wall-clock, simulation
//                   throughput (Medges/s) and canonical result digest
//   -j N            run N scenarios concurrently (0 = one per hardware
//                   thread).  Each run owns its own simulator, RNG streams,
//                   stats and verify context; results and digests are
//                   byte-identical at every -j.
//
// Each scenario file describes one platform instance (see
// platform/scenario_parser.hpp for the format; tools/scenarios/ ships the
// paper's Fig. 3 instances).  All scenarios share the reference workload, so
// their execution times are directly comparable.

#include <cstring>
#include <fstream>
#include <iostream>
#include <vector>

#include "core/digest.hpp"
#include "core/export.hpp"
#include "core/sweep.hpp"
#include "platform/feature_gates.hpp"
#include "platform/scenario_parser.hpp"
#include "platform/validate.hpp"
#include "stats/report.hpp"

using namespace mpsoc;

namespace {

void usage() {
  std::cerr << "usage: mpsoc_run [--csv] [--json <path|->] [--normalize N] "
               "[--verify] [--statecheck] [--checkpoint-at ps] "
               "[--fast-forward-until ps] [--quantum ps] [--ff-check] "
               "[--no-gating] [--sweep] [-j N] scenario.scn [...]\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool want_csv = false;
  bool want_sweep = false;
  bool want_verify = false;
  bool want_statecheck = false;
  long long checkpoint_at = -1;  // -1 = keep the scenario/config default
  long long ff_until = -1;       // -1 = keep the scenario/config default
  long long ff_quantum = -1;     // -1 = keep the scenario/config default
  bool want_ff_check = false;
  bool no_gating = false;
  std::string json_path;
  std::size_t normalize_to = 0;
  unsigned jobs = 1;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) {
      want_csv = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      want_verify = true;
    } else if (std::strcmp(argv[i], "--statecheck") == 0) {
      want_statecheck = true;
    } else if (std::strcmp(argv[i], "--checkpoint-at") == 0 && i + 1 < argc) {
      checkpoint_at = std::stoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--fast-forward-until") == 0 &&
               i + 1 < argc) {
      ff_until = std::stoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--quantum") == 0 && i + 1 < argc) {
      ff_quantum = std::stoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--ff-check") == 0) {
      want_ff_check = true;
    } else if (std::strcmp(argv[i], "--no-gating") == 0) {
      no_gating = true;
    } else if (std::strcmp(argv[i], "--sweep") == 0) {
      want_sweep = true;
    } else if (std::strcmp(argv[i], "-j") == 0 && i + 1 < argc) {
      jobs = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--normalize") == 0 && i + 1 < argc) {
      normalize_to = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (argv[i][0] == '-' && argv[i][1] != '\0') {
      usage();
      return 2;
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (files.empty()) {
    usage();
    return 2;
  }
  // An explicit 0 is indistinguishable from "disabled" once it lands in the
  // config, so the silent-no-op instants are rejected at the flag itself.
  if (ff_until == 0) {
    std::cerr << "error: --fast-forward-until 0 would fast-forward nothing "
                 "(the flag expects a positive instant in ps)\n";
    return 2;
  }
  if (ff_until < -1 || checkpoint_at < -1) {
    std::cerr << "error: instants must be positive picosecond values\n";
    return 2;
  }
  if (checkpoint_at == 0) {
    std::cerr << "error: --checkpoint-at 0 would checkpoint the cold-start "
                 "state and check nothing (the flag expects a positive "
                 "instant in ps)\n";
    return 2;
  }

  std::vector<core::SweepPoint> points;
  for (const auto& path : files) {
    platform::NamedScenario sc;
    try {
      sc = platform::loadScenario(path);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
    if (want_verify) sc.config.verify = true;
    if (want_statecheck) sc.config.statecheck = true;
    if (checkpoint_at >= 0) {
      sc.config.statecheck_at_ps = static_cast<sim::Picos>(checkpoint_at);
    }
    if (no_gating) sc.config.activity_gating = false;
    if (ff_until > 0) sc.config.ff_until_ps = static_cast<sim::Picos>(ff_until);
    if (ff_quantum >= 0) {
      sc.config.ff_quantum_ps = static_cast<sim::Picos>(ff_quantum);
    }
    if (want_ff_check) sc.config.ff_check = true;
    // CLI overrides can invalidate a scenario that parsed cleanly (e.g. a
    // fast-forward instant at/past the scenario's duration): re-validate.
    const std::string why =
        platform::validateConfig(sc.config, sc.duration_ps);
    if (!why.empty()) {
      std::cerr << "error: scenario '" << sc.name << "': " << why << "\n";
      return 1;
    }
    // One warning path for every compile-gated checker, covering both the
    // CLI flags above and checkers requested by the scenario file itself.
    const std::string warn = platform::compiledOutWarning(sc.config);
    if (!warn.empty()) std::cerr << warn << " (" << sc.name << ")\n";
    // Scenario files may pin a fixed simulated duration (two-phase
    // workloads are unbounded and require one).
    points.push_back(core::SweepPoint{sc.name, sc.config, sc.duration_ps});
  }

  core::SweepOptions opts;
  opts.jobs = jobs;
  opts.on_progress = [](const core::SweepProgress& p) {
    std::cerr << "[" << p.completed << "/" << p.total << "] " << p.label
              << ": " << core::toString(p.status) << " ("
              << stats::fmt(p.wall_ms, 1) << " ms)\n";
  };
  const core::SweepOutcome sweep = core::SweepRunner(opts).run(points);

  if (!json_path.empty()) {
    const std::string js = core::toSweepJson(sweep, jobs);
    if (json_path == "-") {
      std::cout << js;
    } else {
      std::ofstream ofs(json_path);
      if (!ofs) {
        std::cerr << "error: cannot write " << json_path << "\n";
        return 1;
      }
      ofs << js;
    }
  }

  if (const core::PointResult* fail = sweep.firstFailure()) {
    std::cerr << "verification failure in " << fail->label << ":\n"
              << fail->error << "\n";
    return 1;
  }

  std::vector<core::ScenarioResult> results;
  results.reserve(sweep.points.size());
  for (const auto& p : sweep.points) results.push_back(p.result);

  if (normalize_to >= results.size()) normalize_to = 0;
  stats::TextTable t("mpsoc_run results");
  t.setHeader({"scenario", "exec (us)", "normalized", "BW (MB/s)",
               "read lat mean/p95 (ns)", "done"});
  const double ref = static_cast<double>(results[normalize_to].exec_ps);
  for (const auto& r : results) {
    t.addRow({r.label, stats::fmt(static_cast<double>(r.exec_ps) / 1e6, 2),
              stats::fmt(static_cast<double>(r.exec_ps) / ref, 3),
              stats::fmt(r.bandwidth_mb_s, 1),
              stats::fmt(r.mean_read_latency_ns, 0) + "/" +
                  stats::fmt(r.p95_read_latency_ns, 0),
              r.completed ? "yes" : "NO"});
  }
  t.print(std::cout);

  if (want_sweep) {
    stats::TextTable s("sweep (-j " + std::to_string(jobs) + ", " +
                       stats::fmt(sweep.wall_ms, 1) + " ms wall)");
    s.setHeader({"scenario", "wall (ms)", "Medges/s", "digest"});
    for (const auto& p : sweep.points) {
      s.addRow({p.label, stats::fmt(p.wall_ms, 1),
                stats::fmt(p.sim_edges_per_s / 1e6, 2),
                core::digestHex(p.result)});
    }
    s.print(std::cout);
  }

  if (want_csv) {
    std::cout << "\n" << core::toCsv(results);
  }
  return 0;
}
