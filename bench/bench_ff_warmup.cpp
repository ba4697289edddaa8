// Fast-forward warm-up speedup — the headline number of the multi-abstraction
// execution mode (DESIGN.md, "Multi-abstraction execution").
//
// Two runs of the Fig. 3 full-STBus instance over the same simulated window
// [0, warmup + tail):
//
//   accurate      every picosecond under the cycle-accurate two-phase kernel
//   fast-forward  [0, warmup) under the loosely-timed quantum engine, then a
//                 checkpoint/restore handoff and an accurate tail
//
// The tail is kept small (1 us) so the wall-clock ratio is dominated by the
// warm-up region — the part the LT engine replaces.  The speedup is the
// check.sh FF stage's gate (>= 5x); BENCH_ff.json carries the evidence.
//
// The wall clocks come from the sweep runner (one point per run, -j forced
// to 1 so neither measurement is perturbed by the other).  Digest pinning
// is NOT this harness's job — `ctest -L fastforward` does that; this
// harness reports cost only.
//
//   --json <path>   write the BENCH_ff.json document there (`-` = stdout)
//   --warmup <ps>   warm-up region length (default 200 us)
//   --tail <ps>     accurate tail after the handoff (default 1 us)

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hpp"

using namespace mpsoc;

int main(int argc, char** argv) {
  using platform::MemoryKind;
  using platform::PlatformConfig;
  using platform::Protocol;
  using platform::Topology;

  std::string json_path;
  long long warmup = 200'000'000;  // 200 us
  long long tail = 1'000'000;      // 1 us
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--warmup") == 0 && i + 1 < argc) {
      warmup = std::stoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--tail") == 0 && i + 1 < argc) {
      tail = std::stoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--json <path|->] [--warmup ps] [--tail ps] "
                   "[--out <path>]\n";
      return 2;
    }
  }
  if (warmup < 1 || tail < 1) {
    std::cerr << "error: --warmup and --tail must be positive\n";
    return 2;
  }
  const sim::Picos duration = static_cast<sim::Picos>(warmup + tail);

  PlatformConfig base;
  base.protocol = Protocol::Stbus;
  base.topology = Topology::Full;
  base.memory = MemoryKind::OnChip;
  base.onchip_wait_states = 1;

  PlatformConfig ff = base;
  ff.ff_until_ps = static_cast<sim::Picos>(warmup);
  // The handoff oracle costs a window of doubly-executed edges; the ctest
  // suite runs it on every shipped scenario, so the cost harness skips it.
  ff.ff_check = false;

  core::SweepOptions so;
  so.jobs = 1;
  const core::SweepOutcome sweep = core::SweepRunner(so).run(
      {{"accurate", base, duration}, {"fast-forward", ff, duration}});
  if (const core::PointResult* fail = sweep.firstFailure()) {
    std::cerr << "simulation failure in " << fail->label << ":\n"
              << fail->error << "\n";
    return 1;
  }
  const core::PointResult& acc = sweep.points[0];
  const core::PointResult& fwd = sweep.points[1];
  const double speedup =
      fwd.wall_ms > 0.0 ? acc.wall_ms / fwd.wall_ms : 0.0;

  std::ofstream file;
  std::ostream* os = &std::cout;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::cerr << "error: cannot write " << out_path << "\n";
      return 1;
    }
    os = &file;
  }
  stats::TextTable t("FF warm-up speedup: full STBus (Fig. 3), warm-up " +
                     stats::fmt(static_cast<double>(warmup) / 1e6, 0) +
                     " us + " + stats::fmt(static_cast<double>(tail) / 1e6, 0) +
                     " us accurate tail");
  t.setHeader({"mode", "wall (ms)", "speedup", "ff quanta", "lt bytes"});
  t.addRow({"accurate", stats::fmt(acc.wall_ms, 1), "1.000", "-", "-"});
  t.addRow({"fast-forward", stats::fmt(fwd.wall_ms, 1),
            stats::fmt(speedup, 3), std::to_string(fwd.result.ff_quanta),
            std::to_string(fwd.result.ff_lt_bytes)});
  t.print(*os);

  if (!json_path.empty()) {
    std::ostringstream js;
    js << "{\n"
       << "  \"bench\": \"ff_warmup\",\n"
       << "  \"scenario\": \"fig3 full STBus, on-chip memory (1 ws)\",\n"
       << "  \"warmup_ps\": " << warmup << ",\n"
       << "  \"tail_ps\": " << tail << ",\n"
       << "  \"accurate_wall_ms\": " << acc.wall_ms << ",\n"
       << "  \"ff_wall_ms\": " << fwd.wall_ms << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"ff_quanta\": " << fwd.result.ff_quanta << ",\n"
       << "  \"ff_lt_transactions\": " << fwd.result.ff_lt_transactions
       << ",\n"
       << "  \"ff_lt_bytes\": " << fwd.result.ff_lt_bytes << "\n"
       << "}\n";
    if (json_path == "-") {
      std::cout << js.str();
    } else {
      std::ofstream jf(json_path);
      if (!jf) {
        std::cerr << "error: cannot write " << json_path << "\n";
        return 1;
      }
      jf << js.str();
    }
  }
  return 0;
}
