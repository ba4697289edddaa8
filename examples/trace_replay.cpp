// Trace capture and replay: the workflow a system integrator uses to turn a
// live run into a reproducible IPTG stimulus.
//
//   $ ./examples/trace_replay [path/to/config.iptg]
//
// 1. Load a per-IP configuration file (examples/configs/video_pipeline.iptg)
//    and run it against an STBus node + 1-wait-state memory, capturing every
//    request accepted by the memory into a trace.
// 2. Serialise the trace to disk, reload it, and build a sequence-mode IPTG
//    from it (inter-arrival gaps reconstructed from the timestamps).
// 3. Replay the trace through a fresh platform and verify the memory sees
//    the identical transaction stream.

#include <fstream>
#include <iostream>
#include <sstream>

#include "iptg/config_parser.hpp"
#include "iptg/trace.hpp"
#include "mem/simple_memory.hpp"
#include "sim/simulator.hpp"
#include "stats/report.hpp"
#include "stbus/node.hpp"
#include "txn/ports.hpp"

using namespace mpsoc;

namespace {

struct RunOutcome {
  sim::Picos exec_ps = 0;
  std::uint64_t accesses = 0;
  std::uint64_t beats = 0;
};

RunOutcome run(const iptg::IptgConfig& cfg, iptg::TraceRecorder* recorder) {
  sim::Simulator sim;
  auto& clk = sim.addClockDomain("bus", 200.0);
  stbus::StbusNode node(clk, "n0", {});
  txn::TargetPort mport(clk, "mem", 4, 8);
  node.addTarget(mport, 0x0, 1ull << 32);
  mem::SimpleMemory memory(clk, "sram", mport, {1});
  if (recorder) recorder->attach(mport);
  txn::InitiatorPort iport(clk, "ip", 2, 8);
  node.addInitiator(iport);
  iptg::Iptg gen(clk, "video", iport, cfg);

  RunOutcome out;
  out.exec_ps = sim.runUntilIdle(1'000'000'000'000ull);
  out.accesses = memory.accessesServed();
  out.beats = memory.beatsServed();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cfg_path =
      argc > 1 ? argv[1] : "examples/configs/video_pipeline.iptg";

  iptg::IptgConfig cfg;
  try {
    cfg = iptg::loadIptgConfig(cfg_path);
  } catch (const std::exception& e) {
    std::cerr << "failed to load '" << cfg_path << "': " << e.what() << "\n";
    std::cerr << "(run from the repository root, or pass the config path)\n";
    return 1;
  }
  std::cout << "loaded " << cfg.agents.size() << " agents from " << cfg_path
            << "\n";

  // --- 1. capture ---------------------------------------------------------
  iptg::TraceRecorder recorder;
  const RunOutcome original = run(cfg, &recorder);
  std::cout << "capture run: " << original.accesses << " accesses, "
            << original.beats << " beats, "
            << stats::fmt(static_cast<double>(original.exec_ps) / 1e6, 1)
            << " us\n";

  // --- 2. serialise, reload, rebuild --------------------------------------
  std::stringstream trace_text;
  recorder.write(trace_text);
  const auto reloaded = iptg::parseTrace(trace_text);
  std::cout << "trace: " << reloaded.size() << " records ("
            << trace_text.str().size() << " bytes serialised)\n";

  iptg::IptgConfig replay_cfg;
  replay_cfg.bytes_per_beat = cfg.bytes_per_beat;
  replay_cfg.agents.push_back(
      iptg::sequenceFromTrace(reloaded, sim::periodFromMhz(200.0)));

  // --- 3. replay ------------------------------------------------------------
  const RunOutcome replay = run(replay_cfg, nullptr);
  std::cout << "replay run:  " << replay.accesses << " accesses, "
            << replay.beats << " beats, "
            << stats::fmt(static_cast<double>(replay.exec_ps) / 1e6, 1)
            << " us\n";

  const bool same = replay.accesses == original.accesses &&
                    replay.beats == original.beats;
  std::cout << (same ? "OK: replay moved the identical transaction stream\n"
                     : "MISMATCH between capture and replay!\n");
  return same ? 0 : 1;
}
