#pragma once
// 2D-mesh router: five ports (North/East/South/West/Local), dimension-order
// (XY) routing, round-robin output arbitration, input-buffered with
// per-packet link serialisation (one flit per cycle per link), a two-cycle
// pipeline per hop and virtual cut-through: a packet is handed downstream
// once its header has crossed, while the link stays busy for the whole
// serialisation (per-hop latency pipeline+1, flit-limited throughput).
//
// Activity: an engine keeps absolute cycles, so waiting costs nothing per
// cycle: the grant on cycle g fixes the handoff (g + pipeline latency) and the
// end of the serialisation (free_at, g + pipeline latency + flits).  After
// each evaluate a router sleeps once idle() holds (every input empty, no
// output streaming); stays awake while a free engine could grant next cycle;
// else sleeps until its earliest handoff or tail cycle (free_at - 1, where
// the engine lets go of its packet); else sleeps, holding work, on
// back-pressure.  A push into one of its inputs or a pop from one of its
// output sinks wakes it.
// XY routes come from a per-destination table built at construction.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "noc/packet.hpp"
#include "sim/component.hpp"
#include "sim/fifo.hpp"

namespace mpsoc::noc {

enum class Dir : std::uint8_t { North = 0, East, South, West, Local };
constexpr std::size_t kDirs = 5;

struct RouterConfig {
  /// Hold an output-port grant while the same input keeps presenting packets
  /// of the same non-zero msg_id — the NoC equivalent of STBus message
  /// arbitration, preserving memory-controller-friendly trains end-to-end
  /// (without it, round-robin routers interleave everything and the LMI's
  /// merge/row-hit optimisations starve; see bench_noc_outlook).
  bool message_locking = false;
};

class Router final : public sim::Component {
 public:
  using PacketFifo = sim::SyncFifo<NocPacketPtr>;

  Router(sim::ClockDomain& clk, std::string name, unsigned x, unsigned y,
         unsigned mesh_w, unsigned mesh_h, RouterConfig cfg);

  unsigned x() const { return x_; }
  unsigned y() const { return y_; }

  /// Input FIFO for a given direction (upstream neighbours / the local
  /// adapter push into it).
  PacketFifo& input(Dir d) { return *in_[static_cast<std::size_t>(d)]; }

  /// Wire the downstream sink of an output port: the neighbour router's
  /// opposite input, or the local adapter's egress FIFO.  A pop from it
  /// wakes this router (the pop may free the slot a parked grant waits for).
  void connectOutput(Dir d, PacketFifo* sink) {
    out_[static_cast<std::size_t>(d)].sink = sink;
    sink->wakeOnPop(this);
  }

  void evaluate() override;
  bool idle() const override;

  std::uint64_t packetsRouted() const { return routed_; }

  /// XY route: which output port a packet to `dst` takes from this router
  /// (a route-table lookup; raises InvariantViolation outside the mesh).
  Dir routeTo(NodeId dst) const;

 private:
  struct OutputEngine {
    PacketFifo* sink = nullptr;
    NocPacketPtr streaming;      ///< held from grant to tail cycle
    sim::Cycle handoff_at = 0;   ///< cycle the packet is pushed downstream
    sim::Cycle free_at = 0;      ///< first cycle after the serialisation
    std::size_t last_input = 0;  ///< round-robin pointer
    std::uint64_t last_msg = 0;  ///< message-locking state
    bool has_last = false;

    /// sink is wiring (downstream FIFO pointer), everything else mutates.
    auto simStateMembers() {
      return std::tie(streaming, handoff_at, free_at, last_input, last_msg,
                      has_last);
    }
  };

  /// Output port of each input's head packet, or kDirs for an empty input.
  using HeadRoutes = std::array<std::size_t, kDirs>;

  std::size_t headRoute(std::size_t i) const;

  void runOutput(std::size_t d, HeadRoutes& head);

  /// After runOutput: sleep, stay awake, or sleep until the next engine
  /// event (see the Activity note above).
  void settle(const HeadRoutes& head);

  unsigned x_, y_, mesh_w_, mesh_h_;
  RouterConfig cfg_;
  std::array<std::unique_ptr<PacketFifo>, kDirs> in_;
  std::array<OutputEngine, kDirs> out_;
  std::vector<Dir> route_;  ///< output port per destination node
  std::uint64_t routed_ = 0;

  SIM_STATE_MEMBERS(out_, routed_);
  SIM_STATE_EXEMPT(x_, "immutable configuration (mesh coordinate)");
  SIM_STATE_EXEMPT(y_, "immutable configuration (mesh coordinate)");
  SIM_STATE_EXEMPT(mesh_w_, "immutable configuration (mesh size)");
  SIM_STATE_EXEMPT(mesh_h_, "immutable configuration (mesh size)");
  SIM_STATE_EXEMPT(cfg_, "immutable configuration");
  SIM_STATE_EXEMPT(route_, "immutable configuration (XY route table)");
  SIM_STATE_EXEMPT(in_, "registered Updatables (kernel checkpoints FIFOs)");
};

}  // namespace mpsoc::noc
