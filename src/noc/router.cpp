#include "noc/router.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace mpsoc::noc {

namespace {
constexpr std::size_t kInputFifoDepth = 4;  ///< packets per input port
constexpr unsigned kPipelineLatency = 2;    ///< cycles from grant to first flit
// A grant hands its packet downstream on a later cycle, never its own.
static_assert(kPipelineLatency >= 1);
}  // namespace

Router::Router(sim::ClockDomain& clk, std::string name, unsigned x, unsigned y,
               unsigned mesh_w, unsigned mesh_h, RouterConfig cfg)
    : sim::Component(clk, std::move(name)), x_(x), y_(y), mesh_w_(mesh_w),
      mesh_h_(mesh_h), cfg_(cfg) {
  static const char* dir_names[kDirs] = {"N", "E", "S", "W", "L"};
  for (std::size_t d = 0; d < kDirs; ++d) {
    in_[d] = std::make_unique<PacketFifo>(
        clk_, this->name() + ".in" + dir_names[d], kInputFifoDepth);
    in_[d]->wakeOnPush(this);
  }
  // XY (dimension-order) route to every node, indexed by node id y*W + x.
  route_.reserve(static_cast<std::size_t>(mesh_w_) * mesh_h_);
  for (unsigned dy = 0; dy < mesh_h_; ++dy) {
    for (unsigned dx = 0; dx < mesh_w_; ++dx) {
      route_.push_back(dx > x_   ? Dir::East
                       : dx < x_ ? Dir::West
                       : dy > y_ ? Dir::South
                       : dy < y_ ? Dir::North
                                 : Dir::Local);
    }
  }
}

Dir Router::routeTo(NodeId dst) const {
  SIM_CHECK_CTX(dst < route_.size(), name_, &clk_,
                "destination node " << dst << " outside the "
                    << mesh_w_ << "x" << mesh_h_ << " mesh");
  return route_[dst];
}

std::size_t Router::headRoute(std::size_t i) const {
  const PacketFifo& fifo = *in_[i];
  return fifo.empty() ? kDirs
                      : static_cast<std::size_t>(routeTo(fifo.front()->dst));
}

void Router::evaluate() {
  // Each input's head route is looked up once per edge.  Only this router
  // pops its inputs and pushes from neighbours stay staged until commit, so
  // an entry changes only when a grant pops that input (runOutput refreshes
  // it there).
  HeadRoutes head;
  for (std::size_t i = 0; i < kDirs; ++i) head[i] = headRoute(i);
  for (std::size_t d = 0; d < kDirs; ++d) runOutput(d, head);
  settle(head);
}

void Router::runOutput(std::size_t d, HeadRoutes& head) {
  OutputEngine& e = out_[d];
  if (!e.sink) return;

  if (e.streaming) {
    const sim::Cycle now = clk_.now();
    if (now == e.handoff_at) {
      e.sink->push(e.streaming);
      ++routed_;
    }
    // Cut-through: the link stays busy until the tail has crossed even though
    // the packet object is already downstream (handoff_at < free_at).
    if (now + 1 == e.free_at) e.streaming.reset();
    return;
  }

  auto grant = [&](std::size_t i) {
    e.streaming = in_[i]->pop();
    // Every packet carries at least its header flit: the header has crossed
    // (and the packet is handed downstream) once the pipeline latency has
    // passed, and the flits hold the link one cycle each after that.
    e.handoff_at = clk_.now() + kPipelineLatency;
    e.free_at = e.handoff_at + e.streaming->flits;
    e.last_input = i;
    e.has_last = true;
    e.last_msg = e.streaming->req ? e.streaming->req->msg_id : 0;
    head[i] = headRoute(i);
  };

  // Message locking: the previously granted input keeps the port while it
  // presents the next packet of the same message.
  if (cfg_.message_locking && e.has_last && e.last_msg != 0) {
    if (head[e.last_input] == d) {
      const NocPacketPtr& pkt = in_[e.last_input]->front();
      if (pkt->req && pkt->req->msg_id == e.last_msg && e.sink->canPush()) {
        grant(e.last_input);
        return;
      }
    }
  }

  // Round-robin over input ports whose head packet routes to this output.
  for (std::size_t off = 1; off <= kDirs; ++off) {
    const std::size_t i = (e.last_input + off) % kDirs;
    if (head[i] != d) continue;
    // Reserve the downstream slot for the whole serialisation.
    if (!e.sink->canPush()) return;
    grant(i);
    return;
  }
}

void Router::settle(const HeadRoutes& head) {
  if (idle()) {
    sleep();  // an input push wakes it
    return;
  }
  // A free engine grants whenever a head routes to it and its sink has room,
  // so one that could still do so (freed on its tail cycle, or a head that a
  // grant uncovered after its turn) keeps the router awake.  A sink's room
  // only grows through a pop, and a head only changes through a push into
  // an empty input: both wake the router.
  const sim::Cycle now = clk_.now();
  sim::Cycle wake = 0;
  for (std::size_t d = 0; d < kDirs; ++d) {
    const OutputEngine& e = out_[d];
    if (!e.sink) continue;
    if (e.streaming) {
      // Next event: the handoff, then the tail cycle that lets go of it.
      const sim::Cycle next = now < e.handoff_at ? e.handoff_at : e.free_at - 1;
      if (wake == 0 || next < wake) wake = next;
    } else if (e.sink->canPush() &&
               std::find(head.begin(), head.end(), d) != head.end()) {
      return;
    }
  }
  if (wake != 0) {
    sleepUntil(wake);
  } else {
    sleep();  // every waiting head is blocked on a full sink
  }
}

bool Router::idle() const {
  for (std::size_t d = 0; d < kDirs; ++d) {
    if (out_[d].streaming) return false;
    if (in_[d] && !in_[d]->empty()) return false;
  }
  return true;
}

}  // namespace mpsoc::noc
