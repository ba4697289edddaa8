#pragma once
// NocMesh: a W x H mesh of routers plus network adapters that carry the
// library's standard Request/Response transactions over the packet fabric.
//
//   NocMesh mesh(clk, "noc", {3, 3});
//   mesh.attachMaster(master_port, node(0,0));
//   mesh.attachSlave(mem_port, node(2,2), base, size);
//
// Master adapters wrap an InitiatorPort: requests become packets routed to
// the node owning their address; returning response packets are delivered as
// scheduled Responses.  Slave adapters wrap a TargetPort: arriving request
// packets feed the memory model, and its responses travel back to the
// requesting node once their last beat has been produced (store-and-forward,
// matching the platform's bridge discipline).

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "noc/router.hpp"
#include "txn/ports.hpp"

namespace mpsoc::verify {
class VerifyContext;
}  // namespace mpsoc::verify

namespace mpsoc::noc {

struct MeshConfig {
  unsigned width = 3;
  unsigned height = 3;
  RouterConfig router{};
  std::size_t adapter_fifo_depth = 4;
};

class NocMesh {
 public:
  NocMesh(sim::ClockDomain& clk, std::string name, MeshConfig cfg);
  ~NocMesh();

  NocMesh(const NocMesh&) = delete;
  NocMesh& operator=(const NocMesh&) = delete;

  NodeId node(unsigned x, unsigned y) const {
    return static_cast<NodeId>(y * cfg_.width + x);
  }
  Router& router(NodeId id) { return *routers_[id]; }
  std::size_t routerCount() const { return routers_.size(); }

  /// Attach a master's port at a node.  The adapter owns the plumbing.
  void attachMaster(txn::InitiatorPort& port, NodeId at);

  /// Attach a slave's port at a node, owning [base, base+size).
  void attachSlave(txn::TargetPort& port, NodeId at, std::uint64_t base,
                   std::uint64_t size);

  /// Attach an InitiatorMonitor to every master port, named
  /// "<mesh>.mon.m<i>" in attach order.  Responses may return out of order;
  /// the outstanding cap is the master's own (MasterBase enforces it).
  void attachMonitors(verify::VerifyContext& ctx);

  /// Total packets moved across all routers (each hop counts once).
  std::uint64_t totalHops() const;

  /// Route length (hops, excluding the local ejection) between two nodes.
  unsigned hopDistance(NodeId a, NodeId b) const;

 private:
  class MasterAdapter;
  class SlaveAdapter;

  NodeId routeAddr(std::uint64_t addr) const;

  std::string name_;
  MeshConfig cfg_;
  sim::ClockDomain& clk_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<MasterAdapter>> masters_;
  std::vector<std::unique_ptr<SlaveAdapter>> slaves_;
  txn::AddressMap amap_;  ///< address -> node id
  /// Local egress FIFOs, one per node with an adapter.
  std::vector<std::unique_ptr<Router::PacketFifo>> egress_;

  friend class MasterAdapter;
  friend class SlaveAdapter;
};

}  // namespace mpsoc::noc
