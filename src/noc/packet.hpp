#pragma once
// Packet model for the 2D-mesh network-on-chip outlook substrate.
//
// The paper's guideline 5 contrasts ever-smarter bridges against "keeping
// lightweight bridges for path segmentation and pushing complexity at the
// system interconnect boundaries, which is known as the network-on-chip
// solution".  This substrate implements that alternative so the two can be
// compared on the same workloads (bench_noc_outlook).
//
// Transport granularity: packets are serialised link by link at one flit per
// cycle.  Routers use virtual cut-through: a packet is handed to the next hop
// once its header has crossed, while the link stays busy until the tail has
// crossed (see router.hpp).  A request packet carries a header flit plus one
// flit per write-data beat; a response packet a header flit plus one flit
// per read-data beat.

#include <cstdint>
#include <memory>
#include <tuple>

#include "txn/transaction.hpp"

namespace mpsoc::noc {

using NodeId = std::uint16_t;

struct NocPacket {
  enum class Kind : std::uint8_t { Request, Response };

  Kind kind = Kind::Request;
  txn::RequestPtr req;  ///< original request (responses reference it too)
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t flits = 1;

  static std::uint32_t requestFlits(const txn::Request& r) {
    return 1 + (r.op == txn::Opcode::Write ? r.beats : 0);
  }
  static std::uint32_t responseFlits(const txn::Request& r) {
    return 1 + (r.op == txn::Opcode::Read ? r.beats : 0);
  }

  auto simStateMembers() { return std::tie(kind, req, src, dst, flits); }
};

using NocPacketPtr = std::shared_ptr<NocPacket>;

}  // namespace mpsoc::noc
