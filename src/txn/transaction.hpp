#pragma once
// Protocol-neutral transaction model.
//
// Whole Request/Response objects travel through port FIFOs; the interconnect
// engines account channel occupancy beat-by-beat from the metadata carried
// here.  A Response carries a beat schedule (in absolute picoseconds) emitted
// by the producing memory model, so a bus in any clock domain can stream read
// data with the exact duty cycle the memory sustains — this is how the
// "response channel forced to 50% efficiency by a 1-wait-state memory"
// behaviour of Section 4.1.2 emerges rather than being asserted.

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>

#include "sim/state.hpp"
#include "sim/time.hpp"

namespace mpsoc::txn {

enum class Opcode : std::uint8_t { Read, Write };

inline const char* toString(Opcode op) {
  return op == Opcode::Read ? "RD" : "WR";
}

struct Request {
  std::uint64_t id = 0;        ///< unique per simulation
  std::uint64_t root_id = 0;   ///< id of the original request across bridges
  Opcode op = Opcode::Read;
  std::uint64_t addr = 0;
  std::uint32_t beats = 1;           ///< data beats at the current bus width
  std::uint32_t bytes_per_beat = 4;  ///< current bus width
  std::uint8_t priority = 0;         ///< higher wins (STBus priority label)
  bool posted = false;               ///< posted write: no response expected
  std::uint64_t msg_id = 0;          ///< message tag for message arbitration

  std::string source;     ///< originating master, for tracing/stats
  std::uint32_t tag = 0;  ///< master-private tag (e.g. IPTG agent index)

  sim::Picos created_ps = 0;    ///< pushed by the originating master
  sim::Picos completed_ps = 0;  ///< response fully delivered to the master

  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(beats) * bytes_per_beat;
  }
  std::uint64_t endAddr() const { return addr + bytes(); }

  auto simStateMembers() {
    return std::tie(id, root_id, op, addr, beats, bytes_per_beat, priority,
                    posted, msg_id, source, tag, created_ps, completed_ps);
  }
};

using RequestPtr = std::shared_ptr<Request>;

/// Beat i of the response is available on the producing interface at
/// `first_beat + i * beat_period` (absolute picoseconds).  A DDR device sets
/// beat_period to half the controller clock period.
struct BeatSchedule {
  sim::Picos first_beat = 0;
  sim::Picos beat_period = 0;

  sim::Picos beatTime(std::uint32_t i) const {
    return first_beat + static_cast<sim::Picos>(i) * beat_period;
  }
  sim::Picos lastBeat(std::uint32_t beats) const {
    return beats ? beatTime(beats - 1) : first_beat;
  }

  auto simStateMembers() { return std::tie(first_beat, beat_period); }
};

struct Response {
  RequestPtr req;
  std::uint32_t beats = 1;  ///< read: data beats; write ack: 1
  BeatSchedule sched;

  auto simStateMembers() { return std::tie(req, beats, sched); }
};

using ResponsePtr = std::shared_ptr<Response>;

/// Recompute the number of beats when a payload crosses a bus-width boundary
/// (GenConv data-width conversion).  Rounds up to whole beats.
std::uint32_t repackBeats(std::uint32_t beats, std::uint32_t from_bytes,
                          std::uint32_t to_bytes);

struct InitiatorPort;
struct TargetPort;

/// Passkey of the transaction FIFOs: a sim::SyncFifo of RequestPtr or
/// ResponsePtr takes one, and only the port bundles (txn/ports.hpp) can
/// create it.  Transactions therefore travel only through InitiatorPort /
/// TargetPort, where the protocol monitors bind.
class PortKey {
  friend struct InitiatorPort;
  friend struct TargetPort;
  PortKey() = default;
};

}  // namespace mpsoc::txn

// Specialised beside the payload types, so no SyncFifo of a transaction can
// be instantiated without its key (the primary template is in sim/fifo.hpp).
namespace mpsoc::sim {
template <typename T>
struct FifoKey;
template <>
struct FifoKey<txn::RequestPtr> {
  using type = txn::PortKey;
};
template <>
struct FifoKey<txn::ResponsePtr> {
  using type = txn::PortKey;
};
}  // namespace mpsoc::sim
