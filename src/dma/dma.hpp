#pragma once
// Descriptor-based DMA engine — the "more generic DMA tasks" IP class of the
// reference platform, modelled as a real bus master rather than a traffic
// generator: it *moves* data, so every programmed byte crosses the
// interconnect twice (a read burst from the source, then a write burst to
// the destination), with a scatter-gather descriptor chain, up to 4 read
// bursts in flight and an 8-burst copy buffer.
//
// Usage: program() a chain of descriptors, run the simulation; done() turns
// true when the last write of the last descriptor has been issued (posted)
// or acknowledged (non-posted).

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "txn/master.hpp"

namespace mpsoc::dma {

struct DmaDescriptor {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::uint64_t bytes = 0;

  auto simStateMembers() { return std::tie(src, dst, bytes); }
};

struct DmaConfig {
  std::uint32_t bytes_per_beat = 8;
  std::uint32_t burst_beats = 16;  ///< transfer granule
  bool posted_writes = true;
};

class DmaEngine final : public txn::MasterBase {
 public:
  DmaEngine(sim::ClockDomain& clk, std::string name, txn::InitiatorPort& port,
            DmaConfig cfg);

  /// Append a descriptor to the chain (may be called before or during a run).
  void program(const DmaDescriptor& d);
  void program(const std::vector<DmaDescriptor>& chain);

  void evaluate() override;
  bool idle() const override;

  /// All programmed descriptors fully copied.
  bool done() const;

  std::uint64_t bytesCopied() const { return bytes_copied_; }
  std::uint64_t descriptorsCompleted() const { return descs_done_; }

  /// Invoked once per completed descriptor.
  void setCompletionCallback(std::function<void(const DmaDescriptor&)> cb) {
    on_complete_ = std::move(cb);
  }

 protected:
  void onResponse(const txn::ResponsePtr& rsp) override;

 private:
  /// One burst-sized slice of the active descriptor.
  struct PendingWrite {
    std::uint64_t dst;
    std::uint32_t beats;
    std::uint64_t desc_idx;
    bool last_of_descriptor;

    auto simStateMembers() {
      return std::tie(dst, beats, desc_idx, last_of_descriptor);
    }
  };

  void issueNextRead();
  void issueNextWrite();
  void completeWriteFor(std::uint64_t req_id);
  std::uint32_t sliceBeats(std::uint64_t remaining) const;

  DmaConfig cfg_;
  std::vector<DmaDescriptor> chain_;
  std::size_t desc_idx_ = 0;       ///< descriptor being *read*
  std::uint64_t read_offset_ = 0;  ///< bytes already requested from src

  /// Read data that has landed in the copy buffer, ready to be written out.
  std::deque<PendingWrite> write_queue_;
  /// Read request id -> the write slice its data will become.
  std::unordered_map<std::uint64_t, PendingWrite> pending_reads_;
  /// Write request id -> descriptor index (for completion accounting).
  std::unordered_map<std::uint64_t, std::uint64_t> write_descs_;
  /// Remaining write slices per descriptor.
  std::vector<std::uint64_t> desc_slices_left_;
  unsigned reads_inflight_ = 0;
  std::uint64_t bytes_copied_ = 0;
  std::uint64_t descs_done_ = 0;
  std::function<void(const DmaDescriptor&)> on_complete_;

  SIM_STATE_MEMBERS_WITH_BASE(txn::MasterBase, chain_, desc_idx_,
                              read_offset_, write_queue_, pending_reads_,
                              write_descs_, desc_slices_left_,
                              reads_inflight_, bytes_copied_, descs_done_);
  SIM_STATE_EXEMPT(cfg_, "immutable configuration");
  SIM_STATE_EXEMPT(on_complete_, "observer callback");
};

}  // namespace mpsoc::dma
