#include "dma/dma.hpp"

#include "sim/check.hpp"
#include <memory>
#include <unordered_map>

namespace mpsoc::dma {

using txn::Opcode;

namespace {
constexpr std::uint32_t kTagRead = 10;
constexpr std::uint32_t kTagWrite = 11;
constexpr unsigned kMaxInflightReads = 4;
/// Copy buffer depth, in bursts: writes can only drain what reads filled.
constexpr unsigned kBufferBursts = 8;
/// Bus priority of every read and write.
constexpr std::uint8_t kPriority = 1;
}  // namespace

DmaEngine::DmaEngine(sim::ClockDomain& clk, std::string name,
                     txn::InitiatorPort& port, DmaConfig cfg)
    : txn::MasterBase(clk, std::move(name), port,
                      kMaxInflightReads + kBufferBursts + 2),
      cfg_(cfg) {}

void DmaEngine::program(const DmaDescriptor& d) {
  SIM_CHECK_CTX(d.bytes > 0, name_, &clk_,
                "DMA descriptor programmed with zero length");
  chain_.push_back(d);
  const std::uint64_t granule =
      static_cast<std::uint64_t>(cfg_.burst_beats) * cfg_.bytes_per_beat;
  desc_slices_left_.push_back((d.bytes + granule - 1) / granule);
  // A finished engine sleeps; programming new work is the wake event.
  wake();
}

void DmaEngine::program(const std::vector<DmaDescriptor>& chain) {
  for (const auto& d : chain) program(d);
}


std::uint32_t DmaEngine::sliceBeats(std::uint64_t remaining) const {
  const std::uint64_t full =
      static_cast<std::uint64_t>(cfg_.burst_beats) * cfg_.bytes_per_beat;
  const std::uint64_t bytes = remaining < full ? remaining : full;
  return static_cast<std::uint32_t>(
      (bytes + cfg_.bytes_per_beat - 1) / cfg_.bytes_per_beat);
}

void DmaEngine::evaluate() {
  collectResponses();
  // Chain fully copied and drained: quiesce until program() wakes us.
  if (idle()) {
    sleep();
    return;
  }

  // Drain the copy buffer first (a full buffer would throttle reads).
  if (!write_queue_.empty()) {
    const bool posted = cfg_.posted_writes;
    if ((posted ? canIssuePosted() : canIssue())) {
      issueNextWrite();
      return;  // one bus issue per cycle
    }
  }
  // Fill: next read slice of the active descriptor.
  if (desc_idx_ < chain_.size() && reads_inflight_ < kMaxInflightReads &&
      write_queue_.size() + reads_inflight_ < kBufferBursts &&
      canIssue()) {
    issueNextRead();
  }
}

void DmaEngine::issueNextRead() {
  const DmaDescriptor& d = chain_[desc_idx_];
  const std::uint64_t remaining = d.bytes - read_offset_;
  const std::uint32_t beats = sliceBeats(remaining);

  auto req = std::make_shared<txn::Request>();
  req->id = clk_.simulator().nextTransactionId();
  req->root_id = req->id;
  req->op = Opcode::Read;
  req->addr = d.src + read_offset_;
  req->beats = beats;
  req->bytes_per_beat = cfg_.bytes_per_beat;
  req->priority = kPriority;
  req->tag = kTagRead;

  PendingWrite pw;
  pw.dst = d.dst + read_offset_;
  pw.beats = beats;
  pw.desc_idx = desc_idx_;
  const std::uint64_t granule =
      static_cast<std::uint64_t>(beats) * cfg_.bytes_per_beat;
  read_offset_ += granule > remaining ? remaining : granule;
  pw.last_of_descriptor = read_offset_ >= d.bytes;
  pending_reads_[req->id] = pw;

  ++reads_inflight_;
  issue(req);

  if (read_offset_ >= d.bytes) {
    ++desc_idx_;
    read_offset_ = 0;
  }
}

void DmaEngine::issueNextWrite() {
  PendingWrite pw = write_queue_.front();
  write_queue_.pop_front();

  auto req = std::make_shared<txn::Request>();
  req->id = clk_.simulator().nextTransactionId();
  req->root_id = req->id;
  req->op = Opcode::Write;
  req->addr = pw.dst;
  req->beats = pw.beats;
  req->bytes_per_beat = cfg_.bytes_per_beat;
  req->priority = kPriority;
  req->posted = cfg_.posted_writes;
  req->tag = kTagWrite;
  write_descs_[req->id] = pw.desc_idx;
  issue(req);

  if (cfg_.posted_writes) {
    // Posted writes complete at issue.
    completeWriteFor(req->id);
  }
}

void DmaEngine::completeWriteFor(std::uint64_t req_id) {
  auto it = write_descs_.find(req_id);
  SIM_CHECK_CTX(it != write_descs_.end(), name_, &clk_,
                "write completion for untracked request id " << req_id);
  const std::uint64_t desc = it->second;
  write_descs_.erase(it);
  SIM_CHECK_CTX(desc_slices_left_[desc] > 0, name_, &clk_,
                "write completion for finished descriptor " << desc);
  if (--desc_slices_left_[desc] == 0) {
    ++descs_done_;
    // Deep-check replay repeats the completing evaluate; only the forward
    // pass notifies (descs_done_ itself rolls back via the manifest).
    if (on_complete_ && !clk_.simulator().inReplay()) on_complete_(chain_[desc]);
  }
}

void DmaEngine::onResponse(const txn::ResponsePtr& rsp) {
  if (rsp->req->tag == kTagRead) {
    auto it = pending_reads_.find(rsp->req->id);
    SIM_CHECK_CTX(it != pending_reads_.end(), name_, &clk_,
                  "read response for untracked request id "
                      << rsp->req->id);
    write_queue_.push_back(it->second);
    bytes_copied_ += static_cast<std::uint64_t>(it->second.beats) *
                     cfg_.bytes_per_beat;
    pending_reads_.erase(it);
    SIM_CHECK_CTX(reads_inflight_ > 0, name_, &clk_,
                  "read response with no read in flight");
    --reads_inflight_;
  } else if (rsp->req->tag == kTagWrite) {
    completeWriteFor(rsp->req->id);
  }
}

bool DmaEngine::done() const { return descs_done_ == chain_.size(); }

bool DmaEngine::idle() const {
  return done() && outstanding() == 0 && write_queue_.empty();
}

}  // namespace mpsoc::dma
