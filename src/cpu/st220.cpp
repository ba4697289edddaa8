#include "cpu/st220.hpp"

#include <memory>

namespace mpsoc::cpu {

using txn::Opcode;

namespace {
/// Bus priority of every fill and write-back.
constexpr std::uint8_t kPriority = 2;
}  // namespace

St220::St220(sim::ClockDomain& clk, std::string name, txn::InitiatorPort& port,
             St220Config cfg)
    : txn::MasterBase(clk, std::move(name), port, /*max_outstanding=*/4),
      cfg_(cfg), icache_(cfg.icache), dcache_(cfg.dcache),
      rng_(cfg.seed, this->name()), pc_(cfg.code_base),
      data_seq_(cfg.data_base) {}

void St220::scheduleFill(std::uint64_t line_addr, std::uint32_t line_bytes) {
  stalled_ = true;
  if (canIssue() && port_.req.canPush()) {
    issueFill(line_addr, line_bytes);
  } else {
    fill_pending_ = true;
    pending_fill_addr_ = line_addr;
    pending_fill_bytes_ = line_bytes;
  }
}

void St220::issueFill(std::uint64_t line_addr, std::uint32_t line_bytes) {
  auto req = std::make_shared<txn::Request>();
  req->id = clk_.simulator().nextTransactionId();
  req->root_id = req->id;
  req->op = Opcode::Read;
  req->addr = line_addr;
  req->bytes_per_beat = cfg_.bytes_per_beat;
  req->beats = line_bytes / cfg_.bytes_per_beat;
  req->priority = kPriority;
  req->tag = 1;  // demand fill
  issue(req);
  stalled_ = true;
}

void St220::issueWriteback(std::uint64_t line_addr, std::uint32_t line_bytes) {
  auto req = std::make_shared<txn::Request>();
  req->id = clk_.simulator().nextTransactionId();
  req->root_id = req->id;
  req->op = Opcode::Write;
  req->addr = line_addr;
  req->bytes_per_beat = cfg_.bytes_per_beat;
  req->beats = line_bytes / cfg_.bytes_per_beat;
  req->priority = kPriority;
  req->posted = cfg_.posted_writebacks;
  req->tag = 2;  // eviction
  issue(req);
}

std::uint64_t St220::nextDataAddr() {
  if (rng_.bernoulli(cfg_.data_random_fraction)) {
    return cfg_.data_base +
           (rng_.uniformInt(0, cfg_.data_footprint / 4 - 1) * 4);
  }
  // Sequential array walk wrapping over the working set.
  data_seq_ += 4;
  if (data_seq_ >= cfg_.data_base + cfg_.data_footprint) {
    data_seq_ = cfg_.data_base;
  }
  return data_seq_;
}

void St220::waitForFill() {
  // A finished core counts no more cycles; it only waits for its last fill.
  if (!done()) wait_from_ = now() + 1;
  sleep();
}

void St220::settleWait() {
  const std::uint64_t waited = now() - wait_from_;
  active_cycles_ += waited;
  stall_cycles_ += waited;
  wait_from_ = 0;
}

void St220::evaluate() {
  collectResponses();
  if (done()) {
    // Workload finished; once the last outstanding fill retires the core can
    // never issue again.
    sleep();
    return;
  }
  if (wait_from_ != 0) {
    // Parked on a miss.  Until the fill returns (or a pending fill can
    // issue), this cycle is one more stall, counted when the wait ends; a
    // wake by an unrelated response changes nothing.
    const bool waiting =
        fill_pending_ ? !(canIssue() && port_.req.canPush()) : stalled_;
    if (waiting) {
      sleep();
      return;
    }
    settleWait();
  }
  ++active_cycles_;

  // A fill that failed to issue (outstanding/port full) retries here.
  if (fill_pending_) {
    ++stall_cycles_;
    if (canIssue() && port_.req.canPush()) {
      issueFill(pending_fill_addr_, pending_fill_bytes_);
      fill_pending_ = false;
    }
    waitForFill();
    return;
  }

  // Fetch: one bundle per cycle through the I-cache.
  auto ires = icache_.access(pc_, false);
  if (rng_.bernoulli(cfg_.branch_fraction)) {
    pc_ = cfg_.code_base +
          (rng_.uniformInt(0, cfg_.code_footprint / 16 - 1) * 16);
  } else {
    pc_ += 16;  // 4 syllables x 32 bit
    if (pc_ >= cfg_.code_base + cfg_.code_footprint) pc_ = cfg_.code_base;
  }
  if (!ires.hit) {
    // NOLINTNEXTLINE(bugprone-unchecked-optional-access): a miss always
    // carries fill_addr (set unconditionally on the miss path in cache.cpp);
    // the invariant spans the Cache::access call, so it is not locally
    // provable to the checker.
    scheduleFill(*ires.fill_addr, icache_.lineBytes());
    waitForFill();
    return;  // the bundle resumes when the fill returns
  }

  // Execute: optional memory operation through the D-cache.
  const bool is_load = rng_.bernoulli(cfg_.load_fraction);
  const bool is_store = !is_load && rng_.bernoulli(cfg_.store_fraction);
  if (is_load || is_store) {
    auto dres = dcache_.access(nextDataAddr(), is_store);
    if (dres.writeback_addr && canIssuePosted() && port_.req.canPush()) {
      issueWriteback(*dres.writeback_addr, dcache_.lineBytes());
    }
    if (dres.fill_addr) {  // a miss: every miss allocates
      scheduleFill(*dres.fill_addr, dcache_.lineBytes());
      ++bundles_done_;  // the bundle itself commits; the load stalls the next
      waitForFill();
      return;
    }
  }
  ++bundles_done_;
}

void St220::onResponse(const txn::ResponsePtr& rsp) {
  if (rsp->req->tag == 1) stalled_ = false;
}

bool St220::idle() const { return done() && outstanding() == 0; }

}  // namespace mpsoc::cpu
