#include "cpu/st220.hpp"

#include <algorithm>
#include <memory>

namespace mpsoc::cpu {

using txn::Opcode;

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
  req->priority = cfg_.priority;
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
  req->priority = cfg_.priority;
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

void St220::evaluate() {
  collectResponses();
  if (done()) {
    // Workload finished; once the last outstanding fill retires the core can
    // never issue again.
    if (outstanding() == 0) sleep();
    return;
  }
  ++active_cycles_;

  // A fill that failed to issue (outstanding/port full) retries here.
  if (fill_pending_) {
    ++stall_cycles_;
    if (canIssue() && port_.req.canPush()) {
      issueFill(pending_fill_addr_, pending_fill_bytes_);
      fill_pending_ = false;
    }
    return;
  }
  if (stalled_) {
    ++stall_cycles_;
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
    if (!dres.hit && dres.fill_addr) {
      scheduleFill(*dres.fill_addr, dcache_.lineBytes());
      ++bundles_done_;  // the bundle itself commits; the load stalls the next
      return;
    }
    if (dres.write_through && canIssuePosted() && port_.req.canPush()) {
      // Write-through store of a single word.
      auto req = std::make_shared<txn::Request>();
      req->id = clk_.simulator().nextTransactionId();
      req->root_id = req->id;
      req->op = Opcode::Write;
      req->addr = data_seq_;
      req->bytes_per_beat = cfg_.bytes_per_beat;
      req->beats = 1;
      req->posted = cfg_.posted_writebacks;
      req->priority = cfg_.priority;
      req->tag = 3;
      issue(req);
    }
  }
  ++bundles_done_;
}

void St220::onResponse(const txn::ResponsePtr& rsp) {
  if (rsp->req->tag == 1) stalled_ = false;
}

bool St220::idle() const { return done() && outstanding() == 0; }

// --- loosely-timed execution path (fast-forward mode) ------------------------
//
// LT-EQUIV: tests/test_fastforward.cpp (FfHandoffOracle digest gate)
//
// Bundles retire at the self-calibrated CPI and traffic is booked at the
// self-calibrated bytes/bundle: when the core already executed accurately the
// estimates come from its own counters, otherwise nominal constants stand in
// (CPI 2.0, 2 bytes/bundle — a miss-dominated synthetic benchmark shape).
// Caches and the rng stream are untouched, so the accurate region after
// handoff replays bit-identically from the checkpoint.

sim::LtDemand St220::ltPlan(sim::Picos, sim::Picos quantum, sim::Picos) {
  sim::LtDemand d;
  lt_plan_bundles_ = 0;
  if (done()) return d;
  const std::uint64_t cycles =
      static_cast<std::uint64_t>(quantum / clk_.period());
  if (cycles == 0) return d;

  const double cpi_est = bundles_done_ ? std::max(cpi(), 1.0) : 2.0;
  const double bytes_per_bundle =
      bundles_done_ ? static_cast<double>(bytesRead() + bytesWritten()) /
                          static_cast<double>(bundles_done_)
                    : 2.0;
  const std::uint64_t remaining =
      cfg_.total_bundles - bundles_done_ - lt_bundles_;
  std::uint64_t bundles = static_cast<std::uint64_t>(
      static_cast<double>(cycles) / cpi_est);
  bundles = std::min(bundles, remaining);
  lt_plan_bundles_ = bundles;
  d.bytes = static_cast<std::uint64_t>(static_cast<double>(bundles) *
                                       bytes_per_bundle);
  const std::uint32_t line = dcache_.lineBytes();
  d.transactions = line ? (d.bytes + line - 1) / line : bundles;
  return d;
}

sim::LtDemand St220::ltCommit(sim::Picos, sim::Picos,
                              const sim::LtDemand& planned,
                              std::uint64_t granted_bytes) {
  sim::LtDemand done_now;
  if (lt_plan_bundles_ == 0) return done_now;
  std::uint64_t bundles = lt_plan_bundles_;
  std::uint64_t bytes = planned.bytes;
  std::uint64_t txns = planned.transactions;
  if (planned.bytes > 0 && granted_bytes < planned.bytes) {
    const auto scale = [&](std::uint64_t v) {
      return static_cast<std::uint64_t>(static_cast<unsigned __int128>(v) *
                                        granted_bytes / planned.bytes);
    };
    bundles = scale(bundles);
    txns = scale(txns);
    bytes = granted_bytes;
  }
  if (bundles == 0) return done_now;
  const std::uint64_t remaining =
      cfg_.total_bundles - bundles_done_ - lt_bundles_;
  bundles = std::min(bundles, remaining);
  lt_bundles_ += bundles;

  const double traffic = static_cast<double>(bytesRead() + bytesWritten());
  const double read_share =
      traffic > 0 ? static_cast<double>(bytesRead()) / traffic : 0.8;
  const auto read_bytes = static_cast<std::uint64_t>(
      static_cast<double>(bytes) * read_share);
  ltRecord(txns, read_bytes, bytes - read_bytes);
  done_now.transactions = txns;
  done_now.bytes = bytes;
  return done_now;
}

}  // namespace mpsoc::cpu
