#include "mem/lmi_controller.hpp"

#include <algorithm>
#include <vector>

#include "sim/check.hpp"
#include "verify/context.hpp"
#include "verify/port_monitor.hpp"
#include "verify/sdram_monitor.hpp"

namespace mpsoc::mem {

using txn::Opcode;
using txn::RequestPtr;

namespace {
/// Bus interface <-> SDRAM pins, in bus cycles.
constexpr sim::Picos kInterfaceLatencyCycles = 3;
/// How far command setup may overlap the tail of the current data transfer,
/// in bus cycles.
constexpr sim::Picos kPipelineOverlapCycles = 6;
}  // namespace

LmiController::LmiController(sim::ClockDomain& clk, std::string name,
                             txn::TargetPort& port, LmiConfig cfg)
    : sim::Component(clk, std::move(name)), port_(port), cfg_(cfg),
      device_(std::make_unique<SdramDevice>(
          cfg.timing, cfg.geometry,
          clk.period() * std::max(1u, cfg.clock_divider))) {
  // Wake events besides the timed ones: an arriving request, and a popped
  // response freeing the output FIFO the controller parks on.
  port_.req.wakeOnPush(this);
  port_.rsp.wakeOnPop(this);
}

void LmiController::attachMonitors(verify::VerifyContext& ctx) {
  ctx.add<verify::TargetMonitor>(name_ + ".mon", &clk_, port_);
  auto& sdram = ctx.add<verify::SdramLegalityMonitor>(
      name_ + ".sdram.mon", &clk_, device_->timing(),
      device_->geometry().banks, device_->clkPeriod());
  // Deep-check's replay pass re-schedules the edge's accesses on the
  // rewound device; only the forward pass reports them, as the FIFO taps do.
  device_->setCommandObserver([&sdram, this](const SdramCommand& c) {
    if (!clk_.simulator().inReplay()) sdram.onCommand(c);
  });
}

std::size_t LmiController::selectRequest() const {
  const std::size_t window = std::min<std::size_t>(
      port_.req.size(), std::max(1u, cfg_.lookahead));
  for (std::size_t k = 0; k < window; ++k) {
    if (device_->wouldHit(port_.req.at(k)->addr)) return k;
  }
  return 0;  // no row hit in the window: serve the oldest
}

std::size_t LmiController::mergeRun(std::size_t first) const {
  // Merging scans *adjacent* queued requests (hardware compares neighbours
  // as they sit in the FIFO); it is limited by merge_limit, not by the
  // reorder lookahead — a plain in-order controller can still merge.
  const std::size_t window = std::min<std::size_t>(
      port_.req.size(), first + cfg_.merge_limit);
  const RequestPtr& head = port_.req.at(first);
  const unsigned bank = device_->bankOf(head->addr);
  const std::uint64_t row = device_->rowOf(head->addr);

  std::size_t run = 1;
  std::uint64_t expect = head->endAddr();
  while (first + run < window && run < cfg_.merge_limit) {
    const RequestPtr& next = port_.req.at(first + run);
    if (next->op != head->op) break;
    if (next->addr != expect) break;
    if (device_->bankOf(next->addr) != bank ||
        device_->rowOf(next->addr) != row) {
      break;
    }
    expect = next->endAddr();
    ++run;
  }
  return run;
}

void LmiController::evaluate() {
  // The SDRAM refresh engine is clocked by this call, so every wait below
  // is a sleepUntil() bounded by the next refresh-due cycle: refreshes fire
  // on schedule even with an empty request queue.
  const sim::Picos now = clk_.simulator().now();
  device_->maybeRefresh(now);
  const sim::Cycle refresh = clk_.cycleAt(device_->nextRefreshAt());
  const auto waitUntil = [&](sim::Picos t) {
    sleepUntil(std::min(refresh, clk_.cycleAt(t)));
  };
  if (now < engine_busy_until_) {
    waitUntil(engine_busy_until_);
    return;
  }
  if (port_.req.empty()) {
    sleepUntil(refresh);
    return;
  }
  // Overlap command setup with no more than the tail of the current data
  // transfer; otherwise requests wait in the input FIFO.
  const sim::Picos overlap = kPipelineOverlapCycles * clk_.period();
  if (device_->dataBusFreeAt() > now + overlap) {
    waitUntil(device_->dataBusFreeAt() - overlap);
    return;
  }

  std::size_t pick = selectRequest();
  SIM_CHECK_CTX(pick < port_.req.size(), name_, &clk_,
                "lookahead picked slot " << pick << " beyond queue depth "
                                         << port_.req.size());
  std::size_t run =
      cfg_.opcode_merging ? mergeRun(pick) : static_cast<std::size_t>(1);

  auto responsesNeeded = [&](std::size_t n) {
    std::size_t cnt = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const RequestPtr& r = port_.req.at(pick + k);
      if (!(r->posted && r->op == Opcode::Write)) ++cnt;
    }
    return cnt;
  };
  // Output FIFO back-pressure: fall back to a single request, then stall.
  if (!port_.rsp.canPush(responsesNeeded(run))) {
    run = 1;
    if (!port_.rsp.canPush(responsesNeeded(1))) {
      // Output back-pressure: woken by a response pop, a request push (a new
      // pick may need no response) or the next refresh.
      sleepUntil(refresh);
      return;
    }
  }

  batch_.clear();
  std::uint32_t total_beats = 0;
  for (std::size_t k = 0; k < run; ++k) {
    // popAt(pick) shifts the next merged neighbour into slot `pick`, so the
    // whole adjacent run is collected from the same index.
    batch_.push_back(port_.req.popAt(pick));
    SIM_CHECK_CTX(batch_.back()->op == batch_.front()->op, name_, &clk_,
                  "merge run mixed opcodes at slice " << k
                      << " (lookahead/merge window bug)");
    total_beats += batch_.back()->beats;
  }

  const bool is_write = batch_.front()->op == Opcode::Write;
  const SdramAccess acc =
      device_->schedule(batch_.front()->addr, total_beats, is_write, now);
  ++accesses_;
  served_ += run;
  merged_ += run - 1;

  const sim::Picos iface = kInterfaceLatencyCycles * clk_.period();
  std::uint32_t beat_offset = 0;
  for (const RequestPtr& r : batch_) {
    const bool needs_rsp = !(r->posted && r->op == Opcode::Write);
    if (needs_rsp) {
      auto rsp = std::make_shared<txn::Response>();
      rsp->req = r;
      if (is_write) {
        rsp->beats = 1;  // acknowledge after the whole payload is written
        rsp->sched.first_beat = acc.data_end + iface;
        rsp->sched.beat_period = clk_.period();
      } else {
        rsp->beats = r->beats;
        rsp->sched.first_beat =
            acc.first_beat + beat_offset * acc.beat_period + iface;
        rsp->sched.beat_period = acc.beat_period;
      }
      port_.rsp.push(rsp);
    }
    beat_offset += r->beats;
  }
  batch_.clear();  // hold no request past the call

  // The command engine can set up the next access while data still moves on
  // the device bus (the SdramDevice serialises the data phases); issuing the
  // command sequence costs one controller cycle per fused request.
  engine_busy_until_ =
      now + static_cast<sim::Picos>(std::max<std::size_t>(1, run)) *
                clk_.period();
}

bool LmiController::idle() const { return port_.req.empty(); }

}  // namespace mpsoc::mem
