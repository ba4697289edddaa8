#include "core/rigs.hpp"

namespace mpsoc::core {

namespace {
/// Every generator groups its transactions into 4-request messages.
constexpr std::uint64_t kMessageLen = 4;
}  // namespace

SingleLayerRig::SingleLayerRig(SingleLayerConfig cfg) : cfg_(cfg) {
  clk_ = &sim_.addClockDomain("bus", cfg_.bus_mhz);
  switch (cfg_.protocol) {
    case RigProtocol::Stbus: {
      stbus::StbusNodeConfig c;
      bus_ = std::make_unique<stbus::StbusNode>(*clk_, "layer", c);
      break;
    }
    case RigProtocol::Ahb:
      bus_ = std::make_unique<ahb::AhbLayer>(*clk_, "layer");
      break;
    case RigProtocol::Axi:
      bus_ = std::make_unique<axi::AxiBus>(*clk_, "layer");
      break;
  }

  const std::uint64_t region = 1ull << 24;
  for (std::size_t t = 0; t < cfg_.memories; ++t) {
    tports_.push_back(std::make_unique<txn::TargetPort>(
        *clk_, "t" + std::to_string(t), cfg_.target_fifo_depth, 8));
    bus_->addTarget(*tports_.back(), region * t, region);
    mems_.push_back(std::make_unique<mem::SimpleMemory>(
        *clk_, "mem" + std::to_string(t), *tports_.back(),
        mem::SimpleMemoryConfig{cfg_.wait_states}));
  }
  for (std::size_t i = 0; i < cfg_.masters; ++i) {
    iports_.push_back(std::make_unique<txn::InitiatorPort>(
        *clk_, "m" + std::to_string(i), 4, 8));
    bus_->addInitiator(*iports_.back());
    iptg::IptgConfig icfg;
    icfg.seed = cfg_.seed + i;
    icfg.bytes_per_beat = 8;
    iptg::AgentProfile p;
    p.name = "a";
    p.read_fraction = cfg_.read_fraction;
    p.burst_beats = cfg_.bursts;
    p.pattern = iptg::AddressPattern::Random;
    p.gap_min = cfg_.gap_min;
    p.gap_max = cfg_.gap_max;
    p.message_len = kMessageLen;
    p.outstanding = cfg_.outstanding;
    p.total_transactions = cfg_.txns_per_master;
    if (cfg_.spray_over_all_memories) {
      p.base_addr = 0;
      p.region_size = region * cfg_.memories;
    } else {
      p.base_addr = 0;
      p.region_size = region;
    }
    icfg.agents.push_back(p);
    gens_.push_back(std::make_unique<iptg::Iptg>(
        *clk_, "g" + std::to_string(i), *iports_.back(), icfg));
  }

  if (cfg_.verify) {
    verify_ = std::make_unique<verify::VerifyContext>(sim_);
    bus_->attachMonitors(*verify_);
    for (auto& m : mems_) m->attachMonitors(*verify_);
  }
}

SingleLayerRig::~SingleLayerRig() = default;

sim::Picos SingleLayerRig::run() {
  exec_ps_ = sim_.runUntilIdle(1'000'000'000'000ull);
  sim_.finish();
  if (verify_) verify_->finish(allDone());
  return exec_ps_;
}

bool SingleLayerRig::allDone() const {
  for (const auto& g : gens_) {
    if (!g->done()) return false;
  }
  return true;
}

double SingleLayerRig::busUtilization() const {
  const double cycles = static_cast<double>(clk_->now());
  if (cycles == 0) return 0.0;
  std::uint64_t busy = 0;
  if (auto* st = dynamic_cast<const stbus::StbusNode*>(bus_.get())) {
    for (std::size_t t = 0; t < tports_.size(); ++t) {
      busy += st->reqChannel(t).transfers() + st->reqChannel(t).held();
    }
    for (std::size_t i = 0; i < iports_.size(); ++i) {
      busy += st->rspChannel(i).transfers() + st->rspChannel(i).held();
    }
    // Normalise by the number of physical channels.
    return static_cast<double>(busy) /
           (cycles * static_cast<double>(tports_.size() + iports_.size()));
  }
  if (auto* ah = dynamic_cast<const ahb::AhbLayer*>(bus_.get())) {
    busy = ah->channel().transfers() + ah->channel().held();
    return static_cast<double>(busy) / cycles;
  }
  if (auto* ax = dynamic_cast<const axi::AxiBus*>(bus_.get())) {
    for (std::size_t t = 0; t < tports_.size(); ++t) {
      busy += ax->arChannel(t).transfers() + ax->arChannel(t).held();
      busy += ax->wChannel(t).transfers() + ax->wChannel(t).held();
    }
    for (std::size_t i = 0; i < iports_.size(); ++i) {
      busy += ax->rChannel(i).transfers() + ax->rChannel(i).held();
    }
    return static_cast<double>(busy) /
           (cycles * static_cast<double>(2 * tports_.size() + iports_.size()));
  }
  return 0.0;
}

double SingleLayerRig::responseEfficiency() const {
  const double cycles = static_cast<double>(clk_->now());
  if (cycles == 0) return 0.0;
  std::uint64_t transfers = 0;
  if (auto* st = dynamic_cast<const stbus::StbusNode*>(bus_.get())) {
    for (std::size_t i = 0; i < iports_.size(); ++i) {
      transfers += st->rspChannel(i).transfers();
    }
  } else if (auto* ah = dynamic_cast<const ahb::AhbLayer*>(bus_.get())) {
    transfers = ah->channel().transfers();
  } else if (auto* ax = dynamic_cast<const axi::AxiBus*>(bus_.get())) {
    for (std::size_t i = 0; i < iports_.size(); ++i) {
      transfers += ax->rChannel(i).transfers();
    }
  }
  return static_cast<double>(transfers) / cycles;
}

std::uint64_t SingleLayerRig::totalBytes() const {
  std::uint64_t b = 0;
  for (const auto& g : gens_) b += g->bytesRead() + g->bytesWritten();
  return b;
}

double SingleLayerRig::bandwidthMbS() const {
  if (exec_ps_ == 0) return 0.0;
  return static_cast<double>(totalBytes()) / static_cast<double>(exec_ps_) *
         1.0e6;
}

}  // namespace mpsoc::core
