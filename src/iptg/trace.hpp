#pragma once
// Transaction trace capture and replay.
//
// IPTG's sequence mode can "issue transactions according to a specified
// sequence"; the natural source of such sequences is a trace captured at a
// memory interface in a previous run.  TraceRecorder taps the request FIFO of
// a memory's target port and records every request the memory accepts (pops
// from it); the resulting trace can be serialised to text, reloaded, and
// turned into an IPTG sequence-mode agent whose inter-transaction gaps
// reproduce the recorded arrival times.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "iptg/iptg.hpp"
#include "txn/ports.hpp"
#include "txn/transaction.hpp"

namespace mpsoc::iptg {

struct TraceRecord {
  sim::Picos time_ps = 0;
  txn::Opcode op = txn::Opcode::Read;
  std::uint64_t addr = 0;
  std::uint32_t beats = 1;
  std::uint32_t bytes_per_beat = 4;
  std::string source;
};

class TraceRecorder {
 public:
  /// Record every request popped from `port`'s request FIFO, stamped with
  /// the simulated time of the pop.  The tap skips deep-check replay like
  /// every FIFO tap.  The recorder must outlive the port's last pop.
  void attach(txn::TargetPort& port);

  void record(sim::Picos now, const txn::RequestPtr& req);

  const std::vector<TraceRecord>& records() const { return records_; }
  void clear() { records_.clear(); }

  /// One record per line: "<ps> <R|W> <addr> <beats> <bytes/beat> <source>".
  void write(std::ostream& os) const;

 private:
  std::vector<TraceRecord> records_;
};

/// Parse a trace written by TraceRecorder::write: six fields, the source
/// optional, each number read at its field's width.  Throws
/// std::runtime_error with the line number on malformed input.
std::vector<TraceRecord> parseTrace(std::istream& is);

/// Convert a trace into a sequence-mode agent profile.  Gaps between
/// consecutive entries are reconstructed from the recorded timestamps at the
/// given replay clock period (saturating at 0 for back-to-back entries).
AgentProfile sequenceFromTrace(const std::vector<TraceRecord>& trace,
                               sim::Picos clock_period_ps,
                               std::string agent_name = "replay");

}  // namespace mpsoc::iptg
