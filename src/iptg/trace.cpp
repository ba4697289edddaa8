#include "iptg/trace.hpp"

#include <istream>
#include <ostream>
#include <sstream>

#include "sim/line_parser.hpp"
#include "sim/simulator.hpp"

namespace mpsoc::iptg {

void TraceRecorder::attach(txn::TargetPort& port) {
  const sim::Simulator& sim = port.req.clk().simulator();
  port.req.addPopTap([this, &sim](const txn::RequestPtr& r) {
    record(sim.now(), r);
  });
}

void TraceRecorder::record(sim::Picos now, const txn::RequestPtr& req) {
  TraceRecord r;
  r.time_ps = now;
  r.op = req->op;
  r.addr = req->addr;
  r.beats = req->beats;
  r.bytes_per_beat = req->bytes_per_beat;
  r.source = req->source;
  records_.push_back(std::move(r));
}

void TraceRecorder::write(std::ostream& os) const {
  for (const auto& r : records_) {
    os << r.time_ps << " " << (r.op == txn::Opcode::Read ? 'R' : 'W') << " 0x"
       << std::hex << r.addr << std::dec << " " << r.beats << " "
       << r.bytes_per_beat << " " << (r.source.empty() ? "-" : r.source)
       << "\n";
  }
}

std::vector<TraceRecord> parseTrace(std::istream& is) {
  constexpr sim::LineParser kParse{"trace"};
  std::vector<TraceRecord> out;
  std::vector<std::string> f;  // the line's whitespace-separated fields
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    f.clear();
    for (std::string tok; ls >> tok;) f.push_back(std::move(tok));
    if (f.size() < 5 || f.size() > 6) kParse.fail(line_no, "malformed record");
    TraceRecord r;
    r.time_ps = kParse.integer<sim::Picos>(f[0], line_no);
    if (f[1] == "R" || f[1] == "r") {
      r.op = txn::Opcode::Read;
    } else if (f[1] == "W" || f[1] == "w") {
      r.op = txn::Opcode::Write;
    } else {
      kParse.fail(line_no, "bad opcode '" + f[1] + "'");
    }
    r.addr = kParse.integer(f[2], line_no);
    r.beats = kParse.integer<std::uint32_t>(f[3], line_no);
    if (r.beats == 0) kParse.fail(line_no, "beats must be positive");
    r.bytes_per_beat = kParse.integer<std::uint32_t>(f[4], line_no);
    if (f.size() == 6) r.source = std::move(f[5]);
    out.push_back(std::move(r));
  }
  return out;
}

AgentProfile sequenceFromTrace(const std::vector<TraceRecord>& trace,
                               sim::Picos clock_period_ps,
                               std::string agent_name) {
  AgentProfile p;
  p.name = std::move(agent_name);
  p.sequence.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceRecord& r = trace[i];
    SeqEntry e;
    e.op = r.op;
    e.addr = r.addr;
    e.beats = r.beats;
    // A SeqEntry's gap applies *after* it issues: reconstruct it from the
    // inter-arrival delta to the next record.
    if (i + 1 < trace.size() && clock_period_ps > 0 &&
        trace[i + 1].time_ps > r.time_ps) {
      e.gap_cycles = (trace[i + 1].time_ps - r.time_ps) / clock_period_ps;
    }
    p.sequence.push_back(e);
  }
  return p;
}

}  // namespace mpsoc::iptg
