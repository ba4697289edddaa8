#include "core/export.hpp"

#include <cstdio>
#include <sstream>

#include "core/digest.hpp"

namespace mpsoc::core {

namespace {

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void emitBuckets(std::ostream& os, const FifoBuckets& b,
                 const std::string& pad) {
  os << pad << "{\"phase\": \"" << jsonEscape(b.phase) << "\", "
     << "\"full\": " << b.frac_full << ", "
     << "\"storing\": " << b.frac_storing << ", "
     << "\"no_request\": " << b.frac_no_request << ", "
     << "\"empty\": " << b.frac_empty << ", "
     << "\"mean_occupancy\": " << b.mean_occupancy << "}";
}

}  // namespace

std::string toCsv(const std::vector<ScenarioResult>& results) {
  std::ostringstream os;
  os << "label,exec_ps,completed,retired,bytes_total,mean_read_latency_ns,"
        "bandwidth_mb_s,lmi_row_hit_rate,lmi_merge_ratio,lmi_refreshes,"
        "fifo_full,fifo_storing,fifo_no_request,fifo_empty,cpu_cpi,"
        "edges_executed\n";
  for (const auto& r : results) {
    os << r.label << "," << r.exec_ps << "," << (r.completed ? 1 : 0) << ","
       << r.retired << "," << r.bytes_total << "," << r.mean_read_latency_ns
       << "," << r.bandwidth_mb_s << "," << r.lmi_row_hit_rate << ","
       << r.lmi_merge_ratio << "," << r.lmi_refreshes << ","
       << r.mem_fifo_total.frac_full << "," << r.mem_fifo_total.frac_storing
       << "," << r.mem_fifo_total.frac_no_request << ","
       << r.mem_fifo_total.frac_empty << "," << r.cpu_cpi << ","
       << r.edges_executed << "\n";
  }
  return os.str();
}

std::string toJson(const ScenarioResult& r, int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string in(static_cast<std::size_t>(indent) + 2, ' ');
  std::ostringstream os;
  os << pad << "{\n";
  os << in << "\"label\": \"" << jsonEscape(r.label) << "\",\n";
  os << in << "\"exec_ps\": " << r.exec_ps << ",\n";
  os << in << "\"edges_executed\": " << r.edges_executed << ",\n";
  os << in << "\"evaluations\": " << r.evaluations << ",\n";
  os << in << "\"completed\": " << (r.completed ? "true" : "false") << ",\n";
  os << in << "\"retired\": " << r.retired << ",\n";
  os << in << "\"bytes_total\": " << r.bytes_total << ",\n";
  os << in << "\"mean_read_latency_ns\": " << r.mean_read_latency_ns << ",\n";
  os << in << "\"bandwidth_mb_s\": " << r.bandwidth_mb_s << ",\n";
  os << in << "\"lmi\": {\"row_hit_rate\": " << r.lmi_row_hit_rate
     << ", \"merge_ratio\": " << r.lmi_merge_ratio
     << ", \"refreshes\": " << r.lmi_refreshes << "},\n";
  os << in << "\"cpu_cpi\": " << r.cpu_cpi << ",\n";
  if (!r.masters.empty()) {
    os << in << "\"masters\": [\n";
    for (std::size_t i = 0; i < r.masters.size(); ++i) {
      const auto& m = r.masters[i];
      os << in << "  {\"name\": \"" << jsonEscape(m.name) << "\", "
         << "\"issued\": " << m.issued << ", \"retired\": " << m.retired
         << ", \"mean_latency_ns\": " << m.mean_latency_ns
         << ", \"p95_latency_ns\": " << m.p95_latency_ns << "}";
      if (i + 1 < r.masters.size()) os << ",";
      os << "\n";
    }
    os << in << "],\n";
  }
  os << in << "\"mem_fifo\": \n";
  emitBuckets(os, r.mem_fifo_total, in);
  if (!r.mem_fifo_phases.empty()) {
    os << ",\n" << in << "\"phases\": [\n";
    for (std::size_t i = 0; i < r.mem_fifo_phases.size(); ++i) {
      emitBuckets(os, r.mem_fifo_phases[i], in + "  ");
      if (i + 1 < r.mem_fifo_phases.size()) os << ",";
      os << "\n";
    }
    os << in << "]";
  }
  os << "\n" << pad << "}";
  return os.str();
}

std::string toSweepJson(const SweepOutcome& sweep, unsigned jobs) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"mpsoc-sweep-v1\",\n";
  os << "  \"jobs\": " << jobs << ",\n";
  os << "  \"ok\": " << (sweep.ok ? "true" : "false") << ",\n";
  os << "  \"wall_ms\": " << sweep.wall_ms << ",\n";
  os << "  \"points\": [\n";
  for (std::size_t i = 0; i < sweep.points.size(); ++i) {
    const PointResult& p = sweep.points[i];
    os << "    {\n";
    os << "      \"label\": \"" << jsonEscape(p.label) << "\",\n";
    os << "      \"status\": \"" << toString(p.status) << "\",\n";
    os << "      \"wall_ms\": " << p.wall_ms << ",\n";
    if (p.status == PointStatus::Ok) {
      os << "      \"sim_edges_per_s\": " << p.sim_edges_per_s << ",\n";
      os << "      \"digest\": \"" << digestHex(p.result) << "\",\n";
      os << "      \"result\":\n" << toJson(p.result, 6) << "\n";
    } else {
      os << "      \"error\": \"" << jsonEscape(p.error) << "\"\n";
    }
    os << "    }" << (i + 1 < sweep.points.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

}  // namespace mpsoc::core
