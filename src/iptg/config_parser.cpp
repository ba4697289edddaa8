#include "iptg/config_parser.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "sim/line_parser.hpp"

namespace mpsoc::iptg {

namespace {

constexpr sim::LineParser kParse{"iptg config"};
using sim::trim;

std::vector<std::string> splitList(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  std::istringstream iss(s);
  while (std::getline(iss, cur, sep)) {
    cur = trim(cur);
    if (!cur.empty()) out.push_back(cur);
  }
  return out;
}

/// "a..b" -> {a, b};  "a" -> {a, a}.
std::pair<std::uint64_t, std::uint64_t> parseRange(const std::string& s,
                                                   std::size_t line) {
  const auto dots = s.find("..");
  if (dots == std::string::npos) {
    const std::uint64_t v = kParse.integer(s, line);
    return {v, v};
  }
  const std::uint64_t lo = kParse.integer(trim(s.substr(0, dots)), line);
  const std::uint64_t hi = kParse.integer(trim(s.substr(dots + 2)), line);
  if (hi < lo) kParse.fail(line, "range upper bound below lower bound");
  return {lo, hi};
}

/// A probability (read_fraction, throttle): finite and in [0, 1].
double fraction(const std::string& key, const std::string& s,
                std::size_t line) {
  const double v = kParse.real(s, line);
  if (!std::isfinite(v) || v < 0.0 || v > 1.0) {
    kParse.fail(line, "'" + key + "' must be in [0, 1], got '" + s + "'");
  }
  return v;
}

}  // namespace

IptgConfig parseIptgConfig(const std::string& text) {
  IptgConfig cfg;
  AgentProfile* agent = nullptr;
  std::vector<std::pair<std::string, std::size_t>> deferred_after;

  std::istringstream iss(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(iss, raw)) {
    ++line_no;
    // Strip comments and whitespace.
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;

    // Section header: [agent NAME]
    if (line.front() == '[') {
      if (line.back() != ']') {
        kParse.fail(line_no, "unterminated section header");
      }
      const std::string inner = trim(line.substr(1, line.size() - 2));
      if (inner.rfind("agent", 0) != 0) {
        kParse.fail(line_no, "unknown section '" + inner +
                                 "' (expected 'agent <name>')");
      }
      const std::string name = trim(inner.substr(5));
      if (name.empty()) kParse.fail(line_no, "agent section needs a name");
      cfg.agents.emplace_back();
      agent = &cfg.agents.back();
      agent->name = name;
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) kParse.fail(line_no, "expected 'key = value'");
    const std::string key = trim(line.substr(0, eq));
    const std::string val = trim(line.substr(eq + 1));
    if (val.empty()) kParse.fail(line_no, "empty value for '" + key + "'");

    if (!agent) {
      // IP-level options.
      if (key == "bytes_per_beat") {
        cfg.bytes_per_beat = kParse.integer<std::uint32_t>(val, line_no);
      } else if (key == "seed") {
        cfg.seed = kParse.integer(val, line_no);
      } else {
        kParse.fail(line_no, "unknown ip-level option '" + key + "'");
      }
      continue;
    }

    // Agent-level options.
    if (key == "read_fraction") {
      agent->read_fraction = fraction(key, val, line_no);
    } else if (key == "bursts") {
      agent->burst_beats.clear();
      for (const auto& item : splitList(val, ',')) {
        const auto colon = item.find(':');
        BurstChoice b;
        if (colon == std::string::npos) {
          b.beats = kParse.integer<std::uint32_t>(item, line_no);
          b.weight = 1.0;
        } else {
          b.beats = kParse.integer<std::uint32_t>(
              trim(item.substr(0, colon)), line_no);
          b.weight = kParse.real(trim(item.substr(colon + 1)), line_no);
        }
        if (b.beats == 0) kParse.fail(line_no, "burst length must be positive");
        if (!std::isfinite(b.weight) || b.weight < 0.0) {
          kParse.fail(line_no, "burst weight must be finite and non-negative "
                               "in '" + item + "'");
        }
        agent->burst_beats.push_back(b);
      }
      if (agent->burst_beats.empty()) kParse.fail(line_no, "empty burst list");
      if (std::none_of(agent->burst_beats.begin(), agent->burst_beats.end(),
                       [](const BurstChoice& b) { return b.weight > 0.0; })) {
        kParse.fail(line_no, "every burst weight is zero");
      }
    } else if (key == "pattern") {
      if (val == "sequential") agent->pattern = AddressPattern::Sequential;
      else if (val == "random") agent->pattern = AddressPattern::Random;
      else if (val == "strided") agent->pattern = AddressPattern::Strided;
      else kParse.fail(line_no, "unknown pattern '" + val + "'");
    } else if (key == "stride") {
      agent->stride = kParse.integer(val, line_no);
    } else if (key == "base_addr") {
      agent->base_addr = kParse.integer(val, line_no);
    } else if (key == "region_size") {
      agent->region_size = kParse.integer(val, line_no);
    } else if (key == "outstanding") {
      agent->outstanding = kParse.integer<unsigned>(val, line_no);
    } else if (key == "posted_writes") {
      agent->posted_writes = kParse.boolean(val, line_no);
    } else if (key == "priority") {
      agent->priority = kParse.integer<std::uint8_t>(val, line_no);
    } else if (key == "message_len") {
      agent->message_len = kParse.integer(val, line_no);
    } else if (key == "total_transactions") {
      agent->total_transactions = kParse.integer(val, line_no);
    } else if (key == "throttle") {
      agent->throttle = fraction(key, val, line_no);
    } else if (key == "gap") {
      const auto [lo, hi] = parseRange(val, line_no);
      agent->gap_min = lo;
      agent->gap_max = hi;
    } else if (key == "after") {
      const auto colon = val.find(':');
      if (colon == std::string::npos) {
        kParse.fail(line_no, "'after' expects '<agent name>:<count>'");
      }
      deferred_after.emplace_back(trim(val.substr(0, colon)),
                                  cfg.agents.size() - 1);
      agent->after_count = kParse.integer(trim(val.substr(colon + 1)), line_no);
    } else if (key == "sequence") {
      agent->sequence.clear();
      for (const auto& item : splitList(val, ',')) {
        const auto parts = splitList(item, ':');
        if (parts.size() < 3 || parts.size() > 4) {
          kParse.fail(line_no, "sequence entry must be OP:addr:beats[:gap]");
        }
        SeqEntry e;
        if (parts[0] == "R" || parts[0] == "r") e.op = txn::Opcode::Read;
        else if (parts[0] == "W" || parts[0] == "w") e.op = txn::Opcode::Write;
        else kParse.fail(line_no, "sequence op must be R or W");
        e.addr = kParse.integer(parts[1], line_no);
        e.beats = kParse.integer<std::uint32_t>(parts[2], line_no);
        if (e.beats == 0) {
          kParse.fail(line_no, "sequence beats must be positive");
        }
        if (parts.size() == 4) e.gap_cycles = kParse.integer(parts[3], line_no);
        agent->sequence.push_back(e);
      }
    } else {
      kParse.fail(line_no, "unknown agent option '" + key + "'");
    }
  }

  // Resolve 'after' references by agent name.
  for (const auto& [producer_name, consumer_idx] : deferred_after) {
    int found = -1;
    for (std::size_t i = 0; i < cfg.agents.size(); ++i) {
      if (cfg.agents[i].name == producer_name) {
        found = static_cast<int>(i);
        break;
      }
    }
    if (found < 0) {
      throw std::runtime_error("iptg config: 'after' references unknown agent '" +
                               producer_name + "'");
    }
    if (static_cast<std::size_t>(found) == consumer_idx) {
      throw std::runtime_error("iptg config: agent '" + producer_name +
                               "' cannot wait on itself");
    }
    cfg.agents[consumer_idx].after_agent = found;
  }
  return cfg;
}

IptgConfig loadIptgConfig(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open iptg config '" + path + "'");
  std::ostringstream ss;
  ss << f.rdbuf();
  return parseIptgConfig(ss.str());
}

}  // namespace mpsoc::iptg
