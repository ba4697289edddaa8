#include "platform/scenario_parser.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "platform/validate.hpp"
#include "sim/line_parser.hpp"

namespace mpsoc::platform {

namespace {

constexpr sim::LineParser kParse{"scenario"};
using sim::trim;

// --- value types --------------------------------------------------------
//
// A field's C++ type decides how its text is read and written.  Enum keys
// share one spelling list between the two directions, indexed by the
// enumerator's value.

struct Spellings {
  const char* noun;  ///< names the key in "unknown <noun> '<value>'"
  std::span<const char* const> names;
};

constexpr const char* kProtocols[] = {"stbus", "ahb", "axi"};
constexpr const char* kTopologies[] = {"full", "collapsed", "single-layer",
                                       "noc-mesh"};
constexpr const char* kMemories[] = {"onchip", "lmi"};
constexpr const char* kArbitrations[] = {"fixed-priority", "round-robin",
                                         "lru", "tdma", "lottery"};
constexpr const char* kUseCases[] = {"playback", "record"};

constexpr Spellings spellings(Protocol) { return {"protocol", kProtocols}; }
constexpr Spellings spellings(Topology) { return {"topology", kTopologies}; }
constexpr Spellings spellings(MemoryKind) {
  return {"memory kind", kMemories};
}
constexpr Spellings spellings(txn::ArbPolicy) {
  return {"arbitration policy", kArbitrations};
}
constexpr Spellings spellings(UseCase) { return {"use_case", kUseCases}; }

void parseValue(const std::string& v, std::size_t, std::string& out) {
  out = v;
}
void parseValue(const std::string& v, std::size_t line, bool& out) {
  out = kParse.boolean(v, line);
}
void parseValue(const std::string& v, std::size_t line, double& out) {
  out = kParse.real(v, line);
}
void parseValue(const std::string& v, std::size_t line,
                stbus::StbusType& out) {
  const auto t = kParse.integer(v, line);
  if (t < 1 || t > 3) kParse.fail(line, "stbus_type must be 1..3");
  out = static_cast<stbus::StbusType>(t);
}
template <typename T>
  requires std::is_unsigned_v<T>
void parseValue(const std::string& v, std::size_t line, T& out) {
  out = kParse.integer<T>(v, line);
}
template <typename E>
  requires std::is_enum_v<E>
void parseValue(const std::string& v, std::size_t line, E& out) {
  const Spellings s = spellings(E{});
  for (std::size_t i = 0; i < s.names.size(); ++i) {
    if (v == s.names[i]) {
      out = static_cast<E>(i);
      return;
    }
  }
  kParse.fail(line, std::string("unknown ") + s.noun + " '" + v + "'");
}

void emitValue(std::ostream& os, const std::string& v) { os << v; }
void emitValue(std::ostream& os, bool v) { os << (v ? "true" : "false"); }
void emitValue(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);  // round-trip precision
  os << buf;
}
void emitValue(std::ostream& os, stbus::StbusType v) {
  os << static_cast<unsigned>(v);
}
template <typename T>
  requires std::is_unsigned_v<T>
void emitValue(std::ostream& os, T v) {
  os << v;
}
template <typename E>
  requires std::is_enum_v<E>
void emitValue(std::ostream& os, E v) {
  os << spellings(v).names[static_cast<std::size_t>(v)];
}

// --- the key table ------------------------------------------------------

/// The struct a member pointer's field lives in, reached from the scenario.
template <typename C, typename S>
auto& part(S& s) {
  if constexpr (std::is_same_v<C, NamedScenario>) return s;
  else if constexpr (std::is_same_v<C, PlatformConfig>) return s.config;
  else if constexpr (std::is_same_v<C, mem::LmiConfig>) return s.config.lmi;
  else return s.config.lmi.timing;
}

template <typename C, typename T>
C ownerOf(T C::*);

struct Key {
  const char* name;
  void (*read)(NamedScenario&, const std::string&, std::size_t line);
  void (*write)(std::ostream&, const NamedScenario&);
};

/// The row for key `name`, which sets the field `M` points to.
template <auto M>
constexpr Key key(const char* name) {
  using C = decltype(ownerOf(M));
  return {name,
          [](NamedScenario& s, const std::string& v, std::size_t line) {
            parseValue(v, line, part<C>(s).*M);
          },
          [](std::ostream& os, const NamedScenario& s) {
            emitValue(os, part<C>(s).*M);
          }};
}

using PC = PlatformConfig;
using Lmi = mem::LmiConfig;
using Sdram = mem::SdramTiming;

/// The scenario grammar, in canonical (emit) order.
constexpr Key kKeys[] = {
    key<&NamedScenario::name>("name"),
    key<&PC::protocol>("protocol"),
    key<&PC::topology>("topology"),
    key<&PC::memory>("memory"),
    key<&PC::onchip_wait_states>("wait_states"),
    key<&PC::stbus_type>("stbus_type"),
    key<&PC::arbitration>("arbitration"),
    key<&PC::message_arbitration>("message_arbitration"),
    key<&PC::force_lightweight_bridges>("lightweight_bridges"),
    key<&PC::force_split_bridges>("split_bridges"),
    key<&PC::mem_bridge_split>("mem_bridge_split"),
    key<&Lmi::lookahead>("lmi_lookahead"),
    key<&Lmi::opcode_merging>("lmi_merging"),
    key<&Lmi::merge_limit>("lmi_merge_limit"),
    key<&Lmi::clock_divider>("lmi_divider"),
    key<&Sdram::cas_latency>("sdram_cas"),
    key<&Sdram::t_rcd>("sdram_trcd"),
    key<&Sdram::t_rp>("sdram_trp"),
    key<&Sdram::t_ras>("sdram_tras"),
    key<&Sdram::t_rc>("sdram_trc"),
    key<&Sdram::t_wr>("sdram_twr"),
    key<&Sdram::t_rfc>("sdram_trfc"),
    key<&Sdram::t_refi>("sdram_trefi"),
    key<&Sdram::ddr>("sdram_ddr"),
    key<&PC::mem_fifo_depth>("mem_fifo_depth"),
    key<&PC::noc_width>("noc_width"),
    key<&PC::noc_height>("noc_height"),
    key<&PC::master_limit>("master_limit"),
    key<&PC::cpu_mhz>("cpu_mhz"),
    key<&PC::workload_scale>("workload_scale"),
    key<&PC::agent_outstanding_override>("outstanding_override"),
    key<&PC::agent_burst_override_beats>("burst_override"),
    key<&PC::include_cpu>("include_cpu"),
    key<&PC::include_dma>("include_dma"),
    key<&PC::include_scratchpad>("include_scratchpad"),
    key<&PC::scratchpad_wait_states>("scratchpad_wait_states"),
    key<&PC::use_case>("use_case"),
    key<&PC::two_phase_workload>("two_phase"),
    key<&PC::phase1_end_ps>("phase1_end_ps"),
    key<&PC::phase2_end_ps>("phase2_end_ps"),
    key<&NamedScenario::duration_ps>("duration_ps"),
    key<&PC::seed>("seed"),
    key<&PC::verify>("verify"),
    key<&PC::statecheck>("statecheck"),
    key<&PC::statecheck_at_ps>("statecheck_at_ps"),
    key<&PC::statecheck_edges>("statecheck_edges"),
};

}  // namespace

NamedScenario parseScenario(const std::string& text) {
  NamedScenario out;
  out.name = "scenario";

  std::istringstream iss(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(iss, raw)) {
    ++line_no;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) kParse.fail(line_no, "expected 'key = value'");
    const std::string key = trim(line.substr(0, eq));
    const std::string val = trim(line.substr(eq + 1));
    if (val.empty()) kParse.fail(line_no, "empty value for '" + key + "'");

    const auto row = std::find_if(std::begin(kKeys), std::end(kKeys),
                                  [&](const Key& k) { return key == k.name; });
    if (row == std::end(kKeys)) {
      kParse.fail(line_no, "unknown scenario option '" + key + "'");
    }
    row->read(out, val, line_no);
  }
  const std::string why = validateConfig(out.config, out.duration_ps);
  if (!why.empty()) {
    throw std::runtime_error("scenario '" + out.name + "': " + why);
  }
  if (out.config.two_phase_workload && out.duration_ps == 0) {
    throw std::runtime_error("scenario '" + out.name +
                             "': two_phase workloads are unbounded — set "
                             "duration_ps to a finite simulated time");
  }
  return out;
}

std::string emitScenario(const NamedScenario& scenario) {
  std::ostringstream os;
  for (const Key& k : kKeys) {
    os << k.name << " = ";
    k.write(os, scenario);
    os << "\n";
  }
  return os.str();
}

NamedScenario loadScenario(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open scenario '" + path + "'");
  std::ostringstream ss;
  ss << f.rdbuf();
  return parseScenario(ss.str());
}

}  // namespace mpsoc::platform
