// perfbench harness: runs one benchmark workload of mpsocsim through the
// public library API and prints its metrics as one JSON line on stdout.
//
//   perfbench_harness --workload stbus-playback --seed 1 --seconds 10
//                     --trace 0 [--trace-out FILE] [--golden-dir DIR]
//   perfbench_harness --workload W --seed N --emit-scenario
//   perfbench_harness --workload W --seed N --probe
//
// Run from the root of a checkout.  --trace 0 times the workload (end-to-end
// metrics); --trace 1 is the separate traced run (per-layer metrics, span
// file).  Both finish with the correctness pass over the shipped scenarios.
// perfbench/run.py builds this binary and is the entry point; see
// perfbench/README.md.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/digest.hpp"
#include "core/experiment.hpp"
#include "core/rigs.hpp"
#include "core/sweep.hpp"
#include "hostspeed.hpp"
#include "layer_rigs.hpp"
#include "platform/platform.hpp"
#include "platform/scenario_parser.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using namespace mpsoc;
namespace fs = std::filesystem;

constexpr std::size_t kMinReps = 3;  // timed repetitions, at least
constexpr int kRigReps = 3;          // repetitions of each layer rig
constexpr int kSetupBatch = 10;      // set-ups timed after each repetition

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

// --- workloads ----------------------------------------------------------------

const char* const kWorkloads[] = {"stbus-playback", "axi-record-lmi",
                                  "noc-playback-lmi", "sweep-grid"};

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Model seed of simulation `index` of a run with benchmark seed `seed`.
std::uint64_t modelSeed(std::uint64_t seed, std::uint64_t index) {
  return splitmix(splitmix(seed) + index) % 1'000'000'007ull + 1;
}

struct Shape {
  const char* body;  ///< scenario keys, one per line
  double scale;      ///< workload_scale of one simulation
};

/// Platform instance of each single-run workload.  Scales give repetitions
/// of 0.2-0.35 s at the reference host speed (see hostspeed.hpp): short
/// enough that the reference passes either side of one track the host's
/// speed while it ran.
Shape singleShape(const std::string& workload) {
  if (workload == "stbus-playback") {
    return {"protocol = stbus\ntopology = full\nmemory = onchip\n"
            "wait_states = 1\nuse_case = playback\ninclude_cpu = true\n",
            1.0};
  }
  if (workload == "axi-record-lmi") {
    return {"protocol = axi\ntopology = collapsed\nmemory = lmi\n"
            "use_case = record\ninclude_dma = true\ninclude_cpu = true\n",
            1.0};
  }
  if (workload == "noc-playback-lmi") {
    return {"protocol = stbus\ntopology = noc-mesh\nmemory = lmi\n"
            "noc_width = 4\nnoc_height = 3\nuse_case = playback\n"
            "include_cpu = true\n",
            1.0};
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

// sweep-grid: protocol x memory x kGridSeeds independent small points.
const char* const kGridProtocols[] = {"stbus", "ahb", "axi"};
const char* const kGridMemories[] = {"onchip", "lmi"};
constexpr int kGridSeeds = 4;
constexpr double kGridScale = 0.25;

std::string scenarioText(const std::string& name, const std::string& body,
                         double scale, std::uint64_t model_seed) {
  char scale_txt[32];
  std::snprintf(scale_txt, sizeof scale_txt, "%.6g", scale);
  std::ostringstream os;
  os << "# perfbench generated scenario\n"
     << "name = " << name << "\n"
     << body << "workload_scale = " << scale_txt << "\n"
     << "seed = " << model_seed << "\n";
  return os.str();
}

struct Workload {
  std::string name;
  bool sweep = false;
  std::vector<std::string> texts;  ///< one scenario per simulation
};

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "sweep-grid") {
    w.sweep = true;
    std::uint64_t idx = 0;
    for (const char* proto : kGridProtocols) {
      for (const char* memory : kGridMemories) {
        for (int k = 0; k < kGridSeeds; ++k, ++idx) {
          const std::string body = std::string("protocol = ") + proto +
                                   "\ntopology = full\nmemory = " + memory +
                                   "\nuse_case = playback\n";
          w.texts.push_back(scenarioText(
              std::string("grid-") + proto + "-" + memory + "-" +
                  std::to_string(k),
              body, kGridScale, modelSeed(seed, idx)));
        }
      }
    }
  } else {
    const Shape s = singleShape(name);
    w.texts.push_back(scenarioText(name, s.body, s.scale, modelSeed(seed, 0)));
  }
  return w;
}

/// `copies` smaller copies of a single-run workload: the points of the
/// sweep rig that measures the core layer on that platform instance.
std::vector<std::string> sweepCopies(const std::string& name,
                                     std::uint64_t seed, unsigned copies) {
  const Shape s = singleShape(name);
  std::vector<std::string> texts;
  for (unsigned i = 0; i < copies; ++i) {
    texts.push_back(scenarioText(name + "-copy" + std::to_string(i), s.body,
                                 s.scale / 4.0, modelSeed(seed, 100 + i)));
  }
  return texts;
}

/// Every simulation of the benchmark runs on the serial kernel with no
/// checker and no fast-forward.  The generated text leaves those keys at
/// their defaults; this confirms the defaults for each key the scenario
/// grammar still has.
void checkPinned(const platform::NamedScenario& sc) {
  static const std::pair<const char*, const char*> kPinned[] = {
      {"kernel_threads", "1"}, {"verify", "false"},  {"racecheck", "false"},
      {"statecheck", "false"}, {"ff_until_ps", "0"}, {"ff_check", "false"}};
  const std::string canon = platform::emitScenario(sc);
  for (const auto& [key, want] : kPinned) {
    const std::string tag = std::string("\n") + key + " = ";
    const std::size_t at = canon.find(tag);
    if (at == std::string::npos) continue;
    const std::size_t from = at + tag.size();
    const std::string got = canon.substr(from, canon.find('\n', from) - from);
    if (got != want) {
      throw std::runtime_error(sc.name + ": " + key + " = " + got +
                               ", the benchmark pins " + want);
    }
  }
}

// --- one simulation -----------------------------------------------------------

core::MasterStats masterStats(const txn::MasterBase& m) {
  core::MasterStats s;
  s.name = m.name();
  s.issued = m.issued();
  s.retired = m.retired();
  s.mean_latency_ns = m.latency().latencyNs().mean();
  s.p95_latency_ns = m.latency().quantileNs(0.95);
  return s;
}

core::FifoBuckets flatten(const std::string& phase,
                          const stats::FifoStateProbe::Buckets& b) {
  core::FifoBuckets out;
  out.phase = phase;
  out.frac_full = b.fracFull();
  out.frac_storing = b.fracStoring();
  out.frac_no_request = b.fracNoRequest();
  out.frac_empty = b.fracEmpty();
  out.mean_occupancy = b.occupancy.mean();
  return out;
}

/// The figure-bearing metrics of a finished platform, read through its
/// public accessors (the same fields core::runScenario reports).
core::ScenarioResult harvest(platform::Platform& p, const std::string& label,
                             sim::Picos exec_ps) {
  core::ScenarioResult r;
  r.label = label;
  r.exec_ps = exec_ps;
  r.edges_executed = p.simulator().edgesExecuted();
  r.completed = p.allDone();
  const auto t = p.totals();
  r.retired = t.retired;
  r.bytes_total = t.bytes_read + t.bytes_written;
  r.mean_read_latency_ns = t.mean_read_latency_ns;
  r.p95_read_latency_ns = p.readLatencyQuantileNs(0.95);
  if (exec_ps > 0) {
    r.bandwidth_mb_s = static_cast<double>(r.bytes_total) /
                       static_cast<double>(exec_ps) * 1.0e6;
  }
  if (p.lmi()) {
    r.lmi_row_hit_rate = p.lmi()->device().rowHitRate();
    r.lmi_merge_ratio = p.lmi()->mergeRatio();
    r.lmi_refreshes = p.lmi()->device().refreshes();
  }
  r.mem_fifo_total = flatten("total", p.memFifo().total());
  for (std::size_t i = 0; i < p.memFifo().phaseCount(); ++i) {
    r.mem_fifo_phases.push_back(
        flatten(p.phaseSchedule().phase(i).name, p.memFifo().phase(i)));
  }
  for (const auto& g : p.traffic()) r.masters.push_back(masterStats(*g));
  if (p.dsp()) r.masters.push_back(masterStats(*p.dsp()));
  if (p.dmaEngine()) r.masters.push_back(masterStats(*p.dmaEngine()));
  if (p.dsp()) r.cpu_cpi = p.dsp()->cpi();
  return r;
}

/// In-platform counts at the layer boundaries, summed over simulations
/// (ratios are averaged over the simulations that have the layer).
struct LayerCounts {
  std::uint64_t edges = 0, bridge_reads = 0, bridge_writes = 0, noc_hops = 0,
                refreshes = 0, iptg_retired = 0;
  double row_hit_rate = 0, merge_ratio = 0, fifo_full_frac = 0,
         read_p95_ns = 0, cpi = 0, exec_us = 0, bw_mb_s = 0;
  int sims = 0, lmi_sims = 0, cpu_sims = 0;

  void add(const platform::Platform& p, const core::ScenarioResult& r) {
    ++sims;
    edges += r.edges_executed;
    for (const auto& b : p.bridges()) {
      bridge_reads += b->readsForwarded();
      bridge_writes += b->writesForwarded();
    }
    if (p.nocMesh()) noc_hops += p.nocMesh()->totalHops();
    if (p.lmi()) {
      ++lmi_sims;
      row_hit_rate += r.lmi_row_hit_rate;
      merge_ratio += r.lmi_merge_ratio;
      refreshes += r.lmi_refreshes;
    }
    for (const auto& g : p.traffic()) iptg_retired += g->retired();
    if (p.dsp()) {
      ++cpu_sims;
      cpi += r.cpu_cpi;
    }
    fifo_full_frac += r.mem_fifo_total.frac_full;
    read_p95_ns += r.p95_read_latency_ns;
    exec_us += static_cast<double>(r.exec_ps) / 1.0e6;
    bw_mb_s += r.bandwidth_mb_s;
  }
};

struct Rep {
  double parse_ms = 0, build_ms = 0, run_ms = 0, digest_ms = 0;
  std::string digest;
  bool completed = false;
  double totalMs() const { return parse_ms + build_ms + run_ms + digest_ms; }
};

/// Parse, build, run and digest one simulation, each under its span.
Rep runRep(const std::string& text, Trace* tr, const std::string& root_name,
           int run, LayerCounts* counts) {
  Rep rep;
  ScopedSpan root(tr, root_name, -1, run);
  const auto t0 = Clock::now();
  platform::NamedScenario sc;
  {
    ScopedSpan s(tr, "platform.parse", root.id(), run);
    sc = platform::parseScenario(text);
  }
  const auto t1 = Clock::now();
  std::unique_ptr<platform::Platform> p;
  {
    ScopedSpan s(tr, "platform.build", root.id(), run);
    p = std::make_unique<platform::Platform>(sc.config);
  }
  const auto t2 = Clock::now();
  sim::Picos exec_ps = 0;
  {
    ScopedSpan s(tr, "sim.run", root.id(), run);
    exec_ps = sc.duration_ps ? p->runFor(sc.duration_ps) : p->run();
  }
  const auto t3 = Clock::now();
  core::ScenarioResult result;
  {
    ScopedSpan s(tr, "core.digest", root.id(), run);
    result = harvest(*p, sc.name, exec_ps);
    rep.digest = core::digestHex(result);
  }
  const auto t4 = Clock::now();
  rep.parse_ms = msBetween(t0, t1);
  rep.build_ms = msBetween(t1, t2);
  rep.run_ms = msBetween(t2, t3);
  rep.digest_ms = msBetween(t3, t4);
  rep.completed = result.completed;
  if (counts) counts->add(*p, result);
  return rep;
}

// --- sweeps -------------------------------------------------------------------

struct SweepRep {
  double wall_ms = 0.0;
  double setup_ms_per_point = 0.0;
  unsigned workers = 1;
  std::vector<double> point_wall_ms;
  std::vector<double> queue_wait_ms;  ///< traced sweeps only
  std::vector<std::string> digests;   ///< empty where the point failed
  std::vector<std::string> errors;
};

/// Parse and construct every point (set-up), then run them all through one
/// SweepRunner call.  With a trace, each finished point is recorded as a
/// core.sweep.point span carrying its worker thread and queue wait.
SweepRep runSweep(const std::vector<std::string>& texts, unsigned jobs,
                  Trace* tr, int parent, int run) {
  SweepRep out;
  const std::size_t n = texts.size();
  std::vector<core::SweepPoint> points;
  std::vector<std::unique_ptr<platform::Platform>> built;
  const auto t0 = Clock::now();
  for (const auto& text : texts) {
    platform::NamedScenario sc = platform::parseScenario(text);
    built.push_back(std::make_unique<platform::Platform>(sc.config));
    points.push_back({sc.name, sc.config, sc.duration_ps});
  }
  out.setup_ms_per_point = msBetween(t0, Clock::now()) / static_cast<double>(n);
  built.clear();  // the sweep builds its own; teardown is not set-up

  core::SweepOptions opts;
  opts.jobs = jobs;
  opts.stop_on_failure = false;
  out.workers = static_cast<unsigned>(std::min<std::size_t>(jobs, n));
  int sweep_span = -1;
  double sweep_start = 0.0;
  if (tr) {
    out.queue_wait_ms.assign(n, 0.0);
    sweep_span = tr->open("core.sweep", parent, run);
    sweep_start = tr->spans()[static_cast<std::size_t>(sweep_span)].start_ms;
    // Progress callbacks run serialized, on the worker that ran the point.
    opts.on_progress = [&](const core::SweepProgress& pg) {
      Span s;
      s.name = "core.sweep.point";
      s.end_ms = tr->now();
      s.start_ms = s.end_ms - pg.wall_ms;
      s.parent = sweep_span;
      s.run = run;
      s.queue_wait_ms = std::max(0.0, s.start_ms - sweep_start);
      for (std::size_t i = 0; i < n; ++i) {
        if (points[i].label == pg.label) out.queue_wait_ms[i] = s.queue_wait_ms;
      }
      tr->add(std::move(s));
    };
  }
  const auto t1 = Clock::now();
  const core::SweepOutcome outcome = core::SweepRunner(opts).run(points);
  out.wall_ms = msBetween(t1, Clock::now());
  if (tr) tr->close(sweep_span);

  for (const auto& pr : outcome.points) {
    out.point_wall_ms.push_back(pr.wall_ms);
    if (pr.status == core::PointStatus::Ok && pr.result.completed) {
      out.digests.push_back(core::digestHex(pr.result));
    } else {
      out.digests.emplace_back();
      out.errors.push_back(pr.label + ": " +
                           (pr.status == core::PointStatus::Ok
                                ? std::string("did not complete")
                                : pr.error));
    }
  }
  return out;
}

/// Host-parallelism figures of a -jN sweep against a -j1 pass.
struct SweepStats {
  double par_eff = 0.0, point_slowdown = 0.0, queue_wait_ms = 0.0;
};

SweepStats sweepStats(const SweepRep& j1, const SweepRep& jn) {
  SweepStats s;
  s.par_eff = sum(jn.point_wall_ms) / (jn.wall_ms * jn.workers);
  std::vector<double> slow;
  for (std::size_t i = 0; i < jn.point_wall_ms.size(); ++i) {
    slow.push_back(jn.point_wall_ms[i] / j1.point_wall_ms[i]);
  }
  s.point_slowdown = median(slow);
  s.queue_wait_ms = median(jn.queue_wait_ms);
  return s;
}

// --- bookkeeping --------------------------------------------------------------

/// Operations attempted and failed: simulations, rig runs and golden checks.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
  }
  /// Count one simulation whose digest must equal `ref` (set by the first).
  void sim(const std::string& what, const std::string& digest,
           std::string& ref) {
    ++attempted;
    if (digest.empty()) return fail(what + ": failed or did not complete");
    if (ref.empty()) ref = digest;
    if (digest != ref) fail(what + ": digest " + digest + " != " + ref);
  }
  /// Count every point of a sweep against the reference digests.
  void sweep(const std::string& what, const SweepRep& rep,
             std::vector<std::string>& ref) {
    ref.resize(rep.digests.size());
    for (const auto& e : rep.errors) fail(what + ": " + e);
    attempted += rep.errors.size();
    for (std::size_t i = 0; i < rep.digests.size(); ++i) {
      if (!rep.digests[i].empty()) sim(what, rep.digests[i], ref[i]);
    }
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  Tally tally;
  std::vector<Metric> metrics;
  /// The repetitions behind each median, for the result log.
  std::vector<std::pair<std::string, std::vector<double>>> samples;
  void put(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Peak resident memory of this process image.  getrusage's ru_maxrss would
/// also count the parent's memory from before exec (Linux keeps it across
/// exec), so read the high-water mark of the current address space instead.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string readGoldenDigest(const fs::path& path) {
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::string tag = "\"digest\": \"";
  const std::size_t at = text.find(tag);
  if (at == std::string::npos) return "";
  const std::size_t from = at + tag.size();
  return text.substr(from, text.find('"', from) - from);
}

/// Run every shipped scenario once and compare its digest with the golden.
void goldenPass(const fs::path& scenario_dir, const fs::path& golden_dir,
                Tally& tally) {
  std::vector<fs::path> files;
  if (fs::is_directory(scenario_dir)) {
    for (const auto& e : fs::directory_iterator(scenario_dir)) {
      if (e.path().extension() == ".scn") files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    ++tally.attempted;
    tally.fail("golden: no scenarios in " + scenario_dir.string());
  }
  for (const auto& f : files) {
    ++tally.attempted;
    const std::string stem = f.stem().string();
    try {
      const auto sc = platform::loadScenario(f.string());
      const auto r = sc.duration_ps
                         ? core::runScenarioFor(sc.config, sc.name,
                                                sc.duration_ps)
                         : core::runScenario(sc.config, sc.name);
      const std::string got = core::digestHex(r);
      const std::string want = readGoldenDigest(golden_dir / (stem + ".json"));
      if (want.empty()) {
        tally.fail("golden " + stem + ": no golden digest");
      } else if (got != want) {
        tally.fail("golden " + stem + ": digest " + got + " != " + want);
      }
    } catch (const std::exception& e) {
      tally.fail("golden " + stem + ": " + e.what());
    }
  }
}

// --- timed run (--trace 0) ------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path golden_dir = "tests/golden";
  fs::path trace_out;
  bool emit = false;
  bool probe = false;
};

bool timeLeft(Clock::time_point deadline, std::size_t reps) {
  return reps < kMinReps || Clock::now() < deadline;
}

Clock::time_point deadlineAfter(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Host ms to parse `text` and construct its Platform, summed over
/// kSetupBatch set-ups (teardown excluded) and divided by kSetupBatch.
double setupBatchMs(const std::string& text) {
  double ms = 0.0;
  for (int i = 0; i < kSetupBatch; ++i) {
    const auto t0 = Clock::now();
    const platform::NamedScenario sc = platform::parseScenario(text);
    const auto p = std::make_unique<platform::Platform>(sc.config);
    ms += msBetween(t0, Clock::now());
  }
  return ms / kSetupBatch;
}

void timedSingle(const Workload& w, const Args& a, Result& res) {
  const std::string& text = w.texts.front();
  std::string ref;
  HostSpeed host;
  std::vector<double> run_s, setup_s, host_ms;
  // False when the repetition threw; it is then counted as failed.
  auto attempt = [&](bool timed) {
    try {
      const Rep rep = runRep(text, nullptr, w.name, 0, nullptr);
      res.tally.sim(w.name, rep.completed ? rep.digest : "", ref);
      if (timed) {
        const double setup_ms = setupBatchMs(text);
        run_s.push_back(rep.run_ms / 1000.0);
        setup_s.push_back(setup_ms / 1000.0);
      }
      return true;
    } catch (const std::exception& e) {
      ++res.tally.attempted;
      res.tally.fail(w.name + ": " + e.what());
      return false;
    }
  };
  attempt(false);  // lets caches fill and lazy set-up finish
  host.passMs();
  host_ms.push_back(host.passMs());
  const auto deadline = deadlineAfter(a.seconds);
  while (timeLeft(deadline, run_s.size()) &&
         res.tally.failed <= run_s.size()) {
    // A repetition that threw has no time.  The pass taken after it
    // replaces the one before it, so the next repetition is still framed by
    // the two passes adjacent to it.
    if (attempt(true)) {
      host_ms.push_back(host.passMs());
    } else {
      host_ms.back() = host.passMs();
    }
  }
  const auto wall_s = HostSpeed::scale(run_s, host_ms);
  const auto setup = HostSpeed::scale(setup_s, host_ms);
  res.put("wall_s", median(wall_s), "s");
  res.put("setup_s", median(setup), "s");
  res.samples = {{"wall_s", wall_s},
                 {"setup_s", setup},
                 {"host_run_s", run_s},
                 {"host_setup_s", setup_s},
                 {"host_ref_ms", host_ms}};
}

void timedSweep(const Workload& w, unsigned jobs, const Args& a, Result& res) {
  std::vector<std::string> ref;
  // The -j1 pass fixes the reference digest of every point.
  res.tally.sweep("sweep -j1", runSweep(w.texts, 1, nullptr, -1, 0), ref);
  res.tally.sweep("sweep warm-up", runSweep(w.texts, jobs, nullptr, -1, 0),
                  ref);
  // Set-up runs on one thread and the sweep on `jobs`, so each is scaled by
  // a reference pass run the same way.
  HostSpeed host;
  std::vector<double> run_s, setup_s, one_ms, par_ms;
  auto reference = [&] {
    one_ms.push_back(host.passMs());
    par_ms.push_back(host.parallelPassMs(jobs));
  };
  host.parallelPassMs(jobs);
  reference();
  const auto deadline = deadlineAfter(a.seconds);
  while (timeLeft(deadline, run_s.size()) &&
         res.tally.failed <= run_s.size()) {
    const SweepRep rep = runSweep(w.texts, jobs, nullptr, -1, 0);
    res.tally.sweep("sweep -j" + std::to_string(jobs), rep, ref);
    run_s.push_back(rep.wall_ms / 1000.0);
    setup_s.push_back(rep.setup_ms_per_point / 1000.0);
    reference();
  }
  const auto wall_s = HostSpeed::scale(run_s, par_ms);
  const auto setup = HostSpeed::scale(setup_s, one_ms);
  res.put("wall_s", median(wall_s), "s");
  res.put("setup_s", median(setup), "s");
  res.samples = {{"wall_s", wall_s},        {"setup_s", setup},
                 {"host_run_s", run_s},     {"host_setup_s", setup_s},
                 {"host_ref_ms", one_ms},   {"host_ref_par_ms", par_ms}};
}

// --- traced run (--trace 1) -------------------------------------------------------

struct RigSpec {
  const char* span;
  const char* metric;
  const char* util_metric;  ///< or nullptr
  std::function<RigResult()> run;
};

void runRigs(Trace& tr, Result& res) {
  const RigSpec rigs[] = {
      {"layer.sim_fifo", "sim.fifo_ns_per_op", nullptr, runFifoRig},
      {"layer.sim_sleep", "sim.sleep_edge_ns", nullptr, runSleepRig},
      {"layer.stbus", "stbus.rig_ns_per_cycle", "stbus.rig_util",
       [] { return runProtocolRig(core::RigProtocol::Stbus); }},
      {"layer.ahb", "ahb.rig_ns_per_cycle", "ahb.rig_util",
       [] { return runProtocolRig(core::RigProtocol::Ahb); }},
      {"layer.axi", "axi.rig_ns_per_cycle", "axi.rig_util",
       [] { return runProtocolRig(core::RigProtocol::Axi); }},
      {"layer.bridge", "bridge.rig_ns_per_txn", nullptr, runBridgeRig},
      {"layer.lmi_read", "mem.lmi_rig_read_ns_per_txn", nullptr,
       [] { return runLmiRig(false); }},
      {"layer.lmi_write", "mem.lmi_rig_write_ns_per_txn", nullptr,
       [] { return runLmiRig(true); }},
      {"layer.noc", "noc.rig_ns_per_hop", nullptr, runNocRig},
  };
  for (const auto& rig : rigs) {
    std::vector<double> ns;
    double util = 0.0;
    for (int i = 0; i < kRigReps; ++i) {
      ScopedSpan span(&tr, rig.span, -1, i);
      ++res.tally.attempted;
      try {
        const RigResult r = rig.run();
        if (!r.ok) res.tally.fail(std::string(rig.span) + ": check failed");
        ns.push_back(r.ns_per_unit);
        util = r.util;
      } catch (const std::exception& e) {
        res.tally.fail(std::string(rig.span) + ": " + e.what());
      }
    }
    res.put(rig.metric, median(ns), "ns");
    if (rig.util_metric) res.put(rig.util_metric, util, "ratio");
  }
}

void putCounts(const LayerCounts& c, Result& res) {
  const auto per = [](double total, int n) { return n ? total / n : 0.0; };
  res.put("sim.edges", static_cast<double>(c.edges), "count");
  res.put("bridge.reads_fwd", static_cast<double>(c.bridge_reads), "count");
  res.put("bridge.writes_fwd", static_cast<double>(c.bridge_writes), "count");
  res.put("mem.row_hit_rate", per(c.row_hit_rate, c.lmi_sims), "ratio");
  res.put("mem.merge_ratio", per(c.merge_ratio, c.lmi_sims), "ratio");
  res.put("mem.refreshes", static_cast<double>(c.refreshes), "count");
  res.put("mem.fifo_full_frac", per(c.fifo_full_frac, c.sims), "ratio");
  res.put("noc.hops", static_cast<double>(c.noc_hops), "count");
  res.put("iptg.retired", static_cast<double>(c.iptg_retired), "count");
  res.put("iptg.read_lat_p95_ns", per(c.read_p95_ns, c.sims), "ns");
  res.put("cpu.cpi", per(c.cpi, c.cpu_sims), "ratio");
  res.put("platform.sim_exec_us", c.exec_us, "us");
  res.put("platform.sim_bw_mb_s", per(c.bw_mb_s, c.sims), "MB/s");
}

void putSweepStats(const std::vector<SweepStats>& s, Result& res) {
  std::vector<double> eff, slow, wait;
  for (const auto& x : s) {
    eff.push_back(x.par_eff);
    slow.push_back(x.point_slowdown);
    wait.push_back(x.queue_wait_ms);
  }
  res.put("core.sweep_par_eff", median(eff), "ratio");
  res.put("core.sweep_point_slowdown", median(slow), "ratio");
  res.put("core.sweep_queue_wait_ms", median(wait), "ms");
}

void tracedSingle(const Workload& w, unsigned jobs, const Args& a, Trace& tr,
                  Result& res) {
  const std::string& text = w.texts.front();
  std::string ref;
  std::vector<double> untraced_ms, traced_ms, parse_ms, build_ms, run_ms;
  LayerCounts counts;
  auto attempt = [&](Trace* t, int run) -> std::optional<Rep> {
    try {
      LayerCounts c;
      const Rep rep = runRep(text, t, w.name, run, t ? &c : nullptr);
      res.tally.sim(w.name, rep.completed ? rep.digest : "", ref);
      if (t) counts = c;
      return rep;
    } catch (const std::exception& e) {
      ++res.tally.attempted;
      res.tally.fail(w.name + ": " + e.what());
      return std::nullopt;
    }
  };
  attempt(nullptr, 0);  // warm-up
  const auto deadline = deadlineAfter(a.seconds);
  for (int run = 0; timeLeft(deadline, traced_ms.size()) &&
                    res.tally.failed <= traced_ms.size();
       ++run) {
    if (const auto r = attempt(nullptr, run)) untraced_ms.push_back(r->totalMs());
    if (const auto r = attempt(&tr, run)) {
      traced_ms.push_back(r->totalMs());
      parse_ms.push_back(r->parse_ms);
      build_ms.push_back(r->build_ms);
      run_ms.push_back(r->run_ms);
    }
  }
  res.put("platform.parse_ms", median(parse_ms), "ms");
  res.put("platform.build_ms", median(build_ms), "ms");
  putCounts(counts, res);
  res.put("sim.ns_per_edge",
          counts.edges ? median(run_ms) * 1.0e6 / counts.edges : 0.0, "ns");

  // The core layer on this platform instance: `jobs` smaller copies at -j1,
  // then at -jN.
  std::vector<std::string> copy_ref;
  const auto copies = sweepCopies(w.name, a.seed, jobs);
  SweepRep j1, jn;
  {
    ScopedSpan layer(&tr, "layer.core_sweep", -1, 0);
    j1 = runSweep(copies, 1, &tr, layer.id(), 0);
    jn = runSweep(copies, jobs, &tr, layer.id(), 1);
  }
  res.tally.sweep("core sweep rig -j1", j1, copy_ref);
  res.tally.sweep("core sweep rig -jN", jn, copy_ref);
  putSweepStats({sweepStats(j1, jn)}, res);
  res.put("trace.overhead_ms", median(traced_ms) - median(untraced_ms), "ms");
  res.samples = {{"platform.parse_ms", parse_ms},
                 {"traced_ms", traced_ms},
                 {"untraced_ms", untraced_ms}};
}

void tracedSweep(const Workload& w, unsigned jobs, const Args& a, Trace& tr,
                 Result& res) {
  std::vector<std::string> ref;
  const SweepRep j1 = runSweep(w.texts, 1, &tr, -1, 0);
  res.tally.sweep("sweep -j1", j1, ref);

  // Per-layer pass: each point once, with the parse/build/run/digest spans
  // and the in-platform counts.
  LayerCounts counts;
  std::vector<double> parse_ms, build_ms;
  double run_ms = 0.0;
  for (std::size_t i = 0; i < w.texts.size(); ++i) {
    try {
      const Rep rep =
          runRep(w.texts[i], &tr, w.name, static_cast<int>(i), &counts);
      parse_ms.push_back(rep.parse_ms);
      build_ms.push_back(rep.build_ms);
      run_ms += rep.run_ms;
      ++res.tally.attempted;
      if (!rep.completed) res.tally.fail(w.name + ": point did not complete");
    } catch (const std::exception& e) {
      ++res.tally.attempted;
      res.tally.fail(w.name + ": " + e.what());
    }
  }
  res.put("platform.parse_ms", median(parse_ms), "ms");
  res.put("platform.build_ms", median(build_ms), "ms");
  putCounts(counts, res);
  res.put("sim.ns_per_edge", counts.edges ? run_ms * 1.0e6 / counts.edges : 0.0,
          "ns");

  std::vector<double> untraced_ms, traced_ms;
  std::vector<SweepStats> stats;
  const auto deadline = deadlineAfter(a.seconds);
  for (int run = 1; timeLeft(deadline, traced_ms.size()) &&
                    res.tally.failed <= traced_ms.size();
       ++run) {
    const SweepRep plain = runSweep(w.texts, jobs, nullptr, -1, run);
    res.tally.sweep("sweep", plain, ref);
    untraced_ms.push_back(plain.wall_ms);
    ScopedSpan root(&tr, w.name, -1, run);
    const SweepRep traced = runSweep(w.texts, jobs, &tr, root.id(), run);
    res.tally.sweep("traced sweep", traced, ref);
    traced_ms.push_back(traced.wall_ms);
    stats.push_back(sweepStats(j1, traced));
  }
  putSweepStats(stats, res);
  res.put("trace.overhead_ms", median(traced_ms) - median(untraced_ms), "ms");
  res.samples = {{"platform.parse_ms", parse_ms},
                 {"traced_ms", traced_ms},
                 {"untraced_ms", untraced_ms}};
}

// --- output ---------------------------------------------------------------------

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void printResult(const Result& res, const Workload& w, const Args& a,
                 unsigned jobs) {
  const Tally& t = res.tally;
  std::ostringstream os;
  os << "{\"correct\": " << (t.failed == 0 && t.attempted > 0 ? "true" : "false")
     << ", \"attempted\": " << t.attempted << ", \"failed\": " << t.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    os << (i ? ", " : "") << jsonString(m.name) << ": {\"value\": "
       << jsonNumber(m.value) << ", \"unit\": " << jsonString(m.unit) << "}";
  }
  os << "}, \"samples\": {";
  for (std::size_t i = 0; i < res.samples.size(); ++i) {
    os << (i ? ", " : "") << jsonString(res.samples[i].first) << ": [";
    const auto& values = res.samples[i].second;
    for (std::size_t j = 0; j < values.size(); ++j) {
      os << (j ? ", " : "") << jsonNumber(values[j]);
    }
    os << "]";
  }
  os << "}, \"info\": {\"workload\": " << jsonString(w.name)
     << ", \"seed\": " << a.seed << ", \"simulations\": " << w.texts.size()
     << ", \"jobs\": " << jobs
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
     << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER) << "}, \"errors\": [";
  for (std::size_t i = 0; i < t.errors.size(); ++i) {
    os << (i ? ", " : "") << jsonString(t.errors[i]);
  }
  os << "]}";
  std::printf("%s\n", os.str().c_str());
}

// --- main ---------------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload W "
               "--seed N [--seconds S] [--trace 0|1] [--trace-out FILE] "
               "[--golden-dir DIR] [--emit-scenario] [--probe]\n",
               why.c_str());
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") a.workload = value();
      else if (arg == "--seed") a.seed = std::stoull(value());
      else if (arg == "--seconds") a.seconds = std::stod(value());
      else if (arg == "--trace") a.trace = std::stoi(value()) != 0;
      else if (arg == "--trace-out") a.trace_out = value();
      else if (arg == "--golden-dir") a.golden_dir = value();
      else if (arg == "--emit-scenario") a.emit = true;
      else if (arg == "--probe") a.probe = true;
      else usage("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

int run(int argc, char** argv) {
  const Args a = parseArgs(argc, argv);
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) ==
      std::end(kWorkloads)) {
    usage("unknown workload '" + a.workload + "'");
  }
  const Workload w = makeWorkload(a.workload, a.seed);
  if (a.emit) {
    for (const auto& text : w.texts) std::printf("%s\n", text.c_str());
    return 0;
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench_harness: built as '%s', not Release; refusing to "
                 "time it\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  for (const auto& text : w.texts) checkPinned(platform::parseScenario(text));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned jobs = std::min(4u, hw);

  if (a.probe) {
    std::string digests;
    if (w.sweep) {
      for (const auto& d : runSweep(w.texts, jobs, nullptr, -1, 0).digests) {
        digests += d + " ";
      }
    } else {
      digests = runRep(w.texts.front(), nullptr, w.name, 0, nullptr).digest;
    }
    std::printf("digest %s\n", digests.c_str());
    return 0;
  }

  Result res;
  if (!a.trace) {
    if (w.sweep) {
      timedSweep(w, jobs, a, res);
    } else {
      timedSingle(w, a, res);
    }
    res.put("peak_rss_mb", peakRssMb(), "MB");
  } else {
    Trace tr;
    if (w.sweep) {
      tracedSweep(w, jobs, a, tr, res);
    } else {
      tracedSingle(w, jobs, a, tr, res);
    }
    runRigs(tr, res);
    if (!a.trace_out.empty()) {
      const std::string header = "\"workload\": " + jsonString(w.name) +
                                 ", \"seed\": " + std::to_string(a.seed);
      if (!tr.write(a.trace_out.string(), header)) {
        std::fprintf(stderr, "perfbench_harness: cannot write %s\n",
                     a.trace_out.string().c_str());
        return 1;
      }
    }
  }
  goldenPass("tools/scenarios", a.golden_dir, res.tally);
  if (!a.trace) {
    const Tally& t = res.tally;
    res.put("ok_ratio",
            static_cast<double>(t.attempted - t.failed) /
                static_cast<double>(std::max<std::uint64_t>(t.attempted, 1)),
            "ratio");
  }
  for (const auto& e : res.tally.errors) {
    std::fprintf(stderr, "perfbench_harness: FAIL %s\n", e.c_str());
  }
  printResult(res, w, a, jobs);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
