// mpsoc_fuzz — seeded scenario fuzzer: random platform instances, each run
// monitored with kernel activity gating on and off, auto-shrinking
// reproducers.
//
//   mpsoc_fuzz --seed 7 --count 50                 # fuzz campaign
//   mpsoc_fuzz --seed 7 --count 5 --emit           # print the generated
//                                                  # scenarios, run nothing
//   mpsoc_fuzz --repro tests/fuzz_corpus/x.scn     # re-check one reproducer
//
//   --seed S        campaign seed (default 1).  The same seed regenerates
//                   the same scenario set byte-for-byte, and — absent real
//                   nondeterminism bugs — the same run digests
//   --count N       number of generated cases (default 20).  Every case runs
//                   twice, gated and ungated; disagreement in the canonical
//                   result digest is a failure
//   --jobs N        worker pool width for the per-case pair (default 1)
//   --no-verify     drop the protocol monitors + transaction auditor
//   --verify        accepted no-op (the default), so reproducer commands
//                   are explicit about what they enable
//   --statecheck    also run the checkpoint-equivalence oracle (slower)
//   --no-shrink     report the raw failing scenario without delta-debugging
//   --corpus-dir D  where minimal reproducers are written (default
//                   tests/fuzz_corpus; "" disables writing)
//   --emit          print each generated scenario's canonical text instead
//                   of running it (the determinism smoke hashes this)
//   --repro FILE    load one scenario file and run the same check on it
//
// Exit codes: 0 = clean, 1 = failure found (reproducer written + command
// printed), 2 = usage error.

#include <cstring>
#include <iostream>
#include <string>

#include "core/fuzz.hpp"
#include "platform/feature_gates.hpp"
#include "platform/scenario_parser.hpp"

using namespace mpsoc;

namespace {

void usage() {
  std::cerr << "usage: mpsoc_fuzz [--seed S] [--count N] [--jobs N] "
               "[--no-verify] [--statecheck] [--no-shrink] [--corpus-dir D] "
               "[--emit] [--repro FILE]\n";
}

}  // namespace

int main(int argc, char** argv) {
  core::FuzzOptions opts;
  opts.log = &std::cerr;
  bool emit_only = false;
  std::string repro_file;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      opts.seed = std::stoull(argv[++i]);
    } else if (std::strcmp(argv[i], "--count") == 0 && i + 1 < argc) {
      opts.count = std::stoull(argv[++i]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      opts.jobs = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      opts.verify = true;
    } else if (std::strcmp(argv[i], "--no-verify") == 0) {
      opts.verify = false;
    } else if (std::strcmp(argv[i], "--statecheck") == 0) {
      opts.statecheck = true;
    } else if (std::strcmp(argv[i], "--no-shrink") == 0) {
      opts.shrink = false;
    } else if (std::strcmp(argv[i], "--corpus-dir") == 0 && i + 1 < argc) {
      opts.corpus_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--emit") == 0) {
      emit_only = true;
    } else if (std::strcmp(argv[i], "--repro") == 0 && i + 1 < argc) {
      repro_file = argv[++i];
    } else {
      usage();
      return 2;
    }
  }

  if (emit_only) {
    for (std::uint64_t i = 0; i < opts.count; ++i) {
      const platform::NamedScenario sc = core::generateScenario(opts.seed, i);
      std::cout << "# case " << i << "\n" << platform::emitScenario(sc) << "\n";
    }
    return 0;
  }

  // One up-front warning per compile-gated checker the build removed: the
  // campaign still runs, but "clean" then means much less.
  {
    platform::PlatformConfig probe;
    probe.verify = opts.verify;
    probe.statecheck = opts.statecheck;
    const std::string warn = platform::compiledOutWarning(probe);
    if (!warn.empty()) std::cerr << warn << "\n";
  }

  core::Fuzzer fuzzer(opts);

  if (!repro_file.empty()) {
    platform::NamedScenario sc;
    try {
      sc = platform::loadScenario(repro_file);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
    const core::FuzzVerdict v = fuzzer.check(sc);
    if (v.failed) {
      std::cerr << sc.name << ": FAILED\n" << v.error << "\n";
      return 1;
    }
    std::cout << sc.name << ": ok (" << fuzzer.simulations()
              << " runs, gated and ungated)\n";
    return 0;
  }

  const core::FuzzReport report = fuzzer.run();
  if (!report.ok()) {
    const core::FuzzFailure& f = report.failures.front();
    std::cerr << "\nfuzz: FAILURE after " << report.cases << " case(s), "
              << report.simulations << " simulation(s)\n"
              << "  original: " << f.original.name << "\n"
              << "    " << f.original_error << "\n"
              << "  minimal:  " << f.minimal.name << " ("
              << f.shrink_probes << " shrink probes)\n"
              << "    " << f.error << "\n";
    if (!f.repro_path.empty()) {
      std::cerr << "  reproducer written to " << f.repro_path << "\n";
    }
    std::cerr << "  replay: " << f.repro_command << "\n";
    return 1;
  }
  std::cout << "fuzz: " << report.cases << " case(s) clean ("
            << report.simulations << " simulations, seed " << opts.seed
            << ")\n";
  return 0;
}
