// Self-test corpus for the mpsoc_lint static checker (tools/mpsoc_lint.cpp).
//
// tests/lint/ holds one directory per rule.  Each directory contains a
// deliberately-bad fixture (`bad.*`) whose findings are pinned below, plus an
// `allowed.*` twin where the identical defect carries an
// `// mpsoc-lint: allow(<rule>)` annotation and must be silent.  A rule may
// pin more than one bad fixture (shared-static covers a namespace-scope and
// an evaluate()-local static).  tests/lint/clean/ collects
// near-misses (static_assert, `static const`, ordered std::map iteration)
// that must not fire at all; the unmanifested-state
// corpus keeps its near-misses (auto-exempt references/const, dotted foreign
// entries, WITH_BASE base argument) in its own clean.hpp next to the rigs.
//
// The fixtures live under a nested src/ so the path-scoped rules see them as
// kernel code; the whole-tree lint run excludes the corpus with
// `--skip tests/lint/`.
//
// The test shells out to the real binary (MPSOC_LINT_BIN, injected by CMake)
// and diffs the parsed findings against the expected set — rule name, file
// and line must all match exactly, so a rule that drifts (fires on a new
// line, stops firing, or double-reports) fails here before it pollutes a
// whole-tree run.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <regex>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#ifndef MPSOC_LINT_BIN
#error "MPSOC_LINT_BIN must point at the mpsoc_lint executable"
#endif
#ifndef MPSOC_LINT_FIXTURES
#error "MPSOC_LINT_FIXTURES must point at tests/lint"
#endif

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
  // Findings parsed from `path:line: [rule] message` lines, keyed as
  // (path-relative-to-fixture-root, line, rule).
  std::set<std::tuple<std::string, int, std::string>> findings;
};

LintRun runLint(const std::string& args) {
  LintRun run;
  const std::string cmd =
      std::string(MPSOC_LINT_BIN) + " " + args + " 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    run.output = "popen failed for: " + cmd;
    return run;
  }
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    run.output.append(buf.data(), n);
  }
  const int status = ::pclose(pipe);
  run.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status)
                                                     : status;

  static const std::regex finding_re(R"(^(.+):(\d+): \[([\w-]+)\])");
  std::size_t pos = 0;
  const std::string root = std::string(MPSOC_LINT_FIXTURES) + "/";
  while (pos < run.output.size()) {
    std::size_t eol = run.output.find('\n', pos);
    if (eol == std::string::npos) eol = run.output.size();
    const std::string line = run.output.substr(pos, eol - pos);
    pos = eol + 1;
    std::smatch m;
    if (!std::regex_search(line, m, finding_re)) continue;
    std::string path = m[1].str();
    if (path.rfind(root, 0) == 0) path.erase(0, root.size());
    run.findings.emplace(path, std::stoi(m[2].str()), m[3].str());
  }
  return run;
}

std::string fixtureDir(const std::string& rule) {
  return std::string(MPSOC_LINT_FIXTURES) + "/" + rule;
}

// One pinned finding: the rule's bad fixture must report exactly these
// (file, line) locations — and nothing else in the directory, which also
// proves the allow() twin fixtures stay silent.
struct RuleCase {
  const char* rule;
  const char* file;               // relative to tests/lint/
  std::vector<int> lines;         // every expected finding line in `file`
};

const std::vector<RuleCase>& ruleCases() {
  static const std::vector<RuleCase> cases = {
      {"bare-assert", "bare-assert/src/bad.cpp", {5}},
      {"nondeterminism", "nondeterminism/src/bad.cpp", {5}},
      {"unordered-iter", "unordered-iter/src/bad.cpp", {8}},
      {"idle-busy-poll", "idle-busy-poll/src/bad.cpp", {4}},
      {"shared-static", "shared-static/src/bad.cpp", {4}},
      // A mutable static inside evaluate() is shared across sweep workers
      // just the same.
      {"shared-static", "shared-static/src/bad_evaluate.cpp", {4}},
      // Line 9: member in no manifest.  Line 10: duplicate entry and a typo'd
      // name (two findings, one pinned location).  Line 13: a Component
      // subclass with state but no manifest at all.  Line 28: a
      // Checkpointable member in no manifest.
      {"unmanifested-state",
       "unmanifested-state/src/bad.hpp",
       {9, 10, 13, 28}},
  };
  return cases;
}

}  // namespace

// Every rule directory: the bad fixtures yield exactly the pinned findings
// (exit 1), and the allow()-annotated twins contribute none.
TEST(Lint, RuleFixturesMatchExpectedFindings) {
  std::set<std::string> rules;
  for (const RuleCase& rc : ruleCases()) rules.insert(rc.rule);
  for (const std::string& rule : rules) {
    SCOPED_TRACE(rule);
    const LintRun run = runLint(fixtureDir(rule));
    EXPECT_EQ(run.exit_code, 1) << run.output;
    std::set<std::tuple<std::string, int, std::string>> expected;
    for (const RuleCase& rc : ruleCases()) {
      if (rule != rc.rule) continue;
      for (int line : rc.lines) expected.emplace(rc.file, line, rc.rule);
    }
    EXPECT_EQ(run.findings, expected) << run.output;
  }
}

// The near-miss corpus must be entirely clean: lookalikes of the rule
// triggers (static_assert, `static const`, ordered-map range-for) are not
// findings.
TEST(Lint, CleanCorpusHasNoFindings) {
  const LintRun run = runLint(fixtureDir("clean"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(run.findings.empty()) << run.output;
}

// Deterministic report: two invocations over the whole corpus produce
// byte-identical output (findings are emitted in sorted file order).
TEST(Lint, ReportIsDeterministic) {
  const LintRun a = runLint(std::string(MPSOC_LINT_FIXTURES));
  const LintRun b = runLint(std::string(MPSOC_LINT_FIXTURES));
  EXPECT_EQ(a.exit_code, 1);
  EXPECT_EQ(a.output, b.output);
  // Exactly the union of the per-rule expectations — nothing extra hides in
  // a fixture meant for another rule.
  std::set<std::tuple<std::string, int, std::string>> expected;
  for (const RuleCase& rc : ruleCases()) {
    for (int line : rc.lines) expected.emplace(rc.file, line, rc.rule);
  }
  EXPECT_EQ(a.findings, expected) << a.output;
}

// --skip excludes matching paths: skipping the corpus root leaves nothing to
// lint, so the run is clean.  This is the mechanism the mpsoc_lint ctest
// relies on to keep the deliberately-bad fixtures out of the whole-tree
// run.
TEST(Lint, SkipExcludesCorpus) {
  const LintRun run =
      runLint("--skip tests/lint/ " + std::string(MPSOC_LINT_FIXTURES));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(run.findings.empty()) << run.output;
}
