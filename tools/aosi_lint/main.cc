// aosi_lint — AOSI-specific concurrency lint for the cubrick tree.
//
// A standalone token-based checker (no libclang) that enforces the rules
// Clang's -Wthread-safety cannot express. Per-file rules (rules.h) check one
// translation unit at a time; with --program, the whole-program passes
// (program.h) additionally merge every src/ file into one model and check
// lock ordering, hold-across-blocking, and the checker-hook protocol across
// translation units.
//
// Input is the set of sources named by a compile_commands.json plus a
// recursive scan of the conventional directories, so headers (which carry
// most epoch comparisons and mutex declarations) are covered too. A finding
// can be waived with an allow-comment naming the rule on the offending line,
// or alone on the line above it (exact syntax in docs/STATIC_ANALYSIS.md;
// not spelled out here so this header never registers as a waiver site).
// Program-level waivers anchor at the line the finding reports (the final
// acquire of a lock-order edge, the blocking call site).
//
// See docs/STATIC_ANALYSIS.md for the rule catalogue and how to add rules.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "aosi_lint/model.h"
#include "aosi_lint/program.h"
#include "aosi_lint/report.h"
#include "aosi_lint/rules.h"

namespace fs = std::filesystem;
using namespace aosilint;

namespace {

bool IsSourceExt(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".hpp" || ext == ".cpp";
}

// Minimal extraction of "file" entries from a compile_commands.json.
std::vector<std::string> FilesFromCompileCommands(const std::string& path) {
  std::vector<std::string> files;
  std::ifstream in(path, std::ios::binary);
  if (!in) return files;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  const std::string key = "\"file\"";
  size_t pos = 0;
  while ((pos = json.find(key, pos)) != std::string::npos) {
    size_t colon = json.find(':', pos + key.size());
    if (colon == std::string::npos) break;
    size_t q1 = json.find('"', colon + 1);
    if (q1 == std::string::npos) break;
    size_t q2 = q1 + 1;
    std::string value;
    while (q2 < json.size() && json[q2] != '"') {
      if (json[q2] == '\\' && q2 + 1 < json.size()) ++q2;
      value += json[q2++];
    }
    files.push_back(value);
    pos = q2;
  }
  return files;
}

std::string RelativeTo(const fs::path& root, const fs::path& p) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  if (ec || rel.empty() || rel.native()[0] == '.') return p.generic_string();
  return rel.generic_string();
}

bool WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "aosi_lint: cannot write " << path << "\n";
    return false;
  }
  out << content;
  return true;
}

int RunSelftest(const std::string& dir);

int Usage() {
  std::cerr
      << "usage: aosi_lint [--root DIR] [--compile-commands FILE]\n"
      << "                 [--program] [--sarif FILE] [--waiver-report FILE]\n"
      << "                 [--list-rules] [--selftest DIR] [files...]\n\n"
      << "Without file arguments, lints src/, tests/, bench/, tools/ and\n"
      << "examples/ under --root (default: cwd), plus any sources listed in\n"
      << "compile_commands.json (auto-detected at <root>/build/).\n"
      << "--program additionally merges all src/ files into a whole-program\n"
      << "model and runs the cross-TU passes (lock-cycle,\n"
      << "hold-across-blocking, checker-hook-gate).\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string compile_commands;
  std::string selftest_dir;
  std::string sarif_path;
  std::string waiver_report_path;
  std::vector<std::string> file_args;
  bool list_rules = false;
  bool run_program = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) root = argv[++i];
    else if (arg == "--compile-commands" && i + 1 < argc)
      compile_commands = argv[++i];
    else if (arg == "--selftest" && i + 1 < argc) selftest_dir = argv[++i];
    else if (arg == "--sarif" && i + 1 < argc) sarif_path = argv[++i];
    else if (arg == "--waiver-report" && i + 1 < argc)
      waiver_report_path = argv[++i];
    else if (arg == "--program") run_program = true;
    else if (arg == "--list-rules") list_rules = true;
    else if (arg == "--help" || arg == "-h") return Usage();
    else if (!arg.empty() && arg[0] == '-') return Usage();
    else file_args.push_back(arg);
  }

  if (list_rules) {
    for (const RuleInfo& r : Rules()) {
      std::cout << r.name << (r.program ? " (program)" : "") << "\n    "
                << r.description << "\n";
    }
    return 0;
  }
  if (!selftest_dir.empty()) return RunSelftest(selftest_dir);

  const fs::path root_path(root);
  std::vector<std::pair<std::string, std::string>> inputs;  // path, rel
  std::set<std::string> seen;
  auto add = [&](const fs::path& p) {
    std::error_code ec;
    const std::string canon = fs::weakly_canonical(p, ec).generic_string();
    const std::string key = ec ? p.generic_string() : canon;
    // Fixtures intentionally violate the rules; they are exercised by
    // --selftest, not the tree scan.
    if (RelativeTo(root_path, p).rfind("tests/lint_fixtures/", 0) == 0)
      return;
    if (seen.insert(key).second)
      inputs.emplace_back(p.generic_string(), RelativeTo(root_path, p));
  };

  if (!file_args.empty()) {
    for (const auto& f : file_args) add(f);
  } else {
    for (const char* dir : {"src", "tests", "bench", "tools", "examples"}) {
      const fs::path d = root_path / dir;
      if (!fs::exists(d)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(d)) {
        if (entry.is_regular_file() && IsSourceExt(entry.path()))
          add(entry.path());
      }
    }
    if (compile_commands.empty()) {
      const fs::path guess = root_path / "build" / "compile_commands.json";
      if (fs::exists(guess)) compile_commands = guess.generic_string();
    }
    if (!compile_commands.empty()) {
      for (const auto& f : FilesFromCompileCommands(compile_commands)) {
        const fs::path p(f);
        if (fs::exists(p) && IsSourceExt(p) &&
            RelativeTo(root_path, p).rfind("src/", 0) != std::string::npos)
          add(p);
      }
    }
  }

  std::vector<SourceFile> files;
  std::vector<WaiverSite> waiver_sites;
  files.reserve(inputs.size());
  for (const auto& [path, rel] : inputs) {
    SourceFile f;
    std::string raw;
    if (!LoadFile(path, rel, &f, &raw)) {
      std::cerr << "aosi_lint: cannot read " << path << "\n";
      return 2;
    }
    for (WaiverSite& s : CollectWaiverSites(raw, f.cls.rel))
      waiver_sites.push_back(std::move(s));
    files.push_back(std::move(f));
  }

  // Atomic variable names are declared in headers but used in the paired
  // source file, so key the collected names by path stem: x.h and x.cc land
  // in the same bucket.
  auto stem_of = [](const std::string& p) {
    const size_t dot = p.find_last_of('.');
    return dot == std::string::npos ? p : p.substr(0, dot);
  };
  std::map<std::string, std::set<std::string>> atomic_names_by_stem;
  std::set<const Token*> decl_sites;
  for (const SourceFile& f : files)
    CollectAtomicNames(f, &atomic_names_by_stem[stem_of(f.cls.rel)],
                       &decl_sites);

  std::vector<Finding> findings;
  for (const SourceFile& f : files)
    LintFile(f, atomic_names_by_stem[stem_of(f.cls.rel)], decl_sites,
             &findings);

  if (run_program) {
    // The whole-program model covers src/ only: test and bench sources
    // define same-named helpers that would pollute call-graph resolution.
    std::vector<FileModel> models;
    for (const SourceFile& f : files) {
      if (f.cls.rel.rfind("src/", 0) != 0) continue;
      models.push_back(ExtractModel(f));
    }
    ProgramModel pm(std::move(models));
    for (Finding& f : RunProgramPasses(pm)) findings.push_back(std::move(f));
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  PrintText(findings, std::cout);

  if (!sarif_path.empty() && !WriteFileOrDie(sarif_path, ToSarif(findings)))
    return 2;
  if (!waiver_report_path.empty()) {
    std::sort(waiver_sites.begin(), waiver_sites.end(),
              [](const WaiverSite& a, const WaiverSite& b) {
                return std::tie(a.file, a.line) < std::tie(b.file, b.line);
              });
    if (!WriteFileOrDie(waiver_report_path, WaiverReportJson(waiver_sites)))
      return 2;
  }

  if (!findings.empty()) {
    std::cout << "aosi_lint: " << findings.size() << " finding(s) in "
              << files.size() << " file(s)\n";
    return 1;
  }
  std::cout << "aosi_lint: clean (" << files.size() << " files"
            << (run_program ? ", program passes included" : "") << ")\n";
  return 0;
}

namespace {

// Runs the per-file rules over one fixture file.
std::vector<Finding> LintFixtureFile(const SourceFile& f) {
  std::set<std::string> atomic_names;
  std::set<const Token*> decl_sites;
  CollectAtomicNames(f, &atomic_names, &decl_sites);
  std::vector<Finding> findings;
  LintFile(f, atomic_names, decl_sites, &findings);
  return findings;
}

// Per-file fixture: bad_* files must trigger >=1 finding of their declared
// rule (`aosi-lint-fixture: <rule>`); good_* files must be fully clean.
int CheckFlatFixture(const fs::path& p) {
  SourceFile f;
  std::string raw;
  if (!LoadFile(p.generic_string(), p.filename().generic_string(), &f, &raw)) {
    std::cerr << "FAIL " << p << ": unreadable\n";
    return 1;
  }
  const std::string rule = FindDirective(raw, "aosi-lint-fixture:");
  if (rule.empty()) {
    std::cerr << "FAIL " << p << ": missing 'aosi-lint-fixture:' directive\n";
    return 1;
  }
  const bool expect_bad = p.filename().generic_string().rfind("bad_", 0) == 0;
  const std::vector<Finding> findings = LintFixtureFile(f);
  size_t rule_hits = 0;
  for (const Finding& fi : findings)
    if (fi.rule == rule) ++rule_hits;
  bool ok;
  std::string why;
  if (expect_bad) {
    ok = rule_hits >= 1;
    why = ok ? "" : "expected >=1 '" + rule + "' finding, got none";
  } else {
    ok = findings.empty();
    if (!ok) {
      why = "expected clean, got: " + findings[0].rule + " at line " +
            std::to_string(findings[0].line);
    }
  }
  if (ok) {
    std::cout << "PASS " << p.filename().generic_string() << " ("
              << findings.size() << " finding(s))\n";
    return 0;
  }
  std::cerr << "FAIL " << p.filename().generic_string() << ": " << why << "\n";
  return 1;
}

// Program fixture: a directory of source files forming one mini-program.
// Every file may carry an `aosi-lint-as` path directive to emulate a tree
// location; at least one carries `aosi-lint-fixture: <rule>` naming the
// program rule under test. bad_* directories must produce >=1 finding of that rule from
// the program passes; good_* directories must produce zero.
int CheckProgramFixture(const fs::path& dir) {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && IsSourceExt(entry.path()))
      paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  const std::string name = dir.filename().generic_string();
  std::string rule;
  std::vector<FileModel> models;
  for (const fs::path& p : paths) {
    SourceFile f;
    std::string raw;
    if (!LoadFile(p.generic_string(), p.filename().generic_string(), &f,
                  &raw)) {
      std::cerr << "FAIL " << name << ": unreadable " << p << "\n";
      return 1;
    }
    const std::string r = FindDirective(raw, "aosi-lint-fixture:");
    if (!r.empty()) rule = r;
    models.push_back(ExtractModel(f));
  }
  if (rule.empty() || models.empty()) {
    std::cerr << "FAIL " << name
              << ": program fixture needs source files and an "
                 "'aosi-lint-fixture:' directive\n";
    return 1;
  }
  ProgramModel pm(std::move(models));
  const std::vector<Finding> findings = RunProgramPasses(pm);
  size_t rule_hits = 0;
  for (const Finding& fi : findings)
    if (fi.rule == rule) ++rule_hits;
  const bool expect_bad = name.rfind("bad_", 0) == 0;
  const bool ok = expect_bad ? rule_hits >= 1 : rule_hits == 0;
  if (ok) {
    std::cout << "PASS " << name << "/ (" << rule_hits << " '" << rule
              << "' finding(s))\n";
    return 0;
  }
  if (expect_bad) {
    std::cerr << "FAIL " << name << ": expected >=1 '" << rule
              << "' finding from the program passes, got none\n";
  } else {
    std::cerr << "FAIL " << name << ": expected zero '" << rule
              << "' findings, got " << rule_hits << "\n";
  }
  return 1;
}

// Fixture mode: flat files in `dir` are per-file fixtures; directories
// under `dir`/program/ are whole-program fixtures.
int RunSelftest(const std::string& dir) {
  int failures = 0;
  int cases = 0;
  std::vector<fs::path> flat;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && IsSourceExt(entry.path()))
      flat.push_back(entry.path());
  }
  std::sort(flat.begin(), flat.end());
  for (const fs::path& p : flat) {
    ++cases;
    failures += CheckFlatFixture(p);
  }
  const fs::path program_dir = fs::path(dir) / "program";
  if (fs::exists(program_dir)) {
    std::vector<fs::path> dirs;
    for (const auto& entry : fs::directory_iterator(program_dir)) {
      if (entry.is_directory()) dirs.push_back(entry.path());
    }
    std::sort(dirs.begin(), dirs.end());
    for (const fs::path& d : dirs) {
      ++cases;
      failures += CheckProgramFixture(d);
    }
  }
  if (cases == 0) {
    std::cerr << "aosi_lint --selftest: no fixtures in " << dir << "\n";
    return 2;
  }
  std::cout << "aosi_lint --selftest: " << (cases - failures) << "/" << cases
            << " fixtures behaved as expected\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
