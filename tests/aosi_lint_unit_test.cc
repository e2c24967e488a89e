// Unit tests for the aosi_lint library: lexer, per-file model extraction,
// call-graph resolution, the whole-program passes, and the reporters.
//
// The lock-cycle tests load the real two-TU inversion fixture from
// tests/lint_fixtures/program/ so the fixture and the analysis cannot drift
// apart; everything else builds models from in-memory strings via
// LoadFromString. The SARIF tests include a minimal JSON parser so the
// output is structurally validated against what the 2.1.0 schema requires,
// not just substring-matched.

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aosi_lint/lexer.h"
#include "aosi_lint/model.h"
#include "aosi_lint/program.h"
#include "aosi_lint/report.h"
#include "aosi_lint/rules.h"

namespace aosilint {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

FileModel ModelOf(const std::string& src, const std::string& rel) {
  SourceFile f;
  LoadFromString(src, rel, &f);
  return ExtractModel(f);
}

ProgramModel ProgramOf(
    const std::vector<std::pair<std::string, std::string>>& rel_and_src) {
  std::vector<FileModel> models;
  models.reserve(rel_and_src.size());
  for (const auto& [rel, src] : rel_and_src) {
    models.push_back(ModelOf(src, rel));
  }
  return ProgramModel(std::move(models));
}

std::vector<Finding> OfRule(const std::vector<Finding>& findings,
                            const std::string& rule) {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (f.rule == rule) out.push_back(f);
  }
  return out;
}

const FunctionModel* FindFn(const ProgramModel& pm, const std::string& cls,
                            const std::string& name) {
  for (const FileModel& fm : pm.files()) {
    for (const FunctionModel& fn : fm.functions) {
      if (fn.cls == cls && fn.name == name) return &fn;
    }
  }
  return nullptr;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Loads every source in a tests/lint_fixtures/program/<name>/ directory the
// same way --selftest does (the aosi-lint-as directive supplies the rel).
std::vector<FileModel> LoadProgramFixture(const std::string& name,
                                          const std::vector<std::string>& files) {
  std::vector<FileModel> models;
  for (const std::string& file : files) {
    const std::string path =
        std::string(CUBRICK_LINT_FIXTURE_DIR) + "/program/" + name + "/" + file;
    SourceFile f;
    std::string raw;
    EXPECT_TRUE(LoadFile(path, file, &f, &raw)) << "missing fixture " << path;
    models.push_back(ExtractModel(f));
  }
  return models;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(Lexer, StripCommentsPreservesLineNumbers) {
  const std::string src =
      "int a; // trailing comment\n"
      "/* block\n"
      "   spanning lines */ int b;\n"
      "int c;\n";
  const std::string stripped = StripCommentsAndStrings(src);
  EXPECT_EQ(std::count(src.begin(), src.end(), '\n'),
            std::count(stripped.begin(), stripped.end(), '\n'));
  const std::vector<Token> toks = Lex(stripped);
  ASSERT_GE(toks.size(), 9u);
  // `b` is declared on line 3 despite the comment opening on line 2.
  bool saw_b = false;
  for (const Token& t : toks) {
    if (t.text == "b") {
      EXPECT_EQ(t.line, 3);
      saw_b = true;
    }
    if (t.text == "c") {
      EXPECT_EQ(t.line, 4);
    }
  }
  EXPECT_TRUE(saw_b);
}

TEST(Lexer, StringContentsNeverTokenize) {
  const std::string stripped = StripCommentsAndStrings(
      "x = \"MutexLock // not code\"; y = R\"(Wait()\")\"; z = 'M';");
  const std::vector<Token> toks = Lex(stripped);
  for (const Token& t : toks) {
    EXPECT_NE(t.text, "MutexLock");
    EXPECT_NE(t.text, "Wait");
  }
}

TEST(Lexer, MaximalMunchPunctuators) {
  const std::vector<Token> toks = Lex("a->b(x); c <<= 2; d::e();");
  std::vector<std::string> punct;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kPunct) punct.push_back(t.text);
  }
  EXPECT_NE(std::find(punct.begin(), punct.end(), "->"), punct.end());
  EXPECT_NE(std::find(punct.begin(), punct.end(), "<<="), punct.end());
  EXPECT_NE(std::find(punct.begin(), punct.end(), "::"), punct.end());
}

TEST(Lexer, TemplateAnglesDistinguishedFromComparisons) {
  const std::vector<Token> toks = Lex("std::map<Epoch, int> m; if (a < b) f();");
  const std::vector<bool> is_template = MarkTemplateAngles(toks);
  ASSERT_EQ(is_template.size(), toks.size());
  int seen = 0;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].text != "<") continue;
    ++seen;
    if (seen == 1) {
      EXPECT_TRUE(is_template[i]) << "map<...> must mark as template";
    } else {
      EXPECT_FALSE(is_template[i]) << "a < b must stay a comparison";
    }
  }
  EXPECT_EQ(seen, 2);
}

// ---------------------------------------------------------------------------
// Per-file model extraction
// ---------------------------------------------------------------------------

TEST(Model, MutexDeclarationsAreScopedByClass) {
  const FileModel fm = ModelOf(
      "class TxnManager { Mutex mutex_; };\n"
      "class Registry { Mutex mutex_; SharedMutex table_mutex_; };\n"
      "Mutex global_mu;\n",
      "src/aosi/txn_manager.h");
  ASSERT_EQ(fm.mutex_decls.count("TxnManager"), 1u);
  EXPECT_EQ(fm.mutex_decls.at("TxnManager").count("mutex_"), 1u);
  EXPECT_EQ(fm.mutex_decls.at("Registry").count("table_mutex_"), 1u);
  EXPECT_EQ(fm.mutex_decls.at("").count("global_mu"), 1u);
}

TEST(Model, MemberParamAndLocalTypesAreRecorded) {
  const FileModel fm = ModelOf(
      "class Runner {\n"
      " public:\n"
      "  void Go(Table* table, const Query& q);\n"
      " private:\n"
      "  Database* db_;\n"
      "  std::unique_ptr<FlushManager> flusher_;\n"
      "};\n"
      "void Runner::Go(Table* table, const Query& q) {\n"
      "  BessColumn out = table->EmptyLike();\n"
      "  out.Reserve(q.limit);\n"
      "}\n",
      "src/engine/runner.cc");
  ASSERT_EQ(fm.member_types.count("Runner"), 1u);
  EXPECT_EQ(fm.member_types.at("Runner").at("db_"), "Database");
  // Smart pointers record the pointee: calls through flusher_ dispatch to
  // FlushManager.
  EXPECT_EQ(fm.member_types.at("Runner").at("flusher_"), "FlushManager");
  ASSERT_EQ(fm.functions.size(), 1u);
  const FunctionModel& fn = fm.functions[0];
  EXPECT_EQ(fn.Qualified(), "Runner::Go");
  EXPECT_EQ(fn.local_types.at("table"), "Table");
  EXPECT_EQ(fn.local_types.at("q"), "Query");
  EXPECT_EQ(fn.local_types.at("out"), "BessColumn");
}

TEST(Model, AcquireOrderAndHeldSets) {
  const FileModel fm = ModelOf(
      "class Node { Mutex a_; Mutex b_; void Step(); };\n"
      "void Node::Step() {\n"
      "  MutexLock la(a_);\n"
      "  MutexLock lb(b_);\n"
      "  Work();\n"
      "}\n",
      "src/cluster/node.cc");
  ASSERT_EQ(fm.functions.size(), 1u);
  const FunctionModel& fn = fm.functions[0];
  ASSERT_EQ(fn.acquires.size(), 2u);
  EXPECT_TRUE(fn.acquires[0].held_before.empty());
  ASSERT_EQ(fn.acquires[1].held_before.size(), 1u);
  EXPECT_EQ(fn.acquires[1].held_before[0], "a_");  // resolved by ProgramModel
  ASSERT_EQ(fn.calls.size(), 1u);
  EXPECT_EQ(fn.calls[0].name, "Work");
  EXPECT_EQ(fn.calls[0].held.size(), 2u);
}

TEST(Model, ManualLockUnlockTracksHeldSpan) {
  const FileModel fm = ModelOf(
      "class Node { Mutex mu_; void Step(); };\n"
      "void Node::Step() {\n"
      "  mu_.Lock();\n"
      "  Inside();\n"
      "  mu_.Unlock();\n"
      "  Outside();\n"
      "}\n",
      "src/cluster/node.cc");
  ASSERT_EQ(fm.functions.size(), 1u);
  const FunctionModel& fn = fm.functions[0];
  ASSERT_EQ(fn.calls.size(), 2u);
  EXPECT_EQ(fn.calls[0].name, "Inside");
  EXPECT_EQ(fn.calls[0].held.size(), 1u);
  EXPECT_EQ(fn.calls[1].name, "Outside");
  EXPECT_TRUE(fn.calls[1].held.empty());
}

TEST(Model, ScopeExitReleasesRaiiLocks) {
  const FileModel fm = ModelOf(
      "class Node { Mutex mu_; void Step(); };\n"
      "void Node::Step() {\n"
      "  {\n"
      "    MutexLock lock(mu_);\n"
      "    Inside();\n"
      "  }\n"
      "  Outside();\n"
      "}\n",
      "src/cluster/node.cc");
  const FunctionModel& fn = fm.functions[0];
  ASSERT_EQ(fn.calls.size(), 2u);
  EXPECT_EQ(fn.calls[0].held.size(), 1u);
  EXPECT_TRUE(fn.calls[1].held.empty());
}

TEST(Model, OutOfLineDefinitionTakesClassFromQualifier) {
  const FileModel fm = ModelOf(
      "void Database::Checkpoint() { Flush(); }\n", "src/cubrick/database.cc");
  ASSERT_EQ(fm.functions.size(), 1u);
  EXPECT_EQ(fm.functions[0].cls, "Database");
  EXPECT_EQ(fm.functions[0].Qualified(), "Database::Checkpoint");
}

// ---------------------------------------------------------------------------
// Program merge + call-graph resolution
// ---------------------------------------------------------------------------

TEST(Program, RequiresDeclarationCoversOutOfLineDefinition) {
  ProgramModel pm = ProgramOf({
      {"src/aosi/txn_manager.h",
       "class TxnManager {\n"
       "  void AdvanceLocked() REQUIRES(mutex_);\n"
       "  Mutex mutex_;\n"
       "};\n"},
      {"src/aosi/txn_manager.cc",
       "void TxnManager::AdvanceLocked() { Tick(); }\n"},
  });
  const FunctionModel* fn = FindFn(pm, "TxnManager", "AdvanceLocked");
  ASSERT_NE(fn, nullptr);
  ASSERT_EQ(fn->requires_entry.size(), 1u);
  EXPECT_EQ(fn->requires_entry[0], "TxnManager::mutex_");
  // The declared lock is part of the held-set at every call in the body.
  ASSERT_EQ(fn->calls.size(), 1u);
  ASSERT_EQ(fn->calls[0].held.size(), 1u);
  EXPECT_EQ(fn->calls[0].held[0], "TxnManager::mutex_");
}

TEST(Program, MemberCallResolvesThroughDeclaredReceiverType) {
  // Two unrelated classes both define Run(); only the receiver's declared
  // type may decide which one a call reaches.
  ProgramModel pm = ProgramOf({
      {"src/engine/a.cc",
       "class AlphaRunner { public: void Run(); };\n"
       "void AlphaRunner::Run() { AlphaWork(); }\n"},
      {"src/engine/b.cc",
       "class BetaRunner { public: void Run(); };\n"
       "void BetaRunner::Run() { BetaWork(); }\n"},
      {"src/engine/c.cc",
       "class Driver { public: void Drive(); BetaRunner* runner_; };\n"
       "void Driver::Drive() { runner_->Run(); untyped->Run(); }\n"},
  });
  const FunctionModel* drive = FindFn(pm, "Driver", "Drive");
  ASSERT_NE(drive, nullptr);
  ASSERT_EQ(drive->calls.size(), 2u);

  const auto typed = pm.ResolveCall(*drive, drive->calls[0]);
  ASSERT_EQ(typed.size(), 1u);
  EXPECT_EQ(typed[0]->Qualified(), "BetaRunner::Run");

  // An untyped receiver with an ambiguous method name resolves to nothing:
  // guessing would alias unrelated classes into the lock graph.
  EXPECT_TRUE(pm.ResolveCall(*drive, drive->calls[1]).empty());
}

TEST(Program, KnownTypeWithoutTheMethodYieldsNoEdge) {
  ProgramModel pm = ProgramOf({
      {"src/engine/a.cc",
       "class OnlyHere { public: void Push(); };\n"
       "void OnlyHere::Push() { Deep(); }\n"},
      {"src/engine/c.cc",
       "class Driver { public: void Drive(); std::vector<int>* items_; "
       "Widget* widget_; };\n"
       "void Driver::Drive() { widget_->Push(); }\n"},
  });
  const FunctionModel* drive = FindFn(pm, "Driver", "Drive");
  ASSERT_NE(drive, nullptr);
  // Push is program-unique, but widget_ has a known type (Widget) that does
  // not define it — the call must NOT fall back to the bare name.
  ASSERT_EQ(drive->calls.size(), 1u);
  EXPECT_TRUE(pm.ResolveCall(*drive, drive->calls[0]).empty());
}

// ---------------------------------------------------------------------------
// Pass 1: lock-order cycles (the seeded two-TU inversion fixture)
// ---------------------------------------------------------------------------

TEST(Program, LockCycleDetectedWithTwoFileWitness) {
  ProgramModel pm(LoadProgramFixture(
      "bad_lock_cycle", {"alpha_service.cc", "beta_service.cc"}));
  const std::vector<Finding> cycles = OfRule(CheckLockCycles(pm), "lock-cycle");
  ASSERT_EQ(cycles.size(), 1u);
  const Finding& f = cycles[0];
  EXPECT_NE(f.message.find("potential deadlock"), std::string::npos);
  EXPECT_NE(f.message.find("alpha_mu_"), std::string::npos);
  EXPECT_NE(f.message.find("beta_mu_"), std::string::npos);

  // Acceptance criterion: the witness path spans both translation units.
  std::set<std::string> witness_files;
  for (const Finding::Site& s : f.related) witness_files.insert(s.file);
  EXPECT_GE(witness_files.size(), 2u);
  bool saw_alpha = false;
  bool saw_beta = false;
  for (const std::string& file : witness_files) {
    if (file.find("alpha_service.cc") != std::string::npos) saw_alpha = true;
    if (file.find("beta_service.cc") != std::string::npos) saw_beta = true;
  }
  EXPECT_TRUE(saw_alpha) << "witness must include the alpha TU";
  EXPECT_TRUE(saw_beta) << "witness must include the beta TU";
}

TEST(Program, ConsistentLockOrderHasNoCycle) {
  ProgramModel pm(LoadProgramFixture(
      "good_lock_cycle", {"alpha_service.cc", "beta_service.cc"}));
  EXPECT_TRUE(OfRule(CheckLockCycles(pm), "lock-cycle").empty());
}

// ---------------------------------------------------------------------------
// Pass 2: hold-across-blocking
// ---------------------------------------------------------------------------

TEST(Program, HoldAcrossBlockingDirectAndTransitive) {
  ProgramModel pm = ProgramOf({
      {"src/engine/pool.cc",
       "class WorkPool { public: void Flush(); TaskGroup group_; Mutex mu_; };\n"
       "void WorkPool::Flush() {\n"
       "  MutexLock lock(mu_);\n"
       "  group_.Wait();\n"
       "}\n"},
      {"src/engine/flow.cc",
       "class Flow { public: void Submit(); WorkPool* pool_; Mutex fmu_; };\n"
       "void Flow::Submit() {\n"
       "  MutexLock lock(fmu_);\n"
       "  pool_->Flush();\n"
       "}\n"},
  });
  const std::vector<Finding> hits =
      OfRule(CheckHoldAcrossBlocking(pm), "hold-across-blocking");
  ASSERT_EQ(hits.size(), 2u);
  // The transitive finding (Submit -> Flush -> Wait) carries the call chain
  // as its witness.
  bool saw_transitive = false;
  for (const Finding& f : hits) {
    if (f.message.find("Flow::Submit") == std::string::npos) continue;
    saw_transitive = true;
    ASSERT_FALSE(f.related.empty());
    EXPECT_NE(f.related.back().note.find("blocks in Wait"), std::string::npos);
  }
  EXPECT_TRUE(saw_transitive);
}

TEST(Program, CondVarWaitUnderItsOwnLockIsExempt) {
  ProgramModel pm = ProgramOf({
      {"src/engine/pool.cc",
       "class WorkPool { public: void Await(); Mutex mu_; CondVar cv_; bool "
       "ready_; };\n"
       "void WorkPool::Await() {\n"
       "  MutexLock lock(mu_);\n"
       "  while (!ready_) cv_.Wait(lock);\n"
       "}\n"},
  });
  EXPECT_TRUE(
      OfRule(CheckHoldAcrossBlocking(pm), "hold-across-blocking").empty());
}

TEST(Program, CondVarWaitUnderTwoLocksIsFlagged) {
  ProgramModel pm = ProgramOf({
      {"src/engine/pool.cc",
       "class WorkPool { public: void Await(); Mutex a_; Mutex b_; CondVar "
       "cv_; };\n"
       "void WorkPool::Await() {\n"
       "  MutexLock la(a_);\n"
       "  MutexLock lb(b_);\n"
       "  cv_.Wait(lb);\n"
       "}\n"},
  });
  // The wait releases only b_ — a_ stays held for the whole sleep.
  EXPECT_EQ(
      OfRule(CheckHoldAcrossBlocking(pm), "hold-across-blocking").size(), 1u);
}

TEST(Program, WaiverAtTheBlockingCallSuppressesTheFinding) {
  ProgramModel pm = ProgramOf({
      {"src/engine/pool.cc",
       "class WorkPool { public: void Flush(); TaskGroup group_; Mutex mu_; };\n"
       "void WorkPool::Flush() {\n"
       "  MutexLock lock(mu_);\n"
       "  group_.Wait();  // aosi-lint: " "allow(hold-across-blocking)\n"
       "}\n"},
  });
  EXPECT_TRUE(
      OfRule(CheckHoldAcrossBlocking(pm), "hold-across-blocking").empty());
}

// ---------------------------------------------------------------------------
// Passes 3 and 4: protocol state machines
// ---------------------------------------------------------------------------

TEST(Program, VisCachePublishNeedsVersionedKeyBuild) {
  ProgramModel bad = ProgramOf({
      {"src/query/exec.cc",
       "class Exec { public: void Cache(); VisibilityCache* cache_; };\n"
       "void Exec::Cache() { cache_->Publish(id_, bits_); }\n"},
  });
  EXPECT_EQ(OfRule(CheckVisCacheProtocol(bad), "vis-cache-protocol").size(),
            1u);

  ProgramModel good = ProgramOf({
      {"src/query/exec.cc",
       "class Exec { public: void Cache(); VisibilityCache* cache_; };\n"
       "void Exec::Cache() {\n"
       "  const auto key = cache_->MakeKey(id_, horizon_);\n"
       "  cache_->Publish(key, bits_);\n"
       "}\n"},
  });
  EXPECT_TRUE(OfRule(CheckVisCacheProtocol(good), "vis-cache-protocol").empty());
}

TEST(Program, StorageHistoryMutationNeedsCacheClear) {
  ProgramModel bad = ProgramOf({
      {"src/storage/brick.cc",
       "class Brick { public: void Apply(); EpochHistory* history_; "
       "VisibilityCache* vis_; };\n"
       "void Brick::Apply() { history_->RecordAppend(e_, n_); }\n"},
  });
  EXPECT_EQ(OfRule(CheckVisCacheProtocol(bad), "vis-cache-protocol").size(),
            1u);

  ProgramModel good = ProgramOf({
      {"src/storage/brick.cc",
       "class Brick { public: void Apply(); EpochHistory* history_; "
       "VisibilityCache* vis_; };\n"
       "void Brick::Apply() {\n"
       "  history_->RecordAppend(e_, n_);\n"
       "  vis_->Clear();\n"
       "}\n"},
  });
  EXPECT_TRUE(OfRule(CheckVisCacheProtocol(good), "vis-cache-protocol").empty());
}

TEST(Program, CheckerHookCallsStayBehindTheGate) {
  ProgramModel bad = ProgramOf({
      {"src/engine/commit.cc",
       "class Commit { public: void Finish(); CheckerHook* hook_; };\n"
       "void Commit::Finish() { hook_->OnFinish(e_, true); }\n"},
  });
  EXPECT_EQ(OfRule(CheckCheckerHookGate(bad), "checker-hook-gate").size(), 1u);

  ProgramModel good = ProgramOf({
      {"src/engine/commit.cc",
       "class Commit { public: void Finish(); };\n"
       "void Commit::Finish() {\n"
       "  if (CheckerHook* hook = GetCheckerHook()) hook->OnFinish(e_, true);\n"
       "}\n"},
  });
  EXPECT_TRUE(OfRule(CheckCheckerHookGate(good), "checker-hook-gate").empty());

  // The checker's own implementation is exempt.
  ProgramModel self = ProgramOf({
      {"src/check/online_checker.cc",
       "class OnlineChecker { public: void Run(); CheckerHook* hook_; };\n"
       "void OnlineChecker::Run() { hook_->OnFinish(e_, true); }\n"},
  });
  EXPECT_TRUE(OfRule(CheckCheckerHookGate(self), "checker-hook-gate").empty());
}

TEST(FileRules, SimdIsolationKeepsIntrinsicsInTheSimdImpl) {
  auto simd_findings = [](const std::string& src, const std::string& rel) {
    SourceFile f;
    LoadFromString(src, rel, &f);
    std::set<std::string> atomics;
    std::set<const Token*> decls;
    CollectAtomicNames(f, &atomics, &decls);
    std::vector<Finding> findings;
    LintFile(f, atomics, decls, &findings);
    return OfRule(findings, "simd-isolation");
  };
  const std::string open_coded =
      "#include <immintrin.h>\n"
      "uint64_t F(const uint64_t* c) {\n"
      "  __m256i v = _mm256_set1_epi64x(1);\n"
      "  (void)v;\n"
      "  return __builtin_cpu_supports(\"avx2\");\n"
      "}\n";
  // Intrinsics open-coded in scan code are flagged (header, type, call and
  // CPU probe each produce a finding)...
  EXPECT_GE(simd_findings(open_coded, "src/query/executor.cc").size(), 3u);
  // ...but the SIMD layer itself may use them,
  EXPECT_TRUE(simd_findings(open_coded, "src/common/simd.cc").empty());
  EXPECT_TRUE(simd_findings(open_coded, "src/common/simd.h").empty());
  // and code outside src/ (tools, benches) is out of scope.
  EXPECT_TRUE(simd_findings(open_coded, "bench/micro.cc").empty());
  // Dispatched calls through the kernel table are the legal shape.
  const std::string dispatched =
      "uint64_t F(const uint64_t* c, uint64_t v) {\n"
      "  return simd::ActiveKernels().filter_eq(c, v);\n"
      "}\n";
  EXPECT_TRUE(simd_findings(dispatched, "src/query/executor.cc").empty());
}

// ---------------------------------------------------------------------------
// Reporters
// ---------------------------------------------------------------------------

TEST(Report, WaiverSitesBecomeTheDebtLedger) {
  const std::string raw =
      "int a;\n"
      "x();  // aosi-lint: " "allow(lock-cycle)\n"
      "y();  // aosi-lint: " "allow(hold-across-blocking, vis-cache-protocol)\n";
  const std::vector<WaiverSite> sites = CollectWaiverSites(raw, "src/x.cc");
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].line, 2);
  ASSERT_EQ(sites[1].rules.size(), 2u);
  EXPECT_EQ(sites[1].rules[0], "hold-across-blocking");

  const std::string json = WaiverReportJson(sites);
  EXPECT_NE(json.find("\"waiver_count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"src/x.cc\""), std::string::npos);
}

TEST(Report, PrintTextRendersWitnessSteps) {
  std::vector<Finding> findings;
  Finding f;
  f.file = "src/a.cc";
  f.line = 7;
  f.rule = "lock-cycle";
  f.message = "potential deadlock";
  f.related = {{"src/b.cc", 9, "B::Poke acquires beta_mu_"}};
  findings.push_back(f);
  std::ostringstream os;
  PrintText(findings, os);
  EXPECT_NE(os.str().find("src/a.cc:7: [lock-cycle] potential deadlock"),
            std::string::npos);
  EXPECT_NE(os.str().find("    src/b.cc:9: B::Poke acquires beta_mu_"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// SARIF: a minimal JSON parser, structural validation, golden snapshot
// ---------------------------------------------------------------------------

// Just enough JSON to validate the SARIF document shape: objects, arrays,
// strings, numbers, true/false/null. Throws std::runtime_error on malformed
// input (a test failure).
struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  const JsonValue& at(const std::string& key) const {
    auto it = obj.find(key);
    if (it == obj.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return obj.count(key) > 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  JsonValue Parse() {
    JsonValue v = ParseValue();
    SkipWs();
    if (pos_ != s_.size()) throw std::runtime_error("trailing garbage");
    return v;
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  char Peek() {
    SkipWs();
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[pos_];
  }
  void Expect(char c) {
    if (Peek() != c)
      throw std::runtime_error(std::string("expected '") + c + "'");
    ++pos_;
  }
  JsonValue ParseValue() {
    const char c = Peek();
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }
  JsonValue ParseObject() {
    JsonValue v;
    v.kind = JsonValue::kObject;
    Expect('{');
    if (Peek() == '}') { ++pos_; return v; }
    while (true) {
      JsonValue key = ParseString();
      Expect(':');
      v.obj[key.str] = ParseValue();
      if (Peek() == ',') { ++pos_; continue; }
      Expect('}');
      return v;
    }
  }
  JsonValue ParseArray() {
    JsonValue v;
    v.kind = JsonValue::kArray;
    Expect('[');
    if (Peek() == ']') { ++pos_; return v; }
    while (true) {
      v.arr.push_back(ParseValue());
      if (Peek() == ',') { ++pos_; continue; }
      Expect(']');
      return v;
    }
  }
  JsonValue ParseString() {
    JsonValue v;
    v.kind = JsonValue::kString;
    Expect('"');
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) throw std::runtime_error("bad escape");
        switch (s_[pos_]) {
          case 'n': v.str += '\n'; break;
          case 't': v.str += '\t'; break;
          case 'r': v.str += '\r'; break;
          case 'u': pos_ += 4; v.str += '?'; break;
          default: v.str += s_[pos_];
        }
      } else {
        v.str += s_[pos_];
      }
      ++pos_;
    }
    Expect('"');
    return v;
  }
  JsonValue ParseBool() {
    JsonValue v;
    v.kind = JsonValue::kBool;
    if (s_.compare(pos_, 4, "true") == 0) { v.boolean = true; pos_ += 4; }
    else if (s_.compare(pos_, 5, "false") == 0) { pos_ += 5; }
    else throw std::runtime_error("bad literal");
    return v;
  }
  JsonValue ParseNull() {
    if (s_.compare(pos_, 4, "null") != 0)
      throw std::runtime_error("bad literal");
    pos_ += 4;
    return JsonValue{};
  }
  JsonValue ParseNumber() {
    JsonValue v;
    v.kind = JsonValue::kNumber;
    size_t end = pos_;
    while (end < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[end])) ||
            s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
            s_[end] == 'e' || s_[end] == 'E'))
      ++end;
    if (end == pos_) throw std::runtime_error("bad number");
    v.number = std::stod(s_.substr(pos_, end - pos_));
    pos_ = end;
    return v;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// Asserts the properties the SARIF 2.1.0 schema requires of our output:
// version, one run with tool.driver.{name, rules[].id}, and results whose
// ruleId refers to a declared rule, with level/message/locations of the
// required shapes.
void ValidateSarif(const std::string& sarif) {
  JsonValue doc = JsonParser(sarif).Parse();
  ASSERT_EQ(doc.kind, JsonValue::kObject);
  EXPECT_EQ(doc.at("version").str, "2.1.0");
  EXPECT_NE(doc.at("$schema").str.find("sarif-schema-2.1.0.json"),
            std::string::npos);

  const JsonValue& runs = doc.at("runs");
  ASSERT_EQ(runs.kind, JsonValue::kArray);
  ASSERT_EQ(runs.arr.size(), 1u);
  const JsonValue& run = runs.arr[0];

  const JsonValue& driver = run.at("tool").at("driver");
  EXPECT_EQ(driver.at("name").str, "aosi_lint");
  std::set<std::string> rule_ids;
  for (const JsonValue& rule : driver.at("rules").arr) {
    EXPECT_FALSE(rule.at("id").str.empty());
    EXPECT_FALSE(rule.at("shortDescription").at("text").str.empty());
    rule_ids.insert(rule.at("id").str);
  }
  EXPECT_EQ(rule_ids.size(), Rules().size());

  for (const JsonValue& result : run.at("results").arr) {
    EXPECT_EQ(rule_ids.count(result.at("ruleId").str), 1u)
        << "result ruleId must be declared in tool.driver.rules";
    EXPECT_EQ(result.at("level").str, "warning");
    EXPECT_FALSE(result.at("message").at("text").str.empty());
    const JsonValue& locations = result.at("locations");
    ASSERT_EQ(locations.kind, JsonValue::kArray);
    ASSERT_GE(locations.arr.size(), 1u);
    for (const JsonValue& loc : locations.arr) {
      const JsonValue& phys = loc.at("physicalLocation");
      EXPECT_FALSE(phys.at("artifactLocation").at("uri").str.empty());
      EXPECT_GE(phys.at("region").at("startLine").number, 1.0);
    }
    if (result.has("relatedLocations")) {
      for (const JsonValue& loc : result.at("relatedLocations").arr) {
        const JsonValue& phys = loc.at("physicalLocation");
        EXPECT_FALSE(phys.at("artifactLocation").at("uri").str.empty());
      }
    }
  }
}

// Fixed findings shared by the structural and snapshot tests (and by the
// snapshot generator documented below).
std::vector<Finding> SnapshotFindings() {
  Finding cycle;
  cycle.file = "src/engine/alpha_service.cc";
  cycle.line = 27;
  cycle.rule = "lock-cycle";
  cycle.message =
      "potential deadlock: lock-order cycle AlphaService::alpha_mu_ -> "
      "BetaService::beta_mu_ -> AlphaService::alpha_mu_";
  cycle.related = {
      {"src/engine/alpha_service.cc", 25,
       "AlphaService::Tick holds AlphaService::alpha_mu_ and calls "
       "BetaService::Poke"},
      {"src/engine/beta_service.cc", 26,
       "BetaService::Poke acquires BetaService::beta_mu_"},
  };
  Finding hold;
  hold.file = "src/cubrick/database.cc";
  hold.line = 337;
  hold.rule = "hold-across-blocking";
  hold.message =
      "Database::Checkpoint holds Database::mutex_ across a call into "
      "FlushManager::FlushRound, which blocks; release the lock first";
  hold.related = {
      {"src/common/shard_queue.h", 30, "ShardQueue::Push blocks in Wait()"},
  };
  return {cycle, hold};
}

TEST(Sarif, StructurallyValidAgainstThe210Schema) {
  ValidateSarif(ToSarif(SnapshotFindings()));
  // An empty run must also be valid (the clean-tree CI artifact).
  ValidateSarif(ToSarif({}));
}

TEST(Sarif, RealLockCycleFindingsProduceValidSarif) {
  ProgramModel pm(LoadProgramFixture(
      "bad_lock_cycle", {"alpha_service.cc", "beta_service.cc"}));
  const std::vector<Finding> findings = RunProgramPasses(pm);
  ASSERT_FALSE(findings.empty());
  ValidateSarif(ToSarif(findings));
}

// Golden snapshot: catches accidental format drift in the SARIF writer
// (CI uploads these artifacts; consumers parse them). To regenerate after
// an intentional format change, write ToSarif(SnapshotFindings()) to
// tests/lint_fixtures/sarif_snapshot.sarif (the test prints the new
// content on mismatch).
TEST(Sarif, SnapshotMatchesGolden) {
  const std::string path =
      std::string(CUBRICK_LINT_FIXTURE_DIR) + "/sarif_snapshot.sarif";
  const std::string golden = ReadFileOrEmpty(path);
  ASSERT_FALSE(golden.empty()) << "missing golden snapshot " << path;
  const std::string actual = ToSarif(SnapshotFindings());
  EXPECT_EQ(golden, actual)
      << "SARIF output drifted from the golden snapshot. If intentional, "
         "update tests/lint_fixtures/sarif_snapshot.sarif to:\n"
      << actual;
}

}  // namespace
}  // namespace aosilint
