#include "aosi_lint/rules.h"

#include <cctype>

namespace aosilint {

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"atomic-memory-order",
       "std::atomic loads/stores/RMWs must pass an explicit std::memory_order; "
       "operator forms (++, +=, =) on atomics are forbidden; relaxed RMWs in "
       "src/ need a '// relaxed: <why>' justification comment, except in "
       "src/obs/ where relaxed instrument writes are the documented policy "
       "(docs/OBSERVABILITY.md)",
       false},
      {"epoch-compare",
       "raw comparisons of epoch-like values (identifiers containing epoch/lce/"
       "lse/horizon) are only allowed in src/aosi/epoch*; use the named helpers "
       "(IsVisibleAt, HappensBefore, ...) from src/aosi/epoch.h. Also covers "
       "std::min/std::max applied to epoch operands: use MinEpoch/MaxEpoch, "
       "which state the epoch-order intent",
       false},
      {"naked-mutex",
       "std::mutex/std::shared_mutex/std::condition_variable/std::*_lock are "
       "forbidden outside src/common/mutex.h; use the annotated wrappers",
       false},
      {"mutex-across-rpc",
       "cluster code must not hold a MutexLock across a Node RPC/broadcast "
       "call (Handle*, DeliverOrQueue) within one function body (the "
       "whole-program hold-across-blocking pass covers deeper call chains)",
       false},
      {"checker-hook",
       "the process-global checker-hook slot (internal::CheckerHookSlot) may "
       "only be touched inside src/aosi/checker_hook.h; install/read hooks via "
       "SetCheckerHook()/GetCheckerHook(), which carry the release/acquire "
       "orders the hook protocol requires (raw slot access would let an "
       "unordered read observe a half-constructed checker)",
       false},
      {"simd-isolation",
       "raw SIMD intrinsics (_mm*-style identifiers, __m* vector types, "
       "intrinsic header includes, __builtin_cpu_supports) are forbidden in "
       "src/ outside src/common/simd.*; kernels go through the "
       "simd::ActiveKernels() dispatch table so every call site keeps the "
       "scalar fallback and the backends stay differentially testable",
       false},
      {"lock-cycle",
       "whole-program lock-order graph: an edge A->B is recorded whenever B "
       "is acquired (directly or through any call depth) while A is held; "
       "any cycle is a potential deadlock and is reported with the full "
       "witness path across translation units",
       true},
      {"hold-across-blocking",
       "no lock may be held while calling -- through any call depth -- into "
       "cluster RPC (Handle*, DeliverOrQueue), TaskGroup::Wait, or a "
       "condition-variable wait. A CondVar wait under exactly the one lock "
       "it releases is the legitimate pattern and exempt",
       true},
      {"checker-hook-gate",
       "checker-hook methods (OnBegin, OnFinish, OnScanObservation, ...) may "
       "only be invoked behind a dominating GetCheckerHook() enabled-load in "
       "the same function, keeping the hooks-off cost to one relaxed load",
       true},
  };
  return kRules;
}

// ---------------------------------------------------------------------------
// Rule: atomic-memory-order
// ---------------------------------------------------------------------------

namespace {

const std::set<std::string>& AtomicMemberOps() {
  static const std::set<std::string> kOps = {
      "load",          "store",          "exchange",
      "fetch_add",     "fetch_sub",      "fetch_and",
      "fetch_or",      "fetch_xor",      "compare_exchange_weak",
      "compare_exchange_strong"};
  return kOps;
}

// Read-modify-write subset: relaxed ordering on these loses the usual
// synchronizes-with edge, so src/ callers must justify it in a comment.
const std::set<std::string>& AtomicRmwOps() {
  static const std::set<std::string> kOps = {
      "exchange",  "fetch_add", "fetch_sub",
      "fetch_and", "fetch_or",  "fetch_xor"};
  return kOps;
}

}  // namespace

void CollectAtomicNames(const SourceFile& f, std::set<std::string>* names,
                        std::set<const Token*>* decl_sites) {
  const auto& toks = f.toks;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].text != "atomic" || toks[i + 1].text != "<") continue;
    int depth = 0;
    size_t j = i + 1;
    for (; j < toks.size(); ++j) {
      if (toks[j].text == "<") ++depth;
      else if (toks[j].text == ">") { if (--depth == 0) break; }
      else if (toks[j].text == ">>") { depth -= 2; if (depth <= 0) break; }
      else if (toks[j].text == ";") break;
    }
    if (j + 1 >= toks.size() || depth > 0) continue;
    const Token& name = toks[j + 1];
    if (name.kind != TokKind::kIdent) continue;
    if (j + 2 < toks.size()) {
      const std::string& after = toks[j + 2].text;
      if (after == ";" || after == "{" || after == "=" || after == "," ||
          after == ")" || after == "(") {
        names->insert(name.text);
        decl_sites->insert(&name);
      }
    }
  }
}

namespace {

void CheckAtomicMemoryOrder(const SourceFile& f,
                            const std::set<std::string>& atomic_names,
                            const std::set<const Token*>& decl_sites,
                            std::vector<Finding>* out) {
  const auto& toks = f.toks;
  for (size_t i = 1; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    // Member-call form: x.load(...), p->fetch_add(...)
    if (t.kind == TokKind::kIdent && AtomicMemberOps().count(t.text) &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
        toks[i + 1].text == "(") {
      int depth = 0;
      bool has_order = false;
      bool is_relaxed = false;
      for (size_t j = i + 1; j < toks.size(); ++j) {
        if (toks[j].text == "(") ++depth;
        else if (toks[j].text == ")") { if (--depth == 0) break; }
        else if (toks[j].kind == TokKind::kIdent &&
                 toks[j].text.rfind("memory_order", 0) == 0) {
          has_order = true;
          if (toks[j].text == "memory_order_relaxed") is_relaxed = true;
        }
      }
      if (!has_order) {
        out->push_back({f.display_path, t.line, "atomic-memory-order",
                        "atomic ." + t.text +
                            "() without an explicit std::memory_order",
                        {}});
      } else if (is_relaxed && AtomicRmwOps().count(t.text) && f.cls.in_src &&
                 !f.cls.in_obs && !f.relaxed_lines.count(t.line)) {
        // Carve-out: src/obs instruments are relaxed by documented policy
        // (monotonic tallies read via acquire snapshots); everyone else
        // explains why the missing synchronizes-with edge is safe.
        out->push_back(
            {f.display_path, t.line, "atomic-memory-order",
             "relaxed ." + t.text +
                 "() needs a '// relaxed: <why>' justification comment "
                 "(src/obs instruments are exempt; docs/OBSERVABILITY.md)",
             {}});
      }
      continue;
    }
    // Operator form on a known atomic variable: ++x, x++, x += 1, x = v.
    if (t.kind == TokKind::kIdent && atomic_names.count(t.text) &&
        !decl_sites.count(&t)) {
      const std::string& next = toks[i + 1].text;
      const std::string& prev = toks[i - 1].text;
      static const std::set<std::string> kCompound = {"++", "--", "+=", "-=",
                                                      "&=", "|=", "^="};
      const bool op_after = kCompound.count(next) || next == "=";
      const bool op_before = prev == "++" || prev == "--";
      // `name =` only counts when it is an assignment, not `==`/`<=` (those
      // are separate tokens) and not a named-argument-like context.
      if (op_after || op_before) {
        out->push_back(
            {f.display_path, t.line, "atomic-memory-order",
             "operator form on std::atomic '" + t.text +
                 "' is an implicit seq_cst access; use .load/.store/.fetch_* "
                 "with an explicit std::memory_order",
             {}});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: epoch-compare
// ---------------------------------------------------------------------------

bool NameTouchesEpoch(const std::string& name) {
  static const std::set<std::string> kExcluded = {
      // Type names (template args, declarations) and lexical near-misses.
      "Epoch",      "EpochSet",   "EpochVector", "EpochClock",
      "EpochEntry", "EpochRun",   "EpochVectorStats",
      "false",      "else",
  };
  if (kExcluded.count(name)) return false;
  std::string lower;
  lower.reserve(name.size());
  for (char c : name)
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return lower.find("epoch") != std::string::npos ||
         lower.find("lce") != std::string::npos ||
         lower.find("lse") != std::string::npos ||
         lower.find("horizon") != std::string::npos;
}

// Walks back from toks[i] (exclusive) to the identifier naming the left
// operand: the member/function name directly before the operator, skipping
// one balanced ()/[] group.
const Token* LeftOperand(const std::vector<Token>& toks, size_t i) {
  if (i == 0) return nullptr;
  size_t k = i - 1;
  if (toks[k].text == ")" || toks[k].text == "]") {
    const std::string open = toks[k].text == ")" ? "(" : "[";
    const std::string close = toks[k].text;
    int depth = 0;
    while (k > 0) {
      if (toks[k].text == close) ++depth;
      else if (toks[k].text == open && --depth == 0) break;
      --k;
    }
    if (k == 0) return nullptr;
    --k;
  }
  return toks[k].kind == TokKind::kIdent ? &toks[k] : nullptr;
}

// Walks forward from toks[i] (exclusive), skipping unary operators, to the
// last identifier of the right operand's member chain
// (`a < txn->epoch` -> epoch).
const Token* RightOperand(const std::vector<Token>& toks, size_t i) {
  size_t j = i + 1;
  int skipped = 0;
  while (j < toks.size() && skipped < 4 &&
         (toks[j].text == "*" || toks[j].text == "&" || toks[j].text == "-" ||
          toks[j].text == "+" || toks[j].text == "!" || toks[j].text == "~" ||
          toks[j].text == "(")) {
    ++j;
    ++skipped;
  }
  if (j >= toks.size() || toks[j].kind != TokKind::kIdent) return nullptr;
  // Follow the member chain: std::foo, a.b->c
  const Token* last = &toks[j];
  while (j + 2 < toks.size() &&
         (toks[j + 1].text == "." || toks[j + 1].text == "->" ||
          toks[j + 1].text == "::") &&
         toks[j + 2].kind == TokKind::kIdent) {
    j += 2;
    last = &toks[j];
  }
  return last;
}

void CheckEpochCompare(const SourceFile& f, std::vector<Finding>* out) {
  static const std::set<std::string> kCompareOps = {"<",  ">",  "<=",
                                                    ">=", "==", "!="};
  const auto& toks = f.toks;
  const std::vector<bool> is_template = MarkTemplateAngles(toks);
  for (size_t i = 1; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct || !kCompareOps.count(toks[i].text))
      continue;
    if (is_template[i]) continue;
    const Token* lhs = LeftOperand(toks, i);
    const Token* rhs = RightOperand(toks, i);
    const Token* hit = nullptr;
    if (lhs && NameTouchesEpoch(lhs->text)) hit = lhs;
    else if (rhs && NameTouchesEpoch(rhs->text)) hit = rhs;
    if (hit == nullptr) continue;
    out->push_back(
        {f.display_path, toks[i].line, "epoch-compare",
         "raw epoch comparison '" + hit->text + " " + toks[i].text +
             " ...' outside src/aosi/epoch*; use the named helpers from "
             "src/aosi/epoch.h (IsVisibleAt, HappensBefore, AtOrBefore, ...)",
         {}});
  }

  // std::min / std::max over epoch operands order epochs with raw integer
  // comparison just as the operators above do (this is exactly the purge
  // run-merge bug): flag them and point at MinEpoch/MaxEpoch.
  for (size_t i = 2; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        (toks[i].text != "min" && toks[i].text != "max")) {
      continue;
    }
    if (toks[i - 1].text != "::" || toks[i - 2].text != "std") continue;
    // Skip an explicit template argument list (std::max<Epoch>(...)).
    size_t j = i + 1;
    if (j < toks.size() && toks[j].text == "<") {
      int angle = 0;
      for (; j < toks.size(); ++j) {
        if (toks[j].text == "<") ++angle;
        else if (toks[j].text == ">") { if (--angle == 0) { ++j; break; } }
        else if (toks[j].text == ">>") { angle -= 2; if (angle <= 0) { ++j; break; } }
        else if (toks[j].text == ";" || toks[j].text == "{") break;
      }
    }
    if (j >= toks.size() || toks[j].text != "(") continue;
    const Token* hit = nullptr;
    int depth = 0;
    for (size_t k = j; k < toks.size(); ++k) {
      if (toks[k].text == "(") ++depth;
      else if (toks[k].text == ")") { if (--depth == 0) break; }
      else if (toks[k].kind == TokKind::kIdent &&
               NameTouchesEpoch(toks[k].text)) {
        hit = &toks[k];
        break;
      }
    }
    if (hit == nullptr) continue;
    out->push_back(
        {f.display_path, toks[i].line, "epoch-compare",
         "std::" + toks[i].text + " over epoch operand '" + hit->text +
             "' outside src/aosi/epoch*; ordering epochs needs "
             "MinEpoch/MaxEpoch from src/aosi/epoch.h",
         {}});
  }
}

// ---------------------------------------------------------------------------
// Rule: naked-mutex
// ---------------------------------------------------------------------------

void CheckNakedMutex(const SourceFile& f, std::vector<Finding>* out) {
  static const std::set<std::string> kForbidden = {
      "mutex",         "shared_mutex",       "recursive_mutex",
      "timed_mutex",   "recursive_timed_mutex",
      "condition_variable", "condition_variable_any",
      "lock_guard",    "unique_lock",        "shared_lock",
      "scoped_lock"};
  const auto& toks = f.toks;
  for (size_t i = 2; i < toks.size(); ++i) {
    if (toks[i].kind == TokKind::kIdent && kForbidden.count(toks[i].text) &&
        toks[i - 1].text == "::" && toks[i - 2].text == "std") {
      out->push_back({f.display_path, toks[i].line, "naked-mutex",
                      "std::" + toks[i].text +
                          " outside src/common/mutex.h; use the annotated "
                          "wrappers (Mutex, MutexLock, CondVar, ...)",
                      {}});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: mutex-across-rpc
// ---------------------------------------------------------------------------

void CheckMutexAcrossRpc(const SourceFile& f, std::vector<Finding>* out) {
  static const std::set<std::string> kLockTypes = {
      "MutexLock", "WriterMutexLock", "ReaderMutexLock", "lock_guard",
      "unique_lock", "scoped_lock"};
  const auto& toks = f.toks;
  int depth = 0;
  std::vector<int> lock_depths;  // brace depth at which each live lock lives
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.text == "{") {
      ++depth;
      continue;
    }
    if (t.text == "}") {
      --depth;
      while (!lock_depths.empty() && lock_depths.back() > depth)
        lock_depths.pop_back();
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;
    // RAII lock declaration: `MutexLock lock(mu);` / `MutexLock lock{mu};`
    if (kLockTypes.count(t.text) && i + 2 < toks.size() &&
        toks[i + 1].kind == TokKind::kIdent &&
        (toks[i + 2].text == "(" || toks[i + 2].text == "{")) {
      lock_depths.push_back(depth);
      continue;
    }
    if (lock_depths.empty()) continue;
    // RPC/broadcast call while a lock is live in an enclosing scope.
    const bool is_handle = t.text.size() > 6 && t.text.rfind("Handle", 0) == 0 &&
                           std::isupper(static_cast<unsigned char>(t.text[6]));
    const bool is_rpc = is_handle || t.text == "DeliverOrQueue";
    if (is_rpc && i + 1 < toks.size() && toks[i + 1].text == "(") {
      out->push_back({f.display_path, t.line, "mutex-across-rpc",
                      "RPC/broadcast call '" + t.text +
                          "' while holding a lock; release the lock before "
                          "calling into cluster::Node",
                      {}});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: checker-hook
// ---------------------------------------------------------------------------

void CheckCheckerHookSlot(const SourceFile& f, std::vector<Finding>* out) {
  const auto& toks = f.toks;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kIdent && t.text == "CheckerHookSlot") {
      out->push_back(
          {f.display_path, t.line, "checker-hook",
           "direct access to the checker-hook slot outside "
           "src/aosi/checker_hook.h; use GetCheckerHook()/SetCheckerHook(), "
           "which carry the acquire/release memory orders",
           {}});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: simd-isolation
// ---------------------------------------------------------------------------

void CheckSimdIsolation(const SourceFile& f, std::vector<Finding>* out) {
  for (const Token& t : f.toks) {
    if (t.kind != TokKind::kIdent) continue;
    const std::string& s = t.text;
    // x86 intrinsics (_mm_*, _mm256_*) and vector types (__m128/__m256/...),
    // the intrinsic headers, and the CPUID probe. NEON intrinsics are only
    // reachable through <arm_neon.h>, so the include token covers them.
    const bool x86_intrinsic =
        s.rfind("_mm", 0) == 0 ||
        (s.rfind("__m", 0) == 0 && s.size() > 3 && s[3] >= '0' && s[3] <= '9');
    const bool simd_header = s == "immintrin" || s == "arm_neon";
    const bool cpu_probe = s == "__builtin_cpu_supports";
    if (x86_intrinsic || simd_header || cpu_probe) {
      out->push_back({f.display_path, t.line, "simd-isolation",
                      "raw SIMD intrinsic/header/CPU probe '" + s +
                          "' outside src/common/simd.*; call through the "
                          "simd::ActiveKernels() dispatch table instead",
                      {}});
    }
  }
}

}  // namespace

void LintFile(const SourceFile& f, const std::set<std::string>& atomic_names,
              const std::set<const Token*>& decl_sites,
              std::vector<Finding>* findings) {
  std::vector<Finding> raw;
  CheckAtomicMemoryOrder(f, atomic_names, decl_sites, &raw);
  if (f.cls.in_src && !f.cls.epoch_zone) CheckEpochCompare(f, &raw);
  if (f.cls.in_src && !f.cls.mutex_header) CheckNakedMutex(f, &raw);
  if (f.cls.in_cluster) CheckMutexAcrossRpc(f, &raw);
  if (!f.cls.checker_hook_header) CheckCheckerHookSlot(f, &raw);
  if (f.cls.in_src && !f.cls.simd_impl) CheckSimdIsolation(f, &raw);
  for (auto& finding : raw) {
    if (f.Waived(finding.line, finding.rule)) continue;
    findings->push_back(std::move(finding));
  }
}

}  // namespace aosilint
