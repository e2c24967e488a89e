#include "aosi_lint/program.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <set>

namespace aosilint {

namespace {

constexpr int kMaxFixpointRounds = 12;
constexpr size_t kMaxWitnessDepth = 12;

bool IsRpcName(const std::string& name) {
  if (name == "DeliverOrQueue") return true;
  return name.size() > 6 && name.rfind("Handle", 0) == 0 &&
         std::isupper(static_cast<unsigned char>(name[6]));
}

bool IsWaitName(const std::string& name) {
  return name == "Wait" || name == "WaitFor" || name == "WaitUntil";
}

enum class BlockKind { kNone, kCondWait, kRpc, kGroupWait };

// How a call site blocks, judged from the site alone. A CondVar-style wait
// (`cv.Wait(lock)`, with arguments) releases the innermost lock while
// waiting; a TaskGroup-style `group.Wait()` (no arguments) releases
// nothing.
BlockKind DirectBlocking(const CallSite& c) {
  if (IsRpcName(c.name)) return BlockKind::kRpc;
  if (IsWaitName(c.name) && c.member_call) {
    return c.has_args ? BlockKind::kCondWait : BlockKind::kGroupWait;
  }
  return BlockKind::kNone;
}

std::string JoinHeld(const std::vector<std::string>& held) {
  std::string out;
  for (const auto& h : held) {
    if (!out.empty()) out += ", ";
    out += h;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// ProgramModel: merge + identity resolution
// ---------------------------------------------------------------------------

ProgramModel::ProgramModel(std::vector<FileModel> files)
    : files_(std::move(files)) {
  ResolveMutexIdentities();
  ApplyDeclaredRequires();
  BuildIndexes();
}

void ProgramModel::ResolveMutexIdentities() {
  // Union of class-scoped mutex declarations across all files: the member
  // is usually declared in a header while the acquires live in the .cc.
  for (const FileModel& fm : files_) {
    for (const auto& [cls, members] : fm.mutex_decls) {
      if (cls.empty()) continue;
      for (const auto& m : members) mutex_classes_[m].insert(cls);
    }
  }
  for (FileModel& fm : files_) {
    // File-scope declarations (globals, locals of free functions).
    const std::set<std::string>* file_scope = nullptr;
    auto fs = fm.mutex_decls.find("");
    if (fs != fm.mutex_decls.end()) file_scope = &fs->second;

    for (FunctionModel& fn : fm.functions) {
      auto resolve = [&](const std::string& name) -> std::string {
        auto it = mutex_classes_.find(name);
        if (it != mutex_classes_.end()) {
          if (!fn.cls.empty() && it->second.count(fn.cls))
            return fn.cls + "::" + name;
          if (it->second.size() == 1) return *it->second.begin() + "::" + name;
        }
        if (file_scope != nullptr && file_scope->count(name))
          return fm.cls.rel + "::" + name;
        // Ambiguous or undeclared (e.g. a mutex reference parameter): the
        // bare name is kept and acts as a shared bucket; qualify the common
        // case by the enclosing class to avoid cross-class aliasing.
        if (it != mutex_classes_.end() && it->second.size() > 1 &&
            !fn.cls.empty())
          return fn.cls + "::" + name;
        return name;
      };
      for (auto& r : fn.requires_entry) r = resolve(r);
      for (auto& a : fn.acquires) {
        a.mutex = resolve(a.mutex);
        for (auto& h : a.held_before) h = resolve(h);
      }
      for (auto& c : fn.calls) {
        for (auto& h : c.held) h = resolve(h);
      }
    }
  }
}

void ProgramModel::ApplyDeclaredRequires() {
  // REQUIRES on the in-class declaration covers the out-of-line definition
  // (Clang TSA semantics); merge them into the definition's entry set and
  // into every held-snapshot.
  std::map<std::string, std::vector<std::string>> declared;  // Cls::Name
  for (const FileModel& fm : files_) {
    for (const auto& [cls, methods] : fm.requires_decls) {
      for (const auto& [method, args] : methods) {
        auto& dst = declared[cls + "::" + method];
        dst.insert(dst.end(), args.begin(), args.end());
      }
    }
  }
  for (FileModel& fm : files_) {
    for (FunctionModel& fn : fm.functions) {
      if (fn.cls.empty()) continue;
      auto it = declared.find(fn.Qualified());
      if (it == declared.end()) continue;
      for (const std::string& raw : it->second) {
        // Declaration args are unresolved member names; the declaring class
        // is the function's own class by construction.
        std::string resolved = raw;
        auto mc = mutex_classes_.find(raw);
        if (mc != mutex_classes_.end() &&
            (mc->second.count(fn.cls) || mc->second.size() == 1)) {
          resolved = (mc->second.count(fn.cls) ? fn.cls
                                               : *mc->second.begin()) +
                     "::" + raw;
        }
        if (std::find(fn.requires_entry.begin(), fn.requires_entry.end(),
                      resolved) != fn.requires_entry.end())
          continue;
        fn.requires_entry.push_back(resolved);
        for (auto& a : fn.acquires) a.held_before.push_back(resolved);
        for (auto& c : fn.calls) c.held.push_back(resolved);
      }
    }
  }
}

void ProgramModel::BuildIndexes() {
  for (const FileModel& fm : files_) {
    by_path_[fm.display_path] = &fm;
    for (const FunctionModel& fn : fm.functions) {
      by_bare_[fn.name].push_back(&fn);
      by_qual_[fn.Qualified()].push_back(&fn);
    }
    for (const auto& [cls, members] : fm.member_types) {
      for (const auto& [member, type] : members) {
        member_types_[cls][member] = type;
        member_type_any_[member].insert(type);
      }
    }
  }
}

const std::vector<const FunctionModel*>& ProgramModel::ByBareName(
    const std::string& name) const {
  auto it = by_bare_.find(name);
  return it == by_bare_.end() ? empty_ : it->second;
}

std::vector<const FunctionModel*> ProgramModel::ResolveCall(
    const FunctionModel& caller, const CallSite& call) const {
  // Explicit `Cls::F(...)`.
  if (call.class_qualified && !call.receiver.empty() &&
      call.receiver != "std") {
    auto it = by_qual_.find(call.receiver + "::" + call.name);
    if (it != by_qual_.end()) return it->second;
    return {};
  }
  // Unqualified `F(...)` or `this->F(...)` inside a class: prefer the
  // same-class method when one exists.
  const bool this_call = call.member_call && call.receiver == "this";
  if ((!call.member_call || this_call) && !caller.cls.empty()) {
    auto it = by_qual_.find(caller.cls + "::" + call.name);
    if (it != by_qual_.end()) return it->second;
  }
  if (this_call) return {};

  if (call.member_call) {
    // Type the receiver: local/param declaration, then a data member of the
    // caller's class, then a member name declared by exactly one class.
    std::string type;
    if (!call.receiver.empty()) {
      auto lt = caller.local_types.find(call.receiver);
      if (lt != caller.local_types.end()) {
        type = lt->second;
      } else if (!caller.cls.empty()) {
        auto ct = member_types_.find(caller.cls);
        if (ct != member_types_.end()) {
          auto mt = ct->second.find(call.receiver);
          if (mt != ct->second.end()) type = mt->second;
        }
      }
      if (type.empty()) {
        auto any = member_type_any_.find(call.receiver);
        if (any != member_type_any_.end() && any->second.size() == 1)
          type = *any->second.begin();
      }
    }
    if (!type.empty()) {
      auto it = by_qual_.find(type + "::" + call.name);
      if (it != by_qual_.end()) return it->second;
      // Known type without this method: unmodeled (std::, interface-only);
      // guessing here would alias unrelated classes into the lock graph.
      return {};
    }
    // Untyped receiver: trust only a program-unique method name.
    auto it = by_bare_.find(call.name);
    if (it != by_bare_.end() && it->second.size() == 1) return it->second;
    return {};
  }

  // Free-function call: the bare name, when unambiguous.
  auto it = by_bare_.find(call.name);
  if (it != by_bare_.end() && it->second.size() == 1) return it->second;
  return {};
}

bool ProgramModel::Waived(const std::string& file, int line,
                          const std::string& rule) const {
  auto it = by_path_.find(file);
  return it != by_path_.end() && it->second->Waived(line, rule);
}

// ---------------------------------------------------------------------------
// Pass 1: lock-order graph + cycle detection
// ---------------------------------------------------------------------------

namespace {

struct LockEdge {
  std::string from;
  std::string to;
  // Full witness: hold site / call chain / final acquire site.
  std::vector<Finding::Site> witness;
};

// For every function: the mutexes it may acquire through any call depth,
// with one representative witness chain ending at the acquire site.
using TransAcquires =
    std::map<const FunctionModel*, std::map<std::string, std::vector<Finding::Site>>>;

TransAcquires ComputeTransitiveAcquires(const ProgramModel& pm) {
  TransAcquires trans;
  for (const FileModel& fm : pm.files()) {
    for (const FunctionModel& fn : fm.functions) {
      for (const LockAcquire& a : fn.acquires) {
        auto& slot = trans[&fn];
        if (!slot.count(a.mutex)) {
          slot[a.mutex] = {{fn.file, a.line,
                            fn.Qualified() + " acquires " + a.mutex}};
        }
      }
    }
  }
  for (int round = 0; round < kMaxFixpointRounds; ++round) {
    bool changed = false;
    for (const FileModel& fm : pm.files()) {
      for (const FunctionModel& fn : fm.functions) {
        for (const CallSite& c : fn.calls) {
          for (const FunctionModel* g : pm.ResolveCall(fn, c)) {
            if (g == &fn) continue;
            auto git = trans.find(g);
            if (git == trans.end()) continue;
            for (const auto& [mutex, path] : git->second) {
              auto& slot = trans[&fn];
              if (slot.count(mutex)) continue;
              if (path.size() + 1 > kMaxWitnessDepth) continue;
              std::vector<Finding::Site> chain = {
                  {fn.file, c.line,
                   fn.Qualified() + " calls " + g->Qualified()}};
              chain.insert(chain.end(), path.begin(), path.end());
              slot[mutex] = std::move(chain);
              changed = true;
            }
          }
        }
      }
    }
    if (!changed) break;
  }
  return trans;
}

std::vector<LockEdge> BuildLockOrderEdges(const ProgramModel& pm,
                                          const TransAcquires& trans) {
  std::vector<LockEdge> edges;
  std::set<std::pair<std::string, std::string>> seen;
  auto add = [&](const std::string& from, const std::string& to,
                 std::vector<Finding::Site> witness) {
    if (from == to) return;
    // An edge is waived (declared an intentional ordering) at its final
    // acquire site.
    const Finding::Site& acquire_site = witness.back();
    if (pm.Waived(acquire_site.file, acquire_site.line, "lock-cycle")) return;
    if (!seen.insert({from, to}).second) return;
    edges.push_back({from, to, std::move(witness)});
  };
  for (const FileModel& fm : pm.files()) {
    for (const FunctionModel& fn : fm.functions) {
      // Direct: B acquired while A held in the same body (including locks
      // required on entry).
      for (const LockAcquire& a : fn.acquires) {
        for (const std::string& h : a.held_before) {
          add(h, a.mutex,
              {{fn.file, a.line,
                fn.Qualified() + " acquires " + a.mutex + " while holding " +
                    h}});
        }
      }
      // Interprocedural: a callee (transitively) acquires B while the
      // caller holds A across the call.
      for (const CallSite& c : fn.calls) {
        if (c.held.empty()) continue;
        for (const FunctionModel* g : pm.ResolveCall(fn, c)) {
          if (g == &fn) continue;
          auto git = trans.find(g);
          if (git == trans.end()) continue;
          for (const auto& [mutex, path] : git->second) {
            for (const std::string& h : c.held) {
              if (h == mutex) continue;
              std::vector<Finding::Site> witness = {
                  {fn.file, c.line,
                   fn.Qualified() + " holds " + h + " and calls " +
                       g->Qualified()}};
              witness.insert(witness.end(), path.begin(), path.end());
              add(h, mutex, std::move(witness));
            }
          }
        }
      }
    }
  }
  return edges;
}

}  // namespace

std::vector<Finding> CheckLockCycles(const ProgramModel& pm) {
  const TransAcquires trans = ComputeTransitiveAcquires(pm);
  const std::vector<LockEdge> edges = BuildLockOrderEdges(pm, trans);

  // Adjacency over mutex identities.
  std::map<std::string, std::vector<const LockEdge*>> adj;
  for (const LockEdge& e : edges) adj[e.from].push_back(&e);

  std::vector<Finding> findings;
  std::set<std::set<std::string>> reported;  // canonical cycle node sets
  for (const LockEdge& e : edges) {
    // A cycle through edge (from -> to) exists iff `from` is reachable from
    // `to`; BFS recovers the shortest return path.
    std::map<std::string, const LockEdge*> parent_edge;
    std::deque<std::string> queue = {e.to};
    std::set<std::string> visited = {e.to};
    bool closed = false;
    while (!queue.empty() && !closed) {
      const std::string node = queue.front();
      queue.pop_front();
      for (const LockEdge* next : adj[node]) {
        if (visited.count(next->to)) continue;
        visited.insert(next->to);
        parent_edge[next->to] = next;
        if (next->to == e.from) {
          closed = true;
          break;
        }
        queue.push_back(next->to);
      }
    }
    if (!closed) continue;

    // Reconstruct the return path to -> ... -> from.
    std::vector<const LockEdge*> cycle = {&e};
    std::vector<const LockEdge*> back;
    for (std::string node = e.from; node != e.to;) {
      const LockEdge* pe = parent_edge[node];
      back.push_back(pe);
      node = pe->from;
    }
    cycle.insert(cycle.end(), back.rbegin(), back.rend());

    std::set<std::string> nodes;
    std::string order;
    for (const LockEdge* ce : cycle) {
      nodes.insert(ce->from);
      order += ce->from + " -> ";
    }
    order += e.from;
    if (!reported.insert(nodes).second) continue;

    Finding f;
    f.file = e.witness.back().file;
    f.line = e.witness.back().line;
    f.rule = "lock-cycle";
    f.message = "potential deadlock: lock-order cycle " + order +
                " (acquire both in one fixed order, or waive the edge at "
                "its acquire site with a written justification)";
    for (const LockEdge* ce : cycle) {
      for (const Finding::Site& s : ce->witness) f.related.push_back(s);
    }
    findings.push_back(std::move(f));
  }
  return findings;
}

// ---------------------------------------------------------------------------
// Pass 2: hold-across-blocking
// ---------------------------------------------------------------------------

namespace {

// For every function: one representative chain to a blocking site it may
// reach (empty map entry = cannot block).
std::map<const FunctionModel*, std::vector<Finding::Site>> ComputeMayBlock(
    const ProgramModel& pm) {
  std::map<const FunctionModel*, std::vector<Finding::Site>> may_block;
  for (const FileModel& fm : pm.files()) {
    for (const FunctionModel& fn : fm.functions) {
      for (const CallSite& c : fn.calls) {
        if (DirectBlocking(c) == BlockKind::kNone) continue;
        if (!may_block.count(&fn)) {
          may_block[&fn] = {{fn.file, c.line,
                             fn.Qualified() + " blocks in " + c.name + "()"}};
        }
      }
    }
  }
  for (int round = 0; round < kMaxFixpointRounds; ++round) {
    bool changed = false;
    for (const FileModel& fm : pm.files()) {
      for (const FunctionModel& fn : fm.functions) {
        if (may_block.count(&fn)) continue;
        for (const CallSite& c : fn.calls) {
          for (const FunctionModel* g : pm.ResolveCall(fn, c)) {
            if (g == &fn) continue;
            auto git = may_block.find(g);
            if (git == may_block.end()) continue;
            if (git->second.size() + 1 > kMaxWitnessDepth) continue;
            std::vector<Finding::Site> chain = {
                {fn.file, c.line, fn.Qualified() + " calls " + g->Qualified()}};
            chain.insert(chain.end(), git->second.begin(), git->second.end());
            may_block[&fn] = std::move(chain);
            changed = true;
            break;
          }
          if (may_block.count(&fn)) break;
        }
      }
    }
    if (!changed) break;
  }
  return may_block;
}

}  // namespace

std::vector<Finding> CheckHoldAcrossBlocking(const ProgramModel& pm) {
  const auto may_block = ComputeMayBlock(pm);
  std::vector<Finding> findings;
  std::set<std::pair<std::string, int>> seen;
  auto emit = [&](const FunctionModel& fn, const CallSite& c,
                  const std::string& what,
                  const std::vector<Finding::Site>& chain) {
    if (pm.Waived(fn.file, c.line, "hold-across-blocking")) return;
    if (!seen.insert({fn.file, c.line}).second) return;
    Finding f;
    f.file = fn.file;
    f.line = c.line;
    f.rule = "hold-across-blocking";
    f.message = fn.Qualified() + " holds " + JoinHeld(c.held) + " across " +
                what + "; release the lock first (a blocked holder stalls "
                "every contender and can deadlock against the waited-on "
                "work)";
    f.related = chain;
    findings.push_back(std::move(f));
  };

  for (const FileModel& fm : pm.files()) {
    for (const FunctionModel& fn : fm.functions) {
      for (const CallSite& c : fn.calls) {
        if (c.held.empty()) continue;
        switch (DirectBlocking(c)) {
          case BlockKind::kCondWait:
            // `cv.Wait(lock)` releases the innermost lock for the duration
            // of the wait — the canonical pattern. Outer locks stay held.
            if (c.held.size() >= 2) {
              emit(fn, c,
                   "a CondVar " + c.name + " that releases only the innermost "
                   "lock (" + c.held.back() + ")",
                   {});
            }
            break;
          case BlockKind::kRpc:
            emit(fn, c, "cluster RPC/broadcast '" + c.name + "'", {});
            break;
          case BlockKind::kGroupWait:
            emit(fn, c, "blocking " + c.name + "()", {});
            break;
          case BlockKind::kNone: {
            for (const FunctionModel* g : pm.ResolveCall(fn, c)) {
              auto git = may_block.find(g);
              if (git == may_block.end()) continue;
              emit(fn, c, "a call into " + g->Qualified() + ", which blocks",
                   git->second);
              break;
            }
            break;
          }
        }
      }
    }
  }
  return findings;
}

// ---------------------------------------------------------------------------
// Pass 3: vis-cache protocol state machine
// ---------------------------------------------------------------------------

std::vector<Finding> CheckVisCacheProtocol(const ProgramModel& pm) {
  std::vector<Finding> findings;
  for (const FileModel& fm : pm.files()) {
    const std::string& rel = fm.cls.rel;
    if (rel.rfind("src/", 0) != 0) continue;
    const bool cache_impl = rel.rfind("src/aosi/vis_cache", 0) == 0;
    for (const FunctionModel& fn : fm.functions) {
      // (a) Every Publish is dominated by a versioned VisKey build in the
      // same function: publishing a bitmap under a stale or hand-rolled key
      // would serve wrong visibility to every later hit.
      if (!cache_impl) {
        for (const CallSite& c : fn.calls) {
          if (c.name != "Publish" || !c.member_call) continue;
          const bool dominated =
              std::any_of(fn.viskey_tokens.begin(), fn.viskey_tokens.end(),
                          [&](size_t idx) { return idx < c.tok_index; });
          if (dominated) continue;
          if (fm.Waived(c.line, "vis-cache-protocol")) continue;
          findings.push_back(
              {fn.file, c.line, "vis-cache-protocol",
               fn.Qualified() + " publishes a visibility bitmap without a "
               "preceding VisibilityCache::MakeKey/VisKey build in the same "
               "function; the key must be derived from the same history "
               "version the bitmap was built against",
               {}});
        }
      }
      // (b) A history mutation must clear the brick's visibility cache
      // before returning; a stale cached bitmap would hide or resurrect
      // rows for every snapshot that hits it.
      if (rel.rfind("src/storage/", 0) == 0) {
        const CallSite* mutation = nullptr;
        bool has_clear = false;
        for (const CallSite& c : fn.calls) {
          if (c.member_call && (c.name == "RecordAppend" ||
                                c.name == "RecordDelete" ||
                                c.name == "InstallRebuilt")) {
            if (mutation == nullptr) mutation = &c;
          }
          if (c.member_call && c.name == "Clear") has_clear = true;
        }
        if (mutation != nullptr && !has_clear &&
            !fm.Waived(mutation->line, "vis-cache-protocol")) {
          findings.push_back(
              {fn.file, mutation->line, "vis-cache-protocol",
               fn.Qualified() + " mutates the epoch history (" +
                   mutation->name + ") without clearing the brick's "
                   "visibility cache before returning; cached bitmaps keyed "
                   "by the old history version would go stale",
               {}});
        }
      }
    }
  }
  return findings;
}

// ---------------------------------------------------------------------------
// Pass 4: checker-hook gate
// ---------------------------------------------------------------------------

std::vector<Finding> CheckCheckerHookGate(const ProgramModel& pm) {
  static const std::set<std::string> kHookMethods = {
      "OnBegin", "OnFinish", "OnScanObservation", "OnLseAdvance",
      "ShouldSample"};
  std::vector<Finding> findings;
  for (const FileModel& fm : pm.files()) {
    const std::string& rel = fm.cls.rel;
    if (rel.rfind("src/", 0) != 0) continue;
    // The checker implementation invokes its own methods freely; the hook
    // header defines the protocol.
    if (fm.cls.in_check || fm.cls.checker_hook_header) continue;
    for (const FunctionModel& fn : fm.functions) {
      for (const CallSite& c : fn.calls) {
        if (!c.member_call || !kHookMethods.count(c.name)) continue;
        const bool gated = std::any_of(
            fn.checker_get_tokens.begin(), fn.checker_get_tokens.end(),
            [&](size_t idx) { return idx < c.tok_index; });
        if (gated) continue;
        if (fm.Waived(c.line, "checker-hook-gate")) continue;
        findings.push_back(
            {fn.file, c.line, "checker-hook-gate",
             fn.Qualified() + " invokes checker hook " + c.name +
                 " without a dominating GetCheckerHook() enabled-load in the "
                 "same function; hook calls must stay behind the one-relaxed-"
                 "load gate so the hooks-off cost contract holds",
             {}});
      }
    }
  }
  return findings;
}

std::vector<Finding> RunProgramPasses(const ProgramModel& pm) {
  std::vector<Finding> findings;
  for (auto&& f : CheckLockCycles(pm)) findings.push_back(std::move(f));
  for (auto&& f : CheckHoldAcrossBlocking(pm)) findings.push_back(std::move(f));
  for (auto&& f : CheckVisCacheProtocol(pm)) findings.push_back(std::move(f));
  for (auto&& f : CheckCheckerHookGate(pm)) findings.push_back(std::move(f));
  return findings;
}

}  // namespace aosilint
