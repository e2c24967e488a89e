// aosi_lint whole-program analyses.
//
// ProgramModel merges every file's FileModel (model.h): mutex identities
// are resolved against the union of all class member declarations (so a
// lock acquired in cluster.cc resolves against the member declared in
// cluster.h), REQUIRES annotations from in-class declarations are applied
// to out-of-line definitions, and a name-based call graph with class
// scoping is built. Four passes then run over the merged model:
//
//   lock-cycle            directed lock-order graph (edge A->B when B is
//                         acquired — directly or through any call depth —
//                         while A is held); every cycle is a potential
//                         deadlock, reported with the full witness path
//   hold-across-blocking  a lock held while calling, through any call
//                         depth, into cluster RPC (Handle*, DeliverOrQueue),
//                         TaskGroup::Wait, or a condition-variable wait.
//                         A CondVar wait under exactly the one lock it
//                         releases is the legitimate pattern and exempt
//   vis-cache-protocol    every VisibilityCache::Publish call is dominated
//                         by a versioned VisKey build (MakeKey) in the same
//                         function; every history mutation in src/storage
//                         (RecordAppend/RecordDelete/InstallRebuilt) clears
//                         the brick's visibility cache before returning
//   checker-hook-gate     checker-hook methods (OnBegin, OnFinish, ...)
//                         are only invoked behind the GetCheckerHook()
//                         enabled-load in the same function, keeping the
//                         hooks-off cost to one relaxed load
//
// See docs/STATIC_ANALYSIS.md ("Program-level analyses").

#pragma once

#include <map>
#include <string>
#include <vector>

#include "aosi_lint/model.h"

namespace aosilint {

class ProgramModel {
 public:
  // Takes ownership of the per-file models and builds the merged indexes.
  explicit ProgramModel(std::vector<FileModel> files);

  const std::vector<FileModel>& files() const { return files_; }

  // All function definitions with this bare name.
  const std::vector<const FunctionModel*>& ByBareName(
      const std::string& name) const;

  // Call-graph edge resolution: the candidate definitions a call site may
  // reach. Unqualified calls prefer a same-class method. Member calls
  // resolve through the receiver's declared type (function locals/params,
  // then the caller class's data members, then a member name declared by
  // exactly one class anywhere); a receiver with a known type that does not
  // define the method yields NO edge (the type is unmodeled, e.g. std::),
  // and an untyped receiver only resolves when the bare name is unique —
  // anything looser floods the lock graph with cross-class aliases.
  std::vector<const FunctionModel*> ResolveCall(const FunctionModel& caller,
                                                const CallSite& call) const;

  // Waiver lookup across all files by display path.
  bool Waived(const std::string& file, int line, const std::string& rule) const;

 private:
  void ResolveMutexIdentities();
  void ApplyDeclaredRequires();
  void BuildIndexes();

  std::vector<FileModel> files_;
  std::map<std::string, std::vector<const FunctionModel*>> by_bare_;
  std::map<std::string, std::vector<const FunctionModel*>> by_qual_;
  // mutex member name -> declaring classes (cross-file union).
  std::map<std::string, std::set<std::string>> mutex_classes_;
  // class -> data member -> declared type (cross-file union).
  std::map<std::string, std::map<std::string, std::string>> member_types_;
  // data member name -> the set of types it is declared with anywhere; a
  // unique entry lets `shared_->sut->F()` resolve without knowing shared_.
  std::map<std::string, std::set<std::string>> member_type_any_;
  std::map<std::string, const FileModel*> by_path_;
  std::vector<const FunctionModel*> empty_;
};

// Runs all four program passes; waived findings are already filtered out.
std::vector<Finding> RunProgramPasses(const ProgramModel& pm);

// Individual passes (exposed for unit tests).
std::vector<Finding> CheckLockCycles(const ProgramModel& pm);
std::vector<Finding> CheckHoldAcrossBlocking(const ProgramModel& pm);
std::vector<Finding> CheckVisCacheProtocol(const ProgramModel& pm);
std::vector<Finding> CheckCheckerHookGate(const ProgramModel& pm);

}  // namespace aosilint
