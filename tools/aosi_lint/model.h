// aosi_lint per-file model: everything the whole-program analyses
// (program.h) need to know about one translation unit, extracted at token
// level with no preprocessor or type information.
//
// The model of a file is:
//   - its FileClass (tree location => which rules apply),
//   - waiver and `// relaxed:` comment lines,
//   - declared Mutex/SharedMutex members per class (so a lock named `mutex_`
//     in TxnManager and one in MetricsRegistry stay distinct),
//   - REQUIRES(...) annotations on in-class method *declarations* (the
//     out-of-line definition usually does not repeat them),
//   - one FunctionModel per function *definition*: ordered lock
//     acquire/release events, call sites with the set of locks held at the
//     call, and the token indices of protocol-relevant identifiers
//     (GetCheckerHook, VisKey/MakeKey, ...).
//
// docs/STATIC_ANALYSIS.md ("The per-file model") documents this format for
// rule authors.

#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "aosi_lint/lexer.h"

namespace aosilint {

// ---------------------------------------------------------------------------
// Findings (shared by per-file rules, program passes and reporters)
// ---------------------------------------------------------------------------

struct Finding {
  // One step of a witness path (a hold site, a call edge, an acquire).
  struct Site {
    std::string file;
    int line = 0;
    std::string note;
  };

  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  // Witness steps for program-level findings (call chains, the acquires of
  // a lock cycle); rendered as indented continuation lines and as SARIF
  // relatedLocations.
  std::vector<Site> related;
};

// ---------------------------------------------------------------------------
// File classification
// ---------------------------------------------------------------------------

struct FileClass {
  std::string rel;       // path used for rule scoping and display
  bool in_src = false;
  bool epoch_zone = false;    // src/aosi/epoch*
  bool mutex_header = false;  // src/common/mutex.h / thread_annotations.h
  bool in_cluster = false;    // src/cluster/
  bool in_obs = false;        // src/obs/ (relaxed instrument writes allowed)
  bool checker_hook_header = false;  // src/aosi/checker_hook.h
  bool in_check = false;      // src/check/ (the checker implementation)
  bool simd_impl = false;     // src/common/simd.* (raw intrinsics allowed)
};

FileClass Classify(std::string rel);

// ---------------------------------------------------------------------------
// Source file: raw token stream + waivers
// ---------------------------------------------------------------------------

struct SourceFile {
  std::string display_path;  // path printed in findings
  FileClass cls;
  std::vector<Token> toks;
  // line -> waived rule names ("*" = all)
  std::map<int, std::set<std::string>> waivers;
  // Lines carrying (or covered by) a '// relaxed: <why>' justification.
  std::set<int> relaxed_lines;

  // True when `line` carries a waiver for `rule` (or for "*").
  bool Waived(int line, const std::string& rule) const;
};

// Scans raw (pre-strip) content for waiver comments.
std::map<int, std::set<std::string>> CollectWaivers(const std::string& raw);

// Scans raw (pre-strip) content for '// relaxed: <why>' justification
// comments. Like waivers, a comment-only line also covers the next line.
std::set<int> CollectRelaxedComments(const std::string& raw);

// First value following `key` in the raw text (fixture directives).
std::string FindDirective(const std::string& raw, const std::string& key);

// Reads and tokenizes `path`. `rel_for_rules` scopes the rules unless the
// file carries an `aosi-lint-as` directive. Returns false on IO error.
bool LoadFile(const std::string& path, const std::string& rel_for_rules,
              SourceFile* out, std::string* raw_out);

// In-memory variant for tests: `content` is the raw source text.
void LoadFromString(const std::string& content, const std::string& rel,
                    SourceFile* out);

// ---------------------------------------------------------------------------
// Per-file semantic model
// ---------------------------------------------------------------------------

// One call site inside a function body, with the lock context at the call.
struct CallSite {
  std::string name;      // bare callee name
  std::string receiver;  // receiver ident for x.F()/x->F(), class for C::F()
  bool member_call = false;     // called through . or ->
  bool class_qualified = false; // called as Class::F()
  int line = 0;
  size_t tok_index = 0;
  // Number of arguments is not tracked exactly; this is enough to tell a
  // CondVar-style `cv.Wait(lock)` from a TaskGroup-style `group.Wait()`.
  bool has_args = false;
  // Resolved identities of locks held when the call executes (acquisition
  // order preserved; innermost last).
  std::vector<std::string> held;
};

// One lock acquisition (RAII MutexLock/WriterMutexLock/ReaderMutexLock or a
// manual .Lock() call).
struct LockAcquire {
  std::string mutex;  // resolved identity, see ResolveMutexId in model.cc
  int line = 0;
  size_t tok_index = 0;
  bool reader = false;  // shared acquisition (ReaderMutexLock/ReaderLock)
  // Locks already held when this one was acquired (lock-order edges).
  std::vector<std::string> held_before;
};

struct FunctionModel {
  std::string cls;   // enclosing class ("" for free functions)
  std::string name;  // unqualified name
  std::string file;  // display path of the defining file
  int line = 0;      // line of the definition header

  std::string Qualified() const { return cls.empty() ? name : cls + "::" + name; }

  // Mutexes required on entry (REQUIRES on the definition; the program
  // merge adds REQUIRES from the in-class declaration).
  std::vector<std::string> requires_entry;

  std::vector<CallSite> calls;
  std::vector<LockAcquire> acquires;

  // Declared types of parameters and block-scope locals (`Database* db`,
  // `BessColumn out = ...`), used to resolve member-call receivers. Smart
  // pointers record the pointee (`std::unique_ptr<Database> db` => Database).
  std::map<std::string, std::string> local_types;

  // Token indices of protocol-relevant identifiers seen in the body, for
  // the vis-cache and checker-hook state machines.
  std::vector<size_t> viskey_tokens;        // VisKey / MakeKey
  std::vector<size_t> checker_get_tokens;   // GetCheckerHook
};

struct FileModel {
  FileClass cls;
  std::string display_path;
  std::vector<FunctionModel> functions;
  // class name -> Mutex/SharedMutex member names declared in that class.
  // Key "" holds file-scope (global / function-local) declarations.
  std::map<std::string, std::set<std::string>> mutex_decls;
  // class name -> data member -> declared class-like type (smart pointers
  // record the pointee). Drives member-call receiver resolution.
  std::map<std::string, std::map<std::string, std::string>> member_types;
  // class -> method -> mutex args of REQUIRES on the in-class declaration.
  std::map<std::string, std::map<std::string, std::vector<std::string>>>
      requires_decls;
  // Copied from the SourceFile so program passes can honor waivers.
  std::map<int, std::set<std::string>> waivers;

  bool Waived(int line, const std::string& rule) const;
};

// Builds the semantic model of one tokenized file.
FileModel ExtractModel(const SourceFile& f);

}  // namespace aosilint
