#include "aosi_lint/model.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace aosilint {

namespace {

// The waiver marker, assembled so the linter's own sources never count as
// waiver sites when the tree is scanned.
std::string WaiverKey() { return std::string("aosi-lint: ") + "allow("; }

const std::set<std::string>& Keywords() {
  static const std::set<std::string> kw = {
      "if",       "for",      "while",   "switch",   "catch",  "return",
      "sizeof",   "alignof",  "alignas", "decltype", "throw",  "new",
      "delete",   "operator", "static_assert",       "noexcept",
      "co_await", "co_return","co_yield","case",     "default"};
  return kw;
}

const std::set<std::string>& AnnotationMacros() {
  static const std::set<std::string> m = {
      "REQUIRES",         "REQUIRES_SHARED",    "EXCLUDES",
      "ACQUIRE",          "ACQUIRE_SHARED",     "RELEASE",
      "RELEASE_SHARED",   "RELEASE_GENERIC",    "TRY_ACQUIRE",
      "TRY_ACQUIRE_SHARED","RETURN_CAPABILITY", "ASSERT_CAPABILITY",
      "ASSERT_SHARED_CAPABILITY", "NO_THREAD_SAFETY_ANALYSIS",
      "GUARDED_BY",       "PT_GUARDED_BY",      "CAPABILITY",
      "SCOPED_CAPABILITY"};
  return m;
}

const std::set<std::string>& RaiiLockTypes() {
  static const std::set<std::string> t = {"MutexLock", "WriterMutexLock",
                                          "ReaderMutexLock"};
  return t;
}

}  // namespace

// ---------------------------------------------------------------------------
// Classification / loading
// ---------------------------------------------------------------------------

FileClass Classify(std::string rel) {
  std::replace(rel.begin(), rel.end(), '\\', '/');
  FileClass fc;
  fc.rel = rel;
  fc.in_src = rel.rfind("src/", 0) == 0;
  fc.epoch_zone = rel.rfind("src/aosi/epoch", 0) == 0;
  fc.mutex_header = rel == "src/common/mutex.h" ||
                    rel == "src/common/thread_annotations.h";
  fc.in_cluster = rel.rfind("src/cluster/", 0) == 0;
  fc.in_obs = rel.rfind("src/obs/", 0) == 0;
  fc.checker_hook_header = rel == "src/aosi/checker_hook.h";
  fc.in_check = rel.rfind("src/check/", 0) == 0;
  fc.simd_impl = rel.rfind("src/common/simd", 0) == 0;
  return fc;
}

bool SourceFile::Waived(int line, const std::string& rule) const {
  auto it = waivers.find(line);
  return it != waivers.end() &&
         (it->second.count(rule) || it->second.count("*"));
}

bool FileModel::Waived(int line, const std::string& rule) const {
  auto it = waivers.find(line);
  return it != waivers.end() &&
         (it->second.count(rule) || it->second.count("*"));
}

std::map<int, std::set<std::string>> CollectWaivers(const std::string& raw) {
  std::map<int, std::set<std::string>> waivers;
  const std::string key = WaiverKey();
  std::istringstream in(raw);
  std::string line_text;
  int line = 0;
  while (std::getline(in, line_text)) {
    ++line;
    const size_t pos = line_text.find(key);
    if (pos == std::string::npos) continue;
    const size_t open = line_text.find('(', pos);
    const size_t close = line_text.find(')', open);
    if (open == std::string::npos || close == std::string::npos) continue;
    std::string rules = line_text.substr(open + 1, close - open - 1);
    std::set<std::string> names;
    std::string cur;
    for (char c : rules + ",") {
      if (c == ',') {
        if (!cur.empty()) names.insert(cur);
        cur.clear();
      } else if (!std::isspace(static_cast<unsigned char>(c))) {
        cur += c;
      }
    }
    waivers[line].insert(names.begin(), names.end());
    // A waiver alone on its line also covers the next line.
    const size_t comment = line_text.find("//");
    if (comment != std::string::npos &&
        line_text.find_first_not_of(" \t") == comment) {
      waivers[line + 1].insert(names.begin(), names.end());
    }
  }
  return waivers;
}

std::set<int> CollectRelaxedComments(const std::string& raw) {
  std::set<int> lines;
  std::istringstream in(raw);
  std::string line_text;
  int line = 0;
  while (std::getline(in, line_text)) {
    ++line;
    const size_t comment = line_text.find("//");
    if (comment == std::string::npos) continue;
    if (line_text.find("relaxed:", comment) == std::string::npos) continue;
    lines.insert(line);
    if (line_text.find_first_not_of(" \t") == comment) lines.insert(line + 1);
  }
  return lines;
}

std::string FindDirective(const std::string& raw, const std::string& key) {
  const size_t pos = raw.find(key);
  if (pos == std::string::npos) return "";
  size_t start = pos + key.size();
  while (start < raw.size() && (raw[start] == ' ' || raw[start] == '\t'))
    ++start;
  size_t end = start;
  while (end < raw.size() && !std::isspace(static_cast<unsigned char>(raw[end])))
    ++end;
  return raw.substr(start, end - start);
}

bool LoadFile(const std::string& path, const std::string& rel_for_rules,
              SourceFile* out, std::string* raw_out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  std::string raw = ss.str();
  // A fixture can emulate a tree location with an `aosi-lint-as` directive.
  // The key is assembled at runtime so the linter's own sources (and this
  // very line) never self-classify when the tree is scanned.
  std::string as = FindDirective(raw, std::string("aosi-lint") + "-as:");
  out->display_path = path;
  out->cls = Classify(as.empty() ? rel_for_rules : as);
  out->waivers = CollectWaivers(raw);
  out->relaxed_lines = CollectRelaxedComments(raw);
  out->toks = Lex(StripCommentsAndStrings(raw));
  if (raw_out) *raw_out = std::move(raw);
  return true;
}

void LoadFromString(const std::string& content, const std::string& rel,
                    SourceFile* out) {
  const std::string as = FindDirective(content, std::string("aosi-lint") + "-as:");
  out->display_path = rel;
  out->cls = Classify(as.empty() ? rel : as);
  out->waivers = CollectWaivers(content);
  out->relaxed_lines = CollectRelaxedComments(content);
  out->toks = Lex(StripCommentsAndStrings(content));
}

// ---------------------------------------------------------------------------
// Model extraction
// ---------------------------------------------------------------------------

namespace {

// Index of the token matching the open paren/brace/bracket at `open`, or
// toks.size() when unbalanced.
size_t MatchingClose(const std::vector<Token>& toks, size_t open) {
  const std::string& o = toks[open].text;
  const std::string c = o == "(" ? ")" : o == "{" ? "}" : "]";
  int depth = 0;
  for (size_t j = open; j < toks.size(); ++j) {
    if (toks[j].text == o) ++depth;
    else if (toks[j].text == c && --depth == 0) return j;
  }
  return toks.size();
}

// Last identifier in toks[(begin, end)) — the member a lock expression
// finally names (`queues_[i]->mu` => mu).
std::string LastIdentIn(const std::vector<Token>& toks, size_t begin,
                        size_t end) {
  for (size_t j = end; j > begin;) {
    --j;
    if (toks[j].kind == TokKind::kIdent) return toks[j].text;
  }
  return "";
}

// Splits the arguments of an annotation like REQUIRES(a, b.c) into the last
// identifier of each top-level comma-separated chunk.
std::vector<std::string> AnnotationArgs(const std::vector<Token>& toks,
                                        size_t open, size_t close) {
  std::vector<std::string> args;
  size_t chunk_begin = open + 1;
  int depth = 0;
  for (size_t j = open + 1; j <= close; ++j) {
    const std::string& t = toks[j].text;
    if (t == "(" || t == "[" || t == "{") ++depth;
    else if (t == ")" || t == "]" || t == "}") --depth;
    if ((j == close) || (t == "," && depth == 0)) {
      const std::string id = LastIdentIn(toks, chunk_begin - 1, j);
      if (!id.empty()) args.push_back(id);
      chunk_begin = j + 1;
    }
  }
  return args;
}

// Pass A: token indices of '{' that open a class/struct definition, mapped
// to the class name. Template parameter lists (`template <class T>`) and
// forward declarations are rejected.
std::map<size_t, std::string> FindClassOpens(const std::vector<Token>& toks) {
  std::map<size_t, std::string> opens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent ||
        (toks[i].text != "class" && toks[i].text != "struct"))
      continue;
    if (i > 0 && toks[i - 1].text == "enum") continue;
    // `template <class T>`: the keyword sits inside an angle list.
    if (i > 0 && (toks[i - 1].text == "<" || toks[i - 1].text == ",")) continue;
    size_t j = i + 1;
    // Skip alignas(...)/attribute-ish parenthesized decorations.
    while (j < toks.size() && toks[j].kind == TokKind::kIdent &&
           j + 1 < toks.size() && toks[j + 1].text == "(" &&
           (toks[j].text == "alignas" || toks[j].text == "CAPABILITY" ||
            toks[j].text == "SCOPED_CAPABILITY")) {
      const size_t close = MatchingClose(toks, j + 1);
      if (close >= toks.size()) break;
      j = close + 1;
    }
    if (j >= toks.size() || toks[j].kind != TokKind::kIdent) continue;
    const std::string name = toks[j].text;
    // Scan forward for '{' (definition) or ';'/',' (declaration/param),
    // allowing a base-clause and more attribute macros.
    size_t k = j + 1;
    int angle = 0;
    bool found = false;
    for (int steps = 0; k < toks.size() && steps < 96; ++k, ++steps) {
      const std::string& t = toks[k].text;
      if (t == "<") ++angle;
      else if (t == ">") --angle;
      else if (t == ">>") angle -= 2;
      else if (angle == 0) {
        if (t == "{") { found = true; break; }
        if (t == ";" || t == "=" || t == ")" || t == "&" || t == "*") break;
        if (toks[k].kind == TokKind::kIdent || t == ":" || t == "," ||
            t == "::" || t == "(")
          continue;
        break;
      }
    }
    if (found) opens[k] = name;
  }
  return opens;
}

// A parsed variable declaration `Type[<...>][*&] name`, where Type looks
// class-like (uppercase first letter, or a smart pointer whose pointee is
// recorded instead).
struct DeclParse {
  bool ok = false;
  std::string type;
  std::string name;
  size_t name_idx = 0;
  size_t end_idx = 0;  // index of the token after the name
};

// Tries to parse a declaration whose type token is at `i`. The caller
// decides which terminators (the token at end_idx) make it a real
// declaration in its context.
DeclParse ParseVarDecl(const std::vector<Token>& toks, size_t i) {
  DeclParse d;
  if (toks[i].kind != TokKind::kIdent) return d;
  const std::string& ty = toks[i].text;
  size_t j = i + 1;
  if ((ty == "unique_ptr" || ty == "shared_ptr") && j < toks.size() &&
      toks[j].text == "<") {
    // Record the pointee: member calls through the pointer dispatch to it.
    int angle = 0;
    for (int steps = 0; j < toks.size() && steps < 64; ++j, ++steps) {
      const std::string& t = toks[j].text;
      if (t == "<") ++angle;
      else if (t == ">") { if (--angle == 0) { ++j; break; } }
      else if (t == ">>") { angle -= 2; if (angle <= 0) { ++j; break; } }
      else if (d.type.empty() && toks[j].kind == TokKind::kIdent &&
               std::isupper(static_cast<unsigned char>(t[0]))) {
        d.type = t;
      } else if (t == ";" || t == "{" || t == "}") {
        return d;
      }
    }
    if (d.type.empty()) return d;
  } else {
    if (!std::isupper(static_cast<unsigned char>(ty[0]))) return d;
    if (Keywords().count(ty) || AnnotationMacros().count(ty)) return d;
    d.type = ty;
    // Skip template arguments (`EpochMap<int> m;` keeps the outer type).
    if (j < toks.size() && toks[j].text == "<") {
      int angle = 0;
      for (int steps = 0; j < toks.size() && steps < 64; ++j, ++steps) {
        const std::string& t = toks[j].text;
        if (t == "<") ++angle;
        else if (t == ">") { if (--angle == 0) { ++j; break; } }
        else if (t == ">>") { angle -= 2; if (angle <= 0) { ++j; break; } }
        else if (t == ";" || t == "{" || t == "}" || t == "(") return d;
      }
      if (j >= toks.size()) return d;
    }
  }
  for (int stars = 0;
       j < toks.size() && stars < 3 &&
       (toks[j].text == "*" || toks[j].text == "&" || toks[j].text == "&&");
       ++stars)
    ++j;
  if (j + 1 >= toks.size() || toks[j].kind != TokKind::kIdent ||
      Keywords().count(toks[j].text))
    return d;
  d.name = toks[j].text;
  d.name_idx = j;
  d.end_idx = j + 1;
  d.ok = true;
  return d;
}

struct HeaderParse {
  bool is_definition = false;   // body '{' found
  bool is_declaration = false;  // ended with ';' or '= default/delete/0'
  size_t body_open = 0;         // token index of the body '{'
  std::vector<std::string> requires_args;
};

// Parses a potential function header whose name is at `i` (its '(' at i+1).
// Returns how it ended; on failure both flags stay false.
HeaderParse ParseFunctionHeader(const std::vector<Token>& toks, size_t i) {
  HeaderParse hp;
  const size_t close = MatchingClose(toks, i + 1);
  if (close >= toks.size()) return hp;
  size_t j = close + 1;
  bool in_init_list = false;
  for (int steps = 0; j < toks.size() && steps < 512; ++steps) {
    const Token& t = toks[j];
    if (t.text == "{") {
      if (in_init_list) {
        // Brace-init of a member (`b_{2}`) directly follows an identifier
        // or a closing template angle; the body brace follows ')' / '}' /
        // ',' boundaries instead.
        const std::string& prev = toks[j - 1].text;
        if (toks[j - 1].kind == TokKind::kIdent || prev == ">") {
          const size_t c = MatchingClose(toks, j);
          if (c >= toks.size()) return hp;
          j = c + 1;
          continue;
        }
      }
      hp.is_definition = true;
      hp.body_open = j;
      return hp;
    }
    if (t.text == ";") {
      hp.is_declaration = true;
      return hp;
    }
    if (t.text == "=") {
      // `= default;` / `= delete;` / `= 0;` — still a declaration.
      hp.is_declaration = true;
      return hp;
    }
    if (t.kind == TokKind::kIdent) {
      if (AnnotationMacros().count(t.text) && j + 1 < toks.size() &&
          toks[j + 1].text == "(") {
        const size_t c = MatchingClose(toks, j + 1);
        if (c >= toks.size()) return hp;
        if (t.text == "REQUIRES" || t.text == "REQUIRES_SHARED") {
          auto args = AnnotationArgs(toks, j + 1, c);
          hp.requires_args.insert(hp.requires_args.end(), args.begin(),
                                  args.end());
        }
        j = c + 1;
        continue;
      }
      if (t.text == "noexcept" && j + 1 < toks.size() &&
          toks[j + 1].text == "(") {
        const size_t c = MatchingClose(toks, j + 1);
        if (c >= toks.size()) return hp;
        j = c + 1;
        continue;
      }
      // const / override / final / trailing-return type names / initializer
      // member names — all fine to step over.
      ++j;
      continue;
    }
    if (t.text == ":") {
      if (j + 1 < toks.size() && toks[j + 1].text == ":") return hp;
      in_init_list = true;
      ++j;
      continue;
    }
    if (t.text == "(") {
      const size_t c = MatchingClose(toks, j);
      if (c >= toks.size()) return hp;
      j = c + 1;
      continue;
    }
    if (t.text == "->" || t.text == "::" || t.text == "<" || t.text == ">" ||
        t.text == ">>" || t.text == "," || t.text == "&" || t.text == "&&" ||
        t.text == "*" || toks[j].kind == TokKind::kNumber) {
      ++j;
      continue;
    }
    return hp;  // anything else: not a function header
  }
  return hp;
}

}  // namespace

FileModel ExtractModel(const SourceFile& f) {
  FileModel fm;
  fm.cls = f.cls;
  fm.display_path = f.display_path;
  fm.waivers = f.waivers;

  const std::vector<Token>& toks = f.toks;
  const std::map<size_t, std::string> class_opens = FindClassOpens(toks);

  struct ClassScope {
    std::string name;
    int depth;  // brace depth the class body opened at
  };
  struct ActiveLock {
    std::string name;  // unresolved (last identifier of the lock expression)
    int depth;         // brace depth of the RAII declaration
    bool manual;       // .Lock() call, released only by .Unlock()
  };

  std::vector<ClassScope> classes;
  std::vector<ActiveLock> locks;
  FunctionModel fn;
  bool in_fn = false;
  int fn_depth = 0;  // brace depth inside the current function body
  int depth = 0;

  auto current_class = [&]() -> std::string {
    return classes.empty() ? "" : classes.back().name;
  };
  auto held_now = [&]() {
    std::vector<std::string> held = fn.requires_entry;
    for (const ActiveLock& l : locks) held.push_back(l.name);
    return held;
  };

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];

    if (t.text == "{") {
      auto it = class_opens.find(i);
      if (it != class_opens.end()) classes.push_back({it->second, depth});
      ++depth;
      continue;
    }
    if (t.text == "}") {
      --depth;
      while (!classes.empty() && classes.back().depth == depth) classes.pop_back();
      while (!locks.empty() && !locks.back().manual &&
             locks.back().depth > depth)
        locks.pop_back();
      if (in_fn && depth < fn_depth) {
        fm.functions.push_back(std::move(fn));
        fn = FunctionModel();
        in_fn = false;
        locks.clear();
      }
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;

    // --- Mutex member/global declarations: `Mutex name_;` --------------
    if ((t.text == "Mutex" || t.text == "SharedMutex") && i + 2 < toks.size() &&
        toks[i + 1].kind == TokKind::kIdent &&
        (toks[i + 2].text == ";" || toks[i + 2].text == "{" ||
         toks[i + 2].text == "=")) {
      fm.mutex_decls[current_class()].insert(toks[i + 1].text);
      continue;
    }

    if (!in_fn) {
      // --- Data member declarations: `Database db_;`, `unique_ptr<T> p_;`
      if (!classes.empty() && (i == 0 || toks[i - 1].kind != TokKind::kIdent)) {
        const DeclParse d = ParseVarDecl(toks, i);
        if (d.ok) {
          const std::string& term = toks[d.end_idx].text;
          if (term == ";" || term == "=" || term == "{") {
            fm.member_types[current_class()][d.name] = d.type;
          }
        }
      }
      // --- Function definitions and in-class declarations ---------------
      if (i + 1 >= toks.size() || toks[i + 1].text != "(") continue;
      if (Keywords().count(t.text) || AnnotationMacros().count(t.text) ||
          RaiiLockTypes().count(t.text))
        continue;
      if (i > 0 && toks[i - 1].text == "~") continue;  // destructor
      const HeaderParse hp = ParseFunctionHeader(toks, i);
      if (hp.is_declaration) {
        if (!hp.requires_args.empty() && !current_class().empty()) {
          auto& reqs = fm.requires_decls[current_class()][t.text];
          reqs.insert(reqs.end(), hp.requires_args.begin(),
                      hp.requires_args.end());
        }
        continue;
      }
      if (!hp.is_definition) continue;
      fn = FunctionModel();
      fn.name = t.text;
      fn.file = f.display_path;
      fn.line = t.line;
      fn.requires_entry = hp.requires_args;
      // Out-of-line `Cls::Name(...)` qualification wins over the (absent)
      // class scope; in-class definitions take the enclosing class.
      if (i >= 2 && toks[i - 1].text == "::" &&
          toks[i - 2].kind == TokKind::kIdent) {
        fn.cls = toks[i - 2].text;
      } else {
        fn.cls = current_class();
      }
      // Parameter types: `Status Append(Database* db, const Batch& rows)`.
      const size_t params_close = MatchingClose(toks, i + 1);
      for (size_t k = i + 2; k + 1 < params_close;) {
        const DeclParse d = ParseVarDecl(toks, k);
        if (d.ok && d.end_idx <= params_close) {
          const std::string& term = toks[d.end_idx].text;
          if (term == "," || term == ")" || term == "=") {
            fn.local_types[d.name] = d.type;
            k = d.end_idx;
            continue;
          }
        }
        ++k;
      }
      // Enter the body: jump to its '{' (the main loop's brace handler
      // increments depth when it reaches it). Member-initializer braces in
      // the skipped header region never nest functions, so this is safe.
      in_fn = true;
      fn_depth = depth + 1;
      i = hp.body_open - 1;
      continue;
    }

    // --- Inside a function body ---------------------------------------
    // RAII lock acquisition: `MutexLock l(mu);` / `WriterMutexLock l{mu};`
    if (RaiiLockTypes().count(t.text) && i + 2 < toks.size() &&
        toks[i + 1].kind == TokKind::kIdent &&
        (toks[i + 2].text == "(" || toks[i + 2].text == "{")) {
      const size_t close = MatchingClose(toks, i + 2);
      if (close < toks.size()) {
        const std::string target = LastIdentIn(toks, i + 2, close);
        if (!target.empty()) {
          LockAcquire acq;
          acq.mutex = target;
          acq.line = t.line;
          acq.tok_index = i;
          acq.reader = t.text == "ReaderMutexLock";
          acq.held_before = held_now();
          fn.acquires.push_back(acq);
          locks.push_back({target, depth, /*manual=*/false});
        }
        i = close;
      }
      continue;
    }

    // Manual lock calls on a mutex member: `mu_.Lock()` ... `mu_.Unlock()`.
    if ((t.text == "Lock" || t.text == "ReaderLock" || t.text == "Unlock" ||
         t.text == "ReaderUnlock") &&
        i >= 2 && (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
        toks[i - 2].kind == TokKind::kIdent && i + 1 < toks.size() &&
        toks[i + 1].text == "(" && !f.cls.mutex_header) {
      const std::string target = toks[i - 2].text;
      if (t.text == "Lock" || t.text == "ReaderLock") {
        LockAcquire acq;
        acq.mutex = target;
        acq.line = t.line;
        acq.tok_index = i;
        acq.reader = t.text == "ReaderLock";
        acq.held_before = held_now();
        fn.acquires.push_back(acq);
        locks.push_back({target, depth, /*manual=*/true});
      } else {
        for (size_t k = locks.size(); k > 0;) {
          --k;
          if (locks[k].name == target) {
            locks.erase(locks.begin() + static_cast<long>(k));
            break;
          }
        }
      }
      continue;
    }

    // Block-scope locals: `BessColumn out = EmptyLike();`, `Foo f(x);`,
    // range-for bindings (`for (Brick& b : bricks)`).
    if (i == 0 || toks[i - 1].kind != TokKind::kIdent) {
      const DeclParse d = ParseVarDecl(toks, i);
      if (d.ok) {
        const std::string& term = toks[d.end_idx].text;
        if (term == ";" || term == "=" || term == "(" || term == "{" ||
            term == ":") {
          fn.local_types[d.name] = d.type;
        }
      }
    }

    // Protocol-relevant identifiers.
    if (t.text == "GetCheckerHook") fn.checker_get_tokens.push_back(i);

    // Call sites.
    if (i + 1 < toks.size() && toks[i + 1].text == "(" &&
        !Keywords().count(t.text) && !AnnotationMacros().count(t.text)) {
      CallSite c;
      c.name = t.text;
      c.line = t.line;
      c.tok_index = i;
      c.has_args = i + 2 < toks.size() && toks[i + 2].text != ")";
      if (i >= 2 && (toks[i - 1].text == "." || toks[i - 1].text == "->")) {
        c.member_call = true;
        if (toks[i - 2].kind == TokKind::kIdent) c.receiver = toks[i - 2].text;
      } else if (i >= 2 && toks[i - 1].text == "::" &&
                 toks[i - 2].kind == TokKind::kIdent) {
        c.class_qualified = true;
        c.receiver = toks[i - 2].text;
      }
      c.held = held_now();
      fn.calls.push_back(std::move(c));
    }
  }
  if (in_fn) fm.functions.push_back(std::move(fn));
  return fm;
}

}  // namespace aosilint
