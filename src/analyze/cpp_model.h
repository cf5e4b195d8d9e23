// Lightweight, purpose-built C++ extractor for the injection-surface lint
// (`tfi statelint`). Parses the pipeline model's sources — no libclang, no
// full grammar — and recovers exactly the two things the lint needs:
//
//   * every data member of every class/struct (name, type, const/static,
//     StateField-ness, declaration site), including members declared in
//     comma lists, nested structs, arrays, and under conditional
//     compilation (all #if branches are treated as present: the lint must
//     see state that only exists in some build flavors);
//   * every `<member> = <receiver>.Allocate("name", cat, storage, count,
//     width)` call, attributed to its enclosing class via the qualified
//     function definition it appears in, with local `const auto latch =
//     Storage::kLatch;`-style aliases resolved.
//
// The extractor is deliberately conservative: it never evaluates the
// preprocessor or templates, and anything it cannot attribute is surfaced
// by the lint as a parse gap rather than silently dropped (statelint
// cross-checks the extracted model against the runtime registry, so an
// extractor blind spot cannot silently widen into a hidden-state hole).
#pragma once

#include <string>
#include <vector>

namespace tfsim::analyze {

// One data member of an extracted class.
struct CppMember {
  std::string name;
  std::string type;  // normalized declaration type text
  int line = 0;
  bool is_static = false;
  bool is_const = false;        // const / constexpr declaration
  bool is_state_field = false;  // StateField (or array of StateField)
  std::string array_suffix;     // "[N]" for array members, else empty
  // Mutable per-instance state that is NOT registry-backed: the lint's
  // hidden-state candidates.
  bool MutableNonField() const {
    return !is_static && !is_const && !is_state_field;
  }
};

struct CppClass {
  std::string name;  // outer::inner for nested classes
  std::string file;
  int line = 0;
  bool registry_ctor = false;  // a constructor takes StateRegistry&
  std::vector<CppMember> members;

  const CppMember* FindMember(const std::string& n) const {
    for (const auto& m : members)
      if (m.name == n) return &m;
    return nullptr;
  }
};

// One StateRegistry Allocate call.
struct CppAllocation {
  std::string class_name;  // enclosing class ("" when unattributed)
  std::string member;      // assigned member ("" when the result is dropped)
  std::string reg_name;    // registered name literal (or suffix, see below)
  bool name_is_suffix = false;  // reg_name is the literal tail of `prefix + ".x"`
  std::string cat;              // "kPc"... ("" when unresolved)
  std::string storage;          // "kLatch"/"kRam"/"kBackground" ("" unresolved)
  std::string count_expr;
  std::string width_expr;
  long long count_value = -1;  // literal values when the exprs are numeric
  long long width_value = -1;
  std::string file;
  int line = 0;

  // True when this allocation's registered name matches runtime field `n`.
  bool MatchesFieldName(const std::string& n) const;
};

// One parsed source file: the comment-stripped text (for structure) and the
// literal-blanked text (for identifier-use scans, where an identifier inside
// a registered-name string must not count as a read).
struct CppFile {
  std::string path;
  std::string code;     // comments stripped, literals intact
  std::string blanked;  // comments stripped, string/char contents blanked
};

struct CppModel {
  std::vector<CppClass> classes;
  std::vector<CppAllocation> allocations;
  std::vector<CppFile> files;

  const CppClass* FindClass(const std::string& name) const {
    for (const auto& c : classes)
      if (c.name == name) return &c;
    return nullptr;
  }
};

// Parses one translation unit's text into the model. `path` is recorded for
// reporting; nothing is read from disk.
void ParseCppSource(const std::string& path, const std::string& text,
                    CppModel* model);

// Reads and parses every file (throws on unreadable paths).
CppModel ParseCppFiles(const std::vector<std::string>& paths);

// Counts word-boundary occurrences of identifier `ident` in `text`.
int CountIdentifier(const std::string& text, const std::string& ident);

}  // namespace tfsim::analyze
