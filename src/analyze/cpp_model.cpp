#include "analyze/cpp_model.h"

#include <cctype>
#include <cstdlib>

#include "util/fs.h"

namespace tfsim::analyze {
namespace {

// ---------------------------------------------------------------------------
// Preprocessing: comment stripping, literal blanking, #-line removal.
// ---------------------------------------------------------------------------

// Strips // and /* */ comments, replacing them with spaces (newlines kept so
// token line numbers stay true). When `blank_literals`, the contents of
// string and character literals are replaced with spaces too (quotes kept).
std::string StripComments(const std::string& in, bool blank_literals) {
  std::string out;
  out.reserve(in.size());
  enum { kCode, kLine, kBlock, kStr, kChar } st = kCode;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char n = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (st) {
      case kCode:
        if (c == '/' && n == '/') { st = kLine; out += "  "; ++i; }
        else if (c == '/' && n == '*') { st = kBlock; out += "  "; ++i; }
        else if (c == '"') { st = kStr; out += c; }
        else if (c == '\'') { st = kChar; out += c; }
        else out += c;
        break;
      case kLine:
        if (c == '\n') { st = kCode; out += c; }
        else out += ' ';
        break;
      case kBlock:
        if (c == '*' && n == '/') { st = kCode; out += "  "; ++i; }
        else out += c == '\n' ? '\n' : ' ';
        break;
      case kStr:
        if (c == '\\' && n != '\0') {
          out += blank_literals ? "  " : in.substr(i, 2);
          ++i;
        } else if (c == '"') { st = kCode; out += c; }
        else out += blank_literals ? ' ' : c;
        break;
      case kChar:
        if (c == '\\' && n != '\0') {
          out += blank_literals ? "  " : in.substr(i, 2);
          ++i;
        } else if (c == '\'') { st = kCode; out += c; }
        else out += blank_literals ? ' ' : c;
        break;
    }
  }
  return out;
}

// Blanks preprocessor directive lines (and their \-continuations), keeping
// the controlled text of every branch: a member under #ifdef exists in SOME
// build, so the lint must see it.
void BlankDirectives(std::string& text) {
  std::size_t i = 0;
  while (i < text.size()) {
    std::size_t j = i;
    while (j < text.size() && (text[j] == ' ' || text[j] == '\t')) ++j;
    const bool directive = j < text.size() && text[j] == '#';
    bool cont = false;
    std::size_t k = i;
    for (; k < text.size() && text[k] != '\n'; ++k) {
      if (directive) {
        cont = text[k] == '\\' && k + 1 < text.size() && text[k + 1] == '\n';
        text[k] = ' ';
      }
    }
    i = k + 1;
    if (directive && cont) {
      // Continuation: blank the next line too by not resetting `directive` —
      // handled by looping from here with the same treatment.
      std::size_t m = i;
      bool more = true;
      while (m < text.size() && more) {
        more = false;
        for (; m < text.size() && text[m] != '\n'; ++m) {
          more = text[m] == '\\' && m + 1 < text.size() && text[m + 1] == '\n';
          text[m] = ' ';
        }
        ++m;
      }
      i = m;
    }
  }
}

// ---------------------------------------------------------------------------
// Tokenizer.
// ---------------------------------------------------------------------------

struct Token {
  std::string text;
  int line = 0;
  bool IsIdent() const {
    return !text.empty() && (std::isalpha((unsigned char)text[0]) || text[0] == '_');
  }
  bool IsString() const { return !text.empty() && text[0] == '"'; }
  bool Is(const char* s) const { return text == s; }
};

std::vector<Token> Tokenize(const std::string& code) {
  std::vector<Token> out;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = code.size();
  while (i < n) {
    const char c = code[i];
    if (c == '\n') { ++line; ++i; continue; }
    if (std::isspace((unsigned char)c)) { ++i; continue; }
    if (std::isalpha((unsigned char)c) || c == '_') {
      std::size_t j = i;
      while (j < n && (std::isalnum((unsigned char)code[j]) || code[j] == '_'))
        ++j;
      out.push_back({code.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit((unsigned char)c)) {
      std::size_t j = i;
      while (j < n && (std::isalnum((unsigned char)code[j]) || code[j] == '_' ||
                       code[j] == '.' ||
                       ((code[j] == '+' || code[j] == '-') && j > i &&
                        (code[j - 1] == 'e' || code[j - 1] == 'E'))))
        ++j;
      out.push_back({code.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (c == '"' || c == '\'') {
      std::size_t j = i + 1;
      while (j < n && code[j] != c) {
        if (code[j] == '\\') ++j;
        ++j;
      }
      out.push_back({code.substr(i, j + 1 - i), line});
      i = j + 1;
      continue;
    }
    if (c == ':' && i + 1 < n && code[i + 1] == ':') {
      out.push_back({"::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && code[i + 1] == '>') {
      out.push_back({"->", line});
      i += 2;
      continue;
    }
    out.push_back({std::string(1, c), line});
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------------

class Parser {
 public:
  Parser(std::string path, const std::vector<Token>& toks, CppModel* model)
      : path_(std::move(path)), t_(toks), model_(model) {}

  void Run() { ParseOuter(0, t_.size(), ""); }

 private:
  const Token& At(std::size_t i) const {
    static const Token kEnd{"", 0};
    return i < t_.size() ? t_[i] : kEnd;
  }

  // Advances past a balanced open..close region; `i` points at the opener.
  std::size_t SkipBalanced(std::size_t i, const char* open,
                           const char* close) const {
    int depth = 0;
    for (; i < t_.size(); ++i) {
      if (At(i).Is(open)) ++depth;
      else if (At(i).Is(close) && --depth == 0) return i + 1;
    }
    return t_.size();
  }

  // --- outer scope: classes and qualified function definitions --------------
  void ParseOuter(std::size_t i, std::size_t end, const std::string& scope) {
    while (i < end) {
      const Token& t = At(i);
      // Descend into namespace bodies (named, nested A::B, or anonymous):
      // the closing '}' is consumed later as a stray token, which is fine
      // since classes and definitions are matched structurally.
      if (t.Is("namespace")) {
        ++i;
        while (At(i).IsIdent() || At(i).Is("::")) ++i;
        if (At(i).Is("{") || At(i).Is(";")) ++i;
        continue;
      }
      if ((t.Is("class") || t.Is("struct")) && !At(i + 1).Is(";") &&
          At(i + 1).IsIdent() && !(i > 0 && At(i - 1).Is("enum"))) {
        std::size_t j = i + 2;
        while (j < end && !At(j).Is("{") && !At(j).Is(";")) ++j;
        if (j < end && At(j).Is("{")) {
          const std::string name =
              scope.empty() ? At(i + 1).text : scope + "::" + At(i + 1).text;
          i = ParseClass(name, At(i + 1).line, j + 1);
          // Trailing declarators (e.g. `struct X { ... } member_;`) are
          // handled by the caller when inside a class; at namespace scope
          // they are globals, which the lint ignores — skip to ';'.
          while (i < end && !At(i).Is(";")) ++i;
          ++i;
          continue;
        }
      }
      if (t.Is("enum")) {
        while (i < end && !At(i).Is("{") && !At(i).Is(";")) ++i;
        if (i < end && At(i).Is("{")) i = SkipBalanced(i, "{", "}");
        continue;
      }
      // Qualified function definition: Name::...::fn ( params ) [init] {
      if (t.IsIdent() && At(i + 1).Is("::")) {
        std::size_t j = i;
        std::string qual = At(j).text;
        j += 2;
        while (At(j).IsIdent() && At(j + 1).Is("::")) {
          qual += "::" + At(j).text;
          j += 2;
        }
        if (At(j).Is("~")) ++j;  // destructor
        if (At(j).IsIdent() && At(j + 1).Is("(")) {
          std::size_t k = SkipBalanced(j + 1, "(", ")");
          // Skip cv-qualifiers and the ctor-initializer list up to the body
          // brace. Init-list entries may themselves be brace-initialized
          // (`: cfg_{cfg}`), so each entry's (...)/{...} is skipped as a
          // unit rather than mistaken for the body.
          while (k < end && (At(k).Is("const") || At(k).Is("noexcept") ||
                             At(k).Is("override") || At(k).Is("final")))
            ++k;
          if (k < end && At(k).Is(":")) {
            ++k;
            while (k < end) {
              while (At(k).IsIdent() || At(k).Is("::")) ++k;
              if (At(k).Is("(")) k = SkipBalanced(k, "(", ")");
              else if (At(k).Is("{")) k = SkipBalanced(k, "{", "}");
              if (At(k).Is(",")) { ++k; continue; }
              break;
            }
          }
          if (k < end && At(k).Is("{")) {
            const std::size_t body_end = SkipBalanced(k, "{", "}");
            ParseFunctionBody(qual, k + 1, body_end - 1);
            i = body_end;
            continue;
          }
          i = k + 1;
          continue;
        }
      }
      if (t.Is("{")) { i = SkipBalanced(i, "{", "}"); continue; }
      ++i;
    }
  }

  // --- class bodies ---------------------------------------------------------
  // `i` points just past the opening '{'. Returns the index just past the
  // closing '}'.
  std::size_t ParseClass(const std::string& name, int line, std::size_t i) {
    CppClass cls;
    cls.name = name;
    cls.file = path_;
    cls.line = line;
    while (i < t_.size() && !At(i).Is("}")) {
      const Token& t = At(i);
      if ((t.Is("public") || t.Is("private") || t.Is("protected")) &&
          At(i + 1).Is(":")) {
        i += 2;
        continue;
      }
      if (t.Is("friend") || t.Is("using") || t.Is("typedef")) {
        while (i < t_.size() && !At(i).Is(";")) {
          if (At(i).Is("{")) { i = SkipBalanced(i, "{", "}"); continue; }
          ++i;
        }
        ++i;
        continue;
      }
      if (t.Is("enum")) {
        while (i < t_.size() && !At(i).Is("{") && !At(i).Is(";")) ++i;
        if (At(i).Is("{")) i = SkipBalanced(i, "{", "}");
        while (i < t_.size() && !At(i).Is(";")) ++i;
        ++i;
        continue;
      }
      if (t.Is("template")) {  // member template: skip the <...> header
        ++i;
        if (At(i).Is("<")) i = SkipBalanced(i, "<", ">");
        continue;
      }
      if ((t.Is("class") || t.Is("struct")) && At(i + 1).IsIdent()) {
        std::size_t j = i + 2;
        while (j < t_.size() && !At(j).Is("{") && !At(j).Is(";")) ++j;
        if (At(j).Is("{")) {
          // Nested class; afterwards, trailing declarators are members of
          // the ENCLOSING class with the nested type.
          const std::string nested = name + "::" + At(i + 1).text;
          const std::string nested_short = At(i + 1).text;
          std::size_t after = ParseClass(nested, At(i + 1).line, j + 1);
          while (after < t_.size() && !At(after).Is(";")) {
            if (At(after).IsIdent()) {
              CppMember m;
              m.name = At(after).text;
              m.type = nested_short;
              m.line = At(after).line;
              cls.members.push_back(m);
            }
            ++after;
          }
          i = after + 1;
          continue;
        }
        i = j + 1;  // forward declaration
        continue;
      }
      i = ParseMemberStatement(cls, i);
    }
    // Constructor detection happened in ParseMemberStatement; record class.
    model_->classes.push_back(std::move(cls));
    return i + 1;
  }

  // Parses one statement inside a class body starting at `i`; appends any
  // data members found; returns the index past the statement.
  std::size_t ParseMemberStatement(CppClass& cls, std::size_t i) {
    std::vector<Token> decl;  // statement tokens with initializers removed
    bool has_paren = false;
    bool saw_ctor_registry = false;
    const std::string short_name =
        cls.name.find_last_of(':') == std::string::npos
            ? cls.name
            : cls.name.substr(cls.name.find_last_of(':') + 1);
    while (i < t_.size()) {
      const Token& t = At(i);
      if (t.Is(";")) { ++i; break; }
      if (t.Is("}")) break;  // class end (defensive)
      if (t.Is("=")) {
        // default member initializer / pure-virtual / deleted fn: skip the
        // initializer expression up to a top-level ',' or ';'.
        int d = 0;
        ++i;
        while (i < t_.size()) {
          const Token& u = At(i);
          if (u.Is("(") || u.Is("{") || u.Is("[")) ++d;
          else if (u.Is(")") || u.Is("}") || u.Is("]")) --d;
          else if (d == 0 && (u.Is(",") || u.Is(";"))) break;
          ++i;
        }
        continue;
      }
      if (t.Is("(")) {
        has_paren = true;
        const std::size_t close = SkipBalanced(i, "(", ")");
        // Constructor taking StateRegistry&?
        if (!decl.empty() && decl.back().text == short_name) {
          for (std::size_t k = i; k < close; ++k)
            if (At(k).Is("StateRegistry")) saw_ctor_registry = true;
        }
        i = close;
        continue;
      }
      if (t.Is("{")) {
        const std::size_t close = SkipBalanced(i, "{", "}");
        // With a parameter list already seen, a '{' preceded by ')' (or by a
        // trailing qualifier, or the '}' of an init-list brace) starts an
        // inline function body; a '{' preceded by an identifier is a member
        // initializer inside a ctor-init list (`: x_{1}`), not the body.
        const Token& prev = At(i - 1);
        const bool body_start =
            prev.Is(")") || prev.Is("}") || prev.Is("const") ||
            prev.Is("noexcept") || prev.Is("override") || prev.Is("final");
        if (has_paren && body_start) {
          // Inline member function definition: parse its body for Allocate
          // calls (fixtures and future in-header constructors), then end the
          // statement (no trailing ';' required).
          ParseFunctionBody(cls.name, i + 1, close - 1);
          i = close;
          if (At(i).Is(";")) ++i;
          if (saw_ctor_registry) cls.registry_ctor = true;
          return i;
        }
        i = close;  // brace initializer
        continue;
      }
      decl.push_back(t);
      ++i;
    }
    if (saw_ctor_registry) cls.registry_ctor = true;
    if (has_paren || decl.empty()) return i;  // function decl or empty stmt
    ClassifyMember(cls, decl);
    return i;
  }

  // Turns one declaration token list into members of `cls`.
  void ClassifyMember(CppClass& cls, const std::vector<Token>& decl) {
    bool is_static = false, is_const = false;
    std::vector<Token> toks;
    for (const Token& t : decl) {
      if (t.Is("static")) { is_static = true; continue; }
      if (t.Is("constexpr")) { is_const = true; continue; }
      if (t.Is("const")) { is_const = true; continue; }
      if (t.Is("mutable") || t.Is("inline") || t.Is("volatile")) continue;
      toks.push_back(t);
    }
    if (toks.empty()) return;
    // Split into declarator groups at top-level commas (angle depth tracked
    // so template argument commas stay inside the type).
    std::vector<std::vector<Token>> groups(1);
    int angle = 0, square = 0;
    for (const Token& t : toks) {
      if (t.Is("<")) ++angle;
      else if (t.Is(">") && angle > 0) --angle;
      else if (t.Is("[")) ++square;
      else if (t.Is("]")) --square;
      if (t.Is(",") && angle == 0 && square == 0) {
        groups.emplace_back();
        continue;
      }
      groups.back().push_back(t);
    }
    // First group: type tokens + first declarator name [+ array suffix].
    const std::vector<Token>& g0 = groups[0];
    // Find the last identifier not inside [] (the declared name); anything
    // before it is the type. A trailing `: width` bitfield is ignored.
    int name_idx = -1;
    int sq = 0;
    for (std::size_t k = 0; k < g0.size(); ++k) {
      if (g0[k].Is("[")) ++sq;
      else if (g0[k].Is("]")) --sq;
      else if (g0[k].Is(":")) break;  // bitfield width follows
      else if (sq == 0 && g0[k].IsIdent())
        name_idx = static_cast<int>(k);
    }
    if (name_idx <= 0) return;  // no plausible `type name` split
    // `const T* p` declares a mutable pointer to const T: the const belongs
    // to the pointee, so the member still counts as mutable state.
    for (int k = 0; k < name_idx; ++k)
      if (g0[k].Is("*")) is_const = false;
    std::string type;
    for (int k = 0; k < name_idx; ++k) {
      if (!type.empty() && g0[k].IsIdent() &&
          std::isalnum((unsigned char)type.back()))
        type += ' ';
      type += g0[k].text;
    }
    if (type.empty()) return;
    const bool state_field = type == "StateField";
    auto push = [&](const std::vector<Token>& g, int from) {
      // Name then optional array suffix within this group.
      int ni = -1;
      int sqd = 0;
      for (std::size_t k = from; k < g.size(); ++k) {
        if (g[k].Is("[")) ++sqd;
        else if (g[k].Is("]")) --sqd;
        else if (g[k].Is(":")) break;
        else if (sqd == 0 && g[k].IsIdent()) ni = static_cast<int>(k);
      }
      if (ni < 0) return;
      CppMember m;
      m.name = g[ni].text;
      m.type = type;
      m.line = g[ni].line;
      m.is_static = is_static;
      m.is_const = is_const;
      m.is_state_field = state_field;
      for (std::size_t k = ni + 1; k < g.size(); ++k) {
        if (g[k].Is(":")) break;
        m.array_suffix += g[k].text;
      }
      cls.members.push_back(std::move(m));
    };
    push(g0, name_idx);
    for (std::size_t gi = 1; gi < groups.size(); ++gi) push(groups[gi], 0);
  }

  // --- function bodies: alias resolution + Allocate extraction --------------
  void ParseFunctionBody(const std::string& qualified, std::size_t i,
                         std::size_t end) {
    // Class name = qualifier minus the function name when the qualifier
    // names a known pattern (A::B -> class A; A::B::C -> class A::B). For
    // in-class bodies the caller passes the class name directly.
    std::string class_name = qualified;
    const std::size_t last = qualified.rfind("::");
    if (last != std::string::npos) class_name = qualified.substr(0, last);

    // Local enum aliases: `const auto x = Storage::kLatch;` etc.
    struct Alias { std::string kind, value; };
    std::vector<std::pair<std::string, Alias>> aliases;
    auto lookup = [&](const std::string& id, const char* kind) -> std::string {
      for (const auto& [n, a] : aliases)
        if (n == id && a.kind == kind) return a.value;
      return "";
    };

    for (std::size_t j = i; j < end; ++j) {
      // Alias pattern: ident = (Storage|StateCat) :: ident ;
      if (At(j).IsIdent() && At(j + 1).Is("=") &&
          (At(j + 2).Is("Storage") || At(j + 2).Is("StateCat")) &&
          At(j + 3).Is("::") && At(j + 4).IsIdent() && At(j + 5).Is(";")) {
        aliases.push_back({At(j).text, {At(j + 2).text, At(j + 4).text}});
        j += 5;
        continue;
      }
      // Allocate call: ... '.' Allocate '(' with >= 5 arguments.
      if (At(j).Is("Allocate") && j > 0 &&
          (At(j - 1).Is(".") || At(j - 1).Is("->")) && At(j + 1).Is("(")) {
        const std::size_t close = SkipBalanced(j + 1, "(", ")");
        CppAllocation alloc;
        alloc.file = path_;
        alloc.line = At(j).line;
        alloc.class_name = class_name;
        // Arguments, split at top-level commas.
        std::vector<std::vector<Token>> args(1);
        int d = 0;
        for (std::size_t k = j + 2; k + 1 < close; ++k) {
          const Token& u = At(k);
          if (u.Is("(") || u.Is("{") || u.Is("[")) ++d;
          else if (u.Is(")") || u.Is("}") || u.Is("]")) --d;
          if (u.Is(",") && d == 0) { args.emplace_back(); continue; }
          args.back().push_back(u);
        }
        if (args.size() < 5) continue;  // not the registry's Allocate
        // LHS member: scan back across the receiver chain for `name =`.
        std::size_t b = j - 1;  // at '.'/'->'
        while (b > i) {
          const Token& u = At(b - 1);
          if (u.IsIdent() || u.Is(".") || u.Is("->") || u.Is("]") ||
              u.Is("[") || u.Is("this")) { --b; continue; }
          break;
        }
        if (b > i && At(b - 1).Is("=")) {
          // tokens before '=' back to the statement boundary form the lhs.
          std::size_t s = b - 1;
          while (s > i && !At(s - 1).Is(";") && !At(s - 1).Is("{") &&
                 !At(s - 1).Is("}"))
            --s;
          int sqd = 0;
          for (std::size_t k = s; k < b - 1; ++k) {
            if (At(k).Is("[")) ++sqd;
            else if (At(k).Is("]")) --sqd;
            else if (sqd == 0 && At(k).IsIdent() && !At(k).Is("this"))
              alloc.member = At(k).text;
          }
        }
        // arg0: registered name.
        bool any_nonliteral = false;
        std::string lit;
        for (const Token& u : args[0]) {
          if (u.IsString())
            lit += u.text.substr(1, u.text.size() - 2);
          else if (!u.Is("+"))
            any_nonliteral = true;
        }
        alloc.reg_name = lit;
        alloc.name_is_suffix = any_nonliteral && !lit.empty();
        // arg1/arg2: category and storage.
        auto enum_of = [&](const std::vector<Token>& a,
                           const char* kind) -> std::string {
          if (a.size() >= 3 && a[0].Is(kind) && a[1].Is("::")) return a[2].text;
          if (a.size() == 1 && a[0].IsIdent()) return lookup(a[0].text, kind);
          return "";
        };
        alloc.cat = enum_of(args[1], "StateCat");
        alloc.storage = enum_of(args[2], "Storage");
        auto join = [](const std::vector<Token>& a) {
          std::string s;
          for (const Token& u : a) {
            if (!s.empty() && u.IsIdent() &&
                std::isalnum((unsigned char)s.back()))
              s += ' ';
            s += u.text;
          }
          return s;
        };
        alloc.count_expr = join(args[3]);
        alloc.width_expr = join(args[4]);
        auto literal = [](const std::string& s) -> long long {
          if (s.empty()) return -1;
          char* endp = nullptr;
          const long long v = std::strtoll(s.c_str(), &endp, 0);
          return endp && *endp == '\0' ? v : -1;
        };
        alloc.count_value = literal(alloc.count_expr);
        alloc.width_value = literal(alloc.width_expr);
        model_->allocations.push_back(std::move(alloc));
        j = close - 1;
        continue;
      }
    }
  }

  std::string path_;
  const std::vector<Token>& t_;
  CppModel* model_;
};

}  // namespace

bool CppAllocation::MatchesFieldName(const std::string& n) const {
  if (reg_name.empty()) return false;
  if (!name_is_suffix) return n == reg_name;
  return n.size() > reg_name.size() &&
         n.compare(n.size() - reg_name.size(), reg_name.size(), reg_name) == 0;
}

void ParseCppSource(const std::string& path, const std::string& text,
                    CppModel* model) {
  std::string code = StripComments(text, /*blank_literals=*/false);
  BlankDirectives(code);
  std::string blanked = StripComments(text, /*blank_literals=*/true);
  BlankDirectives(blanked);
  const std::vector<Token> toks = Tokenize(code);
  Parser(path, toks, model).Run();
  model->files.push_back({path, std::move(code), std::move(blanked)});
}

CppModel ParseCppFiles(const std::vector<std::string>& paths) {
  CppModel model;
  for (const std::string& p : paths) ParseCppSource(p, ReadFile(p), &model);
  return model;
}

int CountIdentifier(const std::string& text, const std::string& ident) {
  if (ident.empty()) return 0;
  int count = 0;
  std::size_t pos = 0;
  auto is_word = [](char c) {
    return std::isalnum((unsigned char)c) || c == '_';
  };
  while ((pos = text.find(ident, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_word(text[pos - 1]);
    const std::size_t after = pos + ident.size();
    const bool right_ok = after >= text.size() || !is_word(text[after]);
    if (left_ok && right_ok) ++count;
    pos = after;
  }
  return count;
}

}  // namespace tfsim::analyze
