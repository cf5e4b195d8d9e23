// Dependency-free streaming JSON emitter (and a matching validator) for the
// observability exports: metrics snapshots, propagation-trace JSONL rows and
// chrome://tracing event files. The writer produces compact, valid JSON with
// full string escaping; nesting is tracked so commas and closing brackets
// are emitted automatically.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace tfsim::obs {

// Escapes `s` for use inside a JSON string literal (quotes not included).
std::string JsonEscape(std::string_view s);

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  // Containers. Key-less forms are only valid at the top level or inside an
  // array; keyed forms only inside an object.
  JsonWriter& BeginObject();
  JsonWriter& BeginObject(std::string_view key);
  JsonWriter& BeginArray();
  JsonWriter& BeginArray(std::string_view key);
  JsonWriter& End();  // closes the innermost open container

  // Scalars inside an object.
  JsonWriter& Field(std::string_view key, std::string_view value);
  JsonWriter& Field(std::string_view key, const char* value);
  JsonWriter& Field(std::string_view key, std::uint64_t value);
  JsonWriter& Field(std::string_view key, std::int64_t value);
  JsonWriter& Field(std::string_view key, int value);
  JsonWriter& Field(std::string_view key, double value);
  JsonWriter& Field(std::string_view key, bool value);

  // Scalars inside an array (or a bare top-level value).
  JsonWriter& Value(std::string_view value);
  JsonWriter& Value(std::uint64_t value);
  JsonWriter& Value(double value);

  // Depth of currently open containers (0 when complete).
  std::size_t Depth() const { return stack_.size(); }

 private:
  void Separate();  // comma between siblings
  void Key(std::string_view key);
  void Raw(std::string_view text);

  std::ostream& os_;
  // One entry per open container: true = object, false = array. The parallel
  // flag tracks whether the container already has at least one member.
  std::vector<bool> stack_;
  std::vector<bool> has_member_;
};

// Minimal recursive-descent JSON validator (objects, arrays, strings with
// escapes, numbers, true/false/null). Returns true when `text` is exactly
// one valid JSON value; on failure, fills `*error` (if non-null) with a
// byte-offset diagnostic. Used by tests in place of an external
// `python3 -m json.tool` dependency.
bool JsonLint(std::string_view text, std::string* error = nullptr);

}  // namespace tfsim::obs
