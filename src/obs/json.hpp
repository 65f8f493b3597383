// Minimal shared JSON DOM + strict parser, plus the number/string writers
// the trace, metrics and bench exporters share.
//
// The parser reads the trace files that mh_trace_analyze and mh_trace_diff
// take from outside (obs/trace_reader.hpp), so it treats its input as
// untrusted: it rejects trailing data, unescaped control characters and
// non-finite numbers, and bounds nesting depth so a hostile document fails
// with an error instead of overflowing the stack. Numbers are doubles —
// nothing we serialize needs more than 2^53 integer precision.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mh::obs::json {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(std::string_view key) const;
  /// Value of a numeric member, or `fallback` when absent / not a number.
  double num(std::string_view key, double fallback = 0.0) const;
  /// Value of a string member, or empty when absent / not a string.
  std::string_view text(std::string_view key) const;
};

/// Deepest array/object nesting the parser accepts. A Chrome trace nests
/// about 4 levels; the bound only has to stop recursion from exhausting
/// the stack.
inline constexpr std::size_t kMaxDepth = 512;

/// Strict single-document parser: rejects trailing data, unescaped control
/// characters, non-finite numbers, and nesting deeper than kMaxDepth.
class JsonParser {
 public:
  explicit JsonParser(std::string_view input) : in_(input) {}

  bool parse(JsonValue* out, std::string* error);

 private:
  bool fail(const std::string& what);
  void skip_ws();
  bool consume(char c);
  bool literal(std::string_view word);
  bool value(JsonValue& out);
  bool object(JsonValue& out);
  bool array(JsonValue& out);
  bool string(std::string& out);
  bool number(JsonValue& out);

  std::string_view in_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open arrays/objects around pos_
  std::string error_;
};

/// Parse a whole document. Returns false and fills `error` on failure.
bool parse(std::string_view text, JsonValue* out, std::string* error);

/// Escape and double-quote `s` as a JSON string.
void write_escaped(std::ostream& os, std::string_view s);

/// Write `v` in its shortest round-trip form (std::to_chars), so a reader
/// parses back exactly the same double; non-finite values write "0".
void write_number(std::ostream& os, double v);

}  // namespace mh::obs::json
