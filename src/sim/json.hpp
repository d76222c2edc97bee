// Minimal JSON emission (and just enough parsing to round-trip it): the
// serialization layer behind every machine-readable result line the
// experiment driver emits (BENCH_JSON lines on the console, bare JSONL in
// --json files) and the sfsearch_cli --json reports. tests/test_json.cpp
// round-trips every escape class.
#pragma once

#include <cstdint>
#include <string>

namespace sfs::sim {

/// Escapes a string for use inside a JSON string literal: quote and
/// backslash are backslash-escaped, control characters below 0x20 become
/// \u00XX, everything else (including multi-byte UTF-8) passes through.
[[nodiscard]] std::string json_escape(const std::string& s);

/// Inverse of json_escape, accepting the full JSON escape repertoire
/// (\" \\ \/ \b \f \n \r \t and \uXXXX including surrogate pairs, decoded
/// to UTF-8). Returns false when `s` is not a valid escaped string body
/// (truncated escape, bad hex digit, unpaired surrogate); `out` is
/// unspecified in that case.
[[nodiscard]] bool json_unescape(const std::string& s, std::string& out);

/// Formats a finite double with 6 fixed decimals (the BENCH_JSON number
/// format); non-finite values serialize as "null" since JSON has no
/// Inf/NaN.
[[nodiscard]] std::string json_num(double v);

/// Builds a single-line JSON object field by field. Field order is
/// insertion order; keys are escaped, values are typed by the method used.
/// The result of str() is one object like {"bench":"e1","n":4096}.
class JsonObjectWriter {
 public:
  /// Appends "key":"<escaped value>".
  JsonObjectWriter& str_field(const std::string& key,
                              const std::string& value);
  /// Appends "key":<json_num(value)> (null for non-finite).
  JsonObjectWriter& num_field(const std::string& key, double value);
  /// Appends "key":<value> as a bare integer.
  JsonObjectWriter& int_field(const std::string& key, std::uint64_t value);
  /// Appends "key":true|false.
  JsonObjectWriter& bool_field(const std::string& key, bool value);
  /// Appends "key":null.
  JsonObjectWriter& null_field(const std::string& key);
  /// Appends "key":<raw> verbatim — `raw` must itself be valid JSON.
  JsonObjectWriter& raw_field(const std::string& key, const std::string& raw);

  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObjectWriter& key(const std::string& k);
  std::string body_;
};

}  // namespace sfs::sim
