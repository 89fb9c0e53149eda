// Minimal JSON for machine-readable results and campaign files.
//
// Emission: bench binaries (--json=out.json), the scenario_runner CLI and
// CampaignReport emit report files — top-level scalars (workload, millis,
// speedup, thread count) plus named arrays of records — so a perf
// trajectory is a diffable artifact, not a scrollback screenshot.
//
// Parsing: JsonValue::parse is a small recursive-descent reader covering
// the whole of JSON (RFC 8259 minus \u surrogate pairs), added for
// campaign files (api/campaign.hpp): a campaign is declarative data, and
// flags stop scaling at "a list of scenarios".  Both directions live here
// so no third-party dependency is warranted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace fne {

/// Flat JSON object, encoded as it is built: fields appear in insertion
/// order.
class JsonObject {
 public:
  JsonObject& put(const std::string& key, const std::string& value) {
    open_field(key);
    body_ += '"';
    append_escaped(body_, value);
    body_ += '"';
    return *this;
  }
  JsonObject& put(const std::string& key, const char* value) {
    return put(key, std::string(value));
  }
  JsonObject& put(const std::string& key, double value) { return raw(key, number(value)); }
  JsonObject& put(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& put(const std::string& key, std::int64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& put(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& put(const std::string& key, int value) {
    return put(key, static_cast<std::int64_t>(value));
  }
  /// Splice an ALREADY-ENCODED JSON value (an object/array dump) under
  /// `key` — the nesting hook CampaignReport uses to compose sub-objects.
  JsonObject& put_json(const std::string& key, const std::string& encoded) {
    return raw(key, encoded);
  }
  /// Splice `values` as a JSON array of numbers.
  JsonObject& put_numbers(const std::string& key, const std::vector<double>& values) {
    open_field(key);
    body_ += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) body_ += ", ";
      body_ += number(values[i]);
    }
    body_ += ']';
    return *this;
  }

  [[nodiscard]] std::string dump() const {
    std::string out;
    out.reserve(body_.size() + 2);
    out += '{';
    out += body_;
    out += '}';
    return out;
  }

 private:
  JsonObject& raw(const std::string& key, const std::string& encoded) {
    open_field(key);
    body_ += encoded;
    return *this;
  }
  void open_field(const std::string& key) {
    if (!body_.empty()) body_ += ", ";
    body_ += '"';
    append_escaped(body_, key);
    body_ += "\": ";
  }
  /// `value` as a std::ostream at precision 12 prints it (printf's
  /// "%.12g"), without building a stream per number.
  [[nodiscard]] static std::string number(double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    return buf;
  }
  static void append_escaped(std::string& out, const std::string& s) {
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
  }
  std::string body_;  ///< the encoded fields, without the braces
};

/// A report = one top-level object plus named arrays of flat records.
class JsonReport {
 public:
  explicit JsonReport(std::string name) { top_.put("name", std::move(name)); }

  [[nodiscard]] JsonObject& top() noexcept { return top_; }

  /// Append a record to the named array (created on first use).
  [[nodiscard]] JsonObject& record(const std::string& array) {
    for (auto& [name, rows] : arrays_) {
      if (name == array) {
        rows.emplace_back();
        return rows.back();
      }
    }
    arrays_.emplace_back(array, std::vector<JsonObject>{});
    arrays_.back().second.emplace_back();
    return arrays_.back().second.back();
  }

  [[nodiscard]] std::string dump() const {
    std::string body = top_.dump();
    body.pop_back();  // reopen the top object to splice the arrays in
    for (const auto& [name, rows] : arrays_) {
      body += ", \"" + name + "\": [";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i > 0) body += ", ";
        body += rows[i].dump();
      }
      body += "]";
    }
    return body + "}";
  }

  /// Write to `path`; returns false (with a note on stderr) on IO failure.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "warning: cannot write json report to " << path << "\n";
      return false;
    }
    out << dump() << "\n";
    // Status goes to stderr: stdout may itself be a machine-readable
    // stream (--csv, --json) that a note would corrupt.
    std::cerr << "(json written to " << path << ")\n";
    return true;
  }

 private:
  JsonObject top_;
  std::vector<std::pair<std::string, std::vector<JsonObject>>> arrays_;
};

/// A parsed JSON document node.  Object members keep their source order;
/// lookups REQUIRE-fail with the offending key/kind in the message, so a
/// malformed campaign file names its problem instead of defaulting.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  // null

  /// Parse a complete document (REQUIREs valid JSON and no trailing
  /// garbage; the error names the byte offset).
  [[nodiscard]] static JsonValue parse(const std::string& text);
  /// Parse the file at `path` (REQUIREs it to exist and parse).
  [[nodiscard]] static JsonValue parse_file(const std::string& path);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }

  /// Typed accessors; REQUIRE the matching kind.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::int64_t as_int() const;  ///< REQUIREs an integral number
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;   ///< array elements
  [[nodiscard]] const std::vector<Member>& members() const;    ///< object members

  // Object conveniences.
  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] const JsonValue* find(const std::string& key) const;  ///< nullptr if absent
  [[nodiscard]] const JsonValue& at(const std::string& key) const;    ///< REQUIREs presence

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

}  // namespace fne
