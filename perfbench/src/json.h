#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

// Minimal flat JSON object writer for the perfbench binary's one-line
// results.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

class JsonObject {
 public:
  JsonObject& Num(std::string_view key, double v) {
    Key(key);
    if (!std::isfinite(v)) {
      body_ += "null";
      return *this;
    }
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    body_.append(buf, res.ptr);
    return *this;
  }
  JsonObject& Int(std::string_view key, int64_t v) {
    Key(key);
    body_ += std::to_string(v);
    return *this;
  }
  JsonObject& Bool(std::string_view key, bool v) {
    Key(key);
    body_ += v ? "true" : "false";
    return *this;
  }
  JsonObject& Str(std::string_view key, std::string_view v) {
    Key(key);
    body_ += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') body_ += '\\';
      body_ += (c == '\n' || c == '\r') ? ' ' : c;
    }
    body_ += '"';
    return *this;
  }
  /// Embeds already-serialized JSON (e.g. a nested JsonObject).
  JsonObject& Raw(std::string_view key, std::string_view json) {
    Key(key);
    body_ += json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(std::string_view key) {
    if (!body_.empty()) body_ += ", ";
    body_ += '"';
    body_ += key;
    body_ += "\": ";
  }
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
