// Minimal JSON writing for the benchmark's result lines and report files.

#ifndef STEPBENCH_JSON_H_
#define STEPBENCH_JSON_H_

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace stepbench {

inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out + "\"";
}

// Every digit a double carries; non-finite values become null.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + JsonNumber(values[i]);
  }
  return out + "]";
}

// Builds one JSON object from already-encoded values, in insertion order.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, std::string encoded) {
    fields_.emplace_back(key, std::move(encoded));
    return *this;
  }
  JsonObject& Num(const std::string& key, double v) {
    return Raw(key, JsonNumber(v));
  }
  JsonObject& Int(const std::string& key, long long v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, JsonString(v));
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  std::string Dump() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace stepbench

#endif  // STEPBENCH_JSON_H_
