#include "report.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace xl::lint {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string sarif_report(const std::vector<Finding>& findings) {
  // Distinct rule ids, in first-seen order, for the driver's rules array.
  std::vector<std::string> rule_ids;
  for (const Finding& f : findings) {
    if (std::find(rule_ids.begin(), rule_ids.end(), f.rule) == rule_ids.end()) {
      rule_ids.push_back(f.rule);
    }
  }
  std::ostringstream out;
  out << "{\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"runs\": [{\n"
      << "    \"tool\": {\"driver\": {\"name\": \"xl_lint\", \"rules\": [";
  for (std::size_t i = 0; i < rule_ids.size(); ++i) {
    out << (i ? ", " : "") << "{\"id\": \"" << json_escape(rule_ids[i]) << "\"}";
  }
  out << "]}},\n    \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "      {\"ruleId\": \"" << json_escape(f.rule)
        << "\", \"level\": \"error\", \"message\": {\"text\": \""
        << json_escape(f.message) << "\"}, \"locations\": [{\"physicalLocation\": "
        << "{\"artifactLocation\": {\"uri\": \"" << json_escape(f.file)
        << "\"}, \"region\": {\"startLine\": " << std::max(f.line, 1)
        << "}}}]}";
  }
  out << (findings.empty() ? "]" : "\n    ]") << "\n  }]\n}\n";
  return out.str();
}

}  // namespace xl::lint
