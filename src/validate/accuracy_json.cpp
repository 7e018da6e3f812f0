#include "validate/accuracy_json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace kncube::validate {

std::string json_number(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";  // reads back as inf
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

std::string to_json(const ValidationReport& report) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"kncube-accuracy-v1\",\n";
  out << "  \"config\": {\n";
  out << "    \"replications\": " << report.replications << ",\n";
  out << "    \"confidence\": " << json_number(kConfidence) << ",\n";
  out << "    \"ci_epsilon\": " << json_number(kCiEpsilon) << "\n";
  out << "  },\n";
  out << "  \"summary\": {\n";
  out << "    \"points\": " << report.points.size() << ",\n";
  out << "    \"model_in_ci\": " << report.count(PointClass::kModelInCI) << ",\n";
  out << "    \"within_tolerance\": " << report.count(PointClass::kWithinTolerance)
      << ",\n";
  out << "    \"out_of_tolerance\": " << report.count(PointClass::kOutOfTolerance)
      << ",\n";
  out << "    \"sim_sanity\": " << report.count(PointClass::kSimSanity) << ",\n";
  out << "    \"sim_sanity_failed\": "
      << report.count(PointClass::kSimSanityFailed) << ",\n";
  out << "    \"skipped_saturated\": "
      << report.count(PointClass::kSkippedSaturated) << ",\n";
  out << "    \"passed\": " << (report.passed() ? "true" : "false") << "\n";
  out << "  },\n";
  out << "  \"points\": [\n";
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const ValidationPoint& p = report.points[i];
    out << "    {\"scenario\": " << json_string(p.scenario)
        << ", \"family\": " << json_string(p.family)
        << ", \"lambda\": " << json_number(p.lambda)
        << ", \"lambda_frac\": " << json_number(p.lambda_frac)
        << ", \"model_latency\": " << json_number(p.model_latency)
        << ", \"sim_mean\": " << json_number(p.sim_mean)
        << ", \"ci_half_width\": " << json_number(p.ci_half_width)
        << ", \"rel_error\": " << json_number(p.rel_error)
        << ", \"tolerance\": " << json_number(p.tolerance)
        << ", \"class\": " << json_string(point_class_name(p.cls))
        << ", \"detail\": " << json_string(p.detail) << "}"
        << (i + 1 < report.points.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

bool write_json(const std::string& path, const std::string& json) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << json;
  return static_cast<bool>(out);
}

util::Table accuracy_table(const ValidationReport& report) {
  util::Table table({"scenario", "family", "frac", "lambda", "model", "sim",
                     "ci±", "rel err", "tol", "class"});
  table.set_title("model-vs-simulation accuracy");
  for (const ValidationPoint& p : report.points) {
    const auto opt = [](double v) -> util::Cell {
      if (std::isnan(v)) return std::string("-");
      return v;
    };
    table.add_row({p.scenario, p.family, p.lambda_frac, p.lambda,
                   opt(p.model_latency), opt(p.sim_mean), opt(p.ci_half_width),
                   opt(p.rel_error), opt(p.tolerance),
                   std::string(point_class_name(p.cls))});
  }
  return table;
}

std::string summary_line(const ValidationReport& report) {
  std::ostringstream out;
  out << report.points.size() << " points: "
      << report.count(PointClass::kModelInCI) << " model-in-CI, "
      << report.count(PointClass::kWithinTolerance) << " within-tolerance, "
      << report.count(PointClass::kOutOfTolerance) << " out-of-tolerance, "
      << report.count(PointClass::kSimSanity) << " sim-sanity, "
      << report.count(PointClass::kSimSanityFailed) << " sim-sanity-failed, "
      << report.count(PointClass::kSkippedSaturated) << " skipped-saturated -> "
      << (report.passed() ? "PASS" : "FAIL");
  return out.str();
}

}  // namespace kncube::validate
