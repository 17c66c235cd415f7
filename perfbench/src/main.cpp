// fifoms_perfbench: runs one benchmark workload and prints its result as
// one JSON line (see ../METRICS.md; run.py is the usual entry point).
//
//   fifoms_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--spans FILE]
//
// Every argument is validated, and the output paths probed, before any
// workload runs.  Exit status: 0 when every correctness check passed, 1
// when one failed, 2 on a usage error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <sstream>
#include <string>

#include "analysis/auditor.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;

int usage_error(const std::string& message) {
  std::fprintf(stderr, "fifoms_perfbench: %s\n", message.c_str());
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = value;
  return true;
}

/// A file can be created at `path` (the run's outputs must not fail
/// after the work is done).
bool writable_file(const std::filesystem::path& path) {
  const std::filesystem::path parent =
      path.has_parent_path() ? path.parent_path() : ".";
  std::error_code ec;
  if (!std::filesystem::is_directory(parent, ec)) return false;
  return access(parent.c_str(), W_OK) == 0 &&
         !std::filesystem::is_directory(path, ec);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string hex64(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " +
           json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string summary_object(const perfbench::Summary& summary) {
  const std::string digest =
      summary.digest ? json_string(hex64(*summary.digest)) : "null";
  return "{\"digest\": " + digest +
         ", \"fingerprint\": " + json_string(hex64(summary.fingerprint)) +
         ", \"sim_delay_slots\": " + json_number(summary.delay) +
         ", \"sim_throughput\": " + json_number(summary.throughput) + "}";
}

std::string render(const perfbench::Report& report,
                   const perfbench::Options& options) {
  std::ostringstream out;
  out << "{\"workload\": " << json_string(report.workload)
      << ", \"seed\": " << options.seed
      << ", \"trace\": " << (options.trace ? 1 : 0)
      << ", \"correct\": " << (report.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << report.attempted
      << ", \"failed\": " << report.failed << ", \"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i)
    out << (i > 0 ? ", " : "") << json_string(report.failures[i]);
  out << "], \"summary\": " << summary_object(report.summary)
      << ", \"recorded\": " << summary_object(report.recorded)
      << ", \"end_to_end\": " << metrics_object(report.end_to_end)
      << ", \"per_layer\": " << metrics_object(report.per_layer)
      << ", \"layer_detail\": " << metrics_object(report.layer_detail)
      << ", \"samples\": " << metrics_object(report.samples)
      << ", \"build\": {\"compiler\": " << json_string(PERFBENCH_COMPILER)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"cxx_flags\": " << json_string(PERFBENCH_CXX_FLAGS)
      << ", \"fifoms_audit\": "
      << (fifoms::MatchingAuditor::enabled() ? "true" : "false")
      << "}, \"seconds\": " << json_number(options.seconds) << "}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false, have_seed = false, have_work_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, number)) return usage_error("bad --seed " + value);
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0 && options.seconds <= 600))
        return usage_error("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        return usage_error("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
      have_work_dir = true;
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return usage_error("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_work_dir)
    return usage_error("--workload, --seed and --work-dir are required");
  bool known = false;
  for (const std::string& name : perfbench::workload_names())
    known = known || name == options.workload;
  if (!known) return usage_error("unknown workload " + options.workload);
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec || access(options.work_dir.c_str(), W_OK) != 0)
    return usage_error("work dir not writable: " + options.work_dir.string());
  if (!options.spans_path.empty() && !writable_file(options.spans_path))
    return usage_error("cannot write spans to " + options.spans_path.string());

  perfbench::Report report;
  report.workload = options.workload;
  try {
    report = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    report.check(false, std::string("exception: ") + e.what());
  }
  std::printf("%s\n", render(report, options).c_str());
  return report.failed == 0 ? 0 : 1;
}
