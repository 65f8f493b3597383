#include "bench_harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/diagnostics.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
extern char** environ;
#endif

namespace mh::bench {
namespace {

[[noreturn]] void usage_error(const std::string& name,
                              const std::string& what) {
  std::cerr << "bench_" << name << ": " << what
            << "\nusage: bench_" << name
            << " [--json <path>] [--quick] [--seed <n>] [--repeats <n>]"
               " [--warmup <n>]\n";
  std::exit(2);
}

void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    os << static_cast<long long>(v);
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  os << buf;
}

const char* direction_str(Direction d) {
  return d == Direction::kLowerIsBetter ? "lower" : "higher";
}

// --- provenance -------------------------------------------------------------
// Every BENCH_*.json records where its numbers came from, so
// tools/bench_compare.py can warn instead of silently comparing records
// from different machines/compilers/ISA tiers.

std::string prov_git_sha() {
  // CI exports the exact commit; local builds fall back to the SHA CMake
  // saw at configure time (may be stale against the working tree).
  if (const char* sha = std::getenv("GITHUB_SHA")) {
    if (*sha != '\0') return sha;
  }
#ifdef MH_GIT_SHA
  return MH_GIT_SHA;
#else
  return "unknown";
#endif
}

std::string prov_compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string prov_cpu() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos &&
        line.compare(0, 10, "model name") == 0) {
      const std::size_t start = line.find_first_not_of(" \t", colon + 1);
      return start == std::string::npos ? "unknown" : line.substr(start);
    }
  }
  return "unknown";
}

// The ISA tier the batch-GEMM engine's runtime dispatch would pick here.
std::string prov_dispatch() {
#if defined(__x86_64__) || defined(_M_X64)
  if (__builtin_cpu_supports("avx512f")) return "avx512";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "portable";
#else
  return "portable";
#endif
}

std::string prov_hostname() {
#if defined(__unix__) || defined(__APPLE__)
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) == 0 && buf[0] != '\0') return buf;
#endif
  return "unknown";
}

// Every MH_* variable in the environment: fault specs, steal policy
// overrides, trace/metrics destinations — anything that changes behaviour.
std::vector<std::pair<std::string, std::string>> prov_mh_env() {
  std::vector<std::pair<std::string, std::string>> out;
#if defined(__unix__) || defined(__APPLE__)
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string_view entry = *e;
    if (!entry.starts_with("MH_")) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) continue;
    out.emplace_back(entry.substr(0, eq), entry.substr(eq + 1));
  }
  std::sort(out.begin(), out.end());
#endif
  return out;
}

}  // namespace

Harness::Harness(std::string name, int argc, char** argv)
    : name_(std::move(name)) {
  bool repeats_set = false, warmup_set = false;
  const auto value_of = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc) usage_error(name_, std::string(flag) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json_path_ = value_of(i, "--json");
    } else if (arg == "--quick") {
      quick_ = true;
    } else if (arg == "--seed") {
      has_seed_ = true;
      seed_ = std::strtoull(value_of(i, "--seed").c_str(), nullptr, 10);
    } else if (arg == "--repeats") {
      repeats_ = std::atoi(value_of(i, "--repeats").c_str());
      repeats_set = true;
    } else if (arg == "--warmup") {
      warmup_ = std::atoi(value_of(i, "--warmup").c_str());
      warmup_set = true;
    } else {
      usage_error(name_, "unknown flag: " + arg);
    }
  }
  if (quick_) {
    if (!repeats_set) repeats_ = 3;
    if (!warmup_set) warmup_ = 0;
  }
  if (repeats_ < 1) usage_error(name_, "--repeats must be >= 1");
  if (warmup_ < 0) usage_error(name_, "--warmup must be >= 0");
  // Honor MH_FLIGHT_RECORDER in every bench: the bounded recorder arms
  // before any engine work so a later fault (or a CI re-run after a gate
  // failure) leaves a dumpable trace behind. No-op when unset.
  obs::FlightRecorder::arm_from_env();
}

void Harness::scalar(const std::string& name, double value,
                     const std::string& unit, Direction direction,
                     bool gate) {
  MH_CHECK(!std::isnan(value), "scalar is NaN: " + name);
  scalars_.push_back({name, unit, direction, gate, /*feasible=*/true, value});
}

void Harness::scalar_infeasible(const std::string& name,
                                const std::string& unit) {
  scalars_.push_back({name, unit, Direction::kLowerIsBetter, /*gate=*/false,
                      /*feasible=*/false, 0.0});
}

SampleSummary Harness::measure(const std::string& name,
                               const std::function<void()>& body,
                               Direction direction, bool gate) {
  for (int i = 0; i < warmup_; ++i) body();
  std::vector<double> secs;
  secs.reserve(static_cast<std::size_t>(repeats_));
  for (int i = 0; i < repeats_; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    secs.push_back(dt.count());
  }
  const SampleSummary s = summarize(secs);
  summaries_.push_back({name, "s", direction, gate, s});
  return s;
}

void Harness::summary(const std::string& name,
                      const std::vector<double>& samples,
                      const std::string& unit, Direction direction,
                      bool gate) {
  summaries_.push_back({name, unit, direction, gate, summarize(samples)});
}

int Harness::finish() {
  obs::export_metrics_from_env(obs::MetricsRegistry::global());
  if (json_path_.empty()) return 0;

  std::ostringstream os;
  os << "{\n  \"bench\": ";
  obs::json::write_escaped(os, name_);
  os << ",\n  \"quick\": " << (quick_ ? "true" : "false") << ",\n"
     << "  \"seed\": ";
  if (has_seed_) {
    os << seed_;
  } else {
    os << "null";
  }
  os << ",\n  \"provenance\": {";
  const std::pair<const char*, std::string> prov[] = {
      {"git_sha", prov_git_sha()},     {"compiler", prov_compiler()},
      {"cpu", prov_cpu()},             {"dispatch", prov_dispatch()},
      {"hostname", prov_hostname()}};
  for (const auto& [key, value] : prov) {
    os << "\n    \"" << key << "\": ";
    obs::json::write_escaped(os, value);
    os << ",";
  }
  os << "\n    \"mh_env\": {";
  const auto mh_env = prov_mh_env();
  for (std::size_t i = 0; i < mh_env.size(); ++i) {
    if (i) os << ", ";
    obs::json::write_escaped(os, mh_env[i].first);
    os << ": ";
    obs::json::write_escaped(os, mh_env[i].second);
  }
  os << "}\n  },\n  \"scalars\": [";
  for (std::size_t i = 0; i < scalars_.size(); ++i) {
    const ScalarRec& r = scalars_[i];
    os << (i ? ",\n    " : "\n    ") << "{\"name\": ";
    obs::json::write_escaped(os, r.name);
    os << ", \"unit\": ";
    obs::json::write_escaped(os, r.unit);
    os << ", \"direction\": \"" << direction_str(r.direction)
       << "\", \"gate\": " << (r.gate ? "true" : "false")
       << ", \"feasible\": " << (r.feasible ? "true" : "false")
       << ", \"value\": ";
    if (r.feasible) {
      write_number(os, r.value);
    } else {
      os << "null";
    }
    os << "}";
  }
  os << (scalars_.empty() ? "]" : "\n  ]") << ",\n  \"measures\": [";
  for (std::size_t i = 0; i < summaries_.size(); ++i) {
    const SummaryRec& r = summaries_[i];
    os << (i ? ",\n    " : "\n    ") << "{\"name\": ";
    obs::json::write_escaped(os, r.name);
    os << ", \"unit\": ";
    obs::json::write_escaped(os, r.unit);
    os << ", \"direction\": \"" << direction_str(r.direction)
       << "\", \"gate\": " << (r.gate ? "true" : "false")
       << ", \"count\": " << r.stats.count << ", \"mean\": ";
    write_number(os, r.stats.mean);
    os << ", \"stddev\": ";
    write_number(os, r.stats.stddev);
    os << ", \"min\": ";
    write_number(os, r.stats.min);
    os << ", \"max\": ";
    write_number(os, r.stats.max);
    os << ", \"p50\": ";
    write_number(os, r.stats.p50);
    os << ", \"p95\": ";
    write_number(os, r.stats.p95);
    os << ", \"p99\": ";
    write_number(os, r.stats.p99);
    os << ", \"p999\": ";
    write_number(os, r.stats.p999);
    os << ", \"cov\": ";
    write_number(os, r.stats.cov);
    os << "}";
  }
  os << (summaries_.empty() ? "]" : "\n  ]") << ",\n  \"metrics\": "
     << obs::json_snapshot(obs::MetricsRegistry::global()) << "\n}\n";

  std::ofstream f(json_path_);
  if (!f) {
    std::cerr << "bench_" << name_ << ": cannot write " << json_path_ << "\n";
    return 1;
  }
  f << os.str();
  std::cout << "json: wrote " << json_path_ << "\n";
  return f.good() ? 0 : 1;
}

}  // namespace mh::bench
