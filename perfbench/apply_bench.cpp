// Wall-clock benchmark of the real 3-D Coulomb Apply with an outside-in
// layer ledger.
//
// The timed path is the one the library really runs: Function::project, the
// Coulomb operator build, make_apply_tasks (displacement screening fills the
// operator-block cache), then Apply = enumerate -> operator-block fetch ->
// fused GEMM -> accumulate -> sum_down, either serially (ops::apply) or on
// World ranks (world::world_apply). Only public library calls are used.
//
// Usage:
//   perfbench_apply --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <file>]
//                   [--expect-norm <|V|> --expect-probe <V(0.52,0.5,0.5)>]
//
// --trace 0 times the untouched drivers and reports the end-to-end metrics.
// --trace 1 additionally rebuilds ops::apply from its public pieces, records
// one span per source leaf per phase into an obs::TraceSession (kept in
// memory, written as a Chrome trace at exit) and reports the per-layer
// ledger. Every Apply's output is checked; the last stdout line is one JSON
// record with metrics, checks and provenance. Exit status 1 means a check
// failed, 2 a usage error.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "apps/coulomb.hpp"
#include "common/rng.hpp"
#include "dht/distributed_function.hpp"
#include "dht/owner_map.hpp"
#include "linalg/batch_gemm.hpp"
#include "linalg/gemm.hpp"
#include "mra/function.hpp"
#include "obs/critical_path.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "ops/apply.hpp"
#include "tensor/transform.hpp"
#include "world/world.hpp"
#include "world/world_apply.hpp"

namespace {

using namespace mh;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads. All four share examples/coulomb_smoothing's operator (eps 1e-3,
// max_disp 2, screening 1e-3) and tree depth cap; they differ in k, the
// Apply mode and the driver.

struct Workload {
  const char* name;
  std::size_t k;
  double thresh;
  bool rank_reduce;
  std::size_t ranks;  ///< 0: serial ops::apply; else world_apply on N ranks
};

constexpr Workload kWorkloads[] = {
    {"coulomb_k5", 5, 5e-4, false, 0},
    {"coulomb_k5_rr", 5, 5e-4, true, 0},
    {"coulomb_k10", 10, 1e-3, false, 0},
    {"world_k5", 5, 5e-4, false, 4},
};

constexpr std::size_t kNdim = 3;
constexpr int kMaxLevel = 5;
constexpr double kFitEps = 1e-3;
constexpr std::int64_t kMaxDisp = 2;
constexpr double kScreen = 1e-3;
constexpr double kRankTol = 1e-5;
constexpr int kSubtreeLevel = 2;
// The owner map is fixed rather than drawn from --seed: a different
// placement changes the rank imbalance, and with it world_k5's Apply time,
// far more than the input jitter does.
constexpr std::uint64_t kPlacementSeed = 7;
// Seeds other than 0 move each site centre by up to kCentreJitter per axis
// and scale its width by up to kWidthJitter; small enough that the tree and
// task count stay close to seed 0, so seeds vary inputs, not problem size.
constexpr double kCentreJitter = 0.01;
constexpr double kWidthJitter = 0.02;

constexpr std::size_t kSetupReps = 11;
constexpr std::size_t kMinSamples = 3;
constexpr double kWorldRelTol = 1e-12;
constexpr double kExpectRelTol = 1e-9;
constexpr double kClosureTol = 0.05;
constexpr double kCalibFlops = 3e8;  // HostClock work per sample
constexpr double kHostClockRefSeconds = 0.12;  // i.e. 2.5 GFLOP/s
const double kProbe[kNdim] = {0.52, 0.5, 0.5};

std::vector<apps::GaussianSite> make_sites(std::uint64_t seed) {
  std::vector<apps::GaussianSite> sites;
  sites.push_back({{0.42, 0.5, 0.5}, 0.12, 1.0});
  sites.push_back({{0.62, 0.5, 0.5}, 0.08, 0.7});
  if (seed == 0) return sites;  // exactly examples/coulomb_smoothing
  Rng rng(seed);
  for (apps::GaussianSite& s : sites) {
    for (double& c : s.center) c += rng.uniform(-kCentreJitter, kCentreJitter);
    s.width *= 1.0 + rng.uniform(-kWidthJitter, kWidthJitter);
  }
  return sites;
}

// ---------------------------------------------------------------------------
// Set-up: everything before the first Apply.

struct Instance {
  mra::Function rho;
  std::unique_ptr<ops::SeparatedConvolution> op;
  std::size_t tasks = 0;
  std::unique_ptr<dht::SubtreeOwnerMap> owners;
  std::unique_ptr<dht::DistributedFunction> dist;
  double project_s = 0.0;
  double scatter_s = 0.0;
  double total_s = 0.0;
};

Instance set_up(const Workload& w, const mra::ScalarFn& density) {
  Instance in;
  const auto t0 = Clock::now();
  mra::FunctionParams params;
  params.ndim = kNdim;
  params.k = w.k;
  params.thresh = w.thresh;
  params.initial_level = 1;
  params.max_level = kMaxLevel;
  in.rho = mra::Function::project(density, params);
  in.project_s = seconds_since(t0);

  in.op.reset(new ops::SeparatedConvolution(
      apps::make_coulomb_operator(kNdim, w.k, kFitEps, kMaxDisp, kScreen)));
  // The first enumeration screens displacements and fills the block cache.
  in.tasks = ops::make_apply_tasks(*in.op, in.rho).size();

  if (w.ranks > 0) {
    const auto t1 = Clock::now();
    in.owners = std::make_unique<dht::SubtreeOwnerMap>(w.ranks, kSubtreeLevel,
                                                       kPlacementSeed);
    in.dist = std::make_unique<dht::DistributedFunction>(in.rho, *in.owners);
    in.scatter_s = seconds_since(t1);
  }
  in.total_s = seconds_since(t0);
  return in;
}

// ---------------------------------------------------------------------------
// Output checks.

struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  bool ok = true;  ///< false once any check (per-Apply or run-level) fails

  // One checked Apply: `problems` empty means it passed.
  void apply(const std::string& problems) {
    ++attempted;
    if (!problems.empty()) {
      ++failed;
      fail(problems);
    }
  }
  void fail(const std::string& why) {
    ok = false;
    if (failures.size() < 8) failures.push_back(why);
  }
};

bool bitwise_equal(const mra::Function& a, const mra::Function& b) {
  const std::vector<mra::Key> ka = a.leaf_keys();
  if (ka != b.leaf_keys()) return false;
  for (const mra::Key& key : ka) {
    const Tensor& x = a.leaf_coeffs(key);
    const Tensor& y = b.leaf_coeffs(key);
    if (x.size() != y.size() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// ||a - ref|| / ||ref|| over leaf coefficients; infinity if the trees differ.
double relative_difference(const mra::Function& a, const mra::Function& ref) {
  const std::vector<mra::Key> keys = ref.leaf_keys();
  if (keys != a.leaf_keys()) return INFINITY;
  double diff = 0.0;
  double norm = 0.0;
  for (const mra::Key& key : keys) {
    const Tensor& x = a.leaf_coeffs(key);
    const Tensor& y = ref.leaf_coeffs(key);
    for (std::size_t i = 0; i < y.size(); ++i) {
      diff += (x[i] - y[i]) * (x[i] - y[i]);
      norm += y[i] * y[i];
    }
  }
  return norm > 0.0 ? std::sqrt(diff / norm) : std::sqrt(diff);
}

struct Expectations {
  const mra::Function* reference = nullptr;  ///< rel kWorldRelTol
  bool have_values = false;                  ///< seed-0 recorded values
  double norm = 0.0;
  double probe = 0.0;
};

std::string check_apply(const mra::Function& v, const ops::ApplyStats& stats,
                        const Instance& in, const Expectations& ex) {
  std::string problems;
  const auto add = [&](const std::string& s) {
    problems += problems.empty() ? s : "; " + s;
  };
  if (stats.tasks != in.tasks) {
    add("tasks " + std::to_string(stats.tasks) + " != make_apply_tasks " +
        std::to_string(in.tasks));
  }
  if (stats.gemms != in.tasks * in.op->rank() * kNdim) {
    add("gemms " + std::to_string(stats.gemms) + " != tasks*M*d");
  }
  if (ex.reference != nullptr) {
    const double rel = relative_difference(v, *ex.reference);
    if (!(rel <= kWorldRelTol)) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "relative difference %.3e > %.0e", rel,
                    kWorldRelTol);
      add(buf);
    }
  }
  if (ex.have_values) {
    const double norm = v.norm2();
    const double probe = v.eval(kProbe);
    if (!(std::abs(norm - ex.norm) <= kExpectRelTol * std::abs(ex.norm)) ||
        !(std::abs(probe - ex.probe) <= kExpectRelTol * std::abs(ex.probe))) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "|V| %.17g V(probe) %.17g differ from recorded %.17g %.17g",
                    norm, probe, ex.norm, ex.probe);
      add(buf);
    }
  }
  return problems;
}

// ---------------------------------------------------------------------------
// Traced rebuild of ops::apply: the same calls in the same order, grouped by
// source leaf so each leaf gets one span per phase. Results are accumulated
// in task order, so the output is bitwise equal to ops::apply.

enum Phase : std::size_t {
  kEnumerate,
  kFetch,
  kCompute,
  kAccumulate,
  kSumDown,
  kPhaseCount
};
constexpr const char* kPhaseName[kPhaseCount] = {
    "make_apply_tasks", "h_block/reduced_rank/term_coeff",
    "tensor::fused_apply_accumulate", "Function::accumulate", "sum_down"};
constexpr obs::Category kPhaseCategory[kPhaseCount] = {
    obs::Category::kPreprocess, obs::Category::kPreprocess,
    obs::Category::kCpuCompute, obs::Category::kPostprocess,
    obs::Category::kPostprocess};

struct Ledger {
  std::array<double, kPhaseCount> phase_s{};
  double total_s = 0.0;        ///< the traced Apply's own span
  std::size_t fetch_calls = 0;  ///< h_block + reduced_rank lookups
  /// Separated terms executed per contraction length (index = kred).
  std::vector<std::size_t> terms_by_kred;

  double phase_sum() const {
    double s = 0.0;
    for (const double p : phase_s) s += p;
    return s;
  }
};

class TracedApply {
 public:
  TracedApply(obs::TraceSession& session, std::uint32_t track)
      : session_(session), track_(track) {}

  mra::Function run(const ops::SeparatedConvolution& op,
                    const mra::Function& f, const ops::ApplyOptions& opts,
                    Ledger& ledger, ops::ApplyStats& stats) {
    ledger_ = &ledger;
    task_ = obs::mint_span_id();
    prev_ = 0;
    const double start = session_.now_us();
    const std::size_t d = f.ndim();
    const std::size_t k = f.k();
    const std::size_t rank = op.rank();
    const double rr_tol =
        opts.rank_tol > 0.0 ? opts.rank_tol : op.params().thresh;
    ledger.terms_by_kred.assign(k + 1, 0);

    std::vector<ops::ApplyTask> tasks;
    phase(kEnumerate, -1.0, [&] { tasks = ops::make_apply_tasks(op, f); });
    mra::Function out(f.params());
    phase(kAccumulate, -1.0, [&] {
      out.accumulate(mra::Key::root(d), Tensor::cube(d, k));
    });

    std::vector<std::shared_ptr<const Tensor>> blocks;
    std::vector<MatrixView> mats;
    std::vector<double> coeffs;
    std::vector<std::size_t> kreds;
    std::vector<Tensor> results;
    double leaf = 0.0;
    for (std::size_t begin = 0; begin < tasks.size(); leaf += 1.0) {
      std::size_t end = begin;
      while (end < tasks.size() && tasks[end].source == tasks[begin].source)
        ++end;
      const int level = tasks[begin].source.level();
      const Tensor* source = nullptr;
      phase(kFetch, leaf, [&] {
        source = &f.leaf_coeffs(tasks[begin].source);
        blocks.clear();
        mats.clear();
        coeffs.clear();
        kreds.clear();
        for (std::size_t t = begin; t < end; ++t) {
          const ops::Displacement& disp = tasks[t].disp;
          for (std::size_t mu = 0; mu < rank; ++mu) {
            std::size_t kred = k;
            for (std::size_t dim = 0; dim < d; ++dim) {
              blocks.push_back(op.h_block(mu, level, disp[dim]));
              mats.push_back(MatrixView(*blocks.back()));
              if (opts.rank_reduce) {
                kred = std::min(kred,
                                op.reduced_rank(mu, level, disp[dim], rr_tol));
              }
            }
            coeffs.push_back(op.term_coeff(mu));
            kreds.push_back(kred);
            ++ledger.terms_by_kred[kred];
          }
        }
      });
      phase(kCompute, leaf, [&] {
        results.clear();
        for (std::size_t t = 0; t < end - begin; ++t) {
          results.push_back(Tensor::cube(d, k));
          const std::span<const std::size_t> term_kreds =
              opts.rank_reduce
                  ? std::span<const std::size_t>{kreds.data() + t * rank, rank}
                  : std::span<const std::size_t>{};
          fused_apply_accumulate(
              *source, {mats.data() + t * rank * d, rank * d},
              {coeffs.data() + t * rank, rank}, term_kreds, results.back());
        }
      });
      phase(kAccumulate, leaf, [&] {
        for (std::size_t t = begin; t < end; ++t)
          out.accumulate(tasks[t].target, results[t - begin]);
      });
      const std::size_t n = end - begin;
      ledger.fetch_calls += n * rank * d * (opts.rank_reduce ? 2 : 1);
      stats.tasks += n;
      stats.gemms += n * rank * d;
      stats.flops += static_cast<double>(n * rank) * transform_flops(d, k);
      begin = end;
    }
    phase(kSumDown, -1.0, [&] { out.sum_down(); });

    ledger.total_s = (session_.now_us() - start) * 1e-6;
    for (std::size_t r = 0; r < k; ++r) {
      stats.rank_reduced_gemms += ledger.terms_by_kred[r] * d;
    }
    return out;
  }

 private:
  template <typename Fn>
  void phase(Phase p, double leaf, Fn&& fn) {
    const double t0 = session_.now_us();
    fn();
    const double t1 = session_.now_us();
    ledger_->phase_s[p] += (t1 - t0) * 1e-6;
    obs::Span span;
    span.name = kPhaseName[p];
    span.cat = kPhaseCategory[p];
    span.track = track_;
    span.start_us = t0;
    span.dur_us = t1 - t0;
    span.id = obs::mint_span_id();
    span.parent = prev_;
    span.task = task_;
    span.args[0] = {"leaf", leaf};
    session_.record(span);
    prev_ = span.id;
  }

  obs::TraceSession& session_;
  std::uint32_t track_;
  Ledger* ledger_ = nullptr;
  // Each Apply is one trace task whose phase spans form one causal chain.
  std::uint64_t task_ = 0;
  std::uint64_t prev_ = 0;
};

// Flops and computed operand bytes of the GEMMs a ledger's Apply performed:
// each of the d contractions of a term is a (k^{d-1}, kred) x (kred, k)
// product reading A and B and writing C once.
void performed_work(const Ledger& ledger, std::size_t k, double* flops,
                    double* bytes) {
  const double kk = static_cast<double>(k);
  const double rest = std::pow(kk, static_cast<double>(kNdim - 1));
  *flops = 0.0;
  *bytes = 0.0;
  for (std::size_t kred = 0; kred < ledger.terms_by_kred.size(); ++kred) {
    const double gemms =
        static_cast<double>(ledger.terms_by_kred[kred] * kNdim);
    const double kr = static_cast<double>(kred);
    *flops += gemms * 2.0 * rest * kr * kk;
    *bytes += gemms * 8.0 * (rest * kr + kr * kk + rest * kk);
  }
}

// The packed microkernel's peak rate on one Apply contraction shape
// (k^2, k, k): the best ~20 ms batch. Batches are taken at several points
// of the run, so one busy moment of the host cannot set the figure.
class KernelPeak {
 public:
  explicit KernelPeak(std::size_t k)
      : dimi_(k * k), dimj_(k), dimk_(k), a_(dimk_ * dimi_),
        b_(dimk_ * dimj_), c_(dimi_ * dimj_, 0.0) {
    for (std::size_t i = 0; i < a_.size(); ++i) a_[i] = 1e-3 * (i % 13);
    for (std::size_t i = 0; i < b_.size(); ++i) b_[i] = 1e-3 * (i % 7);
    while (batch() < 0.02) calls_ *= 2;
  }

  void sample(std::size_t batches) {
    for (std::size_t i = 0; i < batches; ++i) {
      best_ = std::max(best_, static_cast<double>(calls_) *
                                  linalg::gemm_flops(dimi_, dimj_, dimk_) /
                                  batch() / 1e9);
      ++batches_;
    }
  }
  double gflops() const noexcept { return best_; }
  std::size_t batches() const noexcept { return batches_; }

 private:
  double batch() {
    linalg::GemmWorkspace& ws = linalg::thread_workspace();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls_; ++i) {
      linalg::mTxm_packed(dimi_, dimj_, dimk_, dimk_, c_.data(), a_.data(),
                          b_.data(), ws);
    }
    return seconds_since(t0);
  }

  std::size_t dimi_, dimj_, dimk_;
  std::vector<double> a_, b_, c_;
  std::size_t calls_ = 256;
  double best_ = 0.0;
  std::size_t batches_ = 0;
};

// On a shared machine the host's speed moves Apply's wall time by up to 1.7x
// within minutes, as cores change clock and share execution units with
// neighbours. HostClock times a fixed amount of Apply-shaped work written
// here in plain loops: kCalibFlops worth of separated terms, each three mode
// contractions of a k^3 cube with a k x k matrix, accumulated. It calls no
// library code, so only the host can change its time. Sampled right before
// and after a measured interval, it rescales that interval to seconds on the
// reference host, one that runs a sample in kHostClockRefSeconds.
class HostClock {
 public:
  explicit HostClock(std::size_t k)
      : k_(k),
        terms_(static_cast<std::size_t>(
            kCalibFlops / (6.0 * std::pow(static_cast<double>(k), 4.0)))),
        cube_(k * k * k), a_(cube_.size()), b_(cube_.size()),
        out_(cube_.size(), 0.0), mat_(k * k) {
    for (std::size_t i = 0; i < cube_.size(); ++i) cube_[i] = 1e-2 * (i % 11);
    for (std::size_t i = 0; i < mat_.size(); ++i) mat_[i] = 0.1 * (i % 5);
    restart();
  }

  /// Take a fresh "before" sample (after untimed work since the last one).
  void restart() { last_ = sample(); }

  /// Rescale `wall_s`, measured since the last sample, to reference seconds
  /// by the mean of the samples before and after it.
  double to_reference(double wall_s) {
    const double after = sample();
    const double ref = wall_s * kHostClockRefSeconds / (0.5 * (last_ + after));
    last_ = after;
    return ref;
  }

  double median_sample_s() const { return median(samples_); }
  std::size_t samples() const noexcept { return samples_.size(); }
  bool finite() const {
    double sum = 0.0;
    for (const double v : out_) sum += v;
    return std::isfinite(sum);
  }

 private:
  double sample() {
    const auto t0 = Clock::now();
    for (std::size_t term = 0; term < terms_; ++term) {
      contract(cube_.data(), a_.data());
      contract(a_.data(), b_.data());
      contract(b_.data(), a_.data());
      const double c = 1e-3 * static_cast<double>(term % 3);
      for (std::size_t i = 0; i < out_.size(); ++i) out_[i] += c * a_[i];
    }
    samples_.push_back(seconds_since(t0));
    return samples_.back();
  }

  // r(j2, j3, i) = sum_j t(j, j2, j3) * m(j, i)
  void contract(const double* t, double* r) const {
    const std::size_t rest = k_ * k_;
    for (std::size_t p = 0; p < rest; ++p) {
      for (std::size_t i = 0; i < k_; ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < k_; ++j)
          acc += t[j * rest + p] * mat_[j * k_ + i];
        r[p * k_ + i] = acc;
      }
    }
  }

  std::size_t k_;
  std::size_t terms_;
  std::vector<double> cube_, a_, b_, out_, mat_;
  std::vector<double> samples_;
  double last_ = 0.0;
};

// ---------------------------------------------------------------------------
// Provenance and output.

// Peak resident memory of this process image (VmHWM). getrusage's
// ru_maxrss would not do: it keeps the parent's peak across fork+exec.
double peak_rss_mb() {
  double kb = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        kb = std::strtod(line + 6, nullptr);
      }
    }
    std::fclose(f);
  }
  return kb / 1024.0;
}

std::string cpu_model() {
#if defined(__x86_64__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  const auto last = s.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : s.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
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

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::size_t samples;  ///< timings: how many values the median is over
};

void add(std::vector<Metric>& m, std::string name, double value,
         const char* unit, std::size_t samples = 1) {
  m.push_back({std::move(name), value, unit, samples});
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " + buf +
           ", \"unit\": " + json_string(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6g %-8s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit, m.samples);
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
  bool have_expect = false;
  double expect_norm = 0.0;
  double expect_probe = 0.0;
};

bool parse_args(int argc, char** argv, Args* a) {
  bool have_norm = false;
  bool have_probe = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a->trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else if (flag == "--expect-norm") {
      a->expect_norm = std::strtod(v, &end);
      have_norm = true;
    } else if (flag == "--expect-probe") {
      a->expect_probe = std::strtod(v, &end);
      have_probe = true;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  a->have_expect = have_norm && have_probe;
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0 &&
         (a->trace == 0 || a->trace == 1) && have_norm == have_probe;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_apply --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] "
                 "[--expect-norm <x> --expect-probe <y>]\n");
    return 2;
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (wl == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *wl;
  ops::ApplyOptions opts;
  opts.rank_reduce = w.rank_reduce;
  opts.rank_tol = w.rank_reduce ? kRankTol : 0.0;

  Checks checks;
  const mra::ScalarFn density = apps::gaussian_mixture(make_sites(args.seed));
  std::unique_ptr<world::World> world;
  if (w.ranks > 0) world = std::make_unique<world::World>(w.ranks);

  // Set-up, several times; the last instance is the one measured.
  HostClock host(w.k);
  std::vector<double> setup_wall;
  std::vector<double> setup_ref;
  std::vector<double> project_s;
  std::vector<double> scatter_s;
  Instance in;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    in = Instance{};  // release the previous instance before building anew
    in = set_up(w, density);
    setup_wall.push_back(in.total_s);
    setup_ref.push_back(host.to_reference(in.total_s));
    project_s.push_back(in.project_s);
    scatter_s.push_back(in.scatter_s);
  }
  const ops::SeparatedConvolution& op = *in.op;
  const ops::CacheStats setup_cache = op.cache_stats();

  const auto serial_apply = [&](ops::ApplyStats* stats) {
    return ops::apply(op, in.rho, opts, stats);
  };
  const auto driver_apply = [&](ops::ApplyStats* stats) {
    if (world) return world::world_apply(*world, op, *in.dist, stats);
    return serial_apply(stats);
  };

  Expectations ex;
  ex.have_values = args.have_expect;
  ex.norm = args.expect_norm;
  ex.probe = args.expect_probe;

  // Reference result: serial ops::apply. On world_k5 every distributed
  // result is held to it; on the serial workloads the warm-up Apply is the
  // reference each timed Apply must reproduce.
  mra::Function reference;
  {
    ops::ApplyStats stats;
    reference = serial_apply(&stats);
    checks.apply(check_apply(reference, stats, in, ex));
  }
  ex.reference = &reference;
  if (world) {
    ops::ApplyStats stats;
    const mra::Function v = driver_apply(&stats);  // warm-up
    checks.apply(check_apply(v, stats, in, ex));
  }
  const ops::CacheStats warm_cache = op.cache_stats();

  const auto timed_apply = [&](const auto& fn, ops::ApplyStats* stats,
                               mra::Function* out) {
    const auto t0 = Clock::now();
    *out = fn(stats);
    return seconds_since(t0);
  };

  std::vector<double> apply_s;
  std::vector<Metric> metrics;
  std::vector<Metric> layer;
  double flops = 0.0;

  // Serial Applies run at the host's single-core speed and are rescaled.
  // world_apply's time is mostly ranks waiting on one another, which the
  // host clock does not predict: rescaling widened its spread over seeds
  // from 5% to 9-12%, so it stays in wall seconds.
  std::vector<double> apply_ref;
  if (args.trace == 0) {
    host.restart();
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(args.seconds);
    while (apply_s.size() < kMinSamples || Clock::now() < deadline) {
      ops::ApplyStats stats;
      mra::Function v;
      apply_s.push_back(timed_apply(driver_apply, &stats, &v));
      apply_ref.push_back(world ? apply_s.back()
                                : host.to_reference(apply_s.back()));
      checks.apply(check_apply(v, stats, in, ex));
      flops = stats.flops;
    }
  } else {
    KernelPeak peak(w.k);
    peak.sample(5);
    obs::TraceSession session;
    obs::set_thread_label("perfbench/main");
    TracedApply traced(session, session.thread_track());

    std::vector<double> serial_s;
    std::vector<double> overhead;
    std::vector<double> closure;
    std::vector<Ledger> ledgers;
    std::vector<double> messages;
    std::vector<double> bytes;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(args.seconds);
    for (std::size_t it = 0; it < kMinSamples || Clock::now() < deadline;
         ++it) {
      if (world) {
        const world::World::Stats before = world->stats();
        ops::ApplyStats stats;
        mra::Function v;
        apply_s.push_back(timed_apply(driver_apply, &stats, &v));
        checks.apply(check_apply(v, stats, in, ex));
        const world::World::Stats after = world->stats();
        messages.push_back(
            static_cast<double>(after.messages - before.messages));
        bytes.push_back(after.bytes - before.bytes);
      }
      // Interleaved pair, alternating which side runs first.
      ops::ApplyStats plain_stats;
      ops::ApplyStats traced_stats;
      mra::Function plain;
      mra::Function rebuilt;
      Ledger ledger;
      double plain_s = 0.0;
      for (int side = 0; side < 2; ++side) {
        if ((side + it) % 2 == 0) {
          plain_s = timed_apply(serial_apply, &plain_stats, &plain);
        } else {
          rebuilt = traced.run(op, in.rho, opts, ledger, traced_stats);
        }
      }
      checks.apply(check_apply(plain, plain_stats, in, ex));
      std::string problems = check_apply(rebuilt, traced_stats, in, ex);
      if (!bitwise_equal(rebuilt, plain)) {
        problems += problems.empty() ? "" : "; ";
        problems += "traced rebuild not bitwise equal to ops::apply";
      }
      checks.apply(problems);
      serial_s.push_back(plain_s);
      overhead.push_back(ledger.total_s / plain_s);
      closure.push_back(ledger.phase_sum() / ledger.total_s);
      if (std::abs(closure.back() - 1.0) > kClosureTol) {
        checks.fail("ledger closure " + std::to_string(closure.back()) +
                    " outside 1 +- 0.05");
      }
      flops = plain_stats.flops;
      ledgers.push_back(std::move(ledger));
      peak.sample(2);
    }
    if (!world) apply_s = serial_s;

    // Per-layer values: medians over the traced Applies.
    const auto phase_median = [&](Phase p) {
      std::vector<double> v;
      for (const Ledger& l : ledgers) v.push_back(l.phase_s[p]);
      return median(v);
    };
    std::vector<double> totals;
    for (const Ledger& l : ledgers) totals.push_back(l.total_s);
    const std::size_t n = ledgers.size();
    const double traced_total = median(totals);
    double performed_flops = 0.0;
    double computed_bytes = 0.0;
    performed_work(ledgers.back(), w.k, &performed_flops, &computed_bytes);
    const double compute_s = phase_median(kCompute);
    const double fetch_s = phase_median(kFetch);
    const double tensor_gflops = performed_flops / compute_s / 1e9;
    const double lookups = static_cast<double>(warm_cache.hits) +
                           static_cast<double>(warm_cache.misses);

    add(layer, "mra.project_s", median(project_s), "s", project_s.size());
    add(layer, "mra.accumulate_s", phase_median(kAccumulate), "s", n);
    add(layer, "mra.sum_down_s", phase_median(kSumDown), "s", n);
    add(layer, "mra.leaves", static_cast<double>(in.rho.num_leaves()),
        "count");
    add(layer, "ops.enumerate_s", phase_median(kEnumerate), "s", n);
    add(layer, "ops.tasks", static_cast<double>(in.tasks), "count");
    add(layer, "ops.fetch_s", fetch_s, "s", n);
    add(layer, "ops.fetch_calls",
        static_cast<double>(ledgers.back().fetch_calls), "count");
    add(layer, "ops.fetch_share", fetch_s / traced_total, "ratio", n);
    add(layer, "ops.cache_hit_ratio",
        static_cast<double>(warm_cache.hits) / lookups, "ratio");
    add(layer, "ops.cache_misses", static_cast<double>(setup_cache.misses),
        "count");
    add(layer, "tensor.compute_s", compute_s, "s", n);
    add(layer, "tensor.gflops", tensor_gflops, "GFLOP/s", n);
    add(layer, "tensor.frac_of_peak", tensor_gflops / peak.gflops(), "ratio",
        n);
    add(layer, "linalg.gemms",
        static_cast<double>(in.tasks * op.rank() * kNdim), "count");
    add(layer, "linalg.gflop", performed_flops / 1e9, "GFLOP");
    add(layer, "linalg.bytes_computed", computed_bytes, "B");
    add(layer, "linalg.flops_per_byte", performed_flops / computed_bytes,
        "flop/B");
    add(layer, "linalg.kernel_peak_gflops", peak.gflops(), "GFLOP/s",
        peak.batches());

    // dht / world. Serial workloads are the one-rank case: no scatter and
    // no messages; the rank is busy for the task compute (fetch + GEMM) of
    // each traced Apply and the rest of that Apply is the serial remainder.
    double imbalance = 1.0;
    double busy_max = 0.0;
    double wait_s = 0.0;
    double efficiency = 0.0;
    if (world) {
      const std::vector<std::size_t> loads = in.dist->apply_loads(op);
      double sum = 0.0;
      double max = 0.0;
      for (const std::size_t l : loads) {
        sum += static_cast<double>(l);
        max = std::max(max, static_cast<double>(l));
      }
      imbalance = max / (sum / static_cast<double>(loads.size()));
      // Replay each rank's shard serially: its busy time without waiting.
      double busy_sum = 0.0;
      for (std::size_t r = 0; r < w.ranks; ++r) {
        const auto t0 = Clock::now();
        for (const auto& [key, coeffs] : in.dist->map().shard(r)) {
          for (const ops::Displacement& disp : op.displacements(key.level())) {
            mra::Key target;
            if (key.neighbor(std::span<const std::int64_t>{disp.data(), kNdim},
                             target)) {
              ops::apply_task_compute(op, coeffs, key.level(), disp, opts);
            }
          }
        }
        const double busy = seconds_since(t0);
        busy_sum += busy;
        busy_max = std::max(busy_max, busy);
      }
      const double apply_med = median(apply_s);
      wait_s = apply_med - busy_max;
      efficiency = busy_sum / (static_cast<double>(w.ranks) * apply_med);
    } else {
      std::vector<double> busy;
      std::vector<double> wait;
      std::vector<double> share;
      for (const Ledger& l : ledgers) {
        busy.push_back(l.phase_s[kFetch] + l.phase_s[kCompute]);
        wait.push_back(l.total_s - busy.back());
        share.push_back(busy.back() / l.total_s);
      }
      busy_max = median(busy);
      wait_s = median(wait);
      efficiency = median(share);
    }
    add(layer, "dht.scatter_s", median(scatter_s), "s", scatter_s.size());
    add(layer, "dht.rank_imbalance", imbalance, "ratio");
    add(layer, "world.messages", median(messages), "count", messages.size());
    add(layer, "world.bytes", median(bytes), "B", bytes.size());
    add(layer, "world.max_rank_busy_s", busy_max, "s", world ? 1 : n);
    add(layer, "world.wait_s", wait_s, "s", world ? apply_s.size() : n);
    add(layer, "world.parallel_efficiency", efficiency, "ratio",
        world ? apply_s.size() : n);
    add(layer, "ledger.closure", median(closure), "ratio", n);
    add(layer, "trace.overhead", median(overhead), "ratio", n);

    // Write the spans and read them back as mh_trace_analyze would.
    if (!args.trace_out.empty()) {
      if (!session.write_chrome_trace_file(args.trace_out)) {
        checks.fail("could not write trace " + args.trace_out);
      } else {
        obs::ReadTrace read;
        std::string error;
        if (!obs::read_chrome_trace_file(args.trace_out, &read, &error)) {
          checks.fail("trace does not read back: " + error);
        } else if (read.spans.size() != session.span_count()) {
          checks.fail("trace read back " + std::to_string(read.spans.size()) +
                      " of " + std::to_string(session.span_count()) +
                      " spans");
        } else {
          const obs::TraceAnalysis analysis = obs::analyze_trace(read);
          const double mk = analysis.makespan_us();
          if (!(mk > 0.0) ||
              std::abs(analysis.critical.total_us() - mk) > 0.01 * mk) {
            checks.fail("trace critical-path attribution does not close");
          }
        }
      }
    }
  }

  if (!host.finite()) checks.fail("host clock diverged");
  // Bounded timings are in reference seconds (see HostClock); the raw wall
  // times ride along as *_wall.
  add(metrics, "setup_s", median(setup_ref), "s", setup_ref.size());
  if (!apply_ref.empty()) {
    add(metrics, "apply_s", median(apply_ref), "s", apply_ref.size());
    add(metrics, "gflops", flops / median(apply_ref) / 1e9, "GFLOP/s",
        apply_ref.size());
  }
  add(metrics, "peak_rss_mb", peak_rss_mb(), "MB");
  add(metrics, "setup_wall_s", median(setup_wall), "s", setup_wall.size());
  add(metrics, "apply_wall_s", median(apply_s), "s", apply_s.size());
  add(metrics, "gflops_wall", flops / median(apply_s) / 1e9, "GFLOP/s",
      apply_s.size());
  add(metrics, "host_clock_s", host.median_sample_s(), "s", host.samples());
  add(metrics, "error_rate",
      static_cast<double>(checks.failed) /
          static_cast<double>(checks.attempted),
      "ratio", checks.attempted);

  const double v_norm = reference.norm2();
  const double v_probe = reference.eval(kProbe);
  std::printf(
      "workload %s seed %llu trace %d: %zu leaves, %zu tasks, M=%zu, "
      "|V| = %.17g, V(0.52,0.5,0.5) = %.17g\n",
      w.name, static_cast<unsigned long long>(args.seed), args.trace,
      in.rho.num_leaves(), in.tasks, op.rank(), v_norm, v_probe);
  print_table("end-to-end", metrics);
  if (args.trace == 1) print_table("per-layer", layer);
  for (const std::string& f : checks.failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());

  std::string failures = "[";
  for (std::size_t i = 0; i < checks.failures.size(); ++i)
    failures += (i ? ", " : "") + json_string(checks.failures[i]);
  failures += "]";
  std::string samples = "[";
  for (std::size_t i = 0; i < apply_s.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6f", i ? ", " : "", apply_s[i]);
    samples += buf;
  }
  samples += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
      "\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"failures\": %s, \"v_norm\": %.17g, \"v_probe\": %.17g, "
      "\"apply_samples_s\": %s, "
      "\"end_to_end\": %s, \"per_layer\": %s, "
      "\"provenance\": {\"nproc\": %u, \"cpu_model\": %s, "
      "\"packed_kernels_use_avx2\": %s, \"compiler\": %s, "
      "\"cmake_build_type\": %s, \"seed\": %llu}}\n",
      json_string(w.name).c_str(),
      static_cast<unsigned long long>(args.seed), args.trace,
      checks.ok ? "true" : "false", checks.attempted, checks.failed,
      failures.c_str(), v_norm, v_probe, samples.c_str(),
      metrics_json(metrics).c_str(),
      metrics_json(layer).c_str(), std::thread::hardware_concurrency(),
      json_string(cpu_model()).c_str(),
      linalg::packed_kernels_use_avx2() ? "true" : "false",
      json_string(MH_BENCH_COMPILER).c_str(),
      json_string(MH_BENCH_BUILD_TYPE).c_str(),
      static_cast<unsigned long long>(args.seed));
  return checks.ok ? 0 : 1;
}
