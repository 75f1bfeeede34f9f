// Shared types of the benchmark: options, metric maps, a workload's result
// and small statistics helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The elements of `v` at `idx`.
inline std::vector<double> pick(const std::vector<double>& v,
                                const std::vector<std::size_t>& idx) {
  std::vector<double> out;
  out.reserve(idx.size());
  for (const std::size_t i : idx) out.push_back(v[i]);
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: tiny inputs, short phases.  Never used for a gate.
  bool tiny = false;
  /// Self-test fault: "y" corrupts one engine output, "reply" one RPC
  /// reply, before the check sees it.  "" for none.
  std::string corrupt;
  /// Where the traced run writes its spans and fingerprint.
  std::string trace_dir = ".bench_build/perfbench-trace";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics end_to_end;
  Metrics per_layer;
  /// Median triad GB/s of the run and the CPUs the triad ran on, for the
  /// host record.
  double triad_gbs = 0.0;
  std::string yardstick_cpus;
  /// Extra JSON members (without braces) for the traced output file: plan
  /// fingerprint, host record and the like.
  std::vector<std::string> trace_json;
};

/// Counts one checked operation.
inline void tally(Result& r, bool ok) {
  ++r.attempted;
  if (!ok) ++r.failed;
}

/// The names of the end-to-end and per-layer metrics every workload
/// reports (the ones BENCHMARK.json lists).
const std::vector<std::string>& end_to_end_names();
const std::vector<std::string>& per_layer_names();

Result run_suite_sweep(const Options& opt);
Result run_rpc_closed(const Options& opt);
Result run_rpc_pipelined(const Options& opt);

}  // namespace perfbench
