// Host-noise record for one run: what the machine is, and how busy the
// hypervisor and other tenants kept it while the run measured.  An outlier
// run can then be explained (steal, load, a slower triad) instead of being
// silently averaged in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Aggregate CPU ticks from the first line of /proc/stat.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  static CpuTicks read();
};

struct HostStamp {
  std::string cpu_model;
  unsigned nproc = 0;
  std::uint64_t llc_bytes = 0;  ///< largest cache level of CPU 0
  std::string affinity;         ///< CPUs the process may run on, e.g. "0-3"
  double loadavg_1m = 0.0;      ///< at the start of the run
  static HostStamp read();
};

/// The last-level cache size in bytes, or `fallback` if sysfs lacks it.
std::uint64_t llc_bytes(std::uint64_t fallback);

/// Share of CPU time stolen by the hypervisor between two samples, in %.
double steal_pct(const CpuTicks& begin, const CpuTicks& end);

/// A measuring window (an RPC second, a sweep/triad pair) is clean when
/// the hypervisor stole at most this share of the host's CPU time during
/// it.  The gated medians use only clean windows: a window with its vCPUs
/// taken away measures the host, not the program.
inline constexpr double kCleanStealPct = 2.0;

/// Indices of the clean windows, given each window's steal share; every
/// index when fewer than a quarter of the windows (or fewer than 3) are
/// clean, so a run under steal throughout still reports all it measured.
std::vector<std::size_t> clean_windows(const std::vector<double>& steal_pct);

/// JSON member "steal_filter": {...}: windows measured and used.
std::string steal_filter_json(std::size_t windows, std::size_t used);

/// JSON member "host": {...} for the traced output file.
std::string host_json(const HostStamp& h, const CpuTicks& begin,
                      const CpuTicks& end, double triad_gbs,
                      const std::string& team_cpus);

}  // namespace perfbench
