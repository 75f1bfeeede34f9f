// The benchmark's own yardsticks: a STREAM triad, a serial CSR product and
// the computed byte count credited to one multiply.
//
// None of this calls into the library under test (no engine context, no
// thread pool, no library kernels, no traffic model), so no change to the
// library can move the denominator of `stream_frac` or the reference the
// outputs are checked against.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "matrix/csr.h"

namespace perfbench {

/// A fixed team of threads, each pinned to one CPU of the process's
/// affinity mask, that runs one task per thread and waits for all of them.
class Team {
 public:
  explicit Team(unsigned threads);
  ~Team();
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Run task(t) on thread t for every t and return when all are done.
  void run(const std::function<void(unsigned)>& task);
  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(threads_.size());
  }
  /// The CPUs the threads are pinned to, e.g. "0,1,2" (-1 where pinning
  /// failed).
  [[nodiscard]] std::string cpu_list() const;

 private:
  void loop(unsigned t);

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(unsigned)>* task_ = nullptr;
  std::uint64_t generation_ = 0;
  unsigned pending_ = 0;
  bool stop_ = false;
  std::vector<int> cpus_;
  std::vector<std::thread> threads_;  ///< last: joined before the rest dies
};

/// STREAM triad a = b + s*c over arrays of `elements` doubles each, split
/// evenly over a Team.  The arrays are first-touched by the team.
class Triad {
 public:
  Triad(Team& team, std::size_t elements);
  /// One timed triad; returns GB/s counted the STREAM way (24 B/element).
  double run();
  [[nodiscard]] std::size_t array_bytes() const {
    return elements_ * sizeof(double);
  }

 private:
  Team& team_;
  std::size_t elements_;
  // Left uninitialised by the allocation so the team first-touches them.
  std::unique_ptr<double[]> a_, b_, c_;
};

/// The reference triad bandwidth, GB/s.  suite-sweep states its sweep time
/// at this bandwidth (each sweep scaled by the triad right after it), and
/// the RPC workloads' stream_frac is their credited rate over it.  It is
/// near the median three-thread triad of the 4-vCPU Xeon the benchmark
/// was written on, whose triad drifted between 19 and 34 GB/s within an
/// hour.
inline constexpr double kRefTriadGbs = 25.0;

/// y = A*x, one thread, in row order: the reference outputs are checked
/// against.
void csr_reference(const spmv::CsrMatrix& a, std::span<const double> x,
                   std::span<double> y);

/// Per row, the sum of |a_ij * x_j|: the scale of the rounding error a
/// reordered accumulation of that row may show.
void csr_abs_reference(const spmv::CsrMatrix& a, std::span<const double> x,
                       std::span<double> y);

/// Relative tolerance of every output check: |y_i - ref_i| may not exceed
/// kRelTol * sum_j |a_ij * x_j|.
inline constexpr double kRelTol = 1e-9;

/// Index of the first row of `y` outside tolerance of `ref`/`abs_ref`, or
/// -1 when every row checks (a length mismatch fails at row 0).
std::int64_t first_mismatch(std::span<const double> y,
                            std::span<const double> ref,
                            std::span<const double> abs_ref);

/// Bytes one y += A*x moves at the least, computed from the input CSR with
/// 32-bit indices: 12 per nonzero (value + column), 4 per row pointer, 8
/// per x element read and 16 per y element read and written.  The format
/// the library chooses does not enter it.
std::uint64_t credited_bytes(const spmv::CsrMatrix& a);

/// Freivalds-style projection check for replies too large to recompute per
/// call: with w fixed, w.(A x) = (A^T w).x, so each reply is checked in
/// O(rows + cols) against a vector computed once from the input CSR.
class Projection {
 public:
  Projection(const spmv::CsrMatrix& a, std::uint64_t seed);
  /// Expected w.y for operand x, and its rounding scale.
  void expect(std::span<const double> x, double& value, double& scale) const;
  /// True when w.y matches `value` within kRelTol * scale (plus a length
  /// and finiteness check).
  [[nodiscard]] bool check(std::span<const double> y, double value,
                           double scale) const;

 private:
  std::vector<double> w_;      ///< rows
  std::vector<double> atw_;    ///< cols: A^T w
  std::vector<double> absw_;   ///< cols: |A|^T |w|
};

}  // namespace perfbench
