#include "yardstick.h"

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <cmath>

#include "util/prng.h"

namespace perfbench {

namespace {

/// The first `n` CPUs of the process's affinity mask (fewer if the mask is
/// smaller; then threads share CPUs round-robin).
std::vector<int> allowed_cpus(unsigned n) {
  std::vector<int> out;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE && out.size() < n; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
  }
  if (out.empty()) out.push_back(0);
  std::vector<int> cpus;
  for (unsigned t = 0; t < n; ++t) cpus.push_back(out[t % out.size()]);
  return cpus;
}

}  // namespace

Team::Team(unsigned threads) : cpus_(allowed_cpus(threads)) {
  threads_.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    threads_.emplace_back([this, t] { loop(t); });
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[t], &set);
    if (pthread_setaffinity_np(threads_.back().native_handle(), sizeof(set),
                               &set) != 0) {
      cpus_[t] = -1;
    }
  }
}

Team::~Team() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::string Team::cpu_list() const {
  std::string out;
  for (const int c : cpus_) {
    if (!out.empty()) out += ',';
    out += std::to_string(c);
  }
  return out;
}

void Team::run(const std::function<void(unsigned)>& task) {
  std::unique_lock lock(mutex_);
  task_ = &task;
  pending_ = size();
  ++generation_;
  start_cv_.notify_all();
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  task_ = nullptr;
}

void Team::loop(unsigned t) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(unsigned)>* task = nullptr;
    {
      std::unique_lock lock(mutex_);
      start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      task = task_;
    }
    (*task)(t);
    {
      std::lock_guard lock(mutex_);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

Triad::Triad(Team& team, std::size_t elements)
    : team_(team),
      elements_(elements),
      a_(new double[elements]),
      b_(new double[elements]),
      c_(new double[elements]) {
  const unsigned n = team_.size();
  team_.run([&](unsigned t) {
    const std::size_t lo = elements * t / n, hi = elements * (t + 1) / n;
    for (std::size_t i = lo; i < hi; ++i) {
      a_[i] = 0.0;
      b_[i] = 1.0;
      c_[i] = 2.0;
    }
  });
}

double Triad::run() {
  const std::size_t elements = elements_;
  const unsigned n = team_.size();
  double* a = a_.get();
  const double* b = b_.get();
  const double* c = c_.get();
  const auto t0 = std::chrono::steady_clock::now();
  team_.run([&](unsigned t) {
    const std::size_t lo = elements * t / n, hi = elements * (t + 1) / n;
    for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
  });
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return 24.0 * static_cast<double>(elements) / s / 1e9;
}

void csr_reference(const spmv::CsrMatrix& a, std::span<const double> x,
                   std::span<double> y) {
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.values();
  for (std::uint32_t r = 0; r < a.rows(); ++r) {
    double sum = 0.0;
    for (std::uint64_t k = rp[r]; k < rp[r + 1]; ++k) sum += v[k] * x[ci[k]];
    y[r] = sum;
  }
}

void csr_abs_reference(const spmv::CsrMatrix& a, std::span<const double> x,
                       std::span<double> y) {
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.values();
  for (std::uint32_t r = 0; r < a.rows(); ++r) {
    double sum = 0.0;
    for (std::uint64_t k = rp[r]; k < rp[r + 1]; ++k) {
      sum += std::fabs(v[k] * x[ci[k]]);
    }
    y[r] = sum;
  }
}

std::int64_t first_mismatch(std::span<const double> y,
                            std::span<const double> ref,
                            std::span<const double> abs_ref) {
  if (y.size() != ref.size()) return 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    // Written so that a NaN in y fails the check.
    if (!(std::fabs(y[i] - ref[i]) <= kRelTol * abs_ref[i])) {
      return static_cast<std::int64_t>(i);
    }
  }
  return -1;
}

std::uint64_t credited_bytes(const spmv::CsrMatrix& a) {
  return 12 * a.nnz() + 4 * (std::uint64_t{a.rows()} + 1) +
         8 * std::uint64_t{a.cols()} + 16 * std::uint64_t{a.rows()};
}

Projection::Projection(const spmv::CsrMatrix& a, std::uint64_t seed)
    : w_(a.rows()), atw_(a.cols(), 0.0), absw_(a.cols(), 0.0) {
  spmv::Prng rng(seed);
  for (auto& w : w_) w = rng.next_double(1.0, 2.0);
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto v = a.values();
  for (std::uint32_t r = 0; r < a.rows(); ++r) {
    for (std::uint64_t k = rp[r]; k < rp[r + 1]; ++k) {
      atw_[ci[k]] += v[k] * w_[r];
      absw_[ci[k]] += std::fabs(v[k] * w_[r]);
    }
  }
}

void Projection::expect(std::span<const double> x, double& value,
                        double& scale) const {
  value = 0.0;
  scale = 0.0;
  for (std::size_t j = 0; j < x.size() && j < atw_.size(); ++j) {
    value += atw_[j] * x[j];
    scale += absw_[j] * std::fabs(x[j]);
  }
}

bool Projection::check(std::span<const double> y, double value,
                       double scale) const {
  if (y.size() != w_.size()) return false;
  double got = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) got += w_[i] * y[i];
  // Both sums reorder the same products, so their difference is rounding
  // of order eps * scale; kRelTol leaves ample room and a NaN fails.
  return std::fabs(got - value) <= kRelTol * scale;
}

}  // namespace perfbench
