#include "serve/serve_stats.h"

#include <algorithm>
#include <bit>

namespace spmv::serve {

void LatencyHistogram::record_ns(std::uint64_t ns) {
  const std::uint64_t us = ns / 1000;
  const std::size_t bucket =
      us == 0 ? 0
              : std::min<std::size_t>(std::bit_width(us) - 1, kBuckets - 1);
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  total_ns_.fetch_add(ns, std::memory_order_relaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const {
  Snapshot s;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.total_ns = total_ns_.load(std::memory_order_relaxed);
  return s;
}

double LatencyHistogram::Snapshot::mean_us() const {
  return count == 0 ? 0.0
                    : static_cast<double>(total_ns) / 1000.0 /
                          static_cast<double>(count);
}

double LatencyHistogram::Snapshot::quantile_us(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count - 1));  // 0-based sample index
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets[b];
    if (seen > rank) return static_cast<double>(std::uint64_t{2} << b);
  }
  return static_cast<double>(std::uint64_t{2} << (kBuckets - 1));
}

void MatrixServeStats::record_batch(std::uint64_t width) {
  batches_dispatched.fetch_add(1, std::memory_order_relaxed);
  rhs_dispatched.fetch_add(width, std::memory_order_relaxed);
  std::uint64_t prev = max_batch_width.load(std::memory_order_relaxed);
  while (prev < width && !max_batch_width.compare_exchange_weak(
                             prev, width, std::memory_order_relaxed)) {
  }
}

double MatrixStatsSnapshot::mean_batch_width() const {
  return batches_dispatched == 0
             ? 1.0
             : static_cast<double>(rhs_dispatched) /
                   static_cast<double>(batches_dispatched);
}

const MatrixStatsSnapshot* ServeStatsSnapshot::find(
    const std::string& name) const& {
  for (const MatrixStatsSnapshot& m : matrices) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double ServeStatsSnapshot::mean_batch_width() const {
  std::uint64_t batches = 0, rhs = 0;
  for (const MatrixStatsSnapshot& m : matrices) {
    batches += m.batches_dispatched;
    rhs += m.rhs_dispatched;
  }
  return batches == 0 ? 1.0
                      : static_cast<double>(rhs) / static_cast<double>(batches);
}

std::uint64_t ServeStatsSnapshot::total_completed() const {
  std::uint64_t n = 0;
  for (const MatrixStatsSnapshot& m : matrices) n += m.requests_completed;
  return n;
}

std::shared_ptr<MatrixServeStats> ServeStats::cell(const std::string& name) {
  MutexLock lock(mutex_);
  auto it = cells_.find(name);
  if (it == cells_.end()) {
    it = cells_.emplace(name, std::make_shared<MatrixServeStats>()).first;
  }
  return it->second;
}

ServeStatsSnapshot ServeStats::snapshot() const {
  ServeStatsSnapshot out;
  out.unknown_matrix_rejected =
      unknown_matrix_rejected_.load(std::memory_order_relaxed);
  MutexLock lock(mutex_);
  out.matrices.reserve(cells_.size());
  for (const auto& [name, cell] : cells_) {
    MatrixStatsSnapshot m;
    m.name = name;
    m.requests_submitted =
        cell->requests_submitted.load(std::memory_order_relaxed);
    m.requests_completed =
        cell->requests_completed.load(std::memory_order_relaxed);
    m.requests_failed = cell->requests_failed.load(std::memory_order_relaxed);
    m.requests_rejected =
        cell->requests_rejected.load(std::memory_order_relaxed);
    m.batches_dispatched =
        cell->batches_dispatched.load(std::memory_order_relaxed);
    m.rhs_dispatched = cell->rhs_dispatched.load(std::memory_order_relaxed);
    m.max_batch_width = cell->max_batch_width.load(std::memory_order_relaxed);
    m.queue_latency = cell->queue_latency.snapshot();
    m.dispatch_latency = cell->dispatch_latency.snapshot();
    out.matrices.push_back(std::move(m));
  }
  return out;
}

}  // namespace spmv::serve
