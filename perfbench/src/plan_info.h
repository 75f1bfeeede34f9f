// Exact facts about a plan, read from its public TuningReport: the plan
// fingerprint that tells a changed plan apart from host noise.
#pragma once

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "core/tuned_matrix.h"

namespace perfbench {

struct PlanInfo {
  std::uint64_t nnz = 0;
  std::uint64_t tuned_bytes = 0;
  std::uint64_t blocks = 0;
  std::uint64_t blocks_register_blocked = 0;
  std::uint64_t blocks_bcoo = 0;
  std::uint64_t blocks_idx16 = 0;
  unsigned fused_min_width = 0;
  unsigned prefetch_distance = 0;
  /// Largest per-thread nonzero count over the mean (1 = perfect balance).
  double nnz_imbalance = 1.0;

  static PlanInfo of(const spmv::TuningReport& r) {
    PlanInfo p;
    p.nnz = r.nnz;
    p.tuned_bytes = r.tuned_bytes;
    p.blocks = r.cache_blocks;
    p.blocks_register_blocked = r.blocks_register_blocked;
    p.blocks_bcoo = r.blocks_bcoo;
    p.blocks_idx16 = r.blocks_idx16;
    p.fused_min_width = r.fused_batch_min_width;
    p.prefetch_distance = r.prefetch_distance;
    std::vector<std::uint64_t> per_thread(std::max(1u, r.threads), 0);
    for (const auto& b : r.blocks) {
      if (b.thread < per_thread.size()) per_thread[b.thread] += b.decision.nnz;
    }
    const double mean = static_cast<double>(r.nnz) /
                        static_cast<double>(per_thread.size());
    const auto most = *std::max_element(per_thread.begin(), per_thread.end());
    p.nnz_imbalance = mean > 0 ? static_cast<double>(most) / mean : 1.0;
    return p;
  }

  [[nodiscard]] double bytes_per_nnz() const {
    return nnz == 0 ? 0.0
                    : static_cast<double>(tuned_bytes) /
                          static_cast<double>(nnz);
  }

  /// The counts as JSON members (no braces).
  [[nodiscard]] std::string json() const {
    std::ostringstream out;
    out.precision(17);
    out << "\"nnz\": " << nnz << ", \"tuned_bytes\": " << tuned_bytes
        << ", \"bytes_per_nnz\": " << bytes_per_nnz()
        << ", \"cache_blocks\": " << blocks
        << ", \"blocks_register_blocked\": " << blocks_register_blocked
        << ", \"blocks_bcoo\": " << blocks_bcoo
        << ", \"blocks_idx16\": " << blocks_idx16
        << ", \"fused_min_width\": " << fused_min_width
        << ", \"prefetch_distance\": " << prefetch_distance
        << ", \"nnz_imbalance\": " << nnz_imbalance;
    return out.str();
  }
};

/// The core.* fingerprint metrics and engine.nnz_imbalance over a
/// workload's plans: counts summed, bytes per nonzero over all nonzeros,
/// imbalance the worst plan's.
inline void add_plan_metrics(const std::vector<PlanInfo>& plans,
                             Metrics& out) {
  PlanInfo sum;
  double worst = 0.0;
  for (const auto& p : plans) {
    sum.nnz += p.nnz;
    sum.tuned_bytes += p.tuned_bytes;
    sum.blocks_register_blocked += p.blocks_register_blocked;
    sum.blocks_bcoo += p.blocks_bcoo;
    sum.blocks_idx16 += p.blocks_idx16;
    sum.fused_min_width += p.fused_min_width;
    sum.prefetch_distance += p.prefetch_distance;
    worst = std::max(worst, p.nnz_imbalance);
  }
  auto count = [](std::uint64_t v) {
    return Metric{static_cast<double>(v), "count"};
  };
  out["core.bytes_per_nnz"] = {sum.bytes_per_nnz(), "B"};
  out["core.blocks_register_blocked"] = count(sum.blocks_register_blocked);
  out["core.blocks_bcoo"] = count(sum.blocks_bcoo);
  out["core.blocks_idx16"] = count(sum.blocks_idx16);
  out["core.fused_min_width"] = count(sum.fused_min_width);
  out["core.prefetch_distance"] = count(sum.prefetch_distance);
  out["engine.nnz_imbalance"] = {worst, "ratio"};
}

}  // namespace perfbench
