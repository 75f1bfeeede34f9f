// Executor: a per-caller handle that runs a SpmvPlan.
//
// The plan is shared and immutable; the Executor owns the per-call scratch
// and performs operand validation, so a server gives each worker thread its
// own (cheap) Executor over the one planned matrix.  multiply_batch() is
// the server-side amortization lever: one dispatch/barrier pays for many
// right-hand sides instead of one, and on plans with a fused SpMM path the
// matrix itself streams once per chunk of right-hand sides instead of once
// per multiply (see bench/bench_engine_batch.cpp for the measured effect).
#pragma once

#include <memory>
#include <span>

#include "engine/spmv_plan.h"

namespace spmv::engine {

class Executor {
 public:
  /// Borrow `plan` (it must outlive the Executor) and allocate its scratch.
  explicit Executor(const SpmvPlan& plan);

  /// Borrow `plan` with its scratch drawn from `cache` instead of a fresh
  /// allocation, and returned there on destruction.  This is how a serving
  /// dispatcher constructs a short-lived Executor per batch without paying
  /// a scratch allocation each time (the reduction-based plans' scratch is
  /// plan_threads × rows doubles).  Both plan and cache must outlive the
  /// Executor.
  Executor(const SpmvPlan& plan, ScratchCache& cache);

  Executor(Executor&&) noexcept;
  Executor& operator=(Executor&&) noexcept;
  ~Executor();

  /// y ← y + A·x.  Throws std::invalid_argument on short or aliasing
  /// operands.  Safe to call concurrently with other Executors over the
  /// same plan; a single Executor is not itself thread-safe (it owns one
  /// scratch).
  void multiply(std::span<const double> x, std::span<double> y);

  /// ys[i] ← ys[i] + A·xs[i] for all i.  xs and ys must be the same
  /// length; each pointer must be non-null and reference at least
  /// cols()/rows() valid elements — lengths cannot be checked
  /// from bare pointers, unlike multiply()'s spans.  No xs pointer may
  /// equal any ys pointer, and no two ys pointers may be equal (both
  /// checked): the batch executes with no ordering between right-hand
  /// sides, so chained batches and shared destinations are rejected —
  /// express dependent multiplies as successive multiply() calls.  Uses the plan's
  /// batched execution path (single dispatch per batch where available).
  void multiply_batch(std::span<const double* const> xs,
                      std::span<double* const> ys);

  [[nodiscard]] const SpmvPlan& plan() const { return *plan_; }

 private:
  const SpmvPlan* plan_;
  std::unique_ptr<Scratch> scratch_;
  ScratchCache* home_ = nullptr;  ///< scratch returns here when set
};

/// The operand checks multiply()/multiply_batch() perform, exposed so other
/// front-ends (the serving scheduler validates at submit time, before the
/// request ever reaches an Executor) reject with identical semantics.
/// Both throw std::invalid_argument on violation.
void validate_multiply_operands(const SpmvPlan& plan,
                                std::span<const double> x,
                                std::span<double> y);
void validate_batch_operands(const SpmvPlan& plan,
                             std::span<const double* const> xs,
                             std::span<double* const> ys);

}  // namespace spmv::engine
