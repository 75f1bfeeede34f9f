// Plan/executor split: immutable planned state vs per-call scratch.
//
// Planning (partitioning, blocking, encoding) is expensive and happens
// once; execution happens millions of times, possibly from many server
// threads at once.  The engine therefore separates the two:
//
//   * SpmvPlan is the immutable product of planning.  execute() is const
//     and touches no plan state besides reading it — every mutable byte a
//     call needs (private destination vectors, carry slots, DMA staging
//     buffers) lives in a Scratch object the caller owns.
//   * Scratch is the per-call state.  Two concurrent execute() calls with
//     distinct Scratch objects are data-race free and produce bit-identical
//     results to back-to-back serial calls.
//
// All six parallel variants and both baselines implement this interface,
// so servers, benches, and the Executor batch front-end treat them
// uniformly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "util/aligned.h"
#include "util/thread_annotations.h"

namespace spmv::engine {

class ExecutionContext;
class SpmvPlan;

/// Base class for a plan's per-call mutable state.  Plans with no state of
/// their own (disjoint-row-write variants like the tuned matrix) use the
/// base class directly — it still carries the fused-batch panel buffers,
/// which is why make_scratch() never returns nullptr anymore.
class Scratch {
 public:
  virtual ~Scratch();

  /// Panel buffers for the fused SpMM batch path: execute_batch()
  /// overrides pack strided batch operands into these row-major k-wide
  /// panels (see run_fused_batch).  Lazily grown to the requested element
  /// count and kept for reuse, so steady-state batched serving allocates
  /// nothing.
  [[nodiscard]] double* x_panel(std::size_t elements);
  [[nodiscard]] double* y_panel(std::size_t elements);

 private:
  friend class ScratchCache;
  AlignedBuffer<double> x_panel_;
  AlignedBuffer<double> y_panel_;
  /// Stamped by ScratchCache::take — the plan whose make_scratch() built
  /// this scratch.  A cache handing the scratch to a different plan is a
  /// corruption bug and fails loudly instead (see ScratchCache::take).
  const SpmvPlan* built_for_ = nullptr;
};

class SpmvPlan {
 public:
  virtual ~SpmvPlan();

  /// Logical operator shape.
  [[nodiscard]] virtual std::uint32_t rows() const = 0;
  [[nodiscard]] virtual std::uint32_t cols() const = 0;

  /// Worker count the plan was partitioned for (1 = serial execution).
  [[nodiscard]] virtual unsigned plan_threads() const = 0;

  /// The execution context this plan dispatches on (never null; defaults
  /// to ExecutionContext::global() unless the plan was built with one).
  [[nodiscard]] virtual ExecutionContext& context() const;

  /// Allocate the scratch one concurrent execute()/execute_batch() call
  /// needs.  Never null: plans without private state get a base Scratch,
  /// which still carries the fused-batch panel buffers.
  [[nodiscard]] virtual std::unique_ptr<Scratch> make_scratch() const;

  /// y ← y + A·x.  `x`/`y` must have cols()/rows() valid elements and
  /// not alias.  `scratch` must come from this plan's
  /// make_scratch() (plans that keep no per-call state tolerate nullptr —
  /// their own multiply() front doors pass it) and must not be shared
  /// between concurrent calls.  Must not be invoked from inside a pool
  /// worker of the plan's own context.
  virtual void execute(const double* x, double* y, Scratch* scratch) const = 0;

  /// ys[i] ← ys[i] + A·xs[i] for every i.  The default loops over
  /// execute(); the blocked plans override it with a fused SpMM path that
  /// packs the batch into k-wide panels and streams the matrix once per
  /// chunk (see run_fused_batch), falling back to a single looped dispatch
  /// where fusion is off.  Overrides must stay bit-identical to the loop.
  virtual void execute_batch(std::span<const double* const> xs,
                             std::span<double* const> ys,
                             Scratch* scratch) const;
};

/// Shared panel machinery for fused execute_batch overrides.  Chunks the
/// batch into panels of at most `max_width` right-hand sides, packs each
/// chunk's strided operands into `scratch`'s row-major panels — the y
/// panel is seeded with the caller's y values, so every right-hand side's
/// accumulation chain is exactly its single-multiply chain and the fused
/// result is bit-identical to the loop — runs `sweep(xp, yp, w)` per
/// chunk, and unpacks.  Chunks narrower than `min_width` (including
/// width-1 tails) run through `single(x, y)` instead, because packing
/// cannot pay for itself below the crossover.  Requires min_width >= 2.
///
/// `decompose_ragged` controls how a ragged remainder (not a power of
/// two) chunks.  SIMD fused kernels are registered only at widths
/// {2, 4, 8}; a width-7 panel would sweep the whole matrix through the
/// runtime-width scalar kernel.  With decompose_ragged, chunk widths are
/// the largest power of two <= remaining (7 -> 4 + 2 + single), so every
/// panel hits a vector kernel at the cost of extra matrix streams —
/// measured profitable exactly when the plan's kernels are SIMD.  Without
/// it, the remainder runs as one maximal scalar-width chunk (one matrix
/// stream), the right call for scalar-backend plans.
void run_fused_batch(
    std::span<const double* const> xs, std::span<double* const> ys,
    std::uint32_t rows, std::uint32_t cols, unsigned min_width,
    unsigned max_width, bool decompose_ragged, Scratch& scratch,
    const std::function<void(const double* xp, double* yp, unsigned w)>&
        sweep,
    const std::function<void(const double* x, double* y)>& single);

/// A small free-list of Scratch objects so a plan's own multiply() stays
/// allocation-free in steady state while remaining safe for concurrent
/// callers: each call borrows a scratch (allocating only when all are in
/// flight) and returns it when done.  The free list is capped — scratches
/// returned beyond the cap are freed, so a transient burst of concurrent
/// calls does not pin peak-concurrency memory for the plan's lifetime.
/// Movable so the value-type plan classes that embed it stay movable;
/// moving drops the cached scratches (they are stamped with the embedding
/// plan's old address — see take()) and the cache simply re-warms.
class ScratchCache {
 public:
  ScratchCache();
  ScratchCache(ScratchCache&&) noexcept;
  ScratchCache& operator=(ScratchCache&&) noexcept;
  ~ScratchCache();

  class Lease {
   public:
    Lease(ScratchCache* cache, std::unique_ptr<Scratch> scratch);
    Lease(Lease&&) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease();  ///< returns the scratch to the cache

    [[nodiscard]] Scratch* get() const { return scratch_.get(); }

   private:
    ScratchCache* cache_;
    std::unique_ptr<Scratch> scratch_;
  };

  /// Borrow a cached scratch, or make a fresh one via `plan.make_scratch()`.
  [[nodiscard]] Lease borrow(const SpmvPlan& plan);

  /// Lease-free borrowing for holders that manage the return themselves
  /// (the pooled Executor): take() hands out a cached or fresh scratch,
  /// give_back() returns it for reuse (or frees it beyond the cap).  Both
  /// are thread-safe; give_back(nullptr) is a no-op.  A cache belongs to
  /// exactly one plan: every scratch is stamped with the plan that built
  /// it, and take() throws std::logic_error when a cached scratch was
  /// built by a different plan — a cache accidentally shared across plans
  /// fails loudly instead of corrupting memory (scratch layouts are
  /// plan-specific).
  [[nodiscard]] std::unique_ptr<Scratch> take(const SpmvPlan& plan);
  void give_back(std::unique_ptr<Scratch> scratch);

 private:
  /// The free-list cap adapts to observed concurrency: it is the
  /// high-water mark of simultaneously outstanding scratches, clamped to
  /// [kMinCached, kMaxCached].  A serial caller keeps the old tiny
  /// footprint (one scratch can be plan_threads × rows doubles for the
  /// reduction-based variants), while a scheduler running N dispatchers
  /// against one entry settles at N cached scratches instead of freeing
  /// and re-allocating N - kMinCached of them on every batch.
  /// The mark only ever rises — a past burst pins at most kMaxCached.
  static constexpr std::size_t kMinCached = 2;
  static constexpr std::size_t kMaxCached = 16;

  struct State {
    Mutex mutex;
    std::vector<std::unique_ptr<Scratch>> free_list SPMV_GUARDED_BY(mutex);
    /// Scratches currently handed out (take minus give_back).
    std::size_t outstanding SPMV_GUARDED_BY(mutex) = 0;
    /// Peak of `outstanding`: the observed concurrency this cache serves.
    std::size_t high_water SPMV_GUARDED_BY(mutex) = 0;
  };
  std::unique_ptr<State> state_;
};

}  // namespace spmv::engine
