#include "engine/spmv_plan.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "engine/execution_context.h"

namespace spmv::engine {

Scratch::~Scratch() = default;

double* Scratch::x_panel(std::size_t elements) {
  if (x_panel_.size() < elements) x_panel_ = AlignedBuffer<double>(elements);
  return x_panel_.data();
}

double* Scratch::y_panel(std::size_t elements) {
  if (y_panel_.size() < elements) y_panel_ = AlignedBuffer<double>(elements);
  return y_panel_.data();
}

SpmvPlan::~SpmvPlan() = default;

ExecutionContext& SpmvPlan::context() const {
  return ExecutionContext::global();
}

std::unique_ptr<Scratch> SpmvPlan::make_scratch() const {
  return std::make_unique<Scratch>();
}

void SpmvPlan::execute_batch(std::span<const double* const> xs,
                             std::span<double* const> ys,
                             Scratch* scratch) const {
  for (std::size_t i = 0; i < xs.size(); ++i) {
    execute(xs[i], ys[i], scratch);
  }
}

void run_fused_batch(
    std::span<const double* const> xs, std::span<double* const> ys,
    std::uint32_t rows, std::uint32_t cols, unsigned min_width,
    unsigned max_width, bool decompose_ragged, Scratch& scratch,
    const std::function<void(const double* xp, double* yp, unsigned w)>&
        sweep,
    const std::function<void(const double* x, double* y)>& single) {
  if (min_width < 2) {
    throw std::invalid_argument("run_fused_batch: min_width < 2");
  }
  std::size_t i = 0;
  while (i < xs.size()) {
    const std::size_t remaining = xs.size() - i;
    if (remaining < min_width) {
      // Below the crossover the pack traffic outweighs the amortization.
      for (; i < xs.size(); ++i) single(xs[i], ys[i]);
      return;
    }
    const unsigned capped = static_cast<unsigned>(
        std::min<std::size_t>(max_width, remaining));
    const unsigned w =
        decompose_ragged ? std::bit_floor(capped) : capped;
    if (w < min_width) {
      // Decomposition left only a chunk the crossover model predicts is a
      // loss (e.g. min_width 3, remainder 3 -> width-2 chunk): honor the
      // model and run the tail through single multiplies instead.
      for (; i < xs.size(); ++i) single(xs[i], ys[i]);
      return;
    }
    double* xp =
        scratch.x_panel(static_cast<std::size_t>(cols) * w);
    double* yp =
        scratch.y_panel(static_cast<std::size_t>(rows) * w);
    // Pack, panel-sequential: w concurrent read streams, one write stream.
    for (std::uint32_t c = 0; c < cols; ++c) {
      double* dst = xp + static_cast<std::size_t>(c) * w;
      for (unsigned j = 0; j < w; ++j) dst[j] = xs[i + j][c];
    }
    // The y panel starts from the caller's y values (not zero): each
    // right-hand side's chain then runs y0 + block contributions in the
    // single-multiply order, which is what makes fused == looped bitwise.
    for (std::uint32_t r = 0; r < rows; ++r) {
      double* dst = yp + static_cast<std::size_t>(r) * w;
      for (unsigned j = 0; j < w; ++j) dst[j] = ys[i + j][r];
    }
    sweep(xp, yp, w);
    for (std::uint32_t r = 0; r < rows; ++r) {
      const double* src = yp + static_cast<std::size_t>(r) * w;
      for (unsigned j = 0; j < w; ++j) ys[i + j][r] = src[j];
    }
    i += w;
  }
}

ScratchCache::ScratchCache() : state_(std::make_unique<State>()) {}

// Moving a cache drops its cached scratches: a cache usually rides inside
// a moved plan object, and every cached scratch is stamped with the OLD
// plan's address — handing one out at the new location would trip take()'s
// ownership check on the first multiply after the move.  A cache is only a
// cache; it re-warms with correctly-stamped scratches.
ScratchCache::ScratchCache(ScratchCache&& other) noexcept
    : state_(std::move(other.state_)) {
  if (state_ != nullptr) {
    MutexLock lock(state_->mutex);
    state_->free_list.clear();
  }
}

ScratchCache& ScratchCache::operator=(ScratchCache&& other) noexcept {
  if (this != &other) {
    state_ = std::move(other.state_);
    if (state_ != nullptr) {
      MutexLock lock(state_->mutex);
      state_->free_list.clear();
    }
  }
  return *this;
}

ScratchCache::~ScratchCache() = default;

ScratchCache::Lease::Lease(ScratchCache* cache,
                           std::unique_ptr<Scratch> scratch)
    : cache_(cache), scratch_(std::move(scratch)) {}

ScratchCache::Lease::Lease(Lease&& other) noexcept
    : cache_(other.cache_), scratch_(std::move(other.scratch_)) {
  other.cache_ = nullptr;
}

ScratchCache::Lease::~Lease() {
  if (cache_ != nullptr) cache_->give_back(std::move(scratch_));
}

ScratchCache::Lease ScratchCache::borrow(const SpmvPlan& plan) {
  return Lease(this, take(plan));
}

std::unique_ptr<Scratch> ScratchCache::take(const SpmvPlan& plan) {
  {
    MutexLock lock(state_->mutex);
    if (!state_->free_list.empty()) {
      std::unique_ptr<Scratch> s = std::move(state_->free_list.back());
      state_->free_list.pop_back();
      if (s->built_for_ != &plan) {
        // Scratch layouts are plan-specific: executing with another plan's
        // scratch would read/write past its buffers.  A cache is owned by
        // one plan (e.g. one registry entry) — sharing it is a bug that
        // must not turn into silent memory corruption.
        throw std::logic_error(
            "ScratchCache::take: cached scratch was built for a different "
            "plan (a ScratchCache must serve exactly one plan)");
      }
      ++state_->outstanding;
      state_->high_water = std::max(state_->high_water, state_->outstanding);
      return s;
    }
    // Counted before the (unlocked) allocation so two dispatchers missing
    // the cache simultaneously both register: the high-water mark is about
    // demanded concurrency, not cache hits.
    ++state_->outstanding;
    state_->high_water = std::max(state_->high_water, state_->outstanding);
  }
  std::unique_ptr<Scratch> s = plan.make_scratch();
  if (s != nullptr) {
    s->built_for_ = &plan;
  } else {
    // Stateless plan: nothing was handed out, undo the count.
    MutexLock lock(state_->mutex);
    --state_->outstanding;
  }
  return s;
}

void ScratchCache::give_back(std::unique_ptr<Scratch> scratch) {
  if (scratch == nullptr) return;
  MutexLock lock(state_->mutex);
  if (state_->outstanding > 0) --state_->outstanding;
  // Adaptive cap: keep as many scratches as have ever been in flight at
  // once (the concurrency this cache actually serves), bounded to
  // [kMinCached, kMaxCached] so a serial caller stays tiny and a burst
  // cannot pin unbounded peak memory for the plan's lifetime.
  const std::size_t cap = std::min(
      std::max(kMinCached, state_->high_water), kMaxCached);
  if (state_->free_list.size() < cap) {
    state_->free_list.push_back(std::move(scratch));
  }
  // else: drop it.
}

}  // namespace spmv::engine
