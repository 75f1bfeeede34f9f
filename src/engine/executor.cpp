#include "engine/executor.h"

#include <stdexcept>
#include <utility>

namespace spmv::engine {

Executor::Executor(const SpmvPlan& plan)
    : plan_(&plan), scratch_(plan.make_scratch()) {}

Executor::Executor(const SpmvPlan& plan, ScratchCache& cache)
    : plan_(&plan), scratch_(cache.take(plan)), home_(&cache) {}

Executor::Executor(Executor&& other) noexcept
    : plan_(other.plan_),
      scratch_(std::move(other.scratch_)),
      home_(std::exchange(other.home_, nullptr)) {}

Executor& Executor::operator=(Executor&& other) noexcept {
  if (this != &other) {
    if (home_ != nullptr) home_->give_back(std::move(scratch_));
    plan_ = other.plan_;
    scratch_ = std::move(other.scratch_);
    home_ = std::exchange(other.home_, nullptr);
  }
  return *this;
}

Executor::~Executor() {
  if (home_ != nullptr) home_->give_back(std::move(scratch_));
}

void validate_multiply_operands(const SpmvPlan& plan,
                                std::span<const double> x,
                                std::span<double> y) {
  if (x.size() < plan.cols() || y.size() < plan.rows()) {
    throw std::invalid_argument("Executor: operand too short");
  }
  if (x.data() == y.data()) {
    throw std::invalid_argument("Executor: x and y must not alias");
  }
}

void validate_batch_operands(const SpmvPlan& plan,
                             std::span<const double* const> xs,
                             std::span<double* const> ys) {
  (void)plan;  // lengths are uncheckable from bare pointers (see header)
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("Executor: batch size mismatch");
  }
  // Bare pointers carry no length, so only null/aliasing are checkable
  // here; the caller guarantees cols()/rows() valid elements
  // per pointer (see the header contract).  Aliasing is checked across the
  // whole batch, not just pairwise: the single-dispatch batch path runs
  // all right-hand sides with no barrier between them, so a chained batch
  // (xs[j] == ys[i], "use this y as the next x") would race.
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] == nullptr || ys[i] == nullptr) {
      throw std::invalid_argument("Executor: null operand in batch");
    }
    for (std::size_t j = 0; j < xs.size(); ++j) {
      if (xs[i] == ys[j]) {
        throw std::invalid_argument(
            "Executor: batch operands alias (xs/ys must be disjoint; chain "
            "dependent multiplies through multiply() instead)");
      }
      if (j < i && ys[i] == ys[j]) {
        throw std::invalid_argument(
            "Executor: duplicate y in batch (two right-hand sides would "
            "accumulate into the same destination concurrently)");
      }
    }
  }
}

void Executor::multiply(std::span<const double> x, std::span<double> y) {
  validate_multiply_operands(*plan_, x, y);
  plan_->execute(x.data(), y.data(), scratch_.get());
}

void Executor::multiply_batch(std::span<const double* const> xs,
                              std::span<double* const> ys) {
  validate_batch_operands(*plan_, xs, ys);
  plan_->execute_batch(xs, ys, scratch_.get());
}

}  // namespace spmv::engine
