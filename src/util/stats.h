// Small descriptive-statistics helpers used by the tuner heuristics and the
// benchmark harness (the paper reports medians across the matrix suite).
#pragma once

#include <span>

namespace spmv {

/// Median of a sample (average of the two middle elements for even sizes).
/// Returns 0 for an empty sample.
double median(std::span<const double> xs);

double mean(std::span<const double> xs);

double min_of(std::span<const double> xs);

double max_of(std::span<const double> xs);

/// Population standard deviation.
double stddev(std::span<const double> xs);

/// p-th percentile (0 <= p <= 100) with linear interpolation.
double percentile(std::span<const double> xs, double p);

/// Geometric mean; all samples must be positive.
double geomean(std::span<const double> xs);

}  // namespace spmv
