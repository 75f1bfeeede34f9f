#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace spmv {

namespace {
std::vector<double> sorted(std::span<const double> xs) {
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  return v;
}
}  // namespace

double median(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  auto v = sorted(xs);
  const std::size_t n = v.size();
  return (n % 2 == 1) ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double min_of(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile p");
  auto v = sorted(xs);
  if (v.size() == 1) return v[0];
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double geomean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) {
    if (x <= 0.0) throw std::invalid_argument("geomean requires positives");
    acc += std::log(x);
  }
  return std::exp(acc / static_cast<double>(xs.size()));
}

}  // namespace spmv
