// Extreme-eigenvalue estimation of an SPD FEM operator with the Lanczos
// iteration, using the symmetric half-storage SpMV for the operator and
// a batched multiply (the tuned matrix's fused multiple-vector SpMM) for
// the block warm start — the "bandwidth reduction" extensions working
// together on the paper's FEM workload class.
//
//   $ ./examples/lanczos [--nodes=6000] [--iters=60] [--threads=N]
#include <cmath>
#include <iostream>
#include <vector>

#include "core/symmetric.h"
#include "core/tuned_matrix.h"
#include "engine/executor.h"
#include "gen/generators.h"
#include "matrix/coo.h"
#include "util/cli.h"
#include "util/cpu.h"
#include "util/prng.h"
#include "util/timer.h"

namespace {

using namespace spmv;

CsrMatrix make_spd(const CsrMatrix& k) {
  CooBuilder b(k.rows(), k.cols());
  const auto rp = k.row_ptr();
  const auto ci = k.col_idx();
  const auto v = k.values();
  for (std::uint32_t r = 0; r < k.rows(); ++r) {
    double offdiag = 0.0;
    for (std::uint64_t e = rp[r]; e < rp[r + 1]; ++e) {
      if (ci[e] != r) {
        b.add(r, ci[e], v[e]);
        offdiag += std::abs(v[e]);
      }
    }
    b.add(r, r, offdiag + 1.0);
  }
  return b.build();
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

/// Largest eigenvalue of the symmetric tridiagonal (alpha, beta) by
/// bisection on the Sturm sequence.
double tridiag_max_eig(const std::vector<double>& alpha,
                       const std::vector<double>& beta) {
  const std::size_t n = alpha.size();
  double hi = 0.0, lo = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double left = i > 0 ? std::abs(beta[i - 1]) : 0.0;
    const double right = i + 1 < n ? std::abs(beta[i]) : 0.0;
    hi = std::max(hi, alpha[i] + left + right);
    lo = std::min(lo, alpha[i] - left - right);
  }
  auto count_below = [&](double x) {
    // Number of eigenvalues < x via Sturm sequence sign changes.
    int count = 0;
    double d = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double b2 = i > 0 ? beta[i - 1] * beta[i - 1] : 0.0;
      d = alpha[i] - x - (d == 0.0 ? b2 / 1e-300 : b2 / d);
      if (d < 0.0) ++count;
    }
    return count;
  };
  for (int it = 0; it < 200 && hi - lo > 1e-12 * std::max(1.0, hi); ++it) {
    const double mid = 0.5 * (lo + hi);
    if (count_below(mid) >= static_cast<int>(n)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const auto nodes = static_cast<std::uint32_t>(cli.get_int("nodes", 6000));
  const auto iters = static_cast<std::size_t>(cli.get_int("iters", 60));
  const auto threads = static_cast<unsigned>(
      cli.get_int("threads", host_info().logical_cpus));

  const CsrMatrix a = make_spd(gen::fem_like(nodes, 3, 10.0, 100, 11));
  const std::uint32_t n = a.rows();
  std::cout << "operator: n = " << n << ", nnz = " << a.nnz() << "\n";

  const SymmetricSpmv op = SymmetricSpmv::from_full(a, threads);
  std::cout << "symmetric storage ratio: " << op.storage_ratio()
            << " of full CSR\n";

  // Block warm-start: multiply 4 random vectors in one batch on the tuned
  // matrix (fused SpMM past its plan-time crossover) and keep the one with
  // the largest Rayleigh quotient.
  constexpr unsigned kBlock = 4;
  const TunedMatrix block_op =
      TunedMatrix::plan(a, TuningOptions::full(threads));
  Prng rng(99);
  std::vector<std::vector<double>> block_x(kBlock, std::vector<double>(n));
  std::vector<std::vector<double>> block_y(kBlock,
                                           std::vector<double>(n, 0.0));
  std::vector<const double*> xs;
  std::vector<double*> ys;
  for (unsigned j = 0; j < kBlock; ++j) {
    for (double& v : block_x[j]) v = rng.next_double(-1.0, 1.0);
    xs.push_back(block_x[j].data());
    ys.push_back(block_y[j].data());
  }
  engine::Executor(block_op).multiply_batch(xs, ys);
  unsigned best_j = 0;
  double best_q = -1e300;
  for (unsigned j = 0; j < kBlock; ++j) {
    const double q_j =
        dot(block_x[j], block_y[j]) / dot(block_x[j], block_x[j]);
    if (q_j > best_q) {
      best_q = q_j;
      best_j = j;
    }
  }
  std::cout << "block warm start: best Rayleigh quotient " << best_q
            << " (vector " << best_j << " of " << kBlock << ", fused-batch>="
            << block_op.report().fused_batch_min_width << ")\n";

  // Lanczos with the symmetric operator.
  std::vector<double> q_prev(n, 0.0), q = block_x[best_j], aq(n);
  const double q0 = norm(q);
  for (double& v : q) v /= q0;

  std::vector<double> alpha, beta;
  double beta_prev = 0.0;
  Timer timer;
  for (std::size_t it = 0; it < iters; ++it) {
    std::fill(aq.begin(), aq.end(), 0.0);
    op.multiply(q, aq);  // the half-storage SpMV
    const double a_i = dot(q, aq);
    alpha.push_back(a_i);
    for (std::uint32_t r = 0; r < n; ++r) {
      aq[r] -= a_i * q[r] + beta_prev * q_prev[r];
    }
    const double b_i = norm(aq);
    if (b_i < 1e-12) break;
    beta.push_back(b_i);
    beta_prev = b_i;
    q_prev = q;
    for (std::uint32_t r = 0; r < n; ++r) q[r] = aq[r] / b_i;
  }
  if (beta.size() == alpha.size()) beta.pop_back();
  const double lambda = tridiag_max_eig(alpha, beta);
  const double elapsed = timer.seconds();

  // Validate against plain power iteration on the full matrix.
  std::vector<double> p(n, 1.0), ap(n);
  double power_lambda = 0.0;
  for (int it = 0; it < 300; ++it) {
    std::fill(ap.begin(), ap.end(), 0.0);
    spmv_reference(a, p, ap);
    power_lambda = norm(ap);
    for (std::uint32_t r = 0; r < n; ++r) p[r] = ap[r] / power_lambda;
  }

  std::cout << "lanczos: lambda_max ~= " << lambda << " after "
            << alpha.size() << " iterations (" << elapsed << " s)\n";
  std::cout << "power iteration check: " << power_lambda << "\n";
  const double rel = std::abs(lambda - power_lambda) / power_lambda;
  std::cout << "relative difference: " << rel << "\n";
  return rel < 1e-4 ? 0 : 1;
}
