// Ablation: bandwidth-reduction extensions beyond the paper's measured set
// (its conclusions call for exactly these: "symmetry, advanced register
// blocking, Ak methods").
//
//  A6 symmetric half storage vs full storage (FEM-class matrices);
//  A7 multiple-vector SpMM (one batched multiply), k in {1,2,4,8};
//  A8 DIA / hybrid-DIA vs tuned CSR on stencil matrices;
//  A9 RCM reordering of a locality-destroyed matrix.
#include "bench_common.h"

#include "core/splitting.h"
#include "core/symmetric.h"
#include "core/tuned_matrix.h"
#include "engine/executor.h"
#include "gen/generators.h"
#include "matrix/dia.h"
#include "matrix/reorder.h"
#include "util/prng.h"

int main(int argc, char** argv) {
  using namespace spmv;
  const auto cfg = bench::BenchConfig::from_cli(argc, argv);
  bench::print_host_banner();
  bench::SuiteCache suite(cfg.scale);

  // ---------- A6: symmetry ----------
  {
    Table t({"Matrix", "full GF", "sym GF", "storage ratio"});
    for (const auto* name :
         {"Protein", "FEM/Spheres", "FEM/Cantilever", "Wind Tunnel",
          "FEM/Ship"}) {
      const CsrMatrix& m = suite.get(name);
      if (!is_symmetric(m)) continue;
      TuningOptions opt = TuningOptions::full(1);
      const double gf_full =
          bench::measure_tuned_gflops(m, opt, cfg.measure_seconds);
      const SymmetricSpmv sym = SymmetricSpmv::from_full(m);
      const auto x = bench::random_vector(m.cols(), 7);
      std::vector<double> y(m.rows(), 0.0);
      const TimingResult ts = time_kernel(
          [&] { sym.multiply(x, y); }, cfg.measure_seconds, 3);
      t.add_row({name, Table::fmt(gf_full, 3),
                 Table::fmt(bench::gflops(m.nnz(), ts.best_s), 3),
                 Table::fmt(sym.storage_ratio(), 2)});
    }
    cfg.emit(t, "A6: symmetric half storage (bandwidth reduction ~2x)");
  }

  // ---------- A7: multiple vectors ----------
  {
    // k right-hand sides through one multiply_batch on one planned
    // matrix: past the plan's fused-batch crossover the matrix streams
    // once for all k.
    const CsrMatrix& m = suite.get("FEM/Cantilever");
    const TunedMatrix tuned = TunedMatrix::plan(m, TuningOptions::full(1));
    const unsigned min_width = tuned.report().fused_batch_min_width;
    Table t({"k", "GF (effective, 2k flops/nnz)", "fused"});
    for (unsigned k : {1u, 2u, 4u, 8u}) {
      std::vector<std::vector<double>> x_store, y_store;
      std::vector<const double*> xs;
      std::vector<double*> ys;
      for (unsigned j = 0; j < k; ++j) {
        x_store.push_back(bench::random_vector(m.cols(), 7 + j));
        y_store.emplace_back(m.rows(), 0.0);
      }
      for (unsigned j = 0; j < k; ++j) {
        xs.push_back(x_store[j].data());
        ys.push_back(y_store[j].data());
      }
      engine::Executor exec(tuned);
      const TimingResult tk = time_kernel(
          [&] { exec.multiply_batch(xs, ys); }, cfg.measure_seconds, 3);
      const double gf =
          2.0 * static_cast<double>(m.nnz()) * k / tk.best_s / 1e9;
      const bool fused = min_width != 0 && k >= min_width;
      t.add_row({std::to_string(k), Table::fmt(gf, 3), fused ? "yes" : "no"});
    }
    cfg.emit(t, "A7: multiple-vector SpMM on FEM/Cantilever");
  }

  // ---------- A8: DIA on stencil matrices ----------
  {
    Table t({"Matrix", "tuned CSR GF", "DIA GF", "hybrid GF",
             "DIA occupancy", "DIA bytes/nnz"});
    for (const auto* name : {"Epidemiology"}) {
      const CsrMatrix& m = suite.get(name);
      TuningOptions opt = TuningOptions::full(1);
      const double gf_csr =
          bench::measure_tuned_gflops(m, opt, cfg.measure_seconds);
      const DiaMatrix dia = DiaMatrix::from_csr(m);
      const HybridDiaMatrix hybrid = HybridDiaMatrix::from_csr(m, 0.3);
      const auto x = bench::random_vector(m.cols(), 7);
      std::vector<double> y(m.rows(), 0.0);
      const TimingResult td = time_kernel(
          [&] { dia.multiply(x, y); }, cfg.measure_seconds, 3);
      const TimingResult th = time_kernel(
          [&] { hybrid.multiply(x, y); }, cfg.measure_seconds, 3);
      t.add_row({name, Table::fmt(gf_csr, 3),
                 Table::fmt(bench::gflops(m.nnz(), td.best_s), 3),
                 Table::fmt(bench::gflops(m.nnz(), th.best_s), 3),
                 Table::fmt(dia.occupancy(), 2),
                 Table::fmt(static_cast<double>(dia.footprint_bytes()) /
                                static_cast<double>(m.nnz()),
                            1)});
    }
    cfg.emit(t, "A8: DIA / hybrid-DIA on the stencil matrix");
  }

  // ---------- A10: variable-block splitting ----------
  {
    Table t({"Matrix", "uniform tuner GF", "split GF", "split shape",
             "blocked frac", "split bytes/nnz"});
    for (const auto* name : {"Protein", "FEM/Cantilever", "Circuit"}) {
      const CsrMatrix& m = suite.get(name);
      TuningOptions opt = TuningOptions::full(1);
      const double gf_uniform =
          bench::measure_tuned_gflops(m, opt, cfg.measure_seconds);
      const SplitSpmv split = SplitSpmv::plan_auto(m);
      const auto x = bench::random_vector(m.cols(), 7);
      std::vector<double> y(m.rows(), 0.0);
      const TimingResult tr = time_kernel(
          [&] { split.multiply(x, y); }, cfg.measure_seconds, 3);
      const SplitDecision& d = split.decision();
      t.add_row({name, Table::fmt(gf_uniform, 3),
                 Table::fmt(bench::gflops(m.nnz(), tr.best_s), 3),
                 std::to_string(d.br) + "x" + std::to_string(d.bc) + "@" +
                     std::to_string(d.min_tile_fill),
                 Table::fmt(d.blocked_fraction(), 2),
                 Table::fmt(static_cast<double>(d.total_bytes()) /
                                static_cast<double>(m.nnz()),
                            1)});
    }
    cfg.emit(t, "A10: variable-block splitting vs uniform tuner");
  }

  // ---------- A9: RCM reordering ----------
  {
    // Destroy the locality of a banded matrix, then repair it with RCM.
    const std::uint32_t n = static_cast<std::uint32_t>(4000 * cfg.scale) + 500;
    const CsrMatrix band = gen::banded(n, 4, 0.8, 21);
    std::vector<std::uint32_t> shuffle(n);
    for (std::uint32_t i = 0; i < n; ++i) shuffle[i] = i;
    Prng rng(22);
    for (std::uint32_t i = n - 1; i > 0; --i) {
      std::swap(shuffle[i], shuffle[rng.next_below(i + 1)]);
    }
    const CsrMatrix scrambled = permute_symmetric(band, shuffle);
    const auto perm = reverse_cuthill_mckee(scrambled);
    const CsrMatrix restored = permute_symmetric(scrambled, perm);

    TuningOptions opt = TuningOptions::full(1);
    Table t({"Ordering", "bandwidth", "tuned GF"});
    t.add_row({"original band", std::to_string(matrix_bandwidth(band)),
               Table::fmt(bench::measure_tuned_gflops(band, opt,
                                                      cfg.measure_seconds),
                          3)});
    t.add_row({"scrambled", std::to_string(matrix_bandwidth(scrambled)),
               Table::fmt(bench::measure_tuned_gflops(scrambled, opt,
                                                      cfg.measure_seconds),
                          3)});
    t.add_row({"RCM restored", std::to_string(matrix_bandwidth(restored)),
               Table::fmt(bench::measure_tuned_gflops(restored, opt,
                                                      cfg.measure_seconds),
                          3)});
    cfg.emit(t, "A9: RCM locality repair");
  }
  return 0;
}
