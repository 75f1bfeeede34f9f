// suite-sweep: the in-process library path over the 14 Table-3 matrices.
//
// Every matrix is planned with TuningOptions::full(3); the measured loop
// then calls Executor::multiply on each matrix in turn (one sweep) and
// follows every sweep with a STREAM triad on the benchmark's own three
// pinned threads.  stream_frac is the sweep's credited bandwidth over the
// adjacent triad's, so a host whose memory bandwidth sags for a while
// moves numerator and denominator together.
#include <memory>
#include <sstream>

#include "core/tuned_matrix.h"
#include "engine/executor.h"
#include "gen/suite.h"
#include "host.h"
#include "plan_info.h"
#include "rpc.h"
#include "trace.h"
#include "util/prng.h"
#include "yardstick.h"

namespace perfbench {

namespace {

/// Dimensional scale of the suite: at 0.65 the matrices' computed CSR
/// footprint (12 B per nonzero, 4 B per row) is 4.2x the 105 MiB
/// last-level cache of the 4-vCPU Xeon the benchmark was written on; the
/// run record states the ratio on whatever host runs it.
constexpr double kScale = 0.65;
constexpr double kTinyScale = 0.02;
constexpr unsigned kThreads = 3;
/// Planning rounds behind setup_s, the median round.
constexpr int kPlanRounds = 5;
constexpr const char* kProbeMatrix = "FEM/Cantilever";

struct Mat {
  std::string name;
  spmv::CsrMatrix csr;
  std::uint64_t nnz = 0;
  std::uint64_t credited = 0;
  std::vector<double> x, y, ref, abs_ref;
  std::vector<double> plan_s;  ///< one per planning round
  std::unique_ptr<spmv::TunedMatrix> plan;
  std::unique_ptr<spmv::engine::Executor> exec;
  std::vector<double> multiply_s;  ///< traced sweeps only
};

/// Sweeps and triads of one measured phase.
struct SweepPhase {
  std::vector<double> sweep_s;
  std::vector<double> triad_gbs;
  std::vector<double> frac;
  std::vector<double> steal_pct;  ///< over the sweep and its triad
};

std::string json_str(const std::string& s) { return "\"" + s + "\""; }

}  // namespace

Result run_suite_sweep(const Options& opt) {
  Result res;
  const double scale = opt.tiny ? kTinyScale : kScale;
  const auto& entries = spmv::gen::suite_entries();

  // Inputs: matrices from the suite generators, operands from the seed,
  // reference products from the benchmark's own serial CSR loop.
  std::vector<Mat> mats(entries.size());
  std::uint64_t csr_bytes = 0, credited_sweep = 0, nnz_sweep = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    Mat& m = mats[i];
    m.name = entries[i].name;
    m.csr = spmv::gen::generate_suite_matrix(entries[i], scale);
    m.nnz = m.csr.nnz();
    m.credited = credited_bytes(m.csr);
    csr_bytes += 12 * m.nnz + 4 * (std::uint64_t{m.csr.rows()} + 1);
    credited_sweep += m.credited;
    nnz_sweep += m.nnz;
    spmv::Prng rng(opt.seed * 7919 + i);
    m.x.resize(m.csr.cols());
    for (auto& v : m.x) v = rng.next_double(-1.0, 1.0);
    m.y.assign(m.csr.rows(), 0.0);
    m.ref.resize(m.csr.rows());
    m.abs_ref.resize(m.csr.rows());
    csr_reference(m.csr, m.x, m.ref);
    csr_abs_reference(m.csr, m.x, m.abs_ref);
  }

  // Set-up: plan every matrix, several rounds; setup_s is the median
  // round's summed plan time.
  const int rounds = opt.tiny ? 1 : kPlanRounds;
  std::vector<double> round_s;
  for (int r = 0; r < rounds; ++r) {
    double sum = 0.0;
    for (auto& m : mats) {
      m.plan.reset();
      m.exec.reset();
      const auto t0 = Clock::now();
      auto plan =
          spmv::TunedMatrix::plan(m.csr, spmv::TuningOptions::full(kThreads));
      const double s = seconds_since(t0);
      m.plan = std::make_unique<spmv::TunedMatrix>(std::move(plan));
      m.plan_s.push_back(s);
      sum += s;
    }
    round_s.push_back(sum);
  }
  const double setup_s = median(round_s);
  spmv::CsrMatrix probe_csr;
  for (auto& m : mats) {
    m.exec = std::make_unique<spmv::engine::Executor>(*m.plan);
    if (m.name == kProbeMatrix) probe_csr = std::move(m.csr);
    m.csr = spmv::CsrMatrix();  // the plans own the data from here on
  }

  const std::uint64_t llc = llc_bytes(std::uint64_t{32} << 20);
  Team team(kThreads);
  Triad triad(team,
              opt.tiny ? std::size_t{1} << 20 : 4 * llc / sizeof(double));

  res.yardstick_cpus = team.cpu_list();
  bool corrupt = opt.corrupt == "y";
  auto sweep = [&](bool traced) {
    auto s =
        span("bench.sweep", traced ? Tracer::instance().next_request() : 0);
    double total = 0.0;
    for (auto& m : mats) {
      std::fill(m.y.begin(), m.y.end(), 0.0);
      const auto t0 = Clock::now();
      {
        auto ms = span("engine.multiply");
        m.exec->multiply(m.x, m.y);
      }
      const double dt = seconds_since(t0);
      total += dt;
      if (traced) m.multiply_s.push_back(dt);
    }
    auto cs = span("bench.check");
    for (auto& m : mats) {
      if (corrupt) {
        corrupt = false;
        m.y[0] += 1.0;
      }
      tally(res, first_mismatch(m.y, m.ref, m.abs_ref) < 0);
    }
    return total;
  };
  auto measure = [&](double seconds, bool traced) {
    SweepPhase p;
    const auto t0 = Clock::now();
    while (p.sweep_s.empty() || seconds_since(t0) < seconds) {
      const CpuTicks ticks0 = CpuTicks::read();
      const double s = sweep(traced);
      double gbs = 0.0;
      {
        auto ts = span("bench.triad");
        gbs = triad.run();
      }
      p.sweep_s.push_back(s);
      p.triad_gbs.push_back(gbs);
      p.frac.push_back(static_cast<double>(credited_sweep) / s / 1e9 / gbs);
      p.steal_pct.push_back(steal_pct(ticks0, CpuTicks::read()));
    }
    return p;
  };

  // Warm-up: fault in the triad arrays and let the engine pool spin up.
  // Its outputs are not checked and its operations not counted.
  {
    for (auto& m : mats) m.exec->multiply(m.x, m.y);
    triad.run();
  }

  // The plan fingerprint for the run record: exact counts per matrix, so
  // a run whose tuner chose differently (prefetch distance is picked by
  // timing) is told apart from host noise.  Per-matrix GF/s only when the
  // traced phase timed each multiply.
  auto fingerprint = [&] {
    std::vector<PlanInfo> infos;
    std::ostringstream plans;
    plans.precision(17);
    plans << "\"plans\": [";
    for (std::size_t i = 0; i < mats.size(); ++i) {
      const auto& m = mats[i];
      const PlanInfo info = PlanInfo::of(m.plan->report());
      infos.push_back(info);
      plans << (i ? ", " : "") << "{\"matrix\": " << json_str(m.name)
            << ", " << info.json() << ", \"plan_s\": " << median(m.plan_s)
            << ", \"credited_bytes\": " << m.credited;
      if (!m.multiply_s.empty()) {
        plans << ", \"gflops\": "
              << 2.0 * static_cast<double>(m.nnz) / median(m.multiply_s) / 1e9;
      }
      plans << "}";
    }
    plans << "]";
    res.trace_json.push_back(plans.str());
    return infos;
  };

  {
    std::ostringstream fp;
    fp << "\"footprint\": {\"scale\": " << scale
       << ", \"csr_bytes_computed\": " << csr_bytes
       << ", \"credited_bytes_per_sweep_computed\": " << credited_sweep
       << ", \"llc_bytes\": " << llc << ", \"csr_over_llc\": "
       << static_cast<double>(csr_bytes) / static_cast<double>(llc)
       << ", \"triad_array_bytes\": " << triad.array_bytes() << "}";
    res.trace_json.push_back(fp.str());
  }
  const double seconds = opt.tiny ? 0.3 : opt.seconds;
  if (!opt.trace) {
    const SweepPhase p = measure(seconds, false);
    // The sweep is memory-bandwidth bound, so its time is stated at the
    // reference triad bandwidth, each sweep scaled by the triad after it.
    // One operation is one multiply; a sweep is one multiply per matrix.
    // Only pairs without steal count (host.h); /proc/stat counts steal
    // in 10 ms ticks, so a pair is clean when none fell inside it.
    const auto clean = clean_windows(p.steal_pct);
    std::vector<double> sweep_ref_s;
    for (const std::size_t i : clean) {
      sweep_ref_s.push_back(p.sweep_s[i] * p.triad_gbs[i] / kRefTriadGbs);
    }
    const double sweep_med = median(sweep_ref_s);
    res.end_to_end["stream_frac"] = {median(pick(p.frac, clean)), "ratio"};
    res.end_to_end["p50_us"] = {sweep_med * 1e6, "us"};
    res.end_to_end["ops_s"] = {static_cast<double>(mats.size()) / sweep_med,
                               "1/s"};
    res.end_to_end["setup_s"] = {setup_s, "s"};
    res.triad_gbs = median(p.triad_gbs);
    std::ostringstream raw;
    raw.precision(17);
    raw << "\"raw\": {\"sweep_p50_us\": " << median(p.sweep_s) * 1e6
        << ", \"pairs\": " << p.sweep_s.size() << "}";
    res.trace_json.push_back(raw.str());
    res.trace_json.push_back(steal_filter_json(p.frac.size(), clean.size()));
    fingerprint();
    return res;
  }

  // Traced: an untraced half, then a traced half; the difference in
  // median sweep time is the tracing overhead.
  const SweepPhase plain = measure(seconds / 2, false);
  Tracer::instance().set_enabled(true);
  const SweepPhase traced = measure(seconds / 2, true);
  const double sweep_med = median(traced.sweep_s);
  auto& L = res.per_layer;
  L["trace.overhead_pct"] = {
      100.0 * (sweep_med - median(plain.sweep_s)) / median(plain.sweep_s),
      "%"};
  L["core.gflops"] = {2.0 * static_cast<double>(nnz_sweep) / sweep_med / 1e9,
                      "GF/s"};
  res.triad_gbs = median(traced.triad_gbs);
  L["core.triad_gbs"] = {res.triad_gbs, "GB/s"};
  L["core.plan_s"] = {setup_s, "s"};
  add_plan_metrics(fingerprint(), L);
  // Serve and net are bypassed by this workload; their per-layer figures
  // come from a short closed loop and the isolated probes over the probe
  // matrix at the sweep's scale and plan options.
  mats.clear();
  RigConfig rc;
  rc.tuning = spmv::TuningOptions::full(kThreads);
  rc.seed = opt.seed;
  Rig rig(std::move(probe_csr), rc);
  rig.setup(0.0);
  const Phase phase = rig.run(opt.tiny ? 0.2 : 1.0, 1.0);
  res.attempted += phase.attempted;
  res.failed += phase.failed;
  phase_layer_metrics(phase, L);
  rig.probe_layers(L["serve.batch_width_mean"].value, L);
  return res;
}

}  // namespace perfbench
