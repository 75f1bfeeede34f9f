#include "rpc.h"

#include <time.h>

#include <atomic>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "engine/executor.h"
#include "gen/generators.h"
#include "gen/suite.h"
#include "host.h"
#include "net/delta.h"
#include "net/wire.h"
#include "plan_info.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "trace.h"
#include "util/prng.h"

namespace perfbench {

namespace net = spmv::net;
namespace serve = spmv::serve;

namespace {

constexpr const char* kName = "A";
/// Share of operand entries changed before each call: an iterative
/// solver's small update, the case delta-encoded operands exist for.
constexpr double kChurn = 0.01;
/// Wall time spent repeating the set-up (connect, HELLO, UPLOAD_MATRIX)
/// for setup_s, the median repetition: ~1000 repetitions closed, ~25
/// pipelined.  The host's speed holds for dozens of closed repetitions at
/// a time, so the median has to span many times that.
constexpr double kSetupSeconds = 2.0;
/// How long Rig::~Rig waits for SpmvServer::stop(); a normal stop takes
/// milliseconds.
constexpr auto kStopGrace = std::chrono::seconds(5);
std::atomic<unsigned> g_stop_hangs{0};

/// Histogram `b` minus histogram `a` (b taken later than a).
spmv::serve::LatencyHistogram::Snapshot hist_delta(
    const serve::LatencyHistogram::Snapshot& a,
    const serve::LatencyHistogram::Snapshot& b) {
  serve::LatencyHistogram::Snapshot d;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] = b.buckets[i] - a.buckets[i];
  }
  d.count = b.count - a.count;
  d.total_ns = b.total_ns - a.total_ns;
  return d;
}

serve::MatrixStatsSnapshot stats_of(net::SpmvServer& server) {
  const auto snap = server.scheduler().stats();
  const auto* m = snap.find(kName);
  return m != nullptr ? *m : serve::MatrixStatsSnapshot{};
}

serve::MatrixStatsSnapshot stats_delta(const serve::MatrixStatsSnapshot& a,
                                       const serve::MatrixStatsSnapshot& b) {
  serve::MatrixStatsSnapshot d;
  d.name = b.name;
  d.batches_dispatched = b.batches_dispatched - a.batches_dispatched;
  d.rhs_dispatched = b.rhs_dispatched - a.rhs_dispatched;
  d.queue_latency = hist_delta(a.queue_latency, b.queue_latency);
  d.dispatch_latency = hist_delta(a.dispatch_latency, b.dispatch_latency);
  return d;
}

std::string json_array(const std::vector<double>& v) {
  std::ostringstream out;
  out.precision(17);
  out << "[";
  for (std::size_t i = 0; i < v.size(); ++i) out << (i ? ", " : "") << v[i];
  out << "]";
  return out.str();
}

/// The run record's per-window figures, to explain an outlier run.
std::string windows_json(const Phase& p) {
  return "\"windows\": {\"ops_s\": " + json_array(p.window_ops_s) +
         ", \"p50_us\": " + json_array(p.window_p50_us) +
         ", \"cpu_us_per_op\": " + json_array(p.window_cpu_us_per_op) +
         ", \"steal_pct\": " + json_array(p.window_steal_pct) + "}";
}

/// CPU seconds the whole process (clients and server) has used.
double process_cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

/// Median microseconds of `reps` calls of `fn`.
template <class Fn>
double median_us(int reps, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(us_since(t0));
  }
  return median(std::move(us));
}

}  // namespace

struct Rig::Client {
  std::unique_ptr<net::SpmvNetClient> conn;
  spmv::Prng rng{1};
  std::vector<double> x;
  /// The reply check: a full recomputation in a closed loop, else the
  /// projection (expected value and scale per in-flight request).
  struct Expect {
    std::uint64_t id = 0;
    Clock::time_point begin;
    double value = 0.0, scale = 0.0;
    std::vector<double> x;  ///< only for the full check
    std::uint64_t request = 0;
  };
  std::uint64_t bytes_sent0 = 0, bytes_received0 = 0;
};

Rig::Rig(spmv::CsrMatrix matrix, const RigConfig& config)
    : matrix_(std::move(matrix)),
      config_(config),
      credited_(credited_bytes(matrix_)),
      projection_(matrix_, config.seed ^ 0x9f0a),
      corrupt_pending_(config.corrupt_reply) {
  net::ServerConfig scfg;
  scfg.io_threads = 1;
  scfg.tuning = config_.tuning;
  scfg.default_quota = std::max<std::uint32_t>(16, config_.window);
  server_ = std::make_unique<net::SpmvServer>(scfg);
  server_->start();
}

unsigned server_stop_hangs() { return g_stop_hangs.load(); }

Rig::~Rig() {
  clients_.clear();
  // SpmvServer::stop() can lose the wake-up that ends its I/O thread and
  // then wait for that thread forever: io_loop() tests io_stopping_ right
  // after poll() returns but drains the doorbell only after the test, so
  // stop()'s ring that lands in between is read and lost, and the next
  // poll() has no timeout.  A loopback stress of two pipelined clients
  // per server hung about once in 800 stops.  A stop that has not
  // returned within kStopGrace is left behind with its server and
  // counted; main() reports it and ends the process without joining.
  auto done = std::make_shared<std::promise<void>>();
  auto stopped = done->get_future();
  net::SpmvServer* server = server_.get();
  std::thread stopper([server, done] {
    server->stop();
    done->set_value();
  });
  if (stopped.wait_for(kStopGrace) == std::future_status::ready) {
    stopper.join();
    return;
  }
  stopper.detach();
  (void)server_.release();  // the stopper still uses it
  g_stop_hangs.fetch_add(1);
}

double Rig::setup(double min_seconds) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (times.empty() || seconds_since(start) < min_seconds) {
    clients_.clear();
    std::vector<std::uint64_t> rp(matrix_.row_ptr().begin(),
                                  matrix_.row_ptr().end());
    std::vector<std::uint32_t> ci(matrix_.col_idx().begin(),
                                  matrix_.col_idx().end());
    std::vector<double> v(matrix_.values().begin(), matrix_.values().end());
    for (unsigned c = 0; c < config_.clients; ++c) {
      auto cl = std::make_unique<Client>();
      net::ClientOptions copts;
      copts.port = server_->port();
      copts.client_name = "perfbench-" + std::to_string(c);
      copts.requested_quota = std::max(16u, config_.window);
      copts.timeout = std::chrono::milliseconds(10000);
      cl->conn = std::make_unique<net::SpmvNetClient>(copts);
      clients_.push_back(std::move(cl));
    }
    const auto t0 = Clock::now();
    {
      auto s = span("setup.connect_upload");
      for (auto& c : clients_) c->conn->connect();
      const auto r = clients_[0]->conn->upload(kName, matrix_.rows(),
                                               matrix_.cols(), std::move(rp),
                                               std::move(ci), std::move(v));
      if (r.status != net::StatusCode::kOk) {
        throw std::runtime_error("upload refused: " + r.message);
      }
    }
    times.push_back(seconds_since(t0));
  }
  for (unsigned c = 0; c < clients_.size(); ++c) {
    auto& cl = *clients_[c];
    cl.rng = spmv::Prng(config_.seed * 1000003 + c);
    cl.x.resize(matrix_.cols());
    for (auto& v : cl.x) v = cl.rng.next_double(-1.0, 1.0);
  }
  setup_reps_ = times.size();
  return median(std::move(times));
}

void Rig::client_loop(Client& c, const std::atomic<bool>& stop,
                      Phase& into) {
  auto& tracer = Tracer::instance();
  const std::uint32_t n = matrix_.cols();
  const auto changes = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(kChurn * n));
  const bool full_check = config_.window <= 1;
  std::vector<double> ref(full_check ? matrix_.rows() : 0);
  std::vector<double> abs_ref(ref.size());

  auto churn = [&] {
    auto s = span("bench.churn");
    for (std::uint32_t k = 0; k < changes; ++k) {
      c.x[c.rng.next_below(n)] = c.rng.next_double(-1.0, 1.0);
    }
  };
  auto make_expect = [&](Client::Expect& e) {
    if (full_check) {
      e.x = c.x;
    } else {
      projection_.expect(c.x, e.value, e.scale);
    }
  };
  auto check = [&](const Client::Expect& e, net::SpmvNetClient::Result& r) {
    auto s = span("bench.check");
    if (r.status != net::StatusCode::kOk) return false;
    if (&c == clients_[0].get() && corrupt_pending_) {
      corrupt_pending_ = false;
      if (!r.y.empty()) r.y[0] += 1.0;
    }
    if (full_check) {
      csr_reference(matrix_, e.x, ref);
      csr_abs_reference(matrix_, e.x, abs_ref);
      return first_mismatch(r.y, ref, abs_ref) < 0;
    }
    return projection_.check(r.y, e.value, e.scale);
  };
  // Latency ends when the reply is in the caller's hands, before the check.
  auto settle = [&](const Client::Expect& e, net::SpmvNetClient::Result& r,
                    Clock::time_point end) {
    const bool ok = check(e, r);
    ++into.attempted;
    if (!ok) {
      ++into.failed;
      return;
    }
    ++into.ok;
    into.latency_us.push_back(
        std::chrono::duration<double, std::micro>(end - e.begin).count());
  };
  if (config_.window <= 1) {
    while (!stop.load(std::memory_order_relaxed)) {
      churn();
      Client::Expect e;
      e.request = tracer.next_request();
      make_expect(e);
      e.begin = Clock::now();
      net::SpmvNetClient::Result r;
      {
        auto s = span("client.multiply", e.request);
        r = c.conn->multiply(kName, c.x);
      }
      settle(e, r, Clock::now());
    }
    return;
  }

  std::deque<Client::Expect> inflight;
  auto await_front = [&] {
    Client::Expect e = std::move(inflight.front());
    inflight.pop_front();
    net::SpmvNetClient::Result r;
    {
      auto s = span("client.await", e.request);
      r = c.conn->await(e.id);
    }
    settle(e, r, Clock::now());
  };
  while (!stop.load(std::memory_order_relaxed)) {
    while (inflight.size() < config_.window) {
      churn();
      Client::Expect e;
      e.request = tracer.next_request();
      make_expect(e);
      e.begin = Clock::now();
      {
        auto s = span("client.begin", e.request);
        e.id = c.conn->begin_multiply(kName, c.x);
      }
      inflight.push_back(std::move(e));
    }
    await_front();
  }
  while (!inflight.empty()) await_front();
}

Phase Rig::run(double seconds, double window_s) {
  Phase p;
  const auto before = stats_of(*server_);
  for (auto& c : clients_) {
    c->bytes_sent0 = c->conn->counters().bytes_sent;
    c->bytes_received0 = c->conn->counters().bytes_received;
  }
  double elapsed = 0.0;
  while (elapsed < seconds) {
    const double w = std::min(window_s, seconds - elapsed);
    std::atomic<bool> stop{false};
    std::vector<Phase> parts(clients_.size());
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    const CpuTicks ticks0 = CpuTicks::read();
    {
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < clients_.size(); ++c) {
        threads.emplace_back([&, c] {
          try {
            client_loop(*clients_[c], stop, parts[c]);
          } catch (...) {
            // A transport failure ends this client's part of the window;
            // it counts as one failed operation, and the run carries on.
            ++parts[c].attempted;
            ++parts[c].failed;
          }
        });
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(w));
      stop.store(true, std::memory_order_relaxed);
      for (auto& t : threads) t.join();
    }
    const double took = seconds_since(t0);
    elapsed += took;
    std::uint64_t ok = 0;
    std::vector<double> lat;
    for (const auto& part : parts) {
      p.attempted += part.attempted;
      p.failed += part.failed;
      ok += part.ok;
      lat.insert(lat.end(), part.latency_us.begin(), part.latency_us.end());
    }
    p.ok += ok;
    p.window_ops_s.push_back(static_cast<double>(ok) / took);
    p.window_steal_pct.push_back(steal_pct(ticks0, CpuTicks::read()));
    p.window_cpu_us_per_op.push_back(
        1e6 * (process_cpu_s() - cpu0) /
        static_cast<double>(std::max<std::uint64_t>(1, ok)));
    p.window_p50_us.push_back(quantile(lat, 0.5));
    p.latency_us.insert(p.latency_us.end(), lat.begin(), lat.end());
  }
  for (auto& c : clients_) {
    p.bytes_sent += c->conn->counters().bytes_sent - c->bytes_sent0;
    p.bytes_received += c->conn->counters().bytes_received - c->bytes_received0;
  }
  p.sched_delta = stats_delta(before, stats_of(*server_));
  return p;
}

void Rig::probe_layers(double batch_width, Metrics& out) {
  const auto entry = server_->registry().find(kName);
  if (!entry) throw std::runtime_error("probe: matrix not registered");
  const auto& plan = entry->plan;
  const std::uint32_t rows = matrix_.rows(), cols = matrix_.cols();
  const int reps = 200;
  spmv::Prng rng(config_.seed ^ 0x7e57);
  std::vector<double> x(cols), y(rows);
  for (auto& v : x) v = rng.next_double(-1.0, 1.0);

  // Engine: the server's own plan, called directly.
  spmv::engine::Executor exec(plan);
  exec.multiply(x, y);
  out["engine.multiply_us"] = {median_us(reps,
                                         [&] {
                                           auto s = span("engine.multiply");
                                           exec.multiply(x, y);
                                         }),
                               "us"};
  const auto width =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(batch_width)));
  std::vector<std::vector<double>> bx(width, x), by(width, y);
  std::vector<const double*> xs;
  std::vector<double*> ys;
  for (std::size_t i = 0; i < width; ++i) {
    xs.push_back(bx[i].data());
    ys.push_back(by[i].data());
  }
  exec.multiply_batch(xs, ys);
  out["engine.batch_us_per_rhs"] = {
      median_us(reps / 4,
                [&] {
                  auto s = span("engine.multiply_batch");
                  exec.multiply_batch(xs, ys);
                }) /
          static_cast<double>(width),
      "us"};

  // Scheduler: one request at a time through a scheduler of the server's
  // configuration over the same plan options, nothing else queued.
  {
    serve::MatrixRegistry registry;
    registry.put(kName, matrix_, config_.tuning);
    serve::Scheduler sched(registry, server_->config().scheduler);
    (void)sched.submit(kName, x, y).get();
    out["serve.submit_us"] = {median_us(reps,
                                        [&] {
                                          auto s = span("serve.submit");
                                          sched.submit(kName, x, y).get();
                                        }),
                              "us"};
  }

  // Codecs, on one operand pair as the clients send it: 1% of entries
  // changed against the previous operand, delta-encoded; the reply
  // carries a full y.
  std::vector<double> next = x;
  const auto changes = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(kChurn * cols));
  for (std::uint32_t k = 0; k < changes; ++k) {
    next[rng.next_below(cols)] = rng.next_double(-1.0, 1.0);
  }
  const std::uint32_t merge_gap = net::ClientOptions{}.merge_gap;
  net::DeltaVec delta;
  out["net.diff_us"] = {median_us(reps,
                                  [&] {
                                    auto s = span("net.diff");
                                    delta = net::diff(x, next, merge_gap);
                                  }),
                        "us"};
  net::MultiplyRequest req;
  req.name = kName;
  net::OperandSpec op;
  op.mode = net::OperandMode::kDelta;
  op.n = cols;
  op.delta = delta;
  req.operands.push_back(std::move(op));
  std::vector<std::uint8_t> req_frame;
  out["net.req_encode_us"] = {
      median_us(reps,
                [&] {
                  auto s = span("net.req_encode");
                  req_frame = net::encode_frame(net::FrameType::kMultiply, 1,
                                                net::encode_multiply(req));
                }),
      "us"};
  bool decoded = true;
  out["net.req_decode_us"] = {
      median_us(reps,
                [&] {
                  auto s = span("net.req_decode");
                  net::FrameHeader h;
                  std::span<const std::uint8_t> payload;
                  std::size_t used = 0;
                  net::MultiplyRequest back;
                  decoded &= net::parse_frame(req_frame, req_frame.size(), h,
                                              payload, used) ==
                                 net::ParseStatus::kFrame &&
                             net::decode_multiply(payload, false, back);
                }),
      "us"};
  net::MultiplyResult result;
  result.y = y;
  std::vector<std::uint8_t> reply_frame;
  out["net.reply_encode_us"] = {
      median_us(reps,
                [&] {
                  auto s = span("net.reply_encode");
                  reply_frame =
                      net::encode_frame(net::FrameType::kMultiplyResult, 1,
                                        net::encode_multiply_result(result));
                }),
      "us"};
  out["net.reply_decode_us"] = {
      median_us(reps,
                [&] {
                  auto s = span("net.reply_decode");
                  net::FrameHeader h;
                  std::span<const std::uint8_t> payload;
                  std::size_t used = 0;
                  net::MultiplyResult back;
                  decoded &= net::parse_frame(reply_frame, reply_frame.size(),
                                              h, payload, used) ==
                                 net::ParseStatus::kFrame &&
                             net::decode_multiply_result(payload, back);
                }),
      "us"};
  if (!decoded) throw std::runtime_error("probe: codec round trip failed");
}

void phase_layer_metrics(const Phase& p, Metrics& out) {
  const auto& d = p.sched_delta;
  out["serve.batch_width_mean"] = {
      d.batches_dispatched == 0
          ? 0.0
          : static_cast<double>(d.rhs_dispatched) /
                static_cast<double>(d.batches_dispatched),
      "count"};
  out["serve.queue_p50_us"] = {d.queue_latency.quantile_us(0.5), "us"};
  out["serve.dispatch_p50_us"] = {d.dispatch_latency.quantile_us(0.5), "us"};
  const double ops = static_cast<double>(std::max<std::uint64_t>(1, p.ok));
  out["net.req_bytes"] = {static_cast<double>(p.bytes_sent) / ops, "B"};
  out["net.reply_bytes"] = {static_cast<double>(p.bytes_received) / ops, "B"};
  out["client.p50_us"] = {quantile(p.latency_us, 0.5), "us"};
  out["client.p99_us"] = {quantile(p.latency_us, 0.99), "us"};
}

namespace {

/// The server plan's fingerprint for the run record.
std::string plan_json(Rig& rig) {
  const auto entry = rig.server().registry().find(kName);
  return "\"plans\": [{\"matrix\": \"" + std::string(kName) + "\", " +
         PlanInfo::of(entry->plan.report()).json() + "}]";
}

/// Shared body of the two RPC workloads.
Result run_rpc(const Options& opt, spmv::CsrMatrix matrix, RigConfig rc) {
  Result res;
  rc.seed = opt.seed;
  rc.corrupt_reply = opt.corrupt == "reply";
  Team team(3);
  Triad triad(team, opt.tiny ? std::size_t{1} << 20
                             : 4 * llc_bytes(std::uint64_t{32} << 20) /
                                   sizeof(double));
  res.yardstick_cpus = team.cpu_list();
  Rig rig(std::move(matrix), rc);
  const double setup_s = rig.setup(opt.tiny ? 0.0 : kSetupSeconds);
  res.trace_json.push_back("\"setup_reps\": " +
                           std::to_string(rig.setup_reps()));
  res.trace_json.push_back(std::string("\"reply_check\": \"") +
                           (rc.window <= 1 ? "recompute" : "projection") +
                           "\"");

  const double seconds = opt.tiny ? 0.3 : opt.seconds;
  const double window_s = opt.tiny ? 0.1 : 1.0;
  auto count = [&](const Phase& p) {
    res.attempted += p.attempted;
    res.failed += p.failed;
  };
  // The host's bandwidth for the record, measured around the requests
  // rather than between them: these workloads do not follow it.
  std::vector<double> triads;
  auto measure_triads = [&] {
    auto s = span("bench.triad");
    for (int i = 0; i < 3; ++i) triads.push_back(triad.run());
  };
  measure_triads();
  // Warm-up: connections, caches and the delta base settle.  Its replies
  // are checked and counted like any other.
  count(rig.run(opt.tiny ? 0.05 : 0.5, 1.0));

  if (!opt.trace) {
    const Phase p = rig.run(seconds, window_s);
    count(p);
    measure_triads();
    res.triad_gbs = median(triads);
    const auto clean = clean_windows(p.window_steal_pct);
    const double ops_s = median(pick(p.window_ops_s, clean));
    // The credited bytes of the replies per second, as a share of the
    // reference bandwidth (yardstick.h): the request rate here is bound by
    // per-request costs, not by the host's memory bandwidth, so dividing
    // by the measured triad would only import the host's drift.
    res.end_to_end["stream_frac"] = {
        static_cast<double>(rig.credited()) * ops_s / (kRefTriadGbs * 1e9),
        "ratio"};
    res.end_to_end["p50_us"] = {median(pick(p.window_p50_us, clean)), "us"};
    res.end_to_end["ops_s"] = {ops_s, "1/s"};
    res.end_to_end["setup_s"] = {setup_s, "s"};
    res.trace_json.push_back(windows_json(p));
    res.trace_json.push_back(
        steal_filter_json(p.window_ops_s.size(), clean.size()));
    res.trace_json.push_back(plan_json(rig));
    return res;
  }

  const Phase plain = rig.run(seconds / 2, window_s);
  count(plain);
  Tracer::instance().set_enabled(true);
  const Phase traced = rig.run(seconds / 2, window_s);
  count(traced);
  measure_triads();
  auto& L = res.per_layer;
  const double p50_plain = quantile(plain.latency_us, 0.5);
  L["trace.overhead_pct"] = {
      100.0 * (quantile(traced.latency_us, 0.5) - p50_plain) / p50_plain, "%"};
  phase_layer_metrics(traced, L);
  res.triad_gbs = median(triads);
  L["core.triad_gbs"] = {res.triad_gbs, "GB/s"};
  const auto entry = rig.server().registry().find(kName);
  const auto& report = entry->plan.report();
  L["core.plan_s"] = {report.plan_seconds, "s"};
  add_plan_metrics({PlanInfo::of(report)}, L);
  res.trace_json.push_back(plan_json(rig));
  res.trace_json.push_back(windows_json(traced));
  rig.probe_layers(L["serve.batch_width_mean"].value, L);
  L["core.gflops"] = {2.0 * static_cast<double>(report.nnz) /
                          L["engine.multiply_us"].value / 1e3,
                      "GF/s"};
  return res;
}

}  // namespace

Result run_rpc_closed(const Options& opt) {
  // The ROADMAP baseline matrix, under the server's default one-thread
  // tuning and default scheduler (100 us linger).
  RigConfig rc;
  rc.clients = 1;
  rc.window = 1;
  return run_rpc(opt, spmv::gen::banded(opt.tiny ? 256 : 1024, 8, 0.9, opt.seed),
                 rc);
}

Result run_rpc_pipelined(const Options& opt) {
  // One client with sixteen requests in flight: the scheduler can coalesce
  // all of them into one fused multiply_batch, and every reply is a full y
  // through the I/O thread's codecs.  The matrix (~78k nonzeros, ~0.9 MB
  // of CSR) fits one core's 2 MiB L2.  One that lives in the LLC the
  // host's other tenants share (scale 0.25, 12 MB) runs at their mercy: a
  // serial multiply of it swung 770-1090 us between half-second windows
  // while the benchmark was idle.  The plan is the server's default
  // one-thread tuning: with a second, pinned and spinning engine thread,
  // one competing busy thread cost 22% of ops_s.
  RigConfig rc;
  rc.clients = 1;
  rc.window = 16;
  return run_rpc(opt,
                 spmv::gen::generate_suite_matrix("FEM/Cantilever",
                                                  opt.tiny ? 0.01 : 0.02),
                 rc);
}

}  // namespace perfbench
