// The network-serving rig: an in-process SpmvServer on loopback, clients
// that upload one matrix and multiply against it with delta-encoded
// operands, and the isolated layer probes the traced runs report.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "matrix/csr.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/serve_stats.h"
#include "yardstick.h"

namespace perfbench {

struct RigConfig {
  unsigned clients = 1;
  /// Requests each client keeps in flight; 1 is a closed loop through
  /// SpmvNetClient::multiply, more pipelines begin_multiply/await.  A
  /// closed loop checks every reply by recomputing it; a pipelined one
  /// checks by projection (yardstick.h), cheap enough to keep up.
  unsigned window = 1;
  /// Server-side plan options for UPLOAD_MATRIX.
  spmv::TuningOptions tuning;
  std::uint64_t seed = 1;
  /// Corrupt the first checked reply (self-test).
  bool corrupt_reply = false;
};

/// What one measured phase saw.
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t ok = 0;
  std::vector<double> latency_us;  ///< per kOk request
  /// kOk replies per second, per window.
  std::vector<double> window_ops_s;
  /// Process CPU microseconds per kOk reply, per window: flat when a
  /// slow window lost CPU to the host, up when the work itself grew.
  std::vector<double> window_cpu_us_per_op;
  /// Share of the host's CPU time the hypervisor stole, per window.
  std::vector<double> window_steal_pct;
  /// Median latency per window.
  std::vector<double> window_p50_us;
  std::uint64_t bytes_sent = 0;      ///< all clients, whole frames
  std::uint64_t bytes_received = 0;
  spmv::serve::MatrixStatsSnapshot sched_delta;  ///< scheduler stats moved
};

class Rig {
 public:
  Rig(spmv::CsrMatrix matrix, const RigConfig& config);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Connect every client (HELLO) and upload the matrix through client 0,
  /// over and over with fresh clients until `min_seconds` have passed (at
  /// least once); returns the median seconds from the first connect until
  /// the last client is ready and the UPLOAD_MATRIX reply is in.  Throws
  /// if the upload is refused.
  double setup(double min_seconds);
  /// Repetitions the last setup() timed.
  [[nodiscard]] std::size_t setup_reps() const { return setup_reps_; }

  /// Issue requests for `seconds`, in windows of `window_s` (the clients
  /// drain their pipelines at each window's end).  Every reply is checked.
  Phase run(double seconds, double window_s);

  [[nodiscard]] spmv::net::SpmvServer& server() { return *server_; }
  /// The credited bytes of one multiply (yardstick.h).
  [[nodiscard]] std::uint64_t credited() const { return credited_; }

  /// Isolated layer probes on this rig's matrix and server-side plan,
  /// added to `out` under their per-layer names: engine.multiply_us,
  /// engine.batch_us_per_rhs (at `batch_width`), serve.submit_us and the
  /// net.* codec times on the payloads the clients actually sent.
  void probe_layers(double batch_width, Metrics& out);

 private:
  struct Client;
  void client_loop(Client& c, const std::atomic<bool>& stop, Phase& into);

  spmv::CsrMatrix matrix_;
  RigConfig config_;
  std::uint64_t credited_ = 0;
  Projection projection_;
  std::unique_ptr<spmv::net::SpmvServer> server_;
  std::vector<std::unique_ptr<Client>> clients_;
  bool corrupt_pending_ = false;
  std::size_t setup_reps_ = 0;
};

/// SpmvServer::stop() calls a Rig gave up on (see Rig::~Rig).  Their
/// threads are still blocked, so the process must end without joining
/// them.
unsigned server_stop_hangs();

/// Fill serve.* and net.* per-layer metrics of one RPC phase: batch width
/// and the queue/dispatch medians from the scheduler-stats delta, request
/// and reply bytes per op from the client counters.
void phase_layer_metrics(const Phase& p, Metrics& out);

}  // namespace perfbench
