// spmv_perfbench: the repository benchmark (see perfbench/README.md).
//
//   spmv_perfbench --workload <suite-sweep|rpc-closed|rpc-pipelined>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--tiny 1] [--corrupt y|reply] [--trace-dir <dir>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1).  The exit code is 0 only when no operation failed.
#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common.h"
#include "host.h"
#include "rpc.h"
#include "trace.h"

namespace perfbench {

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {"stream_frac", "p50_us",
                                                 "ops_s", "setup_s"};
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "core.gflops",           "core.triad_gbs",
      "core.plan_s",           "core.bytes_per_nnz",
      "core.prefetch_distance", "core.blocks_register_blocked",
      "core.blocks_bcoo",      "core.blocks_idx16",
      "core.fused_min_width",  "engine.nnz_imbalance",
      "engine.multiply_us",    "engine.batch_us_per_rhs",
      "serve.submit_us",       "serve.batch_width_mean",
      "serve.queue_p50_us",    "serve.dispatch_p50_us",
      "net.diff_us",           "net.req_encode_us",
      "net.req_decode_us",     "net.reply_encode_us",
      "net.reply_decode_us",   "net.req_bytes",
      "net.reply_bytes",       "net.residual_us",
      "client.p50_us",         "client.p99_us",
      "trace.overhead_pct",    "host.steal_pct",
      "host.loadavg_1m"};
  return names;
}

namespace {

const char* const kCodecs[] = {"net.diff_us", "net.req_encode_us",
                               "net.req_decode_us", "net.reply_encode_us",
                               "net.reply_decode_us"};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "spmv_perfbench: " << why
            << "\nusage: spmv_perfbench --workload "
               "<suite-sweep|rpc-closed|rpc-pipelined> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny 1] [--corrupt y|reply] "
               "[--trace-dir <dir>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        o.workload = val;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
      } else if (key == "--seconds") {
        o.seconds = std::stod(val);
      } else if (key == "--trace") {
        o.trace = std::stoi(val) != 0;
      } else if (key == "--tiny") {
        o.tiny = std::stoi(val) != 0;
      } else if (key == "--corrupt") {
        o.corrupt = val;
      } else if (key == "--trace-dir") {
        o.trace_dir = val;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  if (!o.corrupt.empty() && o.corrupt != "y" && o.corrupt != "reply") {
    usage("--corrupt takes y or reply");
  }
  return o;
}

/// mkdir -p.
void make_dirs(const std::string& path) {
  std::string cur;
  std::istringstream in(path);
  std::string part;
  if (!path.empty() && path[0] == '/') cur = "/";
  while (std::getline(in, part, '/')) {
    if (part.empty()) continue;
    cur += part + "/";
    if (mkdir(cur.c_str(), 0755) != 0 && errno != EEXIST) {
      throw std::runtime_error("cannot create " + cur);
    }
  }
}

/// Return `code` from main(), or, when a server's stop() hung (rpc.h),
/// end the process here: its threads are still blocked and must not be
/// joined or destroyed by the normal exit path.
int finish(int code) {
  if (server_stop_hangs() == 0) return code;
  std::cout.flush();
  std::cerr.flush();
  std::_Exit(code);
}

std::string number(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);

  const HostStamp host = HostStamp::read();
  const CpuTicks ticks0 = CpuTicks::read();
  Result res;
  try {
    if (opt.workload == "suite-sweep") {
      res = run_suite_sweep(opt);
    } else if (opt.workload == "rpc-closed") {
      res = run_rpc_closed(opt);
    } else if (opt.workload == "rpc-pipelined") {
      res = run_rpc_pipelined(opt);
    } else {
      usage("unknown workload " + opt.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "spmv_perfbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return finish(1);
  }
  if (server_stop_hangs() > 0) {
    std::cerr << "spmv_perfbench: warning: " << server_stop_hangs()
              << " SpmvServer::stop() call(s) did not return (lost I/O-thread "
                 "wake-up, see perfbench/README.md); their threads are left "
                 "blocked\n";
  }
  const CpuTicks ticks1 = CpuTicks::read();

  Metrics& L = res.per_layer;
  if (opt.trace) {
    L["host.steal_pct"] = {steal_pct(ticks0, ticks1), "%"};
    L["host.loadavg_1m"] = {host.loadavg_1m, "load"};
    // What of the client's median the measured layers do not explain:
    // sockets, poll wake-ups and the I/O-thread hand-off.
    double explained = L["serve.submit_us"].value;
    for (const char* c : kCodecs) explained += L[c].value;
    L["net.residual_us"] = {L["client.p50_us"].value - explained, "us"};
  }
  const Metrics& out = opt.trace ? res.per_layer : res.end_to_end;
  const auto& names = opt.trace ? per_layer_names() : end_to_end_names();

  // The run's record: host noise always; spans and plan fingerprint when
  // traced.
  try {
    make_dirs(opt.trace_dir);
    const std::string base = opt.trace_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) +
                             (opt.trace ? "-traced" : "");
    std::ofstream rec(base + ".json");
    rec << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
        << ", \"trace\": " << (opt.trace ? 1 : 0) << ",\n "
        << host_json(host, ticks0, ticks1, res.triad_gbs, res.yardstick_cpus)
        << ",\n \"server_stop_hangs\": " << server_stop_hangs();
    for (const auto& member : res.trace_json) rec << ",\n " << member;
    if (opt.trace) {
      rec << ",\n \"span_self_us\": {";
      bool first = true;
      for (const auto& [name, st] : Tracer::instance().self_times()) {
        rec << (first ? "" : ", ") << "\"" << name << "\": {\"count\": "
            << st.count << ", \"self_us\": " << number(st.self_us)
            << ", \"total_us\": " << number(st.total_us) << "}";
        first = false;
      }
      rec << "}";
      Tracer::instance().write_jsonl(base + ".spans.jsonl");
    }
    rec << ",\n \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : out) {
      rec << (first ? "" : ", ") << "\"" << name << "\": " << number(m.value);
      first = false;
    }
    rec << "}}\n";
  } catch (const std::exception& e) {
    std::cerr << "spmv_perfbench: cannot write the run record: " << e.what()
              << "\n";
    return finish(1);
  }

  std::ostringstream json;
  json << "{\"correct\": " << (res.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << res.attempted << ", \"failed\": " << res.failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& name : names) {
    const auto it = out.find(name);
    if (it == out.end() || !std::isfinite(it->second.value)) {
      std::cerr << "spmv_perfbench: metric " << name << " was not measured\n";
      return finish(1);
    }
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << number(it->second.value) << ", \"unit\": \"" << it->second.unit
         << "\"}";
    first = false;
  }
  json << "}}";
  std::cerr << "host: " << host.cpu_model << ", nproc " << host.nproc
            << ", llc " << host.llc_bytes << " B, affinity " << host.affinity
            << ", loadavg " << host.loadavg_1m << ", steal "
            << steal_pct(ticks0, ticks1) << "%, triad " << res.triad_gbs
            << " GB/s\n";
  std::cout << json.str() << std::endl;
  return finish(res.failed == 0 ? 0 : 1);
}
