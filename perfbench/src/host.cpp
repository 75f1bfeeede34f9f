#include "host.h"

#include <sched.h>

#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// "105M", "107520K", "2048" -> bytes.
std::uint64_t parse_size(const std::string& s) {
  std::uint64_t v = 0;
  std::size_t i = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(s[i] - '0');
    ++i;
  }
  if (i < s.size() && (s[i] == 'K' || s[i] == 'k')) v <<= 10;
  if (i < s.size() && (s[i] == 'M' || s[i] == 'm')) v <<= 20;
  return v;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

CpuTicks CpuTicks::read() {
  // cpu  user nice system idle iowait irq softirq steal guest guest_nice
  std::istringstream in(read_first_line("/proc/stat"));
  std::string label;
  in >> label;
  CpuTicks t;
  std::uint64_t v = 0;
  for (int field = 0; field < 8 && (in >> v); ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

std::vector<std::size_t> clean_windows(const std::vector<double>& steal_pct) {
  std::vector<std::size_t> clean, all;
  for (std::size_t i = 0; i < steal_pct.size(); ++i) {
    all.push_back(i);
    if (steal_pct[i] <= kCleanStealPct) clean.push_back(i);
  }
  if (clean.size() < 3 || 4 * clean.size() < steal_pct.size()) return all;
  return clean;
}

std::string steal_filter_json(std::size_t windows, std::size_t used) {
  std::ostringstream out;
  out << "\"steal_filter\": {\"max_steal_pct\": " << kCleanStealPct
      << ", \"windows\": " << windows << ", \"used\": " << used << "}";
  return out.str();
}

std::uint64_t llc_bytes(std::uint64_t fallback) {
  std::uint64_t best = 0;
  int best_level = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string level = read_first_line(dir + "/level");
    if (level.empty()) continue;
    const int l = std::stoi(level);
    if (l >= best_level) {
      best_level = l;
      best = parse_size(read_first_line(dir + "/size"));
    }
  }
  return best != 0 ? best : fallback;
}

HostStamp HostStamp::read() {
  HostStamp h;
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos) h.cpu_model = line.substr(colon + 2);
        break;
      }
    }
  }
  h.nproc = std::thread::hardware_concurrency();
  h.llc_bytes = perfbench::llc_bytes(0);
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    std::ostringstream out;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (!CPU_ISSET(c, &set)) continue;
      int e = c;
      while (e + 1 < CPU_SETSIZE && CPU_ISSET(e + 1, &set)) ++e;
      if (out.tellp() > 0) out << ',';
      out << c;
      if (e > c) out << '-' << e;
      c = e;
    }
    h.affinity = out.str();
  }
  std::istringstream(read_first_line("/proc/loadavg")) >> h.loadavg_1m;
  return h;
}

double steal_pct(const CpuTicks& begin, const CpuTicks& end) {
  const auto total = end.total - begin.total;
  if (total == 0) return 0.0;
  return 100.0 * static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(total);
}

std::string host_json(const HostStamp& h, const CpuTicks& begin,
                      const CpuTicks& end, double triad_gbs,
                      const std::string& team_cpus) {
  std::ostringstream out;
  out.precision(17);
  out << "\"host\": {\"cpu_model\": \"" << json_escape(h.cpu_model)
      << "\", \"nproc\": " << h.nproc << ", \"llc_bytes\": " << h.llc_bytes
      << ", \"affinity\": \"" << h.affinity
      << "\", \"yardstick_cpus\": \"" << team_cpus
      << "\", \"loadavg_1m_at_start\": " << h.loadavg_1m
      << ", \"steal_ticks\": " << (end.steal - begin.steal)
      << ", \"total_ticks\": " << (end.total - begin.total)
      << ", \"steal_pct\": " << steal_pct(begin, end)
      << ", \"triad_gbs\": " << triad_gbs << "}";
  return out.str();
}

}  // namespace perfbench
