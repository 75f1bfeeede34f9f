#include "trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

thread_local std::uint64_t t_parent = 0;
thread_local std::uint64_t t_request = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_),
      rec_(other.rec_),
      saved_parent_(other.saved_parent_),
      saved_request_(other.saved_request_) {
  other.tracer_ = nullptr;
}

Tracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->finish(*this);
}

Tracer::Span Tracer::span(const char* name, std::uint64_t request) {
  Span s;
  if (!enabled()) return s;
  s.tracer_ = this;
  s.rec_.name = name;
  s.rec_.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  s.rec_.parent = t_parent;
  s.rec_.request = request != 0 ? request : t_request;
  s.saved_parent_ = t_parent;
  s.saved_request_ = t_request;
  t_parent = s.rec_.id;
  t_request = s.rec_.request;
  s.rec_.start_ns = now_ns();
  return s;
}

void Tracer::finish(Span& s) {
  s.rec_.end_ns = now_ns();
  t_parent = s.saved_parent_;
  t_request = s.saved_request_;
  Buffer& b = local_buffer();
  s.rec_.thread = b.thread;
  b.records.push_back(s.rec_);
}

Tracer::Buffer& Tracer::local_buffer() {
  // Buffers live as long as the tracer (a process-wide static), so the
  // cached pointer never dangles.
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size());
    buffer = buffers_.back().get();
  }
  return *buffer;
}

std::vector<Tracer::Record> Tracer::records() const {
  std::vector<Record> all;
  {
    std::lock_guard lock(mutex_);
    for (const auto& b : buffers_) {
      all.insert(all.end(), b->records.begin(), b->records.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const Record& a, const Record& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

std::map<std::string, Tracer::SelfTime> Tracer::self_times() const {
  const auto all = records();
  // Children of one span run on its thread, nested, so their durations
  // add up to the covered part of the parent's interval.
  std::map<std::uint64_t, std::int64_t> child_ns;
  for (const auto& r : all) {
    if (r.parent != 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  std::map<std::string, SelfTime> out;
  for (const auto& r : all) {
    auto& st = out[r.name];
    const double total = static_cast<double>(r.end_ns - r.start_ns) / 1e3;
    const auto it = child_ns.find(r.id);
    const double covered =
        it == child_ns.end() ? 0.0 : static_cast<double>(it->second) / 1e3;
    ++st.count;
    st.total_us += total;
    st.self_us += total - covered;
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (const auto& r : records()) {
    out << "{\"name\":\"" << r.name << "\",\"id\":" << r.id
        << ",\"parent\":" << r.parent << ",\"request\":" << r.request
        << ",\"thread\":" << r.thread << ",\"start_ns\":" << r.start_ns
        << ",\"end_ns\":" << r.end_ns << "}\n";
  }
}

}  // namespace perfbench
