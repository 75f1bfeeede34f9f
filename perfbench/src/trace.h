// In-memory spans recorded by the benchmark around each call it makes into
// a layer of the library (the library itself is not instrumented).
//
// A span holds a name, start and end, the span that was open on the same
// thread when it began (its parent), and a request id shared by all spans
// of one request.  Spans go to per-thread buffers, so recording takes no
// lock after a thread's first span, and are written out once at exit.
// With tracing disabled a span costs one relaxed load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Record {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0 = root
    std::uint64_t request = 0;  ///< 0 = not part of a request
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t thread = 0;
  };

  /// Closes its span on destruction.  Move-only.
  class Span {
   public:
    Span() = default;
    Span(Span&& other) noexcept;
    Span& operator=(Span&&) = delete;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span();

   private:
    friend class Tracer;
    Tracer* tracer_ = nullptr;
    Record rec_;
    std::uint64_t saved_parent_ = 0;
    std::uint64_t saved_request_ = 0;
  };

  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Open a span.  `request` 0 inherits the enclosing span's request id.
  [[nodiscard]] Span span(const char* name, std::uint64_t request = 0);
  /// A fresh request id.
  std::uint64_t next_request() {
    return next_request_.fetch_add(1, std::memory_order_relaxed);
  }

  // The readers below may run only once every thread that recorded spans
  // has been joined (the per-thread buffers are not locked for writing).

  /// Every span recorded so far, by start time.
  [[nodiscard]] std::vector<Record> records() const;
  /// Per span name: count and total self time in microseconds (duration
  /// minus the part covered by its child spans).
  struct SelfTime {
    std::uint64_t count = 0;
    double self_us = 0.0;
    double total_us = 0.0;
  };
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const;
  /// Write every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Record> records;
  };
  Buffer& local_buffer();
  void finish(Span& s);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> next_request_{1};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Shorthand for Tracer::instance().span(...).
inline Tracer::Span span(const char* name, std::uint64_t request = 0) {
  return Tracer::instance().span(name, request);
}

}  // namespace perfbench
