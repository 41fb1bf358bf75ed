// In-memory span recorder for the traced benchmark run.
//
// Every span is opened and closed by the benchmark itself around a public
// call into one layer of the flow (a pipeline stage, a CompileService call,
// area pricing).  Spans of one top-level operation (a compile, an edit, a
// re-open) share a request id, and each names the span that caused it.
// Nothing is written until the run ends; write_chrome_json() then emits
// Chrome trace-event JSON that any trace viewer opens.
#pragma once

#include <chrono>
#include <cstdint>
#include <iomanip>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/stages.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::uint64_t request = 0;
  int parent = -1;  ///< Index of the causing span, -1 for a root.
  double start_us = 0.0;
  double end_us = -1.0;  ///< < start_us while the span is open.
  std::map<std::string, double> args;

  double ms() const { return (end_us - start_us) / 1000.0; }
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  int begin(std::string name, std::uint64_t request, int parent) {
    spans_.push_back(Span{std::move(name), request, parent, now_us(), -1.0, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_us = now_us(); }

  Span& span(int id) { return spans_[static_cast<std::size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }

  void write_chrome_json(std::ostream& os) const {
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
         << ",\"dur\":" << (s.end_us - s.start_us)
         << ",\"args\":{\"request\":" << s.request << ",\"parent\":" << s.parent;
      for (const auto& [key, value] : s.args) {
        os << ",\"" << key << "\":" << value;
      }
      os << "}}";
    }
    os << "\n]}\n";
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Closes its span on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::uint64_t request,
             int parent)
      : tracer_(tracer), id_(tracer.begin(std::move(name), request, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Turns the stage boundaries a CompileService call reports into child
/// spans of `parent`.  The delta path can open a stage block and then fall
/// back to a full compile without closing it; the next stage start closes
/// such a block and marks it abandoned.
class SpanObserver final : public mcfpga::core::StageObserver {
 public:
  SpanObserver(Tracer& tracer, std::uint64_t request, int parent)
      : tracer_(tracer), request_(request), parent_(parent) {}

  bool on_stage_start(const char* stage) override {
    close_open(/*abandoned=*/true);
    open_ = tracer_.begin(stage, request_, parent_);
    return true;
  }
  void on_stage_done(const char* /*stage*/, double /*seconds*/) override {
    close_open(/*abandoned=*/false);
  }
  /// Closes a block the call left open (call after the service returns).
  void finish() { close_open(/*abandoned=*/true); }

 private:
  void close_open(bool abandoned) {
    if (open_ < 0) {
      return;
    }
    tracer_.end(open_);
    if (abandoned) {
      tracer_.span(open_).args["abandoned"] = 1.0;
    }
    open_ = -1;
  }

  Tracer& tracer_;
  std::uint64_t request_;
  int parent_;
  int open_ = -1;
};

}  // namespace perfbench
