// In-memory span recorder for saris_bench's traced run.
//
// The benchmark records a span around each call it makes into a layer of
// the simulator (lowering, verify, cost walk, golden reference, execute,
// system run), nested under one root span per job. Spans stay in memory and
// are written out when the run ends. A layer's self time is its span's
// duration minus the part covered by its child spans.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace saris_bench {

struct Span {
  const char* name = "";  ///< string literal, "layer.op"
  double start = 0.0;     ///< seconds since the tracer's epoch
  double end = 0.0;
  int parent = -1;   ///< index of the enclosing span, -1 at top level
  long job = -1;     ///< job id within the run, -1 for pass-level work
  int pass = 0;
  /// Duration measured by the simulator itself (RunMetrics /
  /// SystemRunMetrics::step_wall_seconds), not by the tracer: the length
  /// is measured, the placement at the parent's start is nominal.
  bool derived = false;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : epoch_(Clock::now()) {}

  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  void set_pass(int pass) { pass_ = pass; }
  void set_job(long job) { job_ = job; }

  int open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now(), 0.0, parent, job_, pass_, false});
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  /// A child of the innermost open span whose duration the simulator
  /// measured (see Span::derived).
  void derived(const char* name, double seconds) {
    const int parent = stack_.back();
    const double start = spans_[static_cast<std::size_t>(parent)].start;
    spans_.push_back(
        Span{name, start, start + seconds, parent, job_, pass_, true});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name over the spans of one pass.
  std::map<std::string, double> self_times(int pass) const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -=
            spans_[i].end - spans_[i].start;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].pass == pass) out[spans_[i].name] += self[i];
    }
    return out;
  }

  /// Total duration per span name over the spans of one pass.
  std::map<std::string, double> totals(int pass) const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      if (s.pass == pass) out[s.name] += s.end - s.start;
    }
    return out;
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int pass_ = 0;
  long job_ = -1;
};

/// RAII span: open on construction, close on scope exit (also on unwind).
class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

}  // namespace saris_bench
