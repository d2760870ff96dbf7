// In-memory span tracer for the benchmark's traced runs.
//
// Spans are opened and closed around the benchmark's own call sites into the
// library (engine runs, snapshot parse/serialize, restore, forks, workflow
// scheduling). Each closed span adds its *self* time — duration minus the
// time of spans nested inside it — to a per-name accumulator, so the
// per-layer host times of one pass sum to the pass's traced wall time.
// Stored spans carry name, start, end, parent span and the op id shared by
// one op's spans; they are written once, at exit, as Chrome/Perfetto
// `traceEvents` JSON. When the tracer is off every call is one branch.

#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  /// Spans kept for the trace file; beyond this only self times accumulate.
  static constexpr std::size_t kMaxStoredSpans = 200000;

  bool on() const { return on_; }
  void setOn(bool on) { on_ = on; }

  /// Starts a new op: spans opened until endOp() share its id. Spans
  /// outside any op (a parent world's own run) carry op id 0.
  void beginOp() { op_ = ++lastOp_; }
  void endOp() { op_ = 0; }

  void open(const char* name) {
    if (!on_) return;
    std::int32_t stored = -1;
    if (spans_.size() < kMaxStoredSpans) {
      stored = static_cast<std::int32_t>(spans_.size());
      spans_.push_back({name, 0, 0,
                        stack_.empty() ? -1 : stack_.back().stored, op_});
    } else {
      ++dropped_;
    }
    stack_.push_back({name, nowNs(), 0, stored});
    if (stored >= 0) spans_[static_cast<std::size_t>(stored)].start =
        stack_.back().start;
  }

  void close() {
    if (!on_ || stack_.empty()) return;
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t end = nowNs();
    const std::int64_t dur = end - f.start;
    self_[f.name] += dur - f.childNs;
    if (!stack_.empty()) stack_.back().childNs += dur;
    if (f.stored >= 0) spans_[static_cast<std::size_t>(f.stored)].end = end;
  }

  /// A timed leaf too fine-grained to store as a span (one estimator call):
  /// counted as self time of `name` and as child time of the open span.
  void leaf(const char* name, std::int64_t ns) {
    if (!on_) return;
    self_[name] += ns;
    if (!stack_.empty()) stack_.back().childNs += ns;
  }

  /// Self seconds per span name since the last resetSelf().
  std::map<std::string, double> selfSeconds() const {
    std::map<std::string, double> out;
    for (const auto& [name, ns] : self_) {
      out[name] += static_cast<double>(ns) * 1e-9;  // merges equal names
    }
    return out;
  }
  void resetSelf() { self_.clear(); }

  std::size_t storedSpans() const { return spans_.size(); }
  std::uint64_t droppedSpans() const { return dropped_; }

  /// Writes every stored span as a Chrome "complete" event (times in µs
  /// relative to the first span). Returns false if the file cannot be made.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << static_cast<double>(s.start - t0) * 1e-3
          << ",\"dur\":" << static_cast<double>(s.end - s.start) * 1e-3
          << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
          << ",\"op\":" << s.op << "}}";
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    std::int32_t parent;
    std::uint64_t op;
  };
  struct Frame {
    const char* name;
    std::int64_t start;
    std::int64_t childNs;
    std::int32_t stored;
  };

  bool on_ = false;
  std::uint64_t op_ = 0;
  std::uint64_t lastOp_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
  std::vector<Frame> stack_;
  std::map<const char*, std::int64_t> self_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t) { t_.open(name); }
  ~Scope() { t_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
};

}  // namespace perfbench
