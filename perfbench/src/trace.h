// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent) in steady_clock nanoseconds; the
// parent is the span open when it began.  Spans stay in memory while the
// run measures and are written out once, as JSON lines, when it ends.
// A disabled tracer records nothing, so untraced rounds pay one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  void enable(bool on) { on_ = on; }

  /// Records a span for the lifetime of the object.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t) {
      if (t_.on_) id_ = t_.begin(name);
    }
    ~Scope() {
      if (id_ >= 0) t_.end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int64_t id_ = -1;
  };

  /// Writes every span as one JSON object per line.
  bool write(const std::string& path, const std::string& workload) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start
          << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent
          << ",\"workload\":\"" << workload << "\"}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    std::uint64_t start;
    std::uint64_t end;
    std::int64_t parent;
  };

  std::int64_t begin(const char* name) {
    const std::int64_t parent = open_.empty() ? -1 : open_.back();
    const auto id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{name, now_ns(), 0, parent});
    open_.push_back(id);
    return id;
  }

  void end(std::int64_t id) {
    spans_[static_cast<std::size_t>(id)].end = now_ns();
    open_.pop_back();
  }

  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

}  // namespace perfbench
