// Shared types of the repository benchmark: metrics, the span tracer the
// traced run records around every call into a src/ module, and the
// workload entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/kernels/opt_level.h"

namespace perfbench {

/// Paper's peak operating point; simulated times convert cycles at it.
inline constexpr double kMhz = 500.0;
/// One 5G NR TTI (1 ms, numerology 0) in simulated cycles at kMhz.
inline constexpr double kTtiCycles = 1e-3 * kMhz * 1e6;

/// Host time of the calling thread: the CPU seconds it has run
/// (CLOCK_THREAD_CPUTIME_ID). On a shared virtual host this leaves out steal
/// time and time the thread sat descheduled, which wall time would charge to
/// the program. The benchmark and the simulator are single-threaded, so it
/// covers all of the program's work. End-to-end host figures (iterations,
/// set-up) use it; spans around single calls use the monotonic Clock,
/// because reading a thread's CPU time is a system call (about 0.3 us),
/// too costly around calls of a few microseconds.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept;
};
using Clock = std::chrono::steady_clock;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Host-time span recorder. With tracing off every call still runs; only
/// the bookkeeping is skipped, so the untraced run measures the program.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// Run `f` under a span named "<layer>.<call>"; returns f's result.
  template <class F>
  decltype(auto) span(const char* name, F&& f) {
    if (!on_) return f();
    const auto t0 = Clock::now();
    struct Close {
      Tracer* t;
      const char* name;
      Clock::time_point t0;
      ~Close() { t->record(name, t0); }
    } close{this, name, t0};
    return f();
  }

  /// Total seconds and call count of one span name (0 when never opened).
  double seconds(const std::string& name) const;
  uint64_t calls(const std::string& name) const;
  /// Mean seconds per call (0 when never opened).
  double mean(const std::string& name) const;

 private:
  void record(const char* name, Clock::time_point t0);
  struct Total {
    double seconds = 0.0;
    uint64_t calls = 0;
  };
  bool on_;
  std::map<std::string, Total> totals_;
};

/// Reference-normalised host time. On a shared virtual host, identical work
/// runs up to 1.5x slower for minutes at a time while other tenants load
/// the machine, and thread CPU time does not remove that. HostSpeed times a
/// fixed core-bound kernel owned by the benchmark (compiled here, so no
/// change under src/ moves it) right after every timed block, and scales
/// each block's CPU seconds by kReferenceSeconds over the mean of the two
/// reference times around it. A normalised figure reads as CPU seconds on a
/// host that runs the reference kernel in exactly kReferenceSeconds.
class HostSpeed {
 public:
  /// About the reference time on a quiet 4-vCPU KVM guest (Xeon, 2.1 GHz).
  static constexpr double kReferenceSeconds = 0.8e-3;

  HostSpeed();
  /// Normalise `cpu_s`, the thread CPU seconds of the block that ended
  /// just now (it started at the previous reference sample).
  double normalize(double cpu_s);
  /// Mean of kReferenceSeconds / reference time over the blocks so far
  /// (1 = the nominal host; below 1 = this host ran slower).
  double mean_speed() const { return blocks_ == 0 ? 1.0 : speed_sum_ / blocks_; }

 private:
  double last_ref_;
  double speed_sum_ = 0.0;
  int blocks_ = 0;
};

/// Seconds elapsed since `t0`, on the monotonic clock.
double since(Clock::time_point t0);
/// Thread CPU seconds elapsed since `t0`.
double cpu_since(CpuClock::time_point t0);

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);

/// FNV-1a, folded incrementally over the simulated outputs of a workload.
struct Digest {
  uint64_t h = 0xcbf29ce484222325ull;
  void add(std::string_view s);
  void add(uint64_t v);
  void add(std::span<const int16_t> v);
};

/// Everything one workload run reports.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (host and simulated), printed in the JSON line of
  /// the untraced run.
  std::vector<Metric> end_to_end;
  /// Simulated results specific to the workload (deterministic; printed
  /// by name and folded into the digest, not part of the JSON line).
  std::vector<Metric> simulated;
  /// Per-layer metrics of the traced run.
  std::vector<Metric> layers;
  uint64_t digest = 0;
  /// Human-readable notes printed before the result (request counts,
  /// sample counts, checks).
  std::vector<std::string> notes;

  void fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
  bool has_layer(const std::string& name) const {
    for (const Metric& m : layers) {
      if (m.name == name) return true;
    }
    return false;
  }
};

struct RunArgs {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Outcome run_serve_iss_batched(const RunArgs& args);
Outcome run_serve_translated_edf(const RunArgs& args);
Outcome run_city_storm(const RunArgs& args);
Outcome run_paper_suite(const RunArgs& args);

/// Small fixed runs that time a layer a workload does not exercise, so
/// every per-layer metric exists on every workload, as the benchmark's
/// result format requires: serve_translated_edf's configuration at 1000
/// requests, and a 16-TTI fault-free city.
std::vector<Metric> probe_scheduler(uint64_t seed);
std::vector<Metric> probe_city(uint64_t seed);

/// One device program: a suite network built at one optimization level.
using Program = std::pair<std::string, rnnasip::kernels::OptLevel>;

/// The traced run's per-program ledger: kernels build, decode, static
/// bounds, translation, the ISS and the translated backend on the
/// identical programs, CheckedRun, golden references, Engine::run and
/// calibration. Appends per-layer metrics to `out`; any output mismatch
/// marks `out` incorrect.
void ledger(const std::vector<Program>& programs, Outcome& out);

/// Fixed cost of one Tracer::span, measured (seconds).
double span_cost_seconds();

}  // namespace perfbench
