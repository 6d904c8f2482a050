#include <algorithm>
#include <cstring>
#include <ctime>
#include <vector>

#include "perfbench/perfbench.h"

namespace perfbench {

CpuClock::time_point CpuClock::now() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return time_point(duration(static_cast<rep>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec));
}

namespace {

/// Keeps the reference kernel's result alive.
volatile uint64_t reference_sink = 0;

/// Thread CPU seconds of one pass of the reference kernel: a dependent
/// multiply-add chain over a 64 KiB table, which stays in the core's
/// caches, so only the core's own speed moves it.
double reference_once() {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(1u << 14);
    for (size_t i = 0; i < t.size(); ++i) t[i] = static_cast<uint32_t>(i * 2654435761u);
    return t;
  }();
  constexpr int kPasses = 64;
  const size_t mask = table.size() - 1;
  const auto t0 = CpuClock::now();
  uint64_t h = 1;
  for (int r = 0; r < kPasses; ++r) {
    for (size_t i = 0; i < table.size(); ++i) h = h * 31 + table[(i * 7) & mask];
  }
  reference_sink = h;
  return cpu_since(t0);
}

/// The reference time: the fastest of three passes, so a timer interrupt
/// inside one pass does not count.
double reference_seconds() {
  return std::min({reference_once(), reference_once(), reference_once()});
}

}  // namespace

HostSpeed::HostSpeed() : last_ref_(reference_seconds()) {}

double HostSpeed::normalize(double cpu_s) {
  const double before = last_ref_;
  last_ref_ = reference_seconds();
  const double speed = kReferenceSeconds / (0.5 * (before + last_ref_));
  speed_sum_ += speed;
  ++blocks_;
  return cpu_s * speed;
}

void Tracer::record(const char* name, Clock::time_point t0) {
  const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
  Total& t = totals_[name];
  t.seconds += dt;
  t.calls += 1;
}

double Tracer::seconds(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.seconds;
}

uint64_t Tracer::calls(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second.calls;
}

double Tracer::mean(const std::string& name) const {
  const uint64_t n = calls(name);
  return n == 0 ? 0.0 : seconds(name) / static_cast<double>(n);
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_since(CpuClock::time_point t0) {
  return std::chrono::duration<double>(CpuClock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Digest::add(std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
}

void Digest::add(uint64_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  add(std::string_view(buf, sizeof buf));
}

void Digest::add(std::span<const int16_t> v) {
  add(static_cast<uint64_t>(v.size()));
  for (const int16_t x : v) add(static_cast<uint64_t>(static_cast<uint16_t>(x)));
}

double span_cost_seconds() {
  Tracer t(true);
  constexpr int kSpans = 20'000;
  volatile int sink = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) t.span("probe", [&] { sink = sink + 1; });
  return since(t0) / kSpans;
}

}  // namespace perfbench
