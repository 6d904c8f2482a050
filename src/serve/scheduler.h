// Deterministic request scheduler over a serving Cluster.
//
// A Workload is a seeded synthetic request stream: Poisson-like arrivals
// (exponential inter-arrival times from common::Rng), each request naming a
// network and carrying a deterministic input vector (and optionally a
// per-request deadline). The scheduler drains it in event order on N
// simulated cores whose clocks advance by the real measured cycles of each
// program execution — so latency percentiles, throughput and utilization
// are true cycle-level numbers, not analytic estimates.
//
// One discrete-event loop serves every configuration. Each in-flight
// attempt buffers its next event and the loop processes events in global
// cycle order, completions before dispatches at the same cycle. With
// integrity off an attempt is one whole execution, run eagerly at dispatch
// (Cluster::run_single_at / run_batched) and processed as a single event at
// start + cycles; with integrity on it is a CheckedRun stepped one layer
// segment at a time. Idle cores dispatching at the same cycle go in order
// of their clocks (idle the longest first), then by index. Scheduler state
// — retries, quarantine, the overload detector — changes only at events,
// so every decision reads only what has already happened.
//
// Policies:
//   kFifo     — next-free core takes the oldest pending request, single
//               program per request.
//   kBatched  — the next-free core scans the pending queue (bounded by what
//               has *arrived* by its start time — no oracle) for up to B
//               requests of the same network and runs them as one batched
//               execution; non-batchable networks and singleton groups fall
//               back to the single program.
//   kDeadline — earliest-deadline-first ordering over the arrived queue,
//               with admission control: a request whose queue-time estimate
//               already blows its deadline is rejected up front (counted in
//               ServeResult::rejections, never silently dropped). Single
//               executions only.
//
// Resilience (SchedulerConfig): each execution may run under a seeded SEU
// campaign (fault::FaultSpec; the per-execution seed is mixed from one
// campaign seed, so whole runs are bit-reproducible). A trapped or
// watchdog-killed execution surfaces as ExecFailure; the scheduler
// re-dispatches the request with bounded retries and deterministic backoff
// in cycles, quarantines a core that fails K times in a row for a cooldown
// window, and — under overload (deadline-miss rate or queue depth past a
// threshold) — falls back from the configured optimization level to the
// cluster's cheaper fallback flavor until pressure subsides.
//
// Everything is seeded and simulated: two runs with the same configuration
// produce byte-identical reports, and the resilience knobs at their
// defaults (zero fault rates, no fallback) leave the schedule untouched.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/integrity/integrity.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/serve/cluster.h"

namespace rnnasip::serve {

/// One synthetic inference request.
struct Job {
  uint64_t id = 0;
  std::string network;
  uint64_t arrival = 0;   ///< cycle the request enters the queue
  /// Absolute completion deadline in cycles; 0 = no deadline. The per-TTI
  /// RRM setting: a scheduling decision that arrives after its TTI is
  /// worthless.
  uint64_t deadline = 0;
  std::vector<int16_t> input;
};

struct WorkloadConfig {
  std::vector<std::string> networks;  ///< drawn uniformly per request
  int requests = 128;
  /// Mean cycles between consecutive arrivals (Poisson process rate
  /// 1/mean); smaller = heavier load.
  double mean_interarrival_cycles = 20'000;
  /// Mean deadline slack: each job's deadline is arrival + U[0.5, 1.5) x
  /// this many cycles, drawn from a separate derived RNG stream — changing
  /// the slack overlays deadlines on the *same* request stream. 0 (default)
  /// = no deadlines (the PR 3 workload bit-for-bit).
  double deadline_slack_cycles = 0;
  uint64_t seed = 0x5EED;
};

struct Workload {
  WorkloadConfig config;
  std::vector<Job> jobs;  ///< sorted by arrival cycle
};

/// Deterministic Poisson-like request stream; inputs are uniform Q3.12
/// vectors sized per network. requests == 0 yields an empty stream.
Workload make_poisson_workload(const Cluster& cluster, const WorkloadConfig& cfg);

enum class Policy { kFifo, kBatched, kDeadline };
const char* policy_name(Policy p);

/// What cost the kDeadline admission test charges a request against its
/// deadline. kCalibrated uses the measured calibration-run estimate (exact
/// for these input-independent kernels, but carries no proof). kProvable
/// uses the certified static WCET (analysis/wcet.h): an admitted request
/// provably cannot miss its deadline through its own execution time, at
/// the price of rejecting requests whose bound-vs-actual gap straddles the
/// deadline.
enum class Admission { kCalibrated, kProvable };
const char* admission_name(Admission a);

/// Resilience and policy knobs of one scheduling run. The defaults (zero
/// fault rates, no fallback) reproduce the plain scheduler bit-exactly.
struct SchedulerConfig {
  Policy policy = Policy::kFifo;
  /// kDeadline admission-control mode (ignored by other policies).
  Admission admission = Admission::kCalibrated;
  /// Per-execution SEU campaign template. All-zero rates disable
  /// injection entirely. The seed is the *campaign* seed: execution k runs
  /// under splitmix(seed, k), so one seed reproduces the whole run.
  fault::FaultSpec fault;
  /// Re-dispatch attempts after an ExecFailure before the request is
  /// recorded as failed (counted, not silently dropped).
  int max_retries = 3;
  /// Deterministic backoff: attempt n becomes ready n * this many cycles
  /// after the failed execution finished.
  uint64_t retry_backoff_cycles = 4'096;
  /// Quarantine a core after this many *consecutive* failed executions...
  int quarantine_threshold = 3;
  /// ...for this cooldown window (the core rejoins dispatch afterwards).
  uint64_t quarantine_cooldown_cycles = 1'000'000;
  /// Graceful degradation: dispatch at the cluster's fallback_level while
  /// overloaded. Requires ClusterConfig::fallback_level.
  bool level_fallback = false;
  /// Overload enters when the deadline-miss fraction over the last
  /// miss_window completions reaches overload_miss_rate, or (when
  /// overload_queue_depth > 0) the arrived queue exceeds that depth;
  /// it leaves when the miss fraction falls to recover_miss_rate and the
  /// queue drains to half the depth (hysteresis).
  int miss_window = 16;
  double overload_miss_rate = 0.5;
  double recover_miss_rate = 0.125;
  size_t overload_queue_depth = 0;  ///< 0 = queue-depth trigger disabled
  /// Hard cap on retained FaultAttribution records: a heavy SEU campaign
  /// over a million-request run must not grow host memory without bound.
  /// Overflow sets ServeResult::fault_log_truncated; fault_events_total
  /// always counts every flip.
  size_t max_fault_log = 1 << 12;
  /// Keep each Completion's output vector. Defaults on (callers diff
  /// outputs); million-request throughput runs turn it off so retained
  /// completions stay O(bookkeeping) instead of O(outputs).
  bool retain_outputs = true;

  /// Integrity-and-recovery knobs. Any of detect/preemption makes each
  /// attempt a segmented (layer-boundary) CheckedRun over a cluster built
  /// with ClusterConfig::integrity; all-off (the default) makes each
  /// attempt one whole execution, a single event of the same loop.
  struct IntegrityOptions {
    /// Verify every layer's ABFT fold against the golden oracle; a
    /// mismatch is an ExecFailure (kIntegrityMismatch) after rollback.
    bool detect = false;
    /// Re-execute a corrupted/trapped layer from its boundary checkpoint
    /// before escalating to the request-level retry ladder.
    bool rollback = true;
    int layer_retries = 2;  ///< rollback budget per boundary
    /// EDF layer-boundary preemption (kDeadline policy only): a ready
    /// request with a strictly earlier deadline suspends the running one
    /// at its next boundary; the victim resumes — on any core —
    /// bit-identically from its checkpoint.
    bool preemption = false;
  };
  IntegrityOptions integrity;

  /// Serving telemetry knobs (the observability layer; see
  /// docs/OBSERVABILITY.md "Serving telemetry"). Recording is passive —
  /// it never feeds back into scheduling decisions — so a run with
  /// telemetry on executes the exact same schedule as with it off.
  struct TelemetryOptions {
    bool enabled = false;
    /// Retain the full span timeline (segments + marks) only for requests
    /// with id % sample_every == 0; span-identity accounting still covers
    /// every request. Raise for million-request runs.
    uint64_t sample_every = 1;
    /// Hard cap on retained timelines (tracks_truncated marks overflow).
    size_t max_tracks = 1 << 14;
  };
  TelemetryOptions telemetry;
};

/// Everything the telemetry layer recorded about one serving run: the
/// request spans (with their enforced identity) and the metrics registry.
/// Attached to ServeResult by shared_ptr so results stay cheaply copyable.
struct ServingTelemetry {
  explicit ServingTelemetry(obs::SpanCollector::Options opt) : spans(opt) {}
  obs::SpanCollector spans;
  obs::MetricsRegistry metrics;
};

/// One request's fate. The accounting identity
///   done - arrival == wait_cycles + exec_cycles
/// holds exactly: exec is the executing cycles of the final, successful
/// execution and wait is everything else (queueing, retry backoff, and —
/// under preemption — the suspended gaps between its segments).
struct Completion {
  uint64_t id = 0;
  std::string network;
  int core = 0;
  int group = 1;  ///< coalesced group size this request ran in (1 = single)
  kernels::OptLevel level = kernels::OptLevel::kInputTiling;  ///< level served at
  int retries = 0;        ///< failed executions before this one succeeded
  int preemptions = 0;    ///< boundary suspensions of the final execution
  uint64_t arrival = 0;
  uint64_t deadline = 0;  ///< 0 = none
  uint64_t start = 0;
  uint64_t done = 0;
  uint64_t wait_cycles = 0;
  uint64_t exec_cycles = 0;
  std::vector<int16_t> outputs;
  uint64_t latency() const { return done - arrival; }
  bool met_deadline() const { return deadline == 0 || done <= deadline; }
};

/// A request rejected by admission control (kDeadline policy): at
/// `decided_at` — the dispatch cycle that considered it, never before its
/// arrival — its estimated completion already exceeded the deadline.
struct Rejection {
  uint64_t id = 0;
  std::string network;
  uint64_t arrival = 0;
  uint64_t deadline = 0;
  uint64_t decided_at = 0;
};

/// A request dropped after exhausting its retry budget.
struct FailedRequest {
  uint64_t id = 0;
  std::string network;
  int attempts = 0;  ///< executions that all failed
  iss::TrapCause last_cause = iss::TrapCause::kNone;
};

/// One core's quarantine window [from, to).
struct QuarantineInterval {
  int core = 0;
  uint64_t from = 0;
  uint64_t to = 0;
};

/// One degraded-mode window [from, to) during which dispatch used the
/// fallback level.
struct FallbackInterval {
  uint64_t from = 0;
  uint64_t to = 0;
};

/// One injected campaign flip, attributed to the (core, request) pair it
/// hit (for batched executions: the group head's request id).
struct FaultAttribution {
  int core = 0;
  uint64_t request = 0;
  fault::FaultEvent event;
};

struct ServeResult {
  Policy policy = Policy::kFifo;
  int cores = 1;
  int batch = 1;
  std::vector<Completion> completions;  ///< served requests, ordered by id
  uint64_t makespan = 0;                ///< cycle the last execution finishes
  std::vector<uint64_t> core_busy;      ///< executing cycles per core
  uint64_t batched_execs = 0;           ///< batched program executions
  uint64_t batched_requests = 0;        ///< requests they served
  uint64_t padded_slots = 0;            ///< zero-padded lanes in those
  uint64_t single_execs = 0;

  // ---- Resilience record ----
  // failed, quarantines and fault_log are appended in completion order
  // (finish cycle, ties by lowest core).
  std::vector<Rejection> rejections;        ///< admission-control rejects
  std::vector<FailedRequest> failed;        ///< retry budget exhausted
  std::vector<QuarantineInterval> quarantines;
  std::vector<FallbackInterval> fallback_intervals;
  /// Injected flips, capped at SchedulerConfig::max_fault_log records.
  std::vector<FaultAttribution> fault_log;
  uint64_t fault_events_total = 0;   ///< every injected flip, cap or not
  bool fault_log_truncated = false;  ///< fault_log hit the retention cap
  uint64_t exec_failures = 0;   ///< trapped/watchdog-killed executions
  uint64_t retries = 0;         ///< re-dispatches that were queued
  uint64_t deadline_misses = 0; ///< served, but after their deadline
  uint64_t retry_cycles = 0;      ///< cycles burned by failed executions
  uint64_t quarantine_cycles = 0; ///< core-cycles spent in cooldown
  uint64_t fallback_execs = 0;    ///< executions at the fallback level
  uint64_t fallback_cycles = 0;   ///< cycles of those executions

  // ---- Integrity record (segmented scheduling only; zero otherwise) ----
  uint64_t integrity_checks = 0;      ///< ABFT boundary verifications
  uint64_t integrity_detections = 0;  ///< fold mismatches flagged
  uint64_t rollbacks = 0;             ///< layer re-executions
  uint64_t rollback_cycles = 0;       ///< cycles of discarded segments
  /// Detections that exhausted the layer-rollback budget and escalated to
  /// the request-level retry/quarantine ladder.
  uint64_t integrity_escalations = 0;
  uint64_t preemptions = 0;        ///< boundary suspensions
  uint64_t preempted_cycles = 0;   ///< suspended-gap cycles across requests

  /// Telemetry of this run; null unless SchedulerConfig::telemetry.enabled.
  std::shared_ptr<ServingTelemetry> telemetry;

  uint64_t admitted() const {
    return static_cast<uint64_t>(completions.size() + failed.size());
  }

  /// Nearest-rank percentile of request latency, in cycles (0 when
  /// nothing completed).
  uint64_t latency_percentile(double p) const;
  /// Inferences per second at a core clock of `mhz`.
  double throughput_per_s(double mhz) const;
  /// Deadline-meeting inferences per second at `mhz` (requests without a
  /// deadline count as met) — the resilience bench's headline metric.
  double goodput_per_s(double mhz) const;
  /// Busy fraction of one core over the makespan.
  double utilization(int core) const;
  /// Filled fraction of batched lanes (1.0 = every lane carried a request).
  double batch_occupancy() const;
};

class Scheduler {
 public:
  Scheduler(Cluster* cluster, Policy policy);
  Scheduler(Cluster* cluster, SchedulerConfig config);

  /// Drain the workload; deterministic in (cluster config, scheduler
  /// config, workload).
  ServeResult run(const Workload& workload);

 private:
  Cluster* cluster_;
  SchedulerConfig cfg_;
};

/// Deterministic JSON for one serving run (no host time, byte-stable).
/// `mhz` converts cycle metrics to wall-clock ones (the paper's operating
/// point for throughput claims is 500 MHz). Schema v2: adds a "schema"
/// version field and — when the run carried telemetry — a "telemetry"
/// block (span accounting, metrics snapshot, bounded sampled spans); see
/// docs/SERVING.md for the schema and the v1 -> v2 migration note.
obs::Json serve_result_to_json(const ServeResult& r, double mhz);

/// Multi-track Perfetto trace of one telemetered serving run: one thread
/// track per core (tid 0 = scheduler), request span segments as slices,
/// flow arrows stitching each request across retries/rollbacks/preemption
/// migrations, span marks as instants, plus cluster-level quarantine and
/// fallback intervals. Requires r.telemetry.
obs::Json serving_perfetto_trace(const ServeResult& r);

}  // namespace rnnasip::serve
