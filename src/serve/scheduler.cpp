#include "src/serve/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "src/common/check.h"
#include "src/common/fixed_point.h"
#include "src/common/rng.h"
#include "src/obs/trace_export.h"

namespace rnnasip::serve {

namespace {

/// Per-execution campaign seed: derive_stream over (campaign seed, execution
/// index), so one seed reproduces every execution's flip schedule bit-exactly.
/// (The shared helper uses the exact mixing this file originally inlined, so
/// blessed resilience envelopes stay byte-identical.)
uint64_t mix_seed(uint64_t seed, uint64_t n) { return derive_stream(seed, n); }

std::shared_ptr<ServingTelemetry> make_telemetry(const SchedulerConfig& cfg) {
  if (!cfg.telemetry.enabled) return nullptr;
  obs::SpanCollector::Options opt;
  opt.sample_every = cfg.telemetry.sample_every;
  opt.max_tracks = cfg.telemetry.max_tracks;
  return std::make_shared<ServingTelemetry>(opt);
}

/// Completion-time telemetry shared by both event loops.
void record_completion(ServingTelemetry& tel, const Completion& c, uint64_t done) {
  tel.spans.close(c.id, obs::SpanOutcome::kServed, done);
  tel.metrics.counter("served").inc();
  if (!c.met_deadline()) tel.metrics.counter("deadline_misses").inc();
  tel.metrics.histogram("latency_cycles").record(c.latency());
  tel.metrics.histogram("wait_cycles").record(c.wait_cycles);
  tel.metrics.histogram("exec_cycles").record(c.exec_cycles);
}

}  // namespace

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kFifo: return "fifo";
    case Policy::kBatched: return "batched";
    case Policy::kDeadline: return "deadline";
  }
  return "?";
}

const char* admission_name(Admission a) {
  switch (a) {
    case Admission::kCalibrated: return "calibrated";
    case Admission::kProvable: return "provable";
  }
  return "?";
}

Workload make_poisson_workload(const Cluster& cluster, const WorkloadConfig& cfg) {
  RNNASIP_CHECK(!cfg.networks.empty());
  RNNASIP_CHECK(cfg.requests >= 0);
  RNNASIP_CHECK(cfg.mean_interarrival_cycles > 0);
  Workload w;
  w.config = cfg;
  Rng rng(cfg.seed);
  // Deadlines draw from a separate derived stream: turning slack on (or
  // changing it) overlays deadlines on the *same* request stream, and a
  // slack of 0 is the deadline-free workload bit-for-bit.
  Rng deadline_rng(cfg.seed ^ 0xDEADC0DEull);
  double t = 0;
  for (int i = 0; i < cfg.requests; ++i) {
    Job job;
    job.id = static_cast<uint64_t>(i);
    job.network = cfg.networks[rng.next_below(static_cast<uint32_t>(cfg.networks.size()))];
    // Exponential inter-arrival: -mean * ln(U), U in (0, 1].
    const double u = 1.0 - rng.next_double();
    t += -cfg.mean_interarrival_cycles * std::log(u);
    job.arrival = static_cast<uint64_t>(t);
    const int n = cluster.network(job.network).input_count();
    job.input.resize(static_cast<size_t>(n));
    for (auto& v : job.input) v = static_cast<int16_t>(quantize(rng.next_in(-1.0, 1.0)));
    if (cfg.deadline_slack_cycles > 0) {
      const double slack = cfg.deadline_slack_cycles * (0.5 + deadline_rng.next_double());
      job.deadline = job.arrival + std::max<uint64_t>(1, static_cast<uint64_t>(slack));
    }
    w.jobs.push_back(std::move(job));
  }
  return w;
}

Scheduler::Scheduler(Cluster* cluster, Policy policy)
    : Scheduler(cluster, SchedulerConfig{.policy = policy}) {}

Scheduler::Scheduler(Cluster* cluster, SchedulerConfig config)
    : cluster_(cluster), cfg_(std::move(config)) {
  RNNASIP_CHECK(cluster != nullptr);
  RNNASIP_CHECK(cfg_.max_retries >= 0);
  RNNASIP_CHECK(cfg_.quarantine_threshold >= 1);
  RNNASIP_CHECK(cfg_.miss_window >= 1);
}

ServeResult Scheduler::run(const Workload& workload) {
  // Integrity options turn each attempt from one whole execution into
  // layer-boundary segments of an integrity::CheckedRun.
  const bool segmented = cfg_.integrity.detect || cfg_.integrity.preemption;
  if (segmented) {
    RNNASIP_CHECK_MSG(cfg_.policy != Policy::kBatched,
                      "segmented integrity serving runs single executions only");
    RNNASIP_CHECK_MSG(cluster_->config().integrity,
                      "integrity scheduling needs a cluster built with "
                      "ClusterConfig::integrity");
  }
  if (cfg_.integrity.preemption) {
    RNNASIP_CHECK_MSG(cfg_.policy == Policy::kDeadline,
                      "layer-boundary preemption is EDF: it requires "
                      "Policy::kDeadline");
  }

  ServeResult r;
  r.policy = cfg_.policy;
  r.cores = cluster_->cores();
  r.batch = cluster_->config().batch;
  r.core_busy.assign(static_cast<size_t>(r.cores), 0);
  r.completions.resize(workload.jobs.size());
  std::vector<char> served(workload.jobs.size(), 0);
  const std::shared_ptr<ServingTelemetry> tel = make_telemetry(cfg_);
  r.telemetry = tel;

  /// A queued request: the original job plus its retry state. `ready` is
  /// the arrival for the first attempt, failure time + backoff afterwards.
  /// `span_at` is where the request's span timeline last ended (arrival,
  /// then each failed attempt's finish) — the begin of its next wait phase.
  /// `pending` stays in workload order, the order coalescing scans it in.
  struct Pend {
    const Job* job = nullptr;
    int attempts = 0;
    uint64_t ready = 0;
    uint64_t span_at = 0;
  };
  std::vector<Pend> pending;
  pending.reserve(workload.jobs.size());
  for (const Job& j : workload.jobs) pending.push_back({&j, 0, j.arrival, j.arrival});

  const kernels::OptLevel primary = cluster_->config().level;
  const bool can_fallback = cfg_.level_fallback &&
                            cluster_->config().fallback_level.has_value() &&
                            *cluster_->config().fallback_level != primary;
  const bool faults_on = cfg_.fault.any_enabled();
  constexpr uint64_t kInf = std::numeric_limits<uint64_t>::max();

  /// One in-flight attempt and the buffered outcome of its next event. A
  /// whole-execution attempt runs eagerly at dispatch and buffers its one
  /// event; a segmented attempt steps its CheckedRun one layer segment at a
  /// time. Either way the execution touches only the attempt's own core, so
  /// the scheduler state changes only when the event is processed in global
  /// time order.
  struct Active {
    std::vector<Pend> group;  ///< the requests it serves, head first
    kernels::OptLevel level = kernels::OptLevel::kBaseline;
    bool use_fallback = false;
    bool faulted = false;
    uint64_t start = 0;        ///< dispatch cycle of this attempt
    uint64_t exec_cycles = 0;  ///< executing cycles over all its segments
    int preemptions = 0;
    ExecResult whole;  ///< whole-execution attempts: the execution's result
    std::unique_ptr<integrity::CheckedRun> run;  ///< segmented attempts
    std::unique_ptr<fault::FaultInjector> injector;
    bool has_event = false;
    integrity::CheckedRun::State ev_state = integrity::CheckedRun::State::kDone;
    uint64_t ev_cycles = 0;  ///< the buffered event's cycles
    // Telemetry bookkeeping: the buffered segment's integrity deltas
    // (step_counters at buffering time — the next step() resets them) and
    // this attempt's surviving-exec accounting for failure reclassification.
    uint64_t ev_rollback_cycles = 0;
    uint64_t ev_detections = 0;
    uint64_t ev_rollbacks = 0;
    size_t span_anchor = 0;   ///< retained-segment index at dispatch
    uint64_t span_exec = 0;   ///< kExec cycles emitted for this attempt
    const Job& job() const { return *group.front().job; }
  };
  struct Suspended {
    std::unique_ptr<Active> ctx;
    uint64_t since = 0;  ///< suspension cycle (gap accounting)
  };
  std::vector<std::unique_ptr<Active>> active(static_cast<size_t>(r.cores));
  std::vector<Suspended> suspended;
  std::vector<uint64_t> clock(static_cast<size_t>(r.cores), 0);
  std::vector<int> consec_fail(static_cast<size_t>(r.cores), 0);
  uint64_t exec_counter = 0;

  // Degraded-mode state: a ring of the last miss_window completions'
  // deadline outcomes plus the overload flag and its open interval.
  std::vector<char> miss_ring(static_cast<size_t>(cfg_.miss_window), 0);
  size_t miss_head = 0, miss_count = 0, misses_in_ring = 0;
  bool degraded = false;
  uint64_t degraded_since = 0;
  auto note_deadline_outcome = [&](bool missed) {
    if (miss_count == miss_ring.size()) {
      misses_in_ring -= miss_ring[miss_head] ? 1u : 0u;
    } else {
      ++miss_count;
    }
    miss_ring[miss_head] = missed ? 1 : 0;
    miss_head = (miss_head + 1) % miss_ring.size();
    misses_in_ring += missed ? 1u : 0u;
  };
  auto miss_fraction = [&] {
    return miss_count == 0 ? 0.0
                           : static_cast<double>(misses_in_ring) /
                                 static_cast<double>(miss_count);
  };

  auto deadline_of = [&](const Job& j) { return j.deadline == 0 ? kInf : j.deadline; };
  // Strict (key, id) order: every selection breaks ties on the lowest id.
  auto before = [](uint64_t ka, const Job& a, uint64_t kb, const Job& b) {
    return ka < kb || (ka == kb && a.id < b.id);
  };
  // Attempt-end accounting shared by success and failure: integrity
  // counters, fault-event attribution (to the head request), and core
  // hygiene. Whole executions scrubbed their core inside the cluster.
  auto retire = [&](int c, Active& a) {
    if (a.run) {
      const integrity::IntegrityCounters& ic = a.run->counters();
      r.integrity_checks += ic.checks;
      r.integrity_detections += ic.detections;
      r.rollbacks += ic.rollbacks;
      r.rollback_cycles += ic.rollback_cycles;
    }
    const std::vector<fault::FaultEvent>& events =
        a.injector ? a.injector->events() : a.whole.fault_events;
    for (const auto& ev : events) {
      ++r.fault_events_total;
      if (r.fault_log.size() < cfg_.max_fault_log) {
        r.fault_log.push_back({c, a.job().id, ev});
      } else {
        r.fault_log_truncated = true;
      }
    }
    if (tel && !events.empty()) {
      tel->spans.mark(a.job().id, obs::SpanMark::kFault, c, clock[static_cast<size_t>(c)]);
      tel->metrics.counter("fault_events").inc(events.size());
    }
    if (a.injector) a.injector->disarm();
    if (a.run && a.faulted) cluster_->scrub_pla(c);
  };
  auto any_active = [&] {
    for (const auto& a : active)
      if (a) return true;
    return false;
  };

  while (!pending.empty() || !suspended.empty() || any_active()) {
    // Buffer every segmented attempt's next segment.
    for (int c = 0; c < r.cores; ++c) {
      Active* a = active[static_cast<size_t>(c)].get();
      if (a == nullptr || a->has_event) continue;
      const uint64_t before_cycles = a->run->cycles();
      a->ev_state = a->run->step();
      a->ev_cycles = a->run->cycles() - before_cycles;
      const integrity::IntegrityCounters sc = a->run->step_counters();
      a->ev_rollback_cycles = sc.rollback_cycles;
      a->ev_detections = sc.detections;
      a->ev_rollbacks = sc.rollbacks;
      a->has_event = true;
    }

    // Next event in global time order: a buffered event completing, or an
    // idle core dispatching. Ties prefer buffered events (a completion at
    // t frees its core before a dispatch at t), lowest core first; among
    // dispatches the core idle the longest (earliest clock) goes first,
    // then the lowest index.
    uint64_t min_ready = kInf;
    for (const Pend& p : pending) min_ready = std::min(min_ready, p.ready);
    int best_core = -1;
    bool best_dispatch = false;
    uint64_t best_time = kInf;
    for (int c = 0; c < r.cores; ++c) {
      const size_t ci = static_cast<size_t>(c);
      uint64_t t = 0;
      bool disp = false;
      if (active[ci]) {
        t = clock[ci] + active[ci]->ev_cycles;
      } else if (!suspended.empty()) {
        t = clock[ci];  // a suspended run can resume immediately
        disp = true;
      } else if (min_ready != kInf) {
        t = std::max(clock[ci], min_ready);
        disp = true;
      } else {
        continue;
      }
      if (best_core < 0 || t < best_time ||
          (t == best_time && best_dispatch &&
           (!disp || clock[ci] < clock[static_cast<size_t>(best_core)]))) {
        best_time = t;
        best_core = c;
        best_dispatch = disp;
      }
    }
    RNNASIP_CHECK(best_core >= 0);
    const int core = best_core;
    const size_t ci = static_cast<size_t>(core);
    const uint64_t now = best_time;

    if (!best_dispatch) {
      // ---- Buffered event: boundary, completion, or failure ----
      Active& a = *active[ci];
      a.has_event = false;
      clock[ci] = now;
      r.core_busy[ci] += a.ev_cycles;
      a.exec_cycles += a.ev_cycles;
      r.makespan = std::max(r.makespan, now);

      if (tel && a.ev_cycles != 0) {
        // The segment ran on this core over [now - ev_cycles, now). Its
        // rollback re-execution cycles (step_counters delta) tile the
        // front of the interval as kRollback; the surviving work is kExec
        // — or kRetry outright when the whole attempt just died.
        const uint64_t id = a.job().id;
        const uint64_t t0 = now - a.ev_cycles;
        const uint64_t rb = a.ev_rollback_cycles;
        RNNASIP_CHECK(rb <= a.ev_cycles);
        const bool died = a.ev_state == integrity::CheckedRun::State::kFailed;
        if (rb != 0) {
          tel->spans.phase(id, obs::SpanPhase::kRollback, core, t0, t0 + rb);
          tel->spans.mark(id, obs::SpanMark::kRollback, core, t0 + rb);
          tel->metrics.counter("rollbacks").inc(a.ev_rollbacks);
        }
        if (a.ev_detections != 0) {
          tel->spans.mark(id, obs::SpanMark::kDetection, core, now);
          tel->metrics.counter("integrity_detections").inc(a.ev_detections);
        }
        for (const Pend& p : a.group) {
          tel->spans.phase(p.job->id,
                           died ? obs::SpanPhase::kRetry : obs::SpanPhase::kExec, core,
                           t0 + rb, now);
        }
        if (!died) {
          a.span_exec += a.ev_cycles - rb;
          if (a.ev_state == integrity::CheckedRun::State::kBoundary) {
            tel->spans.mark(id, obs::SpanMark::kBoundary, core, now);
          }
        }
      }

      if (a.ev_state == integrity::CheckedRun::State::kBoundary) {
        if (cfg_.integrity.preemption) {
          // EDF preemption: a ready request with a strictly earlier
          // deadline takes the core — unless another core sits idle at
          // `now` and would pick it up anyway.
          bool idle_elsewhere = false;
          for (int c2 = 0; c2 < r.cores; ++c2) {
            if (c2 != core && !active[static_cast<size_t>(c2)] &&
                clock[static_cast<size_t>(c2)] <= now) {
              idle_elsewhere = true;
              break;
            }
          }
          uint64_t challenger = kInf;
          if (!idle_elsewhere) {
            for (const Pend& p : pending) {
              if (p.ready <= now) challenger = std::min(challenger, deadline_of(*p.job));
            }
          }
          if (challenger < deadline_of(a.job())) {
            // The checkpoint taken at this verified boundary carries the
            // whole resumable state; disarm and scrub so the next
            // occupant starts from clean physical core state.
            if (a.injector) a.injector->disarm();
            if (a.faulted) cluster_->scrub_pla(core);
            ++a.preemptions;
            ++r.preemptions;
            if (tel) {
              tel->spans.mark(a.job().id, obs::SpanMark::kPreempt, core, now);
              tel->metrics.counter("preemptions").inc();
            }
            suspended.push_back({std::move(active[ci]), now});
          }
        }
        continue;  // not preempted: the next iteration buffers the next segment
      }

      std::unique_ptr<Active> ended = std::move(active[ci]);
      Active& d = *ended;
      retire(core, d);
      const size_t n = d.group.size();
      if (d.ev_state == integrity::CheckedRun::State::kDone) {
        consec_fail[ci] = 0;
        if (n == 1) {
          ++r.single_execs;
        } else {
          ++r.batched_execs;
          r.batched_requests += n;
          r.padded_slots += static_cast<uint64_t>(cluster_->config().batch) - n;
        }
        if (d.use_fallback) {
          ++r.fallback_execs;
          r.fallback_cycles += d.exec_cycles;
        }
        for (size_t k = 0; k < n; ++k) {
          const Job& job = *d.group[k].job;
          Completion comp;
          comp.id = job.id;
          comp.network = job.network;
          comp.core = core;
          comp.group = static_cast<int>(n);
          comp.level = d.level;
          comp.retries = d.group[k].attempts;
          comp.preemptions = d.preemptions;
          comp.arrival = job.arrival;
          comp.deadline = job.deadline;
          comp.start = d.start;
          comp.done = now;
          comp.exec_cycles = d.exec_cycles;
          comp.wait_cycles = now - job.arrival - d.exec_cycles;
          if (cfg_.retain_outputs) {
            comp.outputs = d.run ? d.run->outputs() : std::move(d.whole.outputs[k]);
          }
          if (!comp.met_deadline()) ++r.deadline_misses;
          if (job.deadline != 0) note_deadline_outcome(!comp.met_deadline());
          if (tel) record_completion(*tel, comp, now);
          RNNASIP_CHECK(job.id < r.completions.size());
          served[job.id] = 1;
          r.completions[job.id] = std::move(comp);
        }
      } else {
        ++r.exec_failures;
        r.retry_cycles += d.exec_cycles;
        if (d.run && d.run->integrity_failed()) ++r.integrity_escalations;
        const int fails = ++consec_fail[ci];
        const iss::TrapCause cause =
            d.run ? d.run->last_result().trap.cause : d.whole.failure->trap.cause;
        if (tel) {
          // The attempt died: its earlier boundary segments were emitted
          // as surviving kExec — retroactively they are kRetry (discarded
          // work), moved in the accumulators and relabeled in the sampled
          // timeline from this attempt's dispatch anchor on.
          tel->spans.reclassify(d.job().id, d.span_anchor, obs::SpanPhase::kExec,
                                obs::SpanPhase::kRetry, d.span_exec);
          tel->metrics.counter("exec_failures").inc();
        }
        // Requeue each request (bounded retries with deterministic backoff,
        // back at its workload position) or drop it.
        for (const Pend& p : d.group) {
          const int attempts = p.attempts + 1;
          if (tel) tel->spans.mark(p.job->id, obs::SpanMark::kFailure, core, now);
          if (attempts > cfg_.max_retries) {
            r.failed.push_back({p.job->id, p.job->network, attempts, cause});
            if (tel) {
              tel->spans.close(p.job->id, obs::SpanOutcome::kFailed, now);
              tel->metrics.counter("failed").inc();
            }
          } else {
            ++r.retries;
            const auto at = std::lower_bound(
                pending.begin(), pending.end(), p.job,
                [](const Pend& q, const Job* j) { return q.job < j; });
            pending.insert(
                at, {p.job, attempts,
                     now + static_cast<uint64_t>(attempts) * cfg_.retry_backoff_cycles,
                     now});
            if (tel) tel->metrics.counter("retries").inc();
          }
        }
        if (fails >= cfg_.quarantine_threshold) {
          r.quarantines.push_back({core, now, now + cfg_.quarantine_cooldown_cycles});
          r.quarantine_cycles += cfg_.quarantine_cooldown_cycles;
          consec_fail[ci] = 0;
          clock[ci] = now + cfg_.quarantine_cooldown_cycles;
        }
      }
      continue;
    }

    // ---- Dispatch event on an idle core at `now` ----
    // The core's clock stays where it went idle until it starts work: a
    // rejection costs it no time.

    // Select. kDeadline: EDF over suspended runs (always resumable) and
    // the requests ready by the time this core went idle; on a deadline tie
    // the part-executed suspended run wins. Otherwise — FIFO/batched, or
    // nothing ready yet — the request that became ready first.
    size_t s_pick = suspended.size();
    size_t p_pick = pending.size();
    if (cfg_.policy == Policy::kDeadline) {
      for (size_t i = 0; i < suspended.size(); ++i) {
        const Job& j = suspended[i].ctx->job();
        if (s_pick == suspended.size() ||
            before(deadline_of(j), j, deadline_of(suspended[s_pick].ctx->job()),
                   suspended[s_pick].ctx->job())) {
          s_pick = i;
        }
      }
      for (size_t i = 0; i < pending.size(); ++i) {
        const Pend& p = pending[i];
        if (p.ready > clock[ci]) continue;
        if (p_pick == pending.size() ||
            before(deadline_of(*p.job), *p.job, deadline_of(*pending[p_pick].job),
                   *pending[p_pick].job)) {
          p_pick = i;
        }
      }
    }
    if (p_pick == pending.size()) {
      for (size_t i = 0; i < pending.size(); ++i) {
        const Pend& p = pending[i];
        if (p.ready > now) continue;
        if (p_pick == pending.size() ||
            before(p.ready, *p.job, pending[p_pick].ready, *pending[p_pick].job)) {
          p_pick = i;
        }
      }
    }
    if (s_pick != suspended.size() && p_pick != pending.size()) {
      if (deadline_of(*pending[p_pick].job) < deadline_of(suspended[s_pick].ctx->job())) {
        s_pick = suspended.size();
      } else {
        p_pick = pending.size();
      }
    }
    RNNASIP_CHECK(s_pick != suspended.size() || p_pick != pending.size());

    if (s_pick != suspended.size()) {
      // Resume the suspended run here — possibly on a different core than
      // it left; the checkpoint restore is bit-identical either way.
      std::unique_ptr<Active> ctx = std::move(suspended[s_pick].ctx);
      const uint64_t since = suspended[s_pick].since;
      suspended.erase(suspended.begin() + static_cast<std::ptrdiff_t>(s_pick));
      cluster_->bind(core, ctx->job().network, false, ctx->level);
      const integrity::Checkpoint cp = ctx->run->checkpoint();
      ctx->run->resume(&cluster_->backend(core, ctx->faulted), &cluster_->memory(core),
                       cp);
      if (ctx->injector) {
        ctx->injector->arm(&cluster_->core(core), &cluster_->memory(core));
      }
      r.preempted_cycles += now - since;
      clock[ci] = now;
      if (tel) {
        tel->spans.phase(ctx->job().id, obs::SpanPhase::kPreempted, -1, since, now);
        tel->spans.mark(ctx->job().id, obs::SpanMark::kResume, core, now);
      }
      active[ci] = std::move(ctx);
      continue;
    }

    const Job& head = *pending[p_pick].job;
    const uint64_t start = now;

    // Re-evaluate overload before choosing this execution's level, from
    // the completions seen so far and the requests already waiting at
    // `start` (arrived and not yet dispatched) — the depth the
    // queue_depth_peak gauge records too.
    if (can_fallback || tel) {
      size_t depth = 0;
      for (const Pend& p : pending)
        if (p.ready <= start) ++depth;
      if (tel) {
        obs::Gauge& depth_peak = tel->metrics.gauge("queue_depth_peak");
        if (static_cast<int64_t>(depth) > depth_peak.value()) {
          depth_peak.set(static_cast<int64_t>(depth));
        }
      }
      if (can_fallback) {
        const bool miss_overload =
            miss_count > 0 && miss_fraction() >= cfg_.overload_miss_rate;
        const bool queue_overload =
            cfg_.overload_queue_depth > 0 && depth > cfg_.overload_queue_depth;
        const bool queue_calm =
            cfg_.overload_queue_depth == 0 || depth <= cfg_.overload_queue_depth / 2;
        if (!degraded && (miss_overload || queue_overload)) {
          degraded = true;
          degraded_since = start;
        } else if (degraded && !miss_overload && !queue_overload &&
                   miss_fraction() <= cfg_.recover_miss_rate && queue_calm) {
          degraded = false;
          r.fallback_intervals.push_back({degraded_since, start});
        }
      }
    }
    const bool use_fallback = can_fallback && degraded;
    const kernels::OptLevel level =
        use_fallback ? *cluster_->config().fallback_level : primary;

    // Admission control (kDeadline): reject a request whose estimated
    // completion already blows its deadline instead of burning a core on
    // it. kProvable charges the certified WCET, so passing this test is a
    // guarantee, not a prediction.
    if (cfg_.policy == Policy::kDeadline && head.deadline != 0) {
      const uint64_t est =
          cfg_.admission == Admission::kProvable
              ? cluster_->provable_single_cycles(head.network, level)
              : cluster_->estimated_single_cycles(head.network, level);
      if (start + est > head.deadline) {
        r.rejections.push_back({head.id, head.network, head.arrival, head.deadline, start});
        if (tel) {
          const Pend& p = pending[p_pick];
          if (p.attempts == 0) tel->spans.arrive(head.id, head.network, head.arrival);
          tel->spans.phase(head.id, obs::SpanPhase::kWait, -1, p.span_at, start);
          tel->spans.mark(head.id, obs::SpanMark::kReject, -1, start);
          tel->spans.close(head.id, obs::SpanOutcome::kRejected, start);
          tel->metrics.counter("rejected").inc();
        }
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(p_pick));
        continue;
      }
    }

    // Coalesce: same network, already ready by `start`, up to B total.
    // Batching stays off for the deadline policy (EDF order is per
    // request) and while degraded (the fallback flavor is single-only).
    std::vector<size_t> group{p_pick};
    if (cfg_.policy == Policy::kBatched && !use_fallback &&
        cluster_->batchable(head.network)) {
      const int cap = cluster_->config().batch;
      for (size_t i = 0; i < pending.size() && static_cast<int>(group.size()) < cap;
           ++i) {
        if (i == p_pick) continue;
        if (pending[i].job->network == head.network && pending[i].ready <= start) {
          group.push_back(i);
        }
      }
      // The fixed-B program always runs all B lanes. From level d up the
      // batched schedule is the fused per-sample one (see emit_fc_batch), so
      // a lane costs the same as a single run and padded lanes are pure
      // loss: coalesce only full groups there. At levels <= c the 2-D tile
      // amortizes weight loads across lanes, which pays even part-filled.
      if (cluster_->config().level >= kernels::OptLevel::kLoadCompute &&
          static_cast<int>(group.size()) < cap) {
        group.resize(1);
      }
    }

    // Per-execution campaign spec: same template, execution-mixed seed.
    fault::FaultSpec exec_fault;
    if (faults_on) {
      exec_fault = cfg_.fault;
      exec_fault.seed = mix_seed(cfg_.fault.seed, exec_counter);
    }
    ++exec_counter;

    auto ctx = std::make_unique<Active>();
    for (size_t gi : group) ctx->group.push_back(pending[gi]);
    ctx->level = level;
    ctx->use_fallback = use_fallback;
    ctx->faulted = faults_on;
    ctx->start = start;
    if (tel) {
      for (const Pend& p : ctx->group) {
        const Job& job = *p.job;
        if (p.attempts == 0) tel->spans.arrive(job.id, job.network, job.arrival);
        tel->spans.phase(job.id, obs::SpanPhase::kWait, -1, p.span_at, start);
        tel->spans.mark(job.id,
                        p.attempts == 0 ? obs::SpanMark::kAdmit : obs::SpanMark::kDispatch,
                        core, start);
      }
      ctx->span_anchor = tel->spans.segment_count(head.id);
    }

    if (!segmented) {
      // Whole execution: run it now; its outcome is the attempt's single
      // event, processed at start + cycles.
      const fault::FaultSpec* fault = faults_on ? &exec_fault : nullptr;
      if (group.size() == 1) {
        ctx->whole = cluster_->run_single_at(core, level, head.network, head.input, fault);
      } else {
        std::vector<std::vector<int16_t>> inputs;
        inputs.reserve(group.size());
        for (const Pend& p : ctx->group) inputs.push_back(p.job->input);
        ctx->whole = cluster_->run_batched(core, head.network, inputs, fault);
      }
      ctx->has_event = true;
      ctx->ev_cycles = ctx->whole.cycles;
      ctx->ev_state = ctx->whole.ok() ? integrity::CheckedRun::State::kDone
                                      : integrity::CheckedRun::State::kFailed;
    } else {
      cluster_->bind(core, head.network, false, level);
      const kernels::BuiltNetwork& net = cluster_->built_single(head.network, level);
      integrity::CheckedRunConfig rc;
      rc.detect = cfg_.integrity.detect;
      rc.rollback = cfg_.integrity.rollback;
      rc.layer_retries = cfg_.integrity.layer_retries;
      rc.watchdog_cycles = faults_on ? cluster_->watchdog_cycles(head.network, level) : 0;
      ctx->run = std::make_unique<integrity::CheckedRun>(
          &cluster_->backend(core, faults_on), &cluster_->memory(core), &net, rc);
      if (rc.detect) {
        ctx->run->set_golden(integrity::golden_checks(
            cluster_->network(head.network), cluster_->tanh_table(),
            cluster_->sig_table(), head.input));
      }
      ctx->run->begin(head.input);
      if (faults_on) {
        fault::FaultSpec spec = exec_fault;
        if (spec.tcdm.empty()) {
          spec.tcdm = {kernels::kDataBase, kernels::kDataBase + net.data_bytes};
        }
        spec.text = {};
        ctx->injector = std::make_unique<fault::FaultInjector>(spec);
        ctx->injector->arm(&cluster_->core(core), &cluster_->memory(core));
      }
    }
    clock[ci] = start;
    active[ci] = std::move(ctx);
    // Remove the group back-to-front so indices stay valid.
    std::sort(group.begin(), group.end());
    for (size_t k = group.size(); k-- > 0;) {
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(group[k]));
    }
  }
  if (degraded) r.fallback_intervals.push_back({degraded_since, r.makespan});

  // Compact: completions keep only served requests (ordered by id since
  // the slots were id-indexed).
  std::vector<Completion> compact;
  compact.reserve(r.completions.size());
  for (size_t i = 0; i < r.completions.size(); ++i) {
    if (served[i]) compact.push_back(std::move(r.completions[i]));
  }
  r.completions = std::move(compact);
  return r;
}

uint64_t ServeResult::latency_percentile(double p) const {
  if (completions.empty()) return 0;
  std::vector<uint64_t> lat;
  lat.reserve(completions.size());
  for (const Completion& c : completions) lat.push_back(c.latency());
  std::sort(lat.begin(), lat.end());
  const size_t n = lat.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return lat[rank - 1];
}

double ServeResult::throughput_per_s(double mhz) const {
  if (makespan == 0) return 0;
  return static_cast<double>(completions.size()) /
         (static_cast<double>(makespan) / (mhz * 1e6));
}

double ServeResult::goodput_per_s(double mhz) const {
  if (makespan == 0) return 0;
  uint64_t met = 0;
  for (const Completion& c : completions) met += c.met_deadline() ? 1u : 0u;
  return static_cast<double>(met) / (static_cast<double>(makespan) / (mhz * 1e6));
}

double ServeResult::utilization(int core) const {
  if (makespan == 0) return 0;
  return static_cast<double>(core_busy[static_cast<size_t>(core)]) /
         static_cast<double>(makespan);
}

double ServeResult::batch_occupancy() const {
  const uint64_t lanes = batched_requests + padded_slots;
  return lanes == 0 ? 1.0
                    : static_cast<double>(batched_requests) / static_cast<double>(lanes);
}

obs::Json serve_result_to_json(const ServeResult& r, double mhz) {
  obs::Json j = obs::Json::object();
  // Serving-report schema version (v2: adds this field, fault-log
  // retention markers, and the optional telemetry block — docs/SERVING.md).
  j.set("schema", 2);
  j.set("policy", policy_name(r.policy));
  j.set("cores", r.cores);
  j.set("batch", r.batch);
  j.set("requests", static_cast<uint64_t>(r.completions.size()));
  j.set("makespan_cycles", r.makespan);
  j.set("mhz", mhz);
  j.set("throughput_inf_per_s", r.throughput_per_s(mhz));
  obs::Json lat = obs::Json::object();
  lat.set("p50_cycles", r.latency_percentile(50));
  lat.set("p95_cycles", r.latency_percentile(95));
  lat.set("p99_cycles", r.latency_percentile(99));
  lat.set("p50_us", static_cast<double>(r.latency_percentile(50)) / mhz);
  lat.set("p95_us", static_cast<double>(r.latency_percentile(95)) / mhz);
  lat.set("p99_us", static_cast<double>(r.latency_percentile(99)) / mhz);
  j.set("latency", std::move(lat));
  obs::Json util = obs::Json::array();
  for (int c = 0; c < r.cores; ++c) util.push(r.utilization(c));
  j.set("core_utilization", std::move(util));
  obs::Json batching = obs::Json::object();
  batching.set("single_execs", r.single_execs);
  batching.set("batched_execs", r.batched_execs);
  batching.set("batched_requests", r.batched_requests);
  batching.set("padded_slots", r.padded_slots);
  batching.set("occupancy", r.batch_occupancy());
  j.set("batching", std::move(batching));

  // ---- Resilience block (schema documented in docs/SERVING.md) ----
  obs::Json res = obs::Json::object();
  res.set("admitted", r.admitted());
  res.set("served", static_cast<uint64_t>(r.completions.size()));
  res.set("rejected", static_cast<uint64_t>(r.rejections.size()));
  res.set("failed", static_cast<uint64_t>(r.failed.size()));
  res.set("exec_failures", r.exec_failures);
  res.set("retries", r.retries);
  res.set("deadline_misses", r.deadline_misses);
  res.set("goodput_inf_per_s", r.goodput_per_s(mhz));
  obs::Json rejects = obs::Json::array();
  for (const Rejection& rej : r.rejections) {
    obs::Json o = obs::Json::object();
    o.set("id", rej.id);
    o.set("network", rej.network);
    o.set("arrival", rej.arrival);
    o.set("deadline", rej.deadline);
    o.set("decided_at", rej.decided_at);
    rejects.push(std::move(o));
  }
  res.set("rejections", std::move(rejects));
  obs::Json fails = obs::Json::array();
  for (const FailedRequest& f : r.failed) {
    obs::Json o = obs::Json::object();
    o.set("id", f.id);
    o.set("network", f.network);
    o.set("attempts", f.attempts);
    o.set("last_cause", iss::trap_cause_name(f.last_cause));
    fails.push(std::move(o));
  }
  res.set("failed_requests", std::move(fails));
  obs::Json quars = obs::Json::array();
  for (const QuarantineInterval& q : r.quarantines) {
    obs::Json o = obs::Json::object();
    o.set("core", q.core);
    o.set("from", q.from);
    o.set("to", q.to);
    quars.push(std::move(o));
  }
  res.set("quarantines", std::move(quars));
  obs::Json fbs = obs::Json::array();
  for (const FallbackInterval& f : r.fallback_intervals) {
    obs::Json o = obs::Json::object();
    o.set("from", f.from);
    o.set("to", f.to);
    fbs.push(std::move(o));
  }
  obs::Json fb = obs::Json::object();
  fb.set("execs", r.fallback_execs);
  fb.set("cycles", r.fallback_cycles);
  fb.set("intervals", std::move(fbs));
  res.set("fallback", std::move(fb));
  // Per-level request mix (level letter -> served requests).
  obs::Json mix = obs::Json::object();
  for (kernels::OptLevel lvl : kernels::kAllOptLevels) {
    uint64_t n = 0;
    for (const Completion& c : r.completions) n += c.level == lvl ? 1u : 0u;
    if (n != 0) mix.set(std::string(1, kernels::opt_level_letter(lvl)), n);
  }
  res.set("level_mix", std::move(mix));
  // Integrity-and-recovery record (all-zero under plain scheduling).
  obs::Json integ = obs::Json::object();
  integ.set("checks", r.integrity_checks);
  integ.set("detections", r.integrity_detections);
  integ.set("rollbacks", r.rollbacks);
  integ.set("rollback_cycles", r.rollback_cycles);
  integ.set("escalations", r.integrity_escalations);
  res.set("integrity", std::move(integ));
  obs::Json preempt = obs::Json::object();
  preempt.set("preemptions", r.preemptions);
  preempt.set("preempted_cycles", r.preempted_cycles);
  res.set("preemption", std::move(preempt));
  // The in-memory log is itself capped (SchedulerConfig::max_fault_log);
  // the JSON carries the true total plus a bounded prefix so heavy
  // campaigns bloat neither host memory nor blessed baselines.
  constexpr size_t kMaxFaultEventsInJson = 16;
  res.set("fault_events_total", r.fault_events_total);
  res.set("fault_log_truncated", r.fault_log_truncated);
  res.set("fault_events_truncated", r.fault_events_total > kMaxFaultEventsInJson);
  obs::Json faults = obs::Json::array();
  const size_t n_events = std::min(r.fault_log.size(), kMaxFaultEventsInJson);
  for (size_t i = 0; i < n_events; ++i) {
    const FaultAttribution& fa = r.fault_log[i];
    obs::Json o = obs::Json::object();
    o.set("core", fa.core);
    o.set("request", fa.request);
    o.set("target", fault::target_name(fa.event.target));
    o.set("at_instr", fa.event.at_instr);
    o.set("where", static_cast<uint64_t>(fa.event.where));
    o.set("bit", static_cast<uint64_t>(fa.event.bit));
    faults.push(std::move(o));
  }
  res.set("fault_events", std::move(faults));
  // Scheduler-level cycle accounting, named like obs regions so trace
  // tooling can fold them next to program regions.
  obs::Json regions = obs::Json::object();
  regions.set("serve.retry", r.retry_cycles);
  regions.set("serve.quarantine", r.quarantine_cycles);
  regions.set("serve.fallback", r.fallback_cycles);
  regions.set("serve.rollback", r.rollback_cycles);
  regions.set("serve.preempted", r.preempted_cycles);
  res.set("obs_regions", std::move(regions));
  j.set("resilience", std::move(res));

  // ---- Telemetry block (schema v2; only for telemetered runs) ----
  if (r.telemetry) {
    const ServingTelemetry& t = *r.telemetry;
    obs::Json tj = obs::Json::object();
    obs::Json spans = obs::Json::object();
    spans.set("opened", t.spans.spans_opened());
    spans.set("closed", t.spans.spans_closed());
    spans.set("identity_checks", t.spans.identity_checks());
    // close() asserts the span identity for every request; a report that
    // exists at all proves every check passed.
    spans.set("identity_holds", true);
    obs::Json ph = obs::Json::object();
    for (size_t p = 0; p < obs::kSpanPhaseCount; ++p) {
      ph.set(obs::span_phase_name(static_cast<obs::SpanPhase>(p)),
             t.spans.phase_total(static_cast<obs::SpanPhase>(p)));
    }
    spans.set("phase_cycles", std::move(ph));
    spans.set("sampled_tracks", static_cast<uint64_t>(t.spans.tracks().size()));
    spans.set("tracks_truncated", t.spans.tracks_truncated());
    // Bounded sample of retained timelines, same discipline as the fault
    // log: full detail stays in memory, the report carries a prefix.
    constexpr size_t kMaxSpansInJson = 8;
    spans.set("spans_in_json",
              static_cast<uint64_t>(std::min(t.spans.tracks().size(), kMaxSpansInJson)));
    spans.set("spans_json_truncated", t.spans.tracks().size() > kMaxSpansInJson);
    obs::Json arr = obs::Json::array();
    const size_t nspans = std::min(t.spans.tracks().size(), kMaxSpansInJson);
    for (size_t i = 0; i < nspans; ++i) {
      arr.push(obs::request_span_to_json(t.spans.tracks()[i]));
    }
    spans.set("spans", std::move(arr));
    tj.set("spans", std::move(spans));
    tj.set("metrics", t.metrics.to_json());
    j.set("telemetry", std::move(tj));
  }
  return j;
}

obs::Json serving_perfetto_trace(const ServeResult& r) {
  RNNASIP_CHECK_MSG(r.telemetry != nullptr,
                    "serving_perfetto_trace needs a telemetered run "
                    "(SchedulerConfig::telemetry.enabled)");
  obs::Json events = obs::span_perfetto_events(r.telemetry->spans.tracks(), r.cores);
  events.push(obs::perfetto_process_name(1, "serving cluster"));
  // Cluster-level intervals on the same tracks: quarantine windows on the
  // affected core, fallback (degraded-mode) windows on the scheduler track.
  for (const QuarantineInterval& q : r.quarantines) {
    events.push(obs::perfetto_complete(1, q.core + 1, "quarantine", "serve",
                                       q.from, q.to - q.from));
  }
  for (const FallbackInterval& f : r.fallback_intervals) {
    events.push(obs::perfetto_complete(1, 0, "fallback", "serve", f.from,
                                       f.to - f.from));
  }
  obs::Json root = obs::Json::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", "ns");
  return root;
}

}  // namespace rnnasip::serve
