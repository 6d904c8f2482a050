// Serving-telemetry contracts (src/obs metrics + span layers and their
// src/serve wiring):
//   - the span identity (done - arrival tiles exactly into wait + exec +
//     retry + rollback + preempted) holds for every request under FIFO,
//     batched and EDF scheduling, and on the segmented integrity path with
//     rollbacks and preemption in play;
//   - histogram bucket boundaries are exact at the documented edges and
//     histogram quantiles land in the bucket of the exact nearest-rank
//     sample;
//   - the serving Perfetto export is well-formed trace-event JSON;
//   - the telemetry JSON block is byte-deterministic and absent when
//     telemetry is off;
//   - collapsed-stack flamegraph lines sum to the observed cycle totals.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/obs/trace_export.h"
#include "src/rrm/engine.h"
#include "src/serve/cluster.h"
#include "src/serve/scheduler.h"

using namespace rnnasip;
using kernels::OptLevel;

namespace {

const std::vector<std::string> kFcNets = {"ahmed19", "eisen19", "nasir18"};

serve::ClusterConfig cluster_config(int cores, int batch, bool integrity = false) {
  serve::ClusterConfig cfg;
  cfg.cores = cores;
  cfg.batch = batch;
  cfg.level = OptLevel::kInputTiling;
  cfg.integrity = integrity;
  return cfg;
}

serve::Workload small_workload(const serve::Cluster& cluster, int requests,
                               uint64_t seed, double interarrival = 3000) {
  serve::WorkloadConfig wc;
  wc.networks = kFcNets;
  wc.requests = requests;
  wc.mean_interarrival_cycles = interarrival;
  wc.seed = seed;
  return serve::make_poisson_workload(cluster, wc);
}

serve::SchedulerConfig telemetered(serve::Policy policy) {
  serve::SchedulerConfig sc;
  sc.policy = policy;
  sc.telemetry.enabled = true;
  return sc;
}

/// Total span cycles the scheduler should have accounted: every closed
/// request contributes exactly (close - arrival).
uint64_t expected_span_cycles(const serve::ServeResult& r) {
  uint64_t total = 0;
  for (const auto& c : r.completions) total += c.done - c.arrival;
  for (const auto& rej : r.rejections) total += rej.decided_at - rej.arrival;
  return total;
}

uint64_t total_phase_cycles(const obs::SpanCollector& spans) {
  uint64_t total = 0;
  for (size_t p = 0; p < obs::kSpanPhaseCount; ++p) {
    total += spans.phase_total(static_cast<obs::SpanPhase>(p));
  }
  return total;
}

}  // namespace

// ------------------------------------------------------------ histogram ----

TEST(Histogram, BucketBoundaryEdges) {
  using H = obs::Histogram;
  // Values 0..7 get exact unit buckets.
  for (uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(H::bucket_of(v), v);
    EXPECT_EQ(H::bucket_lower(v), v);
    EXPECT_EQ(H::bucket_upper(v), v + 1);
  }
  // First bucket of every octave starts exactly at the power of two, and
  // the value one below lands in the previous bucket.
  for (int o = 3; o < 63; ++o) {
    const uint64_t p2 = uint64_t{1} << o;
    const size_t b = H::bucket_of(p2);
    EXPECT_EQ(H::bucket_lower(b), p2) << "octave " << o;
    EXPECT_EQ(H::bucket_of(p2 - 1), b - 1) << "octave " << o;
  }
  // Sub-bucket boundaries inside one octave: [2^4, 2^5) splits at stride 2.
  EXPECT_EQ(H::bucket_of(16), H::bucket_of(17));
  EXPECT_NE(H::bucket_of(17), H::bucket_of(18));
  EXPECT_EQ(H::bucket_lower(H::bucket_of(18)), 18u);
  // Every value is inside its bucket's [lower, upper) interval.
  for (uint64_t v : {uint64_t{0}, uint64_t{7}, uint64_t{8}, uint64_t{100},
                     uint64_t{4096}, uint64_t{123456789},
                     (uint64_t{1} << 63) + 17}) {
    const size_t b = H::bucket_of(v);
    ASSERT_LT(b, H::kBucketCount);
    EXPECT_LE(H::bucket_lower(b), v);
    EXPECT_GT(H::bucket_upper(b), v);
  }
  // The top bucket's upper edge saturates at UINT64_MAX instead of
  // wrapping, so the maximum value still lands inside it.
  EXPECT_EQ(H::bucket_of(~uint64_t{0}), H::kBucketCount - 1);
  EXPECT_EQ(H::bucket_upper(H::kBucketCount - 1), ~uint64_t{0});
  EXPECT_LE(H::bucket_lower(H::kBucketCount - 1), ~uint64_t{0});
}

TEST(Histogram, QuantileMatchesExactNearestRankBucket) {
  obs::Histogram h;
  std::vector<uint64_t> exact;
  uint64_t x = 0x5EED;
  for (int i = 0; i < 500; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t v = (x >> 33) % 200'000;  // latency-ish spread
    h.record(v);
    exact.push_back(v);
  }
  std::sort(exact.begin(), exact.end());
  for (const double p : {1.0, 25.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(exact.size())));
    if (rank == 0) rank = 1;
    const uint64_t sample = exact[rank - 1];
    // The histogram's quantile bucket is the bucket of the exact sample,
    // so the reported value is within one bucket (<= 12.5% relative).
    EXPECT_EQ(h.quantile_bucket(p),
              static_cast<int>(obs::Histogram::bucket_of(sample)))
        << "p" << p;
    EXPECT_EQ(h.quantile(p),
              obs::Histogram::bucket_lower(obs::Histogram::bucket_of(sample)))
        << "p" << p;
  }
}

TEST(Histogram, EmptyAndSingleValue) {
  obs::Histogram h;
  EXPECT_EQ(h.quantile_bucket(50), -1);
  EXPECT_EQ(h.quantile(50), 0u);
  h.record(42);
  EXPECT_EQ(h.quantile_bucket(50), static_cast<int>(obs::Histogram::bucket_of(42)));
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 42u);
}

// -------------------------------------------------------- span identity ----

TEST(SpanIdentity, HoldsForEveryRequestAcrossPolicies) {
  for (const auto policy :
       {serve::Policy::kFifo, serve::Policy::kBatched, serve::Policy::kDeadline}) {
    serve::Cluster cluster(cluster_config(2, 4), kFcNets);
    serve::Scheduler sched(&cluster, telemetered(policy));
    const auto r = sched.run(small_workload(cluster, 24, 0x5EED));
    ASSERT_TRUE(r.telemetry) << serve::policy_name(policy);
    const auto& spans = r.telemetry->spans;
    // Every touched request closed, and close() asserted the identity on
    // each one (identity_checks counts those assertions).
    EXPECT_EQ(spans.spans_opened(), spans.spans_closed());
    EXPECT_EQ(spans.spans_closed(),
              r.completions.size() + r.rejections.size() + r.failed.size());
    EXPECT_EQ(spans.identity_checks(), spans.spans_closed());
    // The per-phase accumulators tile the same wall cycles the scheduler
    // reported per request — no gaps, no double counting (fault-free run:
    // the totals are reconstructible from completions + rejections alone).
    EXPECT_TRUE(r.failed.empty());
    EXPECT_EQ(total_phase_cycles(spans), expected_span_cycles(r))
        << serve::policy_name(policy);
  }
}

TEST(SpanIdentity, SegmentedIntegrityPathWithRollbacks) {
  serve::Cluster cluster(cluster_config(2, 1, /*integrity=*/true), kFcNets);
  auto sc = telemetered(serve::Policy::kFifo);
  sc.fault.seed = 0xF00D;
  sc.fault.rate_of(fault::Target::kTcdm) = 3e-4;  // the PR 5 "high" point
  sc.integrity.detect = true;
  serve::Scheduler sched(&cluster, sc);
  const auto r = sched.run(small_workload(cluster, 32, 0x5EED));

  ASSERT_TRUE(r.telemetry);
  ASSERT_GT(r.rollbacks, 0u);  // the campaign must actually exercise rollback
  const auto& spans = r.telemetry->spans;
  EXPECT_EQ(spans.spans_closed(),
            r.completions.size() + r.rejections.size() + r.failed.size());
  EXPECT_EQ(spans.identity_checks(), spans.spans_closed());
  // Rollback replay cycles land in their own phase, matching the
  // scheduler's own accounting exactly.
  EXPECT_EQ(spans.phase_total(obs::SpanPhase::kRollback), r.rollback_cycles);
  // Some request carries a detection mark in its retained timeline.
  bool saw_detection = false;
  for (const auto& t : spans.tracks()) {
    for (const auto& m : t.instants) {
      saw_detection |= m.mark == obs::SpanMark::kDetection;
    }
  }
  EXPECT_TRUE(saw_detection);
}

TEST(SpanIdentity, PreemptedSpanAccountsSuspendedCycles) {
  // Same forced-preemption shape as IntegrityServing: one core, a long
  // deadline-free job, and a challenger with a feasible deadline.
  serve::Cluster cluster(cluster_config(1, 1, /*integrity=*/true),
                         {"ahmed19", "nasir18"});
  serve::Workload w;
  serve::Job j0;
  j0.id = 0;
  j0.network = "nasir18";
  j0.arrival = 0;
  j0.input = cluster.network("nasir18").make_input(0);
  serve::Job j1;
  j1.id = 1;
  j1.network = "ahmed19";
  j1.arrival = 1;
  j1.deadline = 500'000;
  j1.input = cluster.network("ahmed19").make_input(1);
  w.jobs = {std::move(j0), std::move(j1)};

  auto sc = telemetered(serve::Policy::kDeadline);
  sc.integrity.detect = true;
  sc.integrity.preemption = true;
  serve::Scheduler sched(&cluster, sc);
  const auto r = sched.run(w);

  ASSERT_TRUE(r.telemetry);
  ASSERT_GE(r.preemptions, 1u);
  const auto& spans = r.telemetry->spans;
  EXPECT_EQ(spans.spans_closed(), 2u);
  // Suspension gaps are first-class span phases and reconcile with the
  // scheduler's preempted-cycle counter.
  EXPECT_EQ(spans.phase_total(obs::SpanPhase::kPreempted), r.preempted_cycles);
  bool saw_preempt = false, saw_resume = false, saw_preempted_segment = false;
  for (const auto& t : spans.tracks()) {
    if (t.id != 0) continue;
    for (const auto& m : t.instants) {
      saw_preempt |= m.mark == obs::SpanMark::kPreempt;
      saw_resume |= m.mark == obs::SpanMark::kResume;
    }
    for (const auto& s : t.segments) {
      saw_preempted_segment |= s.phase == obs::SpanPhase::kPreempted;
    }
  }
  EXPECT_TRUE(saw_preempt);
  EXPECT_TRUE(saw_resume);
  EXPECT_TRUE(saw_preempted_segment);
}

// ----------------------------------------------------- perfetto + json ----

namespace {

size_t count_of(const std::string& hay, const std::string& needle) {
  size_t n = 0;
  for (size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

}  // namespace

TEST(ServingTrace, PerfettoExportIsWellFormed) {
  // Segmented integrity path under a fault campaign with EDF preemption:
  // requests have multi-segment timelines (boundary segments, rollback
  // replays, suspension gaps, cross-core resumes), so the export exercises
  // slices, instants AND flow arrows.
  serve::Cluster cluster(cluster_config(4, 1, /*integrity=*/true), kFcNets);
  auto sc = telemetered(serve::Policy::kDeadline);
  sc.fault.seed = 0xF00D;
  sc.fault.rate_of(fault::Target::kTcdm) = 3e-4;
  sc.integrity.detect = true;
  sc.integrity.preemption = true;
  serve::Scheduler sched(&cluster, sc);
  serve::WorkloadConfig wc;
  wc.networks = kFcNets;
  wc.requests = 48;
  wc.mean_interarrival_cycles = 2000;  // oversubscribed: EDF must preempt
  wc.deadline_slack_cycles = 80'000;
  wc.seed = 0x5EED;
  const auto r = sched.run(serve::make_poisson_workload(cluster, wc));
  ASSERT_GT(r.preemptions + r.retries, 0u);  // suspension/re-dispatch gaps
  const std::string json = serve::serving_perfetto_trace(r).dump();

  // Structurally valid trace-event JSON (region/net names carry no
  // brackets, so bracket counting is a real balance check here).
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(count_of(json, "{"), count_of(json, "}"));
  EXPECT_EQ(count_of(json, "["), count_of(json, "]"));
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);

  // One named track per core plus the scheduler track, on one process.
  EXPECT_NE(json.find("\"serving cluster\""), std::string::npos);
  EXPECT_NE(json.find("\"scheduler\""), std::string::npos);
  for (int c = 0; c < cluster.cores(); ++c) {
    EXPECT_NE(json.find("\"core " + std::to_string(c) + "\""),
              std::string::npos);
  }
  // Complete events carry durations; request slices are present.
  EXPECT_GT(count_of(json, "\"ph\":\"X\""), 0u);
  EXPECT_EQ(count_of(json, "\"ph\":\"X\""), count_of(json, "\"dur\":"));
  EXPECT_GT(count_of(json, "\"ph\":\"i\""), 0u);
  // Preemption resumes and retry re-dispatches migrate segments across
  // cores / leave gaps, so flow arrows exist and some flow finishes.
  EXPECT_GT(count_of(json, "\"ph\":\"s\""), 0u);
  EXPECT_GT(count_of(json, "\"ph\":\"f\""), 0u);
}

TEST(ServingTelemetry, JsonBlockIsByteDeterministicAndGated) {
  auto run_json = [](bool telemetry) {
    serve::Cluster cluster(cluster_config(2, 4), kFcNets);
    serve::SchedulerConfig sc = telemetered(serve::Policy::kBatched);
    sc.telemetry.enabled = telemetry;
    serve::Scheduler sched(&cluster, sc);
    return serve_result_to_json(sched.run(small_workload(cluster, 24, 0x5EED)),
                                500.0)
        .dump_pretty();
  };
  const std::string on_a = run_json(true);
  const std::string on_b = run_json(true);
  EXPECT_EQ(on_a, on_b);  // byte-deterministic snapshot
  EXPECT_NE(on_a.find("\"telemetry\""), std::string::npos);
  EXPECT_NE(on_a.find("\"identity_holds\": true"), std::string::npos);
  EXPECT_NE(on_a.find("\"latency_cycles\""), std::string::npos);
  // Telemetry off (the default): no telemetry key at all, and the rest of
  // the report is byte-identical to the telemetered run minus that block —
  // the passive-observer contract (scheduling is never perturbed).
  const std::string off = run_json(false);
  EXPECT_EQ(off.find("\"telemetry\""), std::string::npos);
  EXPECT_EQ(off.find("\"spans\""), std::string::npos);
  // Shared prefix up to where the telemetry block starts.
  const size_t tel_at = on_a.find("\"telemetry\"");
  ASSERT_NE(tel_at, std::string::npos);
  const size_t prefix = on_a.rfind(',', tel_at);
  EXPECT_EQ(on_a.substr(0, prefix), off.substr(0, prefix));
}

TEST(ServingTelemetry, SampleEveryBoundsRetainedTracks) {
  serve::Cluster cluster(cluster_config(2, 4), kFcNets);
  serve::SchedulerConfig sc = telemetered(serve::Policy::kBatched);
  sc.telemetry.sample_every = 4;
  serve::Scheduler sched(&cluster, sc);
  const auto r = sched.run(small_workload(cluster, 24, 0x5EED));
  ASSERT_TRUE(r.telemetry);
  const auto& spans = r.telemetry->spans;
  // Aggregates still cover every request; only retained timelines thin out.
  EXPECT_EQ(spans.spans_closed(),
            r.completions.size() + r.rejections.size() + r.failed.size());
  EXPECT_LE(spans.tracks().size(), (spans.spans_closed() + 3) / 4);
  EXPECT_GT(spans.tracks().size(), 0u);
}

TEST(ServingTelemetry, QueueDepthPeakCountsArrivedRequestsOnly) {
  // The gauge is the arrived-and-undispatched queue depth: requests that
  // have not arrived yet are not queued. Arrivals 200k cycles apart on four
  // cores find an idle core every time, so the peak is the dispatched
  // request alone — nowhere near the request count.
  serve::Cluster cluster(cluster_config(4, 1), kFcNets);
  auto workload = small_workload(cluster, 32, 0xD3E9);
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    workload.jobs[i].arrival = i * 200'000;
  }
  serve::Scheduler sched(&cluster, telemetered(serve::Policy::kFifo));
  const auto r = sched.run(workload);
  ASSERT_TRUE(r.telemetry);
  ASSERT_TRUE(r.telemetry->metrics.has_gauge("queue_depth_peak"));
  EXPECT_EQ(r.telemetry->metrics.gauge_value("queue_depth_peak"), 1);

  // Saturated, the same gauge does grow with the backlog.
  serve::Cluster busy_cluster(cluster_config(1, 1), kFcNets);
  serve::Scheduler busy(&busy_cluster, telemetered(serve::Policy::kFifo));
  const auto rb = busy.run(small_workload(busy_cluster, 32, 0xD3E9, 200));
  EXPECT_GT(rb.telemetry->metrics.gauge_value("queue_depth_peak"), 1);
}

TEST(ServingTelemetry, RejectionDecisionTimeIsTheSpanCloseCycle) {
  // Admission decides at the dispatch cycle, which is where the rejected
  // span closes; an idle core may wait for the arrival but never decides
  // before it.
  serve::Cluster cluster(cluster_config(2, 1), kFcNets);
  serve::WorkloadConfig wc;
  wc.networks = kFcNets;
  wc.requests = 16;
  wc.mean_interarrival_cycles = 3000;
  wc.deadline_slack_cycles = 4;  // hopeless: every request is rejected
  const auto workload = serve::make_poisson_workload(cluster, wc);
  serve::Scheduler sched(&cluster, telemetered(serve::Policy::kDeadline));
  const auto r = sched.run(workload);
  ASSERT_TRUE(r.telemetry);
  ASSERT_EQ(r.rejections.size(), workload.jobs.size());
  const auto& tracks = r.telemetry->spans.tracks();
  ASSERT_EQ(tracks.size(), r.rejections.size());
  for (const auto& rej : r.rejections) {
    const auto t = std::find_if(tracks.begin(), tracks.end(),
                                [&](const obs::RequestSpan& s) { return s.id == rej.id; });
    ASSERT_NE(t, tracks.end()) << "request " << rej.id;
    EXPECT_EQ(t->outcome, obs::SpanOutcome::kRejected);
    EXPECT_EQ(rej.decided_at, t->done) << "request " << rej.id;
    EXPECT_GE(rej.decided_at, rej.arrival) << "request " << rej.id;
  }
}

// ----------------------------------------------------------- flamegraph ----

TEST(Flamegraph, CollapsedStackLinesSumToObservedCycles) {
  rrm::Engine eng;
  rrm::Request req;
  req.network = "ahmed19";
  req.level = OptLevel::kInputTiling;
  req.observe = true;
  const auto r = eng.run(req).result;
  ASSERT_TRUE(r.obs);

  const std::string folded = obs::to_collapsed_stacks(*r.obs);
  ASSERT_FALSE(folded.empty());
  uint64_t sum = 0;
  size_t start = 0;
  while (start < folded.size()) {
    const size_t eol = folded.find('\n', start);
    ASSERT_NE(eol, std::string::npos);  // every line is newline-terminated
    const std::string line = folded.substr(start, eol - start);
    const size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos);
    // Stack part is rooted at the net name and uses ';' separators.
    EXPECT_EQ(line.rfind("ahmed19;", 0), 0u) << line;
    sum += std::stoull(line.substr(sp + 1));
    start = eol + 1;
  }
  // The acceptance identity: line values are *self* cycles, so they sum to
  // the observed total (attributed + unattributed) exactly.
  EXPECT_EQ(sum, r.obs->cycles);
}

TEST(Flamegraph, RegionsJsonAlignsWithCollapsedStacks) {
  rrm::Engine eng;
  rrm::Request req;
  req.network = "ahmed19";
  req.level = OptLevel::kInputTiling;
  req.observe = true;
  const auto r = eng.run(req).result;
  ASSERT_TRUE(r.obs);
  const std::string json = obs::regions_to_json(*r.obs).dump();
  // Every nonzero-cycle region path from the flamegraph (minus the net-name
  // root and the synthetic "(outside)" frame) appears as a JSON region key.
  const std::string folded = obs::to_collapsed_stacks(*r.obs);
  size_t start = 0, checked = 0;
  while (start < folded.size()) {
    const size_t eol = folded.find('\n', start);
    const std::string line = folded.substr(start, eol - start);
    start = eol + 1;
    const size_t sp = line.rfind(' ');
    std::string path = line.substr(0, sp);
    path = path.substr(path.find(';') + 1);  // strip the net-name root
    if (path == "(outside)") continue;
    EXPECT_NE(json.find("\"path\":\"" + path + "\""), std::string::npos) << path;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}
