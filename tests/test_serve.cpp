// Serving subsystem contracts (src/serve):
//   - the shared weight segment is read-only from every core (stores trap),
//   - scheduling is deterministic (same seed => byte-identical JSON),
//   - batched execution is bit-exact per request vs an rrm::Engine single
//     run,
//   - the latency accounting identity holds for every completion.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "src/asm/builder.h"
#include "src/rrm/engine.h"
#include "src/serve/cluster.h"
#include "src/serve/scheduler.h"

using namespace rnnasip;
using kernels::OptLevel;

namespace {

const std::vector<std::string> kFcNets = {"ahmed19", "eisen19", "nasir18"};
const std::vector<std::string> kMixedNets = {"ahmed19", "naparstek17", "eisen19"};

serve::ClusterConfig cluster_config(int cores, int batch) {
  serve::ClusterConfig cfg;
  cfg.cores = cores;
  cfg.batch = batch;
  cfg.level = OptLevel::kInputTiling;
  return cfg;
}

serve::Workload small_workload(const serve::Cluster& cluster,
                               const std::vector<std::string>& nets, int requests,
                               uint64_t seed) {
  serve::WorkloadConfig wc;
  wc.networks = nets;
  wc.requests = requests;
  wc.mean_interarrival_cycles = 3000;  // saturating for these nets
  wc.seed = seed;
  return serve::make_poisson_workload(cluster, wc);
}

}  // namespace

TEST(ServeCluster, SharedWeightSegmentIsReadOnlyFromEveryCore) {
  serve::Cluster cluster(cluster_config(2, 4), kFcNets);
  for (int core = 0; core < cluster.cores(); ++core) {
    cluster.bind(core, "ahmed19", /*batched=*/false);
    const uint32_t w = cluster.param_base("ahmed19");
    ASSERT_NE(w, 0u);
    // Host-side stores go through the same resolver the core uses.
    try {
      cluster.memory(core).store16(w, 0x7FFF);
      FAIL() << "store into the shared weight segment did not trap";
    } catch (const iss::TrapException& e) {
      EXPECT_EQ(e.cause(), iss::TrapCause::kMemWriteProtected);
    }
    // Loads from the same address are fine.
    (void)cluster.memory(core).load16(w);
  }
}

TEST(ServeCluster, StoreToWeightsFromRunningProgramTraps) {
  serve::Cluster cluster(cluster_config(1, 1), kFcNets);
  cluster.bind(0, "ahmed19", false);
  const uint32_t w = cluster.param_base("ahmed19");
  const uint32_t bytes = cluster.param_bytes("ahmed19");
  ASSERT_GT(bytes, 0u);
  // Hand-written program: sh x0 -> weight segment. The bound image maps
  // text read-only too, so unmap everything and remap only the weights —
  // the hand program then loads into private flat storage.
  cluster.memory(0).unmap_segments();
  cluster.memory(0).map_segment(
      w, std::make_shared<std::vector<uint8_t>>(static_cast<size_t>(bytes)),
      /*read_only=*/true);
  assembler::ProgramBuilder b(kernels::kTextBase);
  assembler::RegPool pool;
  const auto rA = pool.alloc();
  b.li(rA, static_cast<int32_t>(w));
  b.sh(isa::kZero, 0, rA);
  b.ebreak();
  const auto prog = b.build();
  iss::Core& core = cluster.core(0);
  core.load_program(prog);
  core.reset(prog.base);
  const auto res = core.run();
  EXPECT_EQ(res.exit, iss::RunResult::Exit::kTrap);
  EXPECT_EQ(res.trap.cause, iss::TrapCause::kMemWriteProtected);
  EXPECT_EQ(res.trap.addr, w);
}

TEST(ServeScheduler, SameSeedGivesByteIdenticalJson) {
  auto run_once = [] {
    serve::Cluster cluster(cluster_config(4, 4), kFcNets);
    serve::Scheduler sched(&cluster, serve::Policy::kBatched);
    const auto workload = small_workload(cluster, kFcNets, 40, 0x5EED);
    return serve_result_to_json(sched.run(workload), 500.0).dump_pretty();
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(ServeScheduler, DifferentSeedChangesTheWorkload) {
  serve::Cluster cluster(cluster_config(2, 4), kFcNets);
  serve::Scheduler sched(&cluster, serve::Policy::kBatched);
  const auto a = serve_result_to_json(
      sched.run(small_workload(cluster, kFcNets, 30, 1)), 500.0);
  const auto b = serve_result_to_json(
      sched.run(small_workload(cluster, kFcNets, 30, 2)), 500.0);
  EXPECT_NE(a.dump_pretty(), b.dump_pretty());
}

TEST(ServeScheduler, BatchedOutputsBitExactVsEngineSingleRun) {
  // Level c: the 2-D tiled batched program is a genuinely different
  // schedule from the single-sample one, so bit-exactness is non-trivial
  // there (at d/e the batched program is the fused per-sample loop and
  // partial groups are not coalesced at all — see scheduler.cpp).
  auto cfg = cluster_config(2, 4);
  cfg.level = OptLevel::kOutputTiling;
  serve::Cluster cluster(cfg, kMixedNets);
  serve::Scheduler sched(&cluster, serve::Policy::kBatched);
  const auto workload = small_workload(cluster, kMixedNets, 48, 0xBEEF);
  const auto result = sched.run(workload);
  ASSERT_EQ(result.completions.size(), workload.jobs.size());
  EXPECT_GT(result.batched_execs, 0u) << "workload never coalesced a batch";

  rrm::Engine engine;  // same default seed as the cluster
  for (const auto& job : workload.jobs) {
    const auto& c = result.completions[job.id];
    ASSERT_EQ(c.id, job.id);
    rrm::Request req;
    req.network = job.network;
    req.level = OptLevel::kOutputTiling;
    req.input = job.input;
    const auto resp = engine.run(req);
    ASSERT_TRUE(resp.ok()) << job.network;
    EXPECT_EQ(c.outputs, resp.outputs)
        << job.network << " request " << job.id << " (group " << c.group << ")";
  }
}

TEST(ServeScheduler, LatencyAccountingIdentityHolds) {
  serve::Cluster cluster(cluster_config(3, 4), kMixedNets);
  serve::Scheduler sched(&cluster, serve::Policy::kBatched);
  const auto result = sched.run(small_workload(cluster, kMixedNets, 40, 0xCAFE));
  for (const auto& c : result.completions) {
    EXPECT_EQ(c.done - c.arrival, c.wait_cycles + c.exec_cycles) << "request " << c.id;
    EXPECT_GE(c.start, c.arrival);
    EXPECT_EQ(c.done, c.start + c.exec_cycles);
    EXPECT_LE(c.done, result.makespan);
    EXPECT_GT(c.exec_cycles, 0u);
  }
}

TEST(ServeScheduler, FifoAndBatchedAgreeOnResults) {
  serve::Cluster cluster(cluster_config(2, 4), kFcNets);
  const auto workload = small_workload(cluster, kFcNets, 32, 0xF00D);
  serve::Scheduler fifo(&cluster, serve::Policy::kFifo);
  serve::Scheduler batched(&cluster, serve::Policy::kBatched);
  const auto rf = fifo.run(workload);
  const auto rb = batched.run(workload);
  ASSERT_EQ(rf.completions.size(), rb.completions.size());
  for (size_t i = 0; i < rf.completions.size(); ++i) {
    EXPECT_EQ(rf.completions[i].outputs, rb.completions[i].outputs) << i;
  }
  EXPECT_EQ(rf.batched_execs, 0u);
}

// While weight loads are explicit instructions (level c), coalescing B
// requests amortizes them and shortens the makespan. At level e the fused
// SPR stream already removed those loads, so batched execution must cost
// the same as sequential — never more (see fc_batch.h).
TEST(ServeScheduler, BatchingBeatsFifoOnSaturatedLevelCLoad) {
  const auto nets = std::vector<std::string>{"nasir18"};
  auto cfg = cluster_config(1, 4);
  cfg.level = OptLevel::kOutputTiling;
  serve::Cluster cluster(cfg, nets);
  serve::WorkloadConfig wc;
  wc.networks = nets;
  wc.requests = 24;
  wc.mean_interarrival_cycles = 100;  // all queued almost immediately
  const auto workload = serve::make_poisson_workload(cluster, wc);
  serve::Scheduler fifo(&cluster, serve::Policy::kFifo);
  serve::Scheduler batched(&cluster, serve::Policy::kBatched);
  const auto rf = fifo.run(workload);
  const auto rb = batched.run(workload);
  EXPECT_LT(rb.makespan, rf.makespan) << "batching should shorten the makespan";
  EXPECT_GT(rb.batch_occupancy(), 0.5);
}

TEST(ServeScheduler, BatchingIsFreeAtLevelE) {
  const auto nets = std::vector<std::string>{"nasir18"};
  serve::Cluster cluster(cluster_config(1, 4), nets);
  serve::WorkloadConfig wc;
  wc.networks = nets;
  wc.requests = 24;
  wc.mean_interarrival_cycles = 100;
  const auto workload = serve::make_poisson_workload(cluster, wc);
  serve::Scheduler fifo(&cluster, serve::Policy::kFifo);
  serve::Scheduler batched(&cluster, serve::Policy::kBatched);
  const auto rf = fifo.run(workload);
  const auto rb = batched.run(workload);
  // Full groups cost exactly B sequential lanes; only zero-padded slots of
  // partial groups can add time (each pays one lane of the fixed-B
  // program). Bound the regression by that padding.
  ASSERT_GT(rf.makespan, 0u);
  const uint64_t per_lane = rf.makespan / 24;  // ~ one single-request cost
  EXPECT_LE(rb.makespan, rf.makespan + rb.padded_slots * (per_lane + per_lane / 10))
      << "fused per-lane schedule regressed beyond its padding";
  EXPECT_GT(rb.batched_execs, 0u);
}

// ---------------------------------------------------------------------------
// Resilience: deadlines, admission control, faults, retries, quarantine,
// level fallback (PR 5).
// ---------------------------------------------------------------------------

TEST(ServeScheduler, EmptyWorkloadIsServedTrivially) {
  serve::Cluster cluster(cluster_config(2, 4), kFcNets);
  serve::WorkloadConfig wc;
  wc.networks = kFcNets;
  wc.requests = 0;
  const auto workload = serve::make_poisson_workload(cluster, wc);
  EXPECT_TRUE(workload.jobs.empty());
  serve::Scheduler sched(&cluster, serve::Policy::kBatched);
  const auto r = sched.run(workload);
  EXPECT_TRUE(r.completions.empty());
  EXPECT_EQ(r.makespan, 0u);
  EXPECT_EQ(r.latency_percentile(99), 0u);
  EXPECT_EQ(r.throughput_per_s(500.0), 0.0);
  EXPECT_EQ(r.goodput_per_s(500.0), 0.0);
  // The JSON report of an empty run is still well-formed.
  EXPECT_FALSE(serve_result_to_json(r, 500.0).dump_pretty().empty());
}

TEST(ServeScheduler, DeadlineSlackOnlyAppendsToTheRngStream) {
  serve::Cluster cluster(cluster_config(1, 1), kFcNets);
  serve::WorkloadConfig base;
  base.networks = kFcNets;
  base.requests = 24;
  base.seed = 0xD15C;
  auto with = base;
  with.deadline_slack_cycles = 250'000;
  const auto a = serve::make_poisson_workload(cluster, base);
  const auto b = serve::make_poisson_workload(cluster, with);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    // Identical stream except for the deadline: a slack of 0 is the PR 3
    // workload bit-for-bit.
    EXPECT_EQ(a.jobs[i].network, b.jobs[i].network);
    EXPECT_EQ(a.jobs[i].arrival, b.jobs[i].arrival);
    EXPECT_EQ(a.jobs[i].input, b.jobs[i].input);
    EXPECT_EQ(a.jobs[i].deadline, 0u);
    EXPECT_GT(b.jobs[i].deadline, b.jobs[i].arrival);
  }
}

TEST(ServeScheduler, DefaultConfigMatchesPlainPolicyCtorByteForByte) {
  const auto run = [](bool via_config) {
    serve::Cluster cluster(cluster_config(2, 4), kFcNets);
    const auto workload = small_workload(cluster, kFcNets, 32, 0x1DE7);
    if (via_config) {
      serve::SchedulerConfig sc;
      sc.policy = serve::Policy::kBatched;
      serve::Scheduler sched(&cluster, sc);
      return serve_result_to_json(sched.run(workload), 500.0).dump_pretty();
    }
    serve::Scheduler sched(&cluster, serve::Policy::kBatched);
    return serve_result_to_json(sched.run(workload), 500.0).dump_pretty();
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(ServeScheduler, HopelessDeadlinesAreRejectedNotSilentlyDropped) {
  serve::Cluster cluster(cluster_config(2, 1), kFcNets);
  serve::WorkloadConfig wc;
  wc.networks = kFcNets;
  wc.requests = 16;
  wc.mean_interarrival_cycles = 3000;
  // Slack of a few cycles: no network finishes that fast, so admission
  // control must reject every request up front.
  wc.deadline_slack_cycles = 4;
  const auto workload = serve::make_poisson_workload(cluster, wc);
  serve::SchedulerConfig sc;
  sc.policy = serve::Policy::kDeadline;
  serve::Scheduler sched(&cluster, sc);
  const auto r = sched.run(workload);
  EXPECT_TRUE(r.completions.empty());
  EXPECT_EQ(r.rejections.size(), workload.jobs.size());
  EXPECT_EQ(r.admitted(), 0u);
  EXPECT_EQ(r.makespan, 0u);  // nothing ever executed
  for (const auto& rej : r.rejections) {
    EXPECT_GT(rej.deadline, 0u);
    // The decision is made when the request is considered, never before
    // it arrived (an idle core does not reject a request from the future).
    EXPECT_GE(rej.decided_at, rej.arrival) << "request " << rej.id;
  }
}

TEST(ServeScheduler, MissRateOverloadReactsOnlyToCompletedMisses) {
  // The miss-rate overload trigger may only read deadline outcomes that
  // have happened: degraded mode cannot begin before the first missed
  // completion is done. Level a's software activations make naparstek17's
  // cycles input-dependent, a few cycles above the zero-input calibration
  // for some inputs, so deadlines of exactly arrival + estimate pass
  // admission on an idle core and still miss. Arrivals every 0.6 x the
  // estimate on two cores overlap each execution with the next dispatch.
  auto cfg = cluster_config(2, 1);
  cfg.level = OptLevel::kBaseline;
  cfg.fallback_level = OptLevel::kInputTiling;
  serve::Cluster cluster(cfg, kMixedNets);
  const uint64_t est = cluster.estimated_single_cycles("naparstek17");
  serve::WorkloadConfig wc;
  wc.networks = {"naparstek17"};
  wc.requests = 16;
  auto workload = serve::make_poisson_workload(cluster, wc);
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    workload.jobs[i].arrival = i * (est * 3 / 5);
    workload.jobs[i].deadline = workload.jobs[i].arrival + est;
  }

  serve::SchedulerConfig sc;
  sc.policy = serve::Policy::kDeadline;
  sc.level_fallback = true;
  sc.overload_queue_depth = 0;  // the miss-rate trigger only
  sc.miss_window = 1;
  serve::Scheduler sched(&cluster, sc);
  const auto r = sched.run(workload);
  ASSERT_GT(r.deadline_misses, 0u);
  ASSERT_FALSE(r.fallback_intervals.empty());
  uint64_t first_miss_done = std::numeric_limits<uint64_t>::max();
  for (const auto& c : r.completions) {
    if (!c.met_deadline()) first_miss_done = std::min(first_miss_done, c.done);
  }
  EXPECT_GE(r.fallback_intervals.front().from, first_miss_done);
}

TEST(ServeScheduler, GenerousDeadlinesAreAllMetUnderEdf) {
  serve::Cluster cluster(cluster_config(4, 1), kFcNets);
  serve::WorkloadConfig wc;
  wc.networks = kFcNets;
  wc.requests = 32;
  wc.mean_interarrival_cycles = 20'000;
  wc.deadline_slack_cycles = 50'000'000;  // effectively unbounded
  const auto workload = serve::make_poisson_workload(cluster, wc);
  serve::SchedulerConfig sc;
  sc.policy = serve::Policy::kDeadline;
  serve::Scheduler sched(&cluster, sc);
  const auto r = sched.run(workload);
  EXPECT_EQ(r.completions.size(), workload.jobs.size());
  EXPECT_TRUE(r.rejections.empty());
  EXPECT_EQ(r.deadline_misses, 0u);
  for (const auto& c : r.completions) EXPECT_TRUE(c.met_deadline());
  EXPECT_GT(r.goodput_per_s(500.0), 0.0);
}

TEST(ServeScheduler, ProvableAdmissionNeverAdmitsADeadlineMiss) {
  // kProvable charges the certified WCET at dispatch time: an admitted
  // request satisfies start + WCET <= deadline, and since the measured run
  // never exceeds the WCET, every admitted request provably completes in
  // time. Saturating arrivals force late starts, so rejections do occur.
  serve::Cluster cluster(cluster_config(2, 1), kFcNets);
  serve::WorkloadConfig wc;
  wc.networks = kFcNets;
  wc.requests = 24;
  wc.mean_interarrival_cycles = 3000;
  // Slack between the small FC nets' WCET (~1k cycles) and nasir18's
  // (~21k): admission must pass the former and provably reject the latter.
  wc.deadline_slack_cycles = 5'000;
  const auto workload = serve::make_poisson_workload(cluster, wc);
  serve::SchedulerConfig sc;
  sc.policy = serve::Policy::kDeadline;
  sc.admission = serve::Admission::kProvable;
  serve::Scheduler sched(&cluster, sc);
  const auto r = sched.run(workload);
  EXPECT_GT(r.admitted(), 0u);            // the gate is not vacuous
  EXPECT_FALSE(r.rejections.empty());     // saturation does reject
  EXPECT_EQ(r.deadline_misses, 0u);
  for (const auto& c : r.completions) EXPECT_TRUE(c.met_deadline());
}

TEST(ServeScheduler, SingletonGroupsAtFusedLevelsSkipTheBatchedProgram) {
  // 5 same-network requests, batch capacity 4, level e: one full group runs
  // batched, the leftover singleton must run the single program (the fused
  // batched schedule gains nothing and padding costs a full lane).
  const auto nets = std::vector<std::string>{"nasir18"};
  serve::Cluster cluster(cluster_config(1, 4), nets);
  serve::WorkloadConfig wc;
  wc.networks = nets;
  wc.requests = 5;
  wc.mean_interarrival_cycles = 100;
  const auto workload = serve::make_poisson_workload(cluster, wc);
  serve::Scheduler sched(&cluster, serve::Policy::kBatched);
  const auto r = sched.run(workload);
  ASSERT_EQ(r.completions.size(), 5u);
  EXPECT_EQ(r.batched_execs, 1u);
  EXPECT_EQ(r.batched_requests, 4u);
  EXPECT_EQ(r.padded_slots, 0u);  // never a padded lane at level >= d
  EXPECT_EQ(r.single_execs, 1u);
  int singles = 0;
  for (const auto& c : r.completions) singles += c.group == 1 ? 1 : 0;
  EXPECT_EQ(singles, 1);
}

TEST(ServeScheduler, WatchdogKilledExecutionsRetryThenFailDeterministically) {
  // A tiny explicit watchdog kills every *faulted* execution, so each
  // request burns through its full retry budget and is recorded as failed;
  // consecutive failures quarantine the core.
  auto cfg = cluster_config(2, 1);
  cfg.watchdog_cycles = 64;  // far below any network's execution time
  const auto run_once = [&cfg] {
    serve::Cluster cluster(cfg, kFcNets);
    const auto workload = small_workload(cluster, kFcNets, 6, 0xFA11);
    serve::SchedulerConfig sc;
    sc.fault.rate_of(fault::Target::kRegFile) = 1e-7;  // armed => watchdog applies
    sc.max_retries = 2;
    sc.quarantine_threshold = 3;
    sc.quarantine_cooldown_cycles = 10'000;
    serve::Scheduler sched(&cluster, sc);
    return sched.run(workload);
  };
  const auto r = run_once();
  EXPECT_TRUE(r.completions.empty());
  EXPECT_EQ(r.failed.size(), 6u);
  EXPECT_EQ(r.exec_failures, 6u * 3u);  // 1 try + 2 retries each
  EXPECT_EQ(r.retries, 6u * 2u);
  EXPECT_FALSE(r.quarantines.empty());
  EXPECT_GT(r.quarantine_cycles, 0u);
  for (const auto& f : r.failed) {
    EXPECT_EQ(f.attempts, 3);
    EXPECT_EQ(f.last_cause, iss::TrapCause::kWatchdog);
  }
  for (const auto& q : r.quarantines) EXPECT_EQ(q.to - q.from, 10'000u);
  // Bit-reproducible: the whole campaign replays from the one seed.
  const auto r2 = run_once();
  EXPECT_EQ(serve_result_to_json(r, 500.0).dump_pretty(),
            serve_result_to_json(r2, 500.0).dump_pretty());
}

TEST(ServeScheduler, FaultEventsAreAttributedToCoreAndRequest) {
  serve::Cluster cluster(cluster_config(2, 1), kFcNets);
  const auto workload = small_workload(cluster, kFcNets, 12, 0x5EED);
  serve::SchedulerConfig sc;
  // Dense enough to observe flips, sparse enough that programs still
  // finish: TCDM flips land in private activation buffers only.
  sc.fault.rate_of(fault::Target::kTcdm) = 2e-4;
  serve::Scheduler sched(&cluster, sc);
  const auto r = sched.run(workload);
  EXPECT_FALSE(r.fault_log.empty()) << "campaign injected nothing";
  for (const auto& fa : r.fault_log) {
    EXPECT_GE(fa.core, 0);
    EXPECT_LT(fa.core, 2);
    EXPECT_LT(fa.request, workload.jobs.size());
    EXPECT_EQ(fa.event.target, fault::Target::kTcdm);
  }
  // Every request was still served (TCDM data flips corrupt values, not
  // control flow) and the accounting identity held throughout.
  EXPECT_EQ(r.completions.size() + r.failed.size(), workload.jobs.size());
}

TEST(ServeScheduler, AccountingIdentityHoldsForRetriedRequests) {
  auto cfg = cluster_config(2, 1);
  cfg.watchdog_cycles = 64;
  serve::Cluster cluster(cfg, kFcNets);
  const auto workload = small_workload(cluster, kFcNets, 8, 0xAC);
  serve::SchedulerConfig sc;
  // Rate chosen so the injector arms (watchdog kills every attempt)... but
  // give a huge retry budget and a one-shot quarantine so the run still
  // terminates with all requests failed; identity is then vacuous — so
  // instead leave faults off for half the picture: run fault-free under the
  // resilience config and assert the identity for every completion.
  serve::Scheduler sched(&cluster, sc);
  const auto r = sched.run(workload);
  ASSERT_EQ(r.completions.size(), workload.jobs.size());
  for (const auto& c : r.completions) {
    EXPECT_EQ(c.done - c.arrival, c.wait_cycles + c.exec_cycles) << "request " << c.id;
    EXPECT_EQ(c.retries, 0);
  }
  // Now with faults: retried requests keep the identity (backoff is wait).
  serve::SchedulerConfig sf;
  sf.fault.rate_of(fault::Target::kTcdm) = 5e-5;
  serve::Cluster cluster2(cluster_config(2, 1), kFcNets);
  serve::Scheduler sched2(&cluster2, sf);
  const auto r2 = sched2.run(small_workload(cluster2, kFcNets, 12, 0xAC2));
  for (const auto& c : r2.completions) {
    EXPECT_EQ(c.done - c.arrival, c.wait_cycles + c.exec_cycles) << "request " << c.id;
    EXPECT_EQ(c.done, c.start + c.exec_cycles);
    EXPECT_GE(c.start, c.arrival);
  }
}

TEST(ServeScheduler, OverloadFallsBackToCheaperLevelAndRecovers) {
  // Primary level c with a level-e fallback: e is the cheaper (faster)
  // flavor. A deep queue trips the overload trigger, dispatch degrades to
  // e, and the run records the degraded interval and per-level mix.
  auto cfg = cluster_config(1, 1);
  cfg.level = OptLevel::kOutputTiling;
  cfg.fallback_level = OptLevel::kInputTiling;
  serve::Cluster cluster(cfg, kFcNets);
  serve::WorkloadConfig wc;
  wc.networks = kFcNets;
  wc.requests = 24;
  wc.mean_interarrival_cycles = 200;  // everything arrives almost at once
  const auto workload = serve::make_poisson_workload(cluster, wc);
  serve::SchedulerConfig sc;
  sc.level_fallback = true;
  sc.overload_queue_depth = 4;
  serve::Scheduler sched(&cluster, sc);
  const auto r = sched.run(workload);
  ASSERT_EQ(r.completions.size(), workload.jobs.size());
  EXPECT_GT(r.fallback_execs, 0u);
  EXPECT_FALSE(r.fallback_intervals.empty());
  bool saw_c = false, saw_e = false;
  for (const auto& c : r.completions) {
    saw_c |= c.level == OptLevel::kOutputTiling;
    saw_e |= c.level == OptLevel::kInputTiling;
  }
  EXPECT_TRUE(saw_e) << "no request was served at the fallback level";
  // All levels compute bit-identical results: outputs must match the
  // engine regardless of the level each request was served at.
  rrm::Engine engine;
  for (const auto& job : workload.jobs) {
    rrm::Request req;
    req.network = job.network;
    req.level = OptLevel::kInputTiling;
    req.input = job.input;
    const auto resp = engine.run(req);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(r.completions[job.id].outputs, resp.outputs) << job.id;
  }
  (void)saw_c;
}

TEST(ServeScheduler, QuarantineReentryRequiresFreshFailureThreshold) {
  // Cooldown re-entry audit: entering quarantine resets the core's
  // consecutive-failure counter, so after the cooldown expires the core
  // must burn a *full fresh threshold* of failed attempts before it can
  // re-enter — a single lingering failure may not re-quarantine it.
  auto cfg = cluster_config(1, 1);
  cfg.watchdog_cycles = 64;  // kills every faulted execution
  serve::Cluster cluster(cfg, kFcNets);
  const auto workload = small_workload(cluster, kFcNets, 6, 0xC0DE);
  serve::SchedulerConfig sc;
  sc.fault.rate_of(fault::Target::kRegFile) = 1e-7;  // armed => watchdog applies
  sc.max_retries = 2;
  sc.quarantine_threshold = 3;
  sc.quarantine_cooldown_cycles = 50'000;
  serve::Scheduler sched(&cluster, sc);
  const auto r = sched.run(workload);

  // Every attempt of every request is watchdog-killed: 6 requests x
  // (1 try + 2 retries) = 18 consecutive failures on the single core.
  EXPECT_EQ(r.exec_failures, 18u);
  // Exactly one quarantine per full threshold of failures. Without the
  // reset-on-entry, every failure after the first quarantine would
  // immediately re-quarantine the core (16 windows instead of 6).
  ASSERT_EQ(r.quarantines.size(), 18u / 3u);
  EXPECT_EQ(r.quarantine_cycles, 6u * 50'000u);
  for (size_t i = 0; i < r.quarantines.size(); ++i) {
    const auto& q = r.quarantines[i];
    EXPECT_EQ(q.core, 0);
    EXPECT_EQ(q.to - q.from, 50'000u);
    if (i == 0) continue;
    const auto& prev = r.quarantines[i - 1];
    // Disjoint, ordered, and separated by at least a fresh threshold of
    // failed work (each killed attempt costs >= the watchdog budget).
    EXPECT_GE(q.from, prev.to + 3u * 64u)
        << "quarantine " << i << " re-entered without a fresh threshold";
  }
}

TEST(ServeScheduler, FallbackRecoveryRestoresPrimaryLevelBitExactly) {
  // Overload-fallback recovery: once the queue drains and the degraded
  // interval closes, dispatch returns to the primary level, and the
  // post-recovery completions are bit-identical — outputs and timing —
  // to a run that never degraded at all.
  auto cfg = cluster_config(1, 1);
  cfg.level = OptLevel::kOutputTiling;
  cfg.fallback_level = OptLevel::kInputTiling;
  serve::Cluster cluster(cfg, kFcNets);
  const uint64_t est = cluster.estimated_single_cycles("ahmed19");

  // 12-request burst at cycle 0 trips the depth trigger; a long gap lets
  // the queue drain and the overload exit; 6 widely spaced tail requests
  // then exercise the recovered scheduler.
  serve::WorkloadConfig wc;
  wc.networks = {"ahmed19"};
  wc.requests = 18;
  wc.seed = 0xFA11B;
  auto workload = serve::make_poisson_workload(cluster, wc);
  for (size_t i = 0; i < workload.jobs.size(); ++i) {
    workload.jobs[i].arrival = i < 12 ? 0 : (40 + 10 * (i - 12)) * est;
  }

  serve::SchedulerConfig sc;
  sc.level_fallback = true;
  sc.overload_queue_depth = 4;
  serve::Scheduler degraded_sched(&cluster, sc);
  const auto r = degraded_sched.run(workload);
  ASSERT_EQ(r.completions.size(), workload.jobs.size());
  ASSERT_FALSE(r.fallback_intervals.empty());
  const auto& last = r.fallback_intervals.back();
  EXPECT_LT(last.to, 40 * est) << "overload did not exit before the tail";

  // The never-degraded control: same cluster shape, fallback disabled.
  serve::Cluster control_cluster(cfg, kFcNets);
  serve::Scheduler control_sched(&control_cluster, serve::SchedulerConfig{});
  const auto rn = control_sched.run(workload);
  ASSERT_EQ(rn.completions.size(), workload.jobs.size());

  // Every completion dispatched after the interval closed is back at the
  // primary level (burst stragglers included — their *schedule* still
  // carries the fallback speedup, so only the level is compared here).
  for (const auto& c : r.completions) {
    if (c.start < last.to) continue;
    EXPECT_EQ(c.level, OptLevel::kOutputTiling) << "request " << c.id;
  }
  // The idle gap re-converges the two schedules: each tail request starts
  // at its arrival on an idle core in both runs, so post-recovery service
  // is bit-identical to the never-degraded run — outputs and timing.
  for (uint64_t id = 12; id < 18; ++id) {
    const auto& c = r.completions[id];
    const auto& n = rn.completions[id];
    EXPECT_GE(c.start, last.to) << "request " << id;
    EXPECT_EQ(c.level, OptLevel::kOutputTiling) << "request " << id;
    EXPECT_EQ(c.outputs, n.outputs) << "request " << id;
    EXPECT_EQ(c.start, n.start) << "request " << id;
    EXPECT_EQ(c.done, n.done) << "request " << id;
    EXPECT_EQ(c.exec_cycles, n.exec_cycles) << "request " << id;
  }
}

TEST(ServeCluster, ObserveAggregatesRegionCycles) {
  auto cfg = cluster_config(1, 4);
  cfg.observe = true;
  serve::Cluster cluster(cfg, kFcNets);
  serve::Scheduler sched(&cluster, serve::Policy::kBatched);
  const auto result = sched.run(small_workload(cluster, kFcNets, 10, 0x0B5));
  uint64_t total_busy = 0;
  for (const auto& c : result.core_busy) total_busy += c;
  uint64_t region_total = 0;
  for (const auto& [name, cycles] : cluster.region_cycles()) region_total += cycles;
  // Every executed cycle lands in some region bucket (or "unattributed").
  EXPECT_EQ(region_total, total_busy);
}
