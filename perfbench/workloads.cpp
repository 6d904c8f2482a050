// The four benchmark workloads. Each one sets up (timed several times for
// setup_s), drains its seeded input as fast as the host can inside the
// --seconds window, checks every output, and — in the traced run — replays
// the work call by call so each layer's host time is measured from outside.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <sys/resource.h>

#include "perfbench/perfbench.h"
#include "src/common/fixed_point.h"
#include "src/integrity/integrity.h"
#include "src/obs/json.h"
#include "src/rrm/engine.h"
#include "src/scenario/city.h"
#include "src/scenario/engine.h"
#include "src/serve/scheduler.h"

namespace perfbench {

using namespace rnnasip;

namespace {

/// Set-up repeats until at least kSetupMinReps runs and kSetupMinSeconds
/// have passed (at most kSetupMaxReps), and again before every iteration
/// after the first, so its samples spread over the whole window; setup_s is
/// the median of all of them.
constexpr int kSetupMinReps = 3;
constexpr int kSetupMaxReps = 25;
constexpr double kSetupMinSeconds = 1.0;

/// Self time is a window minus the replay of its calls, timed back to back
/// so that a drift of the host's speed between them mostly cancels; the
/// median over at least kSelfMinPairs pairs and kSelfMinSeconds (at most
/// kSelfMaxPairs) is reported.
constexpr size_t kSelfMinPairs = 3;
constexpr size_t kSelfMaxPairs = 25;
constexpr double kSelfMinSeconds = 1.0;

/// Call `pair` (one window and its replay; returns the self seconds) as
/// often as the rule above asks; returns the median.
template <class F>
double median_self(F&& pair) {
  std::vector<double> selfs;
  const auto t0 = Clock::now();
  do {
    selfs.push_back(pair());
  } while (selfs.size() < kSelfMaxPairs &&
           (selfs.size() < kSelfMinPairs || since(t0) < kSelfMinSeconds));
  return median(selfs);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<std::string> suite_names() {
  std::vector<std::string> names;
  for (const auto& def : rrm::rrm_suite()) names.push_back(def.name);
  return names;
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

/// Time one complete set-up, appending its normalised host seconds to
/// `times`.
template <class F>
void timed_setup(std::vector<double>& times, F& set_up, HostSpeed& hs) {
  const auto t0 = CpuClock::now();
  set_up();
  times.push_back(hs.normalize(cpu_since(t0)));
}

/// Run `set_up` as often as the set-up rule above asks before the window.
template <class F>
std::vector<double> setup_runs(F& set_up, HostSpeed& hs) {
  std::vector<double> times;
  const auto t0 = Clock::now();
  do {
    timed_setup(times, set_up, hs);
  } while (times.size() < kSetupMaxReps &&
           (times.size() < kSetupMinReps || since(t0) < kSetupMinSeconds));
  return times;
}

/// Repeat `iter` (which returns the normalised host seconds of its
/// measured part) while another iteration of the last one's length still
/// fits in `seconds` of wall time; always at least once.
template <class F>
std::vector<double> timed_loop(double seconds, F&& iter) {
  std::vector<double> times;
  const auto t0 = Clock::now();
  do {
    times.push_back(iter(times.size()));
  } while (since(t0) + times.back() <= seconds);
  return times;
}

/// The host's mean speed against the reference, for the iteration notes.
std::string speed_note(const HostSpeed& hs) {
  return "; host speed " + fmt("%.3f", hs.mean_speed()) + " of nominal (reference kernel " +
         fmt("%.3f", 1e3 * HostSpeed::kReferenceSeconds) + " ms)";
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

std::string list(const std::vector<double>& v) {
  std::string s;
  for (double x : v) s += (s.empty() ? "" : " ") + fmt("%.4f", x);
  return s;
}

// ---------------------------------------------------------------------------
// Serving workloads (serve::Cluster + serve::Scheduler)
// ---------------------------------------------------------------------------

struct ServeSpec {
  std::vector<std::string> nets;
  serve::ClusterConfig cc;
  serve::SchedulerConfig sc;
  int requests = 0;
  double mean_interarrival = 0;
  double deadline_slack = 0;  ///< mean slack in cycles; 0 = no deadlines
  /// Detection runs the scheduler's segmented loop, which the replay
  /// mirrors through integrity::CheckedRun instead of Cluster::run_single /
  /// run_batched.
  bool segmented() const { return sc.integrity.detect; }
};

/// Seeded open-loop Poisson arrivals in simulated cycles, from the
/// serving layer's own generator: i.i.d. networks, uniform Q3.12 inputs.
serve::Workload poisson_jobs(const serve::Cluster& cluster, const ServeSpec& s,
                             uint64_t seed) {
  return serve::make_poisson_workload(
      cluster, {.networks = s.nets,
                .requests = s.requests,
                .mean_interarrival_cycles = s.mean_interarrival,
                .deadline_slack_cycles = s.deadline_slack,
                .seed = seed});
}

/// One request per network on its fixed input, spaced far apart, no
/// deadlines.
serve::Workload warm_jobs(const serve::Cluster& cluster, const std::vector<std::string>& nets) {
  serve::Workload w;
  for (const auto& net : nets) {
    serve::Job j;
    j.id = w.jobs.size();
    j.network = net;
    j.arrival = 1'000'000 * j.id;
    j.input = cluster.network(net).make_input(0);
    w.jobs.push_back(std::move(j));
  }
  return w;
}

uint64_t digest_of(const serve::ServeResult& r) {
  Digest d;
  d.add(serve::serve_result_to_json(r, kMhz).dump());
  for (const auto& c : r.completions) d.add(std::span<const int16_t>(c.outputs));
  return d.h;
}

/// Executions the scheduler performed, rebuilt from its completions: a
/// batched execution is the set of completions sharing (core, start).
struct Execution {
  int core = 0;
  uint64_t start = 0;
  std::string net;
  kernels::OptLevel level = kernels::OptLevel::kInputTiling;
  std::vector<uint64_t> ids;
};

std::vector<Execution> executions_of(const serve::ServeResult& r) {
  std::map<std::pair<uint64_t, int>, Execution> by_start;
  for (const auto& c : r.completions) {
    Execution& e = by_start[{c.start, c.core}];
    e.core = c.core;
    e.start = c.start;
    e.net = c.network;
    e.level = c.level;
    e.ids.push_back(c.id);
  }
  std::vector<Execution> out;
  for (auto& [key, e] : by_start) out.push_back(std::move(e));
  return out;
}

struct ReplayTotals {
  double exec_s = 0;      ///< host seconds inside replayed executions
  uint64_t execs = 0;
  uint64_t cycles = 0;    ///< simulated cycles the replay executed
  uint64_t mismatches = 0;
};

/// Replay every execution one by one through the cluster's public run
/// entry points, timing each call.
ReplayTotals replay_serving(serve::Cluster& cluster, const ServeSpec& s,
                            const serve::Workload& w, const serve::ServeResult& r,
                            const std::vector<std::vector<int16_t>>& golden,
                            Tracer& tr) {
  ReplayTotals t;
  for (const Execution& e : executions_of(r)) {
    const auto t0 = Clock::now();
    if (s.segmented()) {
      for (const uint64_t id : e.ids) {
        const serve::Job& job = w.jobs[id];
        auto g = tr.span("integrity.golden_checks", [&] {
          return integrity::golden_checks(cluster.network(job.network),
                                          cluster.tanh_table(), cluster.sig_table(),
                                          job.input);
        });
        tr.span("integrity.CheckedRun", [&] {
          cluster.bind(e.core, job.network, false, e.level);
          integrity::CheckedRunConfig rc;
          rc.detect = true;
          integrity::CheckedRun run(&cluster.backend(e.core), &cluster.memory(e.core),
                                    &cluster.built_single(job.network, e.level), rc);
          run.set_golden(std::move(g));
          run.begin(job.input);
          while (run.step() == integrity::CheckedRun::State::kBoundary) {
          }
          t.cycles += run.cycles();
          if (run.outputs() != golden[id]) ++t.mismatches;
        });
      }
    } else if (e.ids.size() == 1) {
      const serve::Job& job = w.jobs[e.ids[0]];
      const auto er = tr.span("serve.run_single", [&] {
        return cluster.run_single_at(e.core, e.level, job.network, job.input);
      });
      t.cycles += er.cycles;
      if (!er.ok() || er.outputs.size() != 1 || er.outputs[0] != golden[e.ids[0]]) {
        ++t.mismatches;
      }
    } else {
      std::vector<std::vector<int16_t>> inputs;
      for (const uint64_t id : e.ids) inputs.push_back(w.jobs[id].input);
      const auto er = tr.span("serve.run_batched",
                              [&] { return cluster.run_batched(e.core, e.net, inputs); });
      t.cycles += er.cycles;
      if (!er.ok() || er.outputs.size() != e.ids.size()) {
        ++t.mismatches;
      } else {
        for (size_t k = 0; k < e.ids.size(); ++k) {
          if (er.outputs[k] != golden[e.ids[k]]) ++t.mismatches;
        }
      }
    }
    t.exec_s += since(t0);
    ++t.execs;
  }
  return t;
}

void add_layer_counts_serving(const serve::ServeResult& r, uint64_t execs, Outcome& out) {
  auto& L = out.layers;
  L.push_back({"serve.execs", static_cast<double>(execs), "count"});
  L.push_back({"serve.batched_execs", static_cast<double>(r.batched_execs), "count"});
  L.push_back({"serve.preemptions", static_cast<double>(r.preemptions), "count"});
  L.push_back({"serve.retries", static_cast<double>(r.retries), "count"});
  L.push_back({"integrity.detections", static_cast<double>(r.integrity_detections), "count"});
  L.push_back({"integrity.rollbacks", static_cast<double>(r.rollbacks), "count"});
  L.push_back({"fault.exec_failures", static_cast<double>(r.exec_failures), "count"});
}

/// Instructions and cycles the cluster's interpreter cores have retired
/// (translated executions do not count here).
struct IssCount {
  uint64_t instrs = 0;
  uint64_t cycles = 0;
  IssCount operator-(const IssCount& o) const {
    return {instrs - o.instrs, cycles - o.cycles};
  }
};

IssCount iss_count(serve::Cluster& cluster) {
  IssCount c;
  for (int i = 0; i < cluster.cores(); ++i) {
    c.instrs += cluster.core(i).stats().total_instrs();
    c.cycles += cluster.core(i).stats().total_cycles();
  }
  return c;
}

uint64_t busy_cycles(const serve::ServeResult& r) {
  uint64_t s = 0;
  for (const uint64_t b : r.core_busy) s += b;
  return s;
}

Outcome run_serving(const ServeSpec& s, const RunArgs& a) {
  Outcome out;
  Tracer tr(a.trace);

  // Set-up: the cluster (program builds, shared images) plus one request
  // per network, which does the lazy per-flavor work (translation, WCET
  // bounds) the timed schedule would otherwise pay on first use.
  std::unique_ptr<serve::Cluster> cluster;
  auto set_up = [&] {
    cluster.reset();
    cluster = tr.span("serve.Cluster",
                      [&] { return std::make_unique<serve::Cluster>(s.cc, s.nets); });
    const serve::Workload ww = warm_jobs(*cluster, s.nets);
    serve::Scheduler warmer(cluster.get(), s.sc);
    (void)tr.span("serve.Scheduler::run(warm)", [&] { return warmer.run(ww); });
  };
  HostSpeed hs;
  std::vector<double> setup = setup_runs(set_up, hs);

  const serve::Workload w = poisson_jobs(*cluster, s, a.seed);
  std::vector<std::vector<int16_t>> golden;
  golden.reserve(w.jobs.size());
  for (const auto& j : w.jobs) {
    golden.push_back(integrity::golden_checks(cluster->network(j.network),
                                              cluster->tanh_table(),
                                              cluster->sig_table(), j.input)
                         .outputs.back());
  }

  serve::ServeResult first;
  uint64_t first_digest = 0;
  uint64_t attempted = 0, wrong = 0;
  IssCount iss;
  const auto times = timed_loop(a.seconds, [&](size_t iter) {
    if (iter > 0) timed_setup(setup, set_up, hs);
    serve::Scheduler sched(cluster.get(), s.sc);
    const IssCount before = iss_count(*cluster);
    const auto t0 = CpuClock::now();
    serve::ServeResult r = tr.span("serve.Scheduler::run", [&] { return sched.run(w); });
    const double dt = hs.normalize(cpu_since(t0));
    if (iter == 0) iss = iss_count(*cluster) - before;
    attempted += w.jobs.size();
    for (const auto& c : r.completions) {
      if (c.outputs != golden[c.id]) ++wrong;
    }
    const uint64_t d = digest_of(r);
    if (iter == 0) {
      first = std::move(r);
      first_digest = d;
    } else if (d != first_digest) {
      out.fail("same schedule replayed with a different simulated result");
    }
    return dt;
  });

  const serve::ServeResult& r = first;
  const double host_s = sum(times);
  const double t_iter = median(times);
  const uint64_t n = w.jobs.size();
  uint64_t misses = 0, served_ok = 0;
  for (const auto& c : r.completions) {
    misses += c.met_deadline() ? 0 : 1;
    served_ok += c.met_deadline() && c.outputs == golden[c.id] ? 1 : 0;
  }

  out.attempted = attempted;
  out.failed = wrong;
  if (wrong != 0) out.fail(std::to_string(wrong) + " served outputs differ from golden_checks");
  if (r.completions.size() + r.rejections.size() + r.failed.size() != n) {
    out.fail("requests lost: served + rejected + failed != attempted");
  }
  if (!r.failed.empty()) out.fail(std::to_string(r.failed.size()) + " requests failed");
  if (s.sc.policy == serve::Policy::kDeadline && misses != 0) {
    out.fail(std::to_string(misses) + " admitted requests missed their deadline");
  }

  const double sim_s = static_cast<double>(r.makespan) / (kMhz * 1e6);
  out.end_to_end = {
      {"setup_s", median(setup), "s"},
      {"host_req_per_s", static_cast<double>(n) / t_iter, "1/s"},
      {"sim_mcycles_per_s", static_cast<double>(busy_cycles(r)) / 1e6 / t_iter,
       "Mcycles/s"},
      {"ttis_per_s", (static_cast<double>(r.makespan) / kTtiCycles) / t_iter, "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"served_share", static_cast<double>(served_ok) / static_cast<double>(n), "ratio"},
      {"sim_goodput_req_per_s", r.goodput_per_s(kMhz), "1/s"},
  };
  const size_t samples = r.completions.size();
  out.simulated = {
      {"sim_p50_latency_us", static_cast<double>(r.latency_percentile(50)) / kMhz, "us"},
      {"sim_makespan_ms", sim_s * 1e3, "ms"},
      {"sim_executed_mcycles", static_cast<double>(busy_cycles(r)) / 1e6, "Mcycles"},
      {"requests", static_cast<double>(n), "count"},
      {"served", static_cast<double>(r.completions.size()), "count"},
      {"rejected", static_cast<double>(r.rejections.size()), "count"},
      {"latency_samples", static_cast<double>(samples), "count"},
  };
  // p99 only where at least ten samples lie beyond it.
  if (samples >= 1000) {
    out.simulated.push_back(
        {"sim_p99_latency_us", static_cast<double>(r.latency_percentile(99)) / kMhz, "us"});
  } else {
    out.notes.push_back("sim_p99_latency_us not reported: " + std::to_string(samples) +
                        " samples < 1000");
  }
  out.digest = first_digest;
  out.notes.push_back(std::to_string(times.size()) + " iterations of " +
                      std::to_string(n) + " requests in " + fmt("%.3f", host_s) +
                      " normalised host s: " + list(times) + speed_note(hs));

  if (a.trace) {
    const auto check_replay = [&](const ReplayTotals& rt) {
      if (rt.mismatches != 0) out.fail("replayed executions differ from golden");
      if (rt.cycles != busy_cycles(r)) {
        out.fail("replayed executions ran " + std::to_string(rt.cycles) +
                 " cycles, the scheduler's cores were busy " +
                 std::to_string(busy_cycles(r)));
      }
    };
    const ReplayTotals rt = replay_serving(*cluster, s, w, r, golden, tr);
    check_replay(rt);

    // Scheduler self time from back-to-back pairs on a translated twin of
    // the cluster: its decisions depend only on cycle counts, which are
    // identical on both backends (checked through the digest), and cheap
    // executions keep the subtracted replay small. The scheduler computes
    // golden_checks itself before each segmented execution, so the replay
    // subtracts those too.
    std::unique_ptr<serve::Cluster> twin;
    if (s.cc.backend != ExecBackend::kTranslated) {
      serve::ClusterConfig tc = s.cc;
      tc.backend = ExecBackend::kTranslated;
      twin = std::make_unique<serve::Cluster>(tc, s.nets);
    }
    serve::Cluster& tw = twin ? *twin : *cluster;
    const double self_s = median_self([&] {
      serve::Scheduler sched(&tw, s.sc);
      const auto t0 = Clock::now();
      const serve::ServeResult twin_r = sched.run(w);
      const double span = since(t0);
      if (digest_of(twin_r) != first_digest) {
        out.fail("the translated twin served a different schedule");
      }
      Tracer pair(true);
      const ReplayTotals prt = replay_serving(tw, s, w, twin_r, golden, pair);
      check_replay(prt);
      return span - prt.exec_s;
    });

    const double golden_s = tr.seconds("integrity.golden_checks");
    const double execs = static_cast<double>(rt.execs);
    auto& L = out.layers;
    L.push_back({"serve.cluster_build_s", tr.mean("serve.Cluster"), "s"});
    L.push_back({"serve.exec_us", 1e6 * (rt.exec_s - golden_s) / execs, "us"});
    L.push_back({"serve.scheduler_self_s", self_s, "s"});
    L.push_back({"serve.scheduler_span_s", tr.mean("serve.Scheduler::run"), "s"});
    if (s.segmented()) {
      L.push_back({"integrity.checkedrun_us", 1e6 * tr.mean("integrity.CheckedRun"), "us"});
      L.push_back({"integrity.golden_us", 1e6 * tr.mean("integrity.golden_checks"), "us"});
    }
    L.push_back({"iss.instrs", static_cast<double>(iss.instrs), "count"});
    L.push_back({"iss.cycles", static_cast<double>(iss.cycles), "count"});
    add_layer_counts_serving(r, rt.execs, out);
    const auto t0 = Clock::now();
    (void)tr.span("obs.json", [&] { return serve::serve_result_to_json(r, kMhz).dump(); });
    L.push_back({"obs.json_ms", 1e3 * since(t0), "ms"});
    L.push_back({"trace.window_host_req_per_s", static_cast<double>(n) / t_iter, "1/s"});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Closed-loop city (scenario::ScenarioEngine)
// ---------------------------------------------------------------------------

/// bench_scenario's "storm" run: a 10x surge overlapping a 2000x SEU storm
/// on cell 2 over TTIs [32, 56), brownout on.
scenario::ScenarioConfig storm_config(uint64_t seed, int ttis) {
  scenario::ScenarioConfig cfg;
  cfg.city.cells = 8;
  cfg.city.base_rate = 2.0;
  cfg.city.surges = {{2, 32, 56, 10.0}};
  cfg.city.storms = {{2, 32, 56, 2000.0}};
  cfg.brownout_cfg.shed_pressure = 1.25;
  cfg.base_fault.rate_of(fault::Target::kTcdm) = 1e-7;
  cfg.base_fault.rate_of(fault::Target::kRegFile) = 5e-7;
  cfg.base_fault.rate_of(fault::Target::kPlaLut) = 5e-5;
  cfg.ttis = ttis;
  cfg.brownout = true;
  cfg.city.seed = derive_stream(seed, 100);
  cfg.base_fault.seed = seed;
  cfg.seed = seed;
  return cfg;
}

struct CityReplay {
  double city_s = 0;        ///< City traffic/observe/apply/score/step calls
  uint64_t execs = 0;       ///< CheckedRun executions replayed
  uint64_t mismatches = 0;
};

/// The city's own self time measures: one engine run and its replay, back
/// to back.
struct CityPair {
  double span_s = 0;        ///< ScenarioEngine::run
  double self_s = 0;        ///< span minus the replayed calls
  double city_us_per_tti = 0;
  double wmmse_us = 0;
  double checkedrun_us = 0;
  double golden_us = 0;
};

/// Drive a fresh City with the engine's config through the same TTIs,
/// applying the golden decision for every arrival, then replay as many
/// CheckedRun executions at each level as the engine dispatched. The City
/// trajectory differs from the engine's (every decision is served here),
/// so the per-call costs are representative, not identical.
CityReplay replay_city(const scenario::ScenarioConfig& cfg, uint64_t primary_execs,
                       uint64_t fallback_execs, Tracer& tr) {
  serve::ClusterConfig cc;
  cc.cores = 1;
  cc.level = cfg.level;
  cc.fallback_level = cfg.fallback_level;
  cc.integrity = true;
  serve::Cluster cluster(cc, {cfg.network});
  const rrm::RrmNetwork& net = cluster.network(cfg.network);
  const int n = net.input_count();

  CityReplay out;
  scenario::City city(cfg.city);
  Rng jitter(derive_stream(cfg.seed, 1));
  std::vector<std::pair<std::vector<int16_t>, integrity::GoldenChecks>> seen;
  const auto timed = [&](auto&& f) {
    const auto t0 = Clock::now();
    f();
    out.city_s += since(t0);
  };
  for (int tti = 0; tti < cfg.ttis; ++tti) {
    std::vector<int> arrivals;
    timed([&] { arrivals = city.draw_arrivals(tti); });
    std::vector<std::optional<std::vector<int16_t>>> decision(arrivals.size());
    for (int c = 0; c < city.cell_count(); ++c) {
      for (int k = 0; k < arrivals[static_cast<size_t>(c)]; ++k) {
        std::vector<double> obs;
        timed([&] { obs = city.observe(c, n); });
        std::vector<int16_t> input;
        for (const double v : obs) {
          const double j = v + jitter.next_in(-cfg.obs_jitter, cfg.obs_jitter);
          input.push_back(static_cast<int16_t>(quantize(std::clamp(j, -7.9, 7.9))));
        }
        auto g = tr.span("integrity.golden_checks", [&] {
          return integrity::golden_checks(net, cluster.tanh_table(), cluster.sig_table(),
                                          input);
        });
        decision[static_cast<size_t>(c)] = g.outputs.back();
        if (seen.size() < 256) seen.emplace_back(std::move(input), std::move(g));
      }
    }
    for (int c = 0; c < city.cell_count(); ++c) {
      double a = 0;
      timed([&] {
        if (decision[static_cast<size_t>(c)]) {
          city.apply_decision(c, *decision[static_cast<size_t>(c)]);
        } else {
          city.carry_stale(c);
        }
        a = city.achieved_rate(c);
      });
      const double o = tr.span("scenario.City::oracle_rate", [&] { return city.oracle_rate(c); });
      timed([&] { city.step_env(c, o > 0 ? std::clamp(1.0 - a / o, 0.0, 1.0) : 0.0); });
    }
  }

  // Faulted cities run every execution on the ISS.
  const bool need_iss = cfg.base_fault.any_enabled();
  for (const auto& [level, execs] : {std::pair{cfg.level, primary_execs},
                                     std::pair{cfg.fallback_level, fallback_execs}}) {
    const kernels::BuiltNetwork& bn = cluster.built_single(cfg.network, level);
    for (uint64_t i = 0; i < execs && !seen.empty(); ++i) {
      const auto& [input, g] = seen[i % seen.size()];
      tr.span("integrity.CheckedRun", [&] {
        cluster.bind(0, cfg.network, false, level);
        integrity::CheckedRunConfig rc;
        rc.detect = true;
        integrity::CheckedRun run(&cluster.backend(0, need_iss), &cluster.memory(0), &bn, rc);
        run.set_golden(g);
        run.begin(input);
        while (run.step() == integrity::CheckedRun::State::kBoundary) {
        }
        if (run.outputs() != g.outputs.back()) ++out.mismatches;
      });
      ++out.execs;
    }
  }
  return out;
}

Outcome run_city(const scenario::ScenarioConfig& cfg, const RunArgs& a) {
  Outcome out;
  Tracer tr(a.trace);

  // Set-up: the engine builds its integrity cluster (primary and fallback
  // levels) and calibrates the TTI length. An engine serves one run.
  std::unique_ptr<scenario::ScenarioEngine> engine;
  auto set_up = [&] {
    engine.reset();
    engine = tr.span("scenario.ScenarioEngine",
                     [&] { return std::make_unique<scenario::ScenarioEngine>(cfg); });
  };
  HostSpeed hs;
  std::vector<double> setup = setup_runs(set_up, hs);

  scenario::ScenarioResult first;
  uint64_t first_digest = 0, tti_cycles = 0;
  IssCount iss;
  const auto times = timed_loop(a.seconds, [&](size_t iter) {
    if (iter > 0) timed_setup(setup, set_up, hs);
    // The engine exposes its cluster read-only; reading the cores'
    // retired-instruction counters does not modify it.
    serve::Cluster& cluster = const_cast<serve::Cluster&>(engine->cluster());
    const IssCount before = iss_count(cluster);
    const auto t0 = CpuClock::now();
    scenario::ScenarioResult r =
        tr.span("scenario.ScenarioEngine::run", [&] { return engine->run(); });
    const double dt = hs.normalize(cpu_since(t0));
    out.attempted += r.requests;
    out.failed += r.silent_to_env + r.deadline_misses_admitted;
    Digest d;
    d.add(scenario::scenario_result_to_json(cfg, r).dump());
    if (iter == 0) {
      iss = iss_count(cluster) - before;
      tti_cycles = engine->tti_cycles();
      first = std::move(r);
      first_digest = d.h;
    } else if (d.h != first_digest) {
      out.fail("same city replayed with a different simulated result");
    }
    return dt;
  });

  const scenario::ScenarioResult& r = first;
  if (r.silent_to_env != 0) out.fail("corrupted decisions reached the environment");
  if (r.deadline_misses_admitted != 0) out.fail("admitted requests missed their deadline");
  if (r.requests == 0 || r.served == 0) out.fail("the city served no request");

  const double host_s = sum(times);
  const double t_iter = median(times);
  const double sim_cycles = static_cast<double>(cfg.ttis) * static_cast<double>(tti_cycles);
  const double sim_s = sim_cycles / (kMhz * 1e6);
  out.end_to_end = {
      {"setup_s", median(setup), "s"},
      {"host_req_per_s", static_cast<double>(r.requests) / t_iter, "1/s"},
      {"sim_mcycles_per_s", static_cast<double>(iss.cycles) / 1e6 / t_iter,
       "Mcycles/s"},
      {"ttis_per_s", (sim_cycles / kTtiCycles) / t_iter, "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"served_share", static_cast<double>(r.served) / static_cast<double>(r.requests),
       "ratio"},
      {"sim_goodput_req_per_s", static_cast<double>(r.served) / sim_s, "1/s"},
  };
  out.simulated = {
      {"stress_quality_ratio", r.stress_ratio(), "ratio"},
      {"calm_quality_ratio", r.calm_ratio(), "ratio"},
      {"city_ttis", static_cast<double>(cfg.ttis), "count"},
      {"tti_cycles", static_cast<double>(tti_cycles), "cycles"},
      {"requests", static_cast<double>(r.requests), "count"},
      {"served", static_cast<double>(r.served), "count"},
      {"served_fallback", static_cast<double>(r.served_fallback), "count"},
      {"shed", static_cast<double>(r.shed_rejected), "count"},
      {"admission_rejected", static_cast<double>(r.admission_rejected), "count"},
      {"corrupted_blocked", static_cast<double>(r.corrupted_blocked), "count"},
      {"silent_to_env", static_cast<double>(r.silent_to_env), "count"},
      {"deadline_misses_admitted", static_cast<double>(r.deadline_misses_admitted), "count"},
  };
  out.notes.push_back(
      "per-request latency is not exposed by ScenarioEngine; sim_p50/p99 not reported");
  out.notes.push_back("ttis_per_s counts 1 ms TTIs; in the engine's own TTIs (" +
                      std::to_string(tti_cycles) + " cycles) the rate is " +
                      fmt("%.1f", static_cast<double>(cfg.ttis) / t_iter) + "/s");
  out.notes.push_back(std::to_string(times.size()) + " iterations of " +
                      std::to_string(cfg.ttis) + " TTIs in " + fmt("%.3f", host_s) +
                      " normalised host s: " + list(times) + speed_note(hs));
  out.digest = first_digest;

  if (a.trace) {
    const uint64_t execs = r.served + r.exec_failures;
    std::vector<CityPair> pairs;
    (void)median_self([&] {
      scenario::ScenarioEngine engine2(cfg);
      const auto t0 = Clock::now();
      const scenario::ScenarioResult r2 = engine2.run();
      CityPair p;
      p.span_s = since(t0);
      Digest d;
      d.add(scenario::scenario_result_to_json(cfg, r2).dump());
      if (d.h != first_digest) out.fail("same city rerun with a different simulated result");
      Tracer pt(true);
      const CityReplay rp = replay_city(cfg, execs - r.served_fallback, r.served_fallback, pt);
      if (rp.mismatches != 0) out.fail("replayed CheckedRun outputs differ from golden");
      p.city_us_per_tti = 1e6 * rp.city_s / cfg.ttis;
      p.wmmse_us = 1e6 * pt.mean("scenario.City::oracle_rate");
      p.checkedrun_us = 1e6 * pt.mean("integrity.CheckedRun");
      p.golden_us = 1e6 * pt.mean("integrity.golden_checks");
      p.self_s = p.span_s - rp.city_s - pt.seconds("scenario.City::oracle_rate") -
                 1e-6 * (p.checkedrun_us * static_cast<double>(execs) +
                         p.golden_us * static_cast<double>(r.requests - r.shed_rejected));
      pairs.push_back(p);
      return p.self_s;
    });
    const auto med = [&](double CityPair::*field) {
      std::vector<double> v;
      for (const CityPair& p : pairs) v.push_back(p.*field);
      return median(v);
    };
    auto& L = out.layers;
    L.push_back({"scenario.city_us_per_tti", med(&CityPair::city_us_per_tti), "us"});
    L.push_back({"scenario.engine_self_s", med(&CityPair::self_s), "s"});
    L.push_back({"scenario.engine_span_s", med(&CityPair::span_s), "s"});
    L.push_back({"scenario.engine_build_s", tr.mean("scenario.ScenarioEngine"), "s"});
    L.push_back({"rrm.wmmse_us", med(&CityPair::wmmse_us), "us"});
    L.push_back({"integrity.checkedrun_us", med(&CityPair::checkedrun_us), "us"});
    L.push_back({"integrity.golden_us", med(&CityPair::golden_us), "us"});
    L.push_back({"iss.instrs", static_cast<double>(iss.instrs), "count"});
    L.push_back({"iss.cycles", static_cast<double>(iss.cycles), "count"});
    L.push_back({"serve.execs", static_cast<double>(execs), "count"});
    L.push_back({"serve.batched_execs", 0.0, "count"});
    L.push_back({"serve.preemptions", 0.0, "count"});
    L.push_back({"serve.retries", static_cast<double>(r.retries), "count"});
    L.push_back({"integrity.detections", static_cast<double>(r.integrity_detections), "count"});
    L.push_back({"integrity.rollbacks", static_cast<double>(r.integrity_rollbacks), "count"});
    L.push_back({"fault.exec_failures", static_cast<double>(r.exec_failures), "count"});
    const auto t0 = Clock::now();
    (void)tr.span("obs.json",
                  [&] { return scenario::scenario_result_to_json(cfg, r).dump(); });
    L.push_back({"obs.json_ms", 1e3 * since(t0), "ms"});
    L.push_back({"trace.window_host_req_per_s",
                 static_cast<double>(r.requests) / t_iter, "1/s"});
  }
  return out;
}

/// serve_translated_edf's configuration with `requests` requests.
ServeSpec translated_edf_spec(int requests) {
  ServeSpec s;
  s.nets = {"ahmed19", "eisen19", "nasir18"};
  s.cc.cores = 4;
  s.cc.level = kernels::OptLevel::kInputTiling;
  s.cc.batch = 1;
  s.cc.integrity = true;
  s.cc.backend = ExecBackend::kTranslated;
  s.sc.policy = serve::Policy::kDeadline;
  s.sc.admission = serve::Admission::kProvable;
  s.sc.integrity.detect = true;
  s.sc.integrity.preemption = true;
  s.requests = requests;
  s.mean_interarrival = 2'000;
  s.deadline_slack = 40.0 * s.mean_interarrival;
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Workload entry points
// ---------------------------------------------------------------------------

Outcome run_serve_iss_batched(const RunArgs& a) {
  ServeSpec s;
  s.nets = suite_names();
  s.cc.cores = 4;
  s.cc.level = kernels::OptLevel::kInputTiling;
  s.cc.batch = 4;
  s.cc.backend = ExecBackend::kIss;
  s.sc.policy = serve::Policy::kBatched;
  s.requests = 1'000;
  s.mean_interarrival = 2'000;
  return run_serving(s, a);
}

Outcome run_serve_translated_edf(const RunArgs& a) {
  return run_serving(translated_edf_spec(10'000), a);
}

Outcome run_city_storm(const RunArgs& a) { return run_city(storm_config(a.seed, 384), a); }

Outcome run_paper_suite(const RunArgs& a) {
  Outcome out;
  Tracer tr(a.trace);

  // Set-up: the engine and its materialized (quantized) suite networks.
  // Device programs are emitted per request, inside the timed window.
  std::unique_ptr<rrm::Engine> engine;
  auto set_up = [&] {
    engine.reset();
    engine = std::make_unique<rrm::Engine>();
    for (const auto& name : suite_names()) (void)engine->network(name);
  };
  HostSpeed hs;
  std::vector<double> setup = setup_runs(set_up, hs);

  rrm::Request proto;
  proto.verify = true;
  std::vector<rrm::SuiteResult> first;
  uint64_t first_digest = 0;
  const auto times = timed_loop(a.seconds, [&](size_t iter) {
    if (iter > 0) timed_setup(setup, set_up, hs);
    std::vector<rrm::SuiteResult> levels;
    const auto t0 = CpuClock::now();
    for (const auto level : kernels::kAllOptLevels) {
      levels.push_back(tr.span("rrm.Engine::run_suite",
                               [&] { return engine->run_suite(level, proto); }));
    }
    const double dt = hs.normalize(cpu_since(t0));
    Digest d;
    for (const auto& s : levels) {
      for (const auto& n : s.nets) {
        d.add(n.name);
        d.add(n.cycles);
        d.add(n.instrs);
        d.add(static_cast<uint64_t>(n.verified));
        ++out.attempted;
        if (!n.verified || n.degraded()) ++out.failed;
      }
    }
    if (iter == 0) {
      first = std::move(levels);
      first_digest = d.h;
    } else if (d.h != first_digest) {
      out.fail("same suite rerun with a different simulated result");
    }
    return dt;
  });
  if (out.failed != 0) out.fail(std::to_string(out.failed) + " network runs failed verify");

  const double host_s = sum(times);
  const double t_iter = median(times);
  uint64_t cycles = 0, instrs = 0, runs = 0, verified = 0;
  std::vector<double> latency_us;
  for (const auto& s : first) {
    cycles += s.total_cycles;
    instrs += s.total_instrs;
    for (const auto& n : s.nets) {
      ++runs;
      verified += n.verified ? 1 : 0;
      latency_us.push_back(static_cast<double>(n.cycles) / kMhz);
    }
  }
  const double speedup = static_cast<double>(first.front().total_cycles) /
                         static_cast<double>(first.back().total_cycles);
  constexpr double kPaperSpeedup = 15.0;
  if (std::round(speedup * 10.0) != kPaperSpeedup * 10.0) {
    out.fail("Table I speedup " + fmt("%.2f", speedup) + "x does not read 15.0x");
  }
  const double sim_s = static_cast<double>(cycles) / (kMhz * 1e6);
  out.end_to_end = {
      {"setup_s", median(setup), "s"},
      {"host_req_per_s", static_cast<double>(runs) / t_iter, "1/s"},
      {"sim_mcycles_per_s", static_cast<double>(cycles) / 1e6 / t_iter, "Mcycles/s"},
      {"ttis_per_s", (static_cast<double>(cycles) / kTtiCycles) / t_iter, "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"served_share", static_cast<double>(verified) / static_cast<double>(runs), "ratio"},
      {"sim_goodput_req_per_s", static_cast<double>(runs) / sim_s, "1/s"},
  };
  out.simulated.push_back({"sim_p50_latency_us", median(latency_us), "us"});
  out.simulated.push_back({"latency_samples", static_cast<double>(runs), "count"});
  for (size_t i = 0; i < first.size(); ++i) {
    const std::string name = std::string("suite_kcycles_") +
                             kernels::opt_level_letter(kernels::kAllOptLevels[i]);
    out.simulated.push_back({name, static_cast<double>(first[i].total_cycles) / 1e3, "kcycles"});
  }
  out.simulated.push_back({"table1_speedup", speedup, "x"});
  out.simulated.push_back({"table1_speedup_paper", kPaperSpeedup, "x"});
  out.simulated.push_back(
      {"table1_speedup_error_pct", 100.0 * (speedup / kPaperSpeedup - 1.0), "%"});
  out.notes.push_back("Table I speedup a->e reads " + fmt("%.1f", speedup) + "x (" +
                      fmt("%.3f", speedup) + "x; paper 15.0x, error " +
                      fmt("%+.2f", 100.0 * (speedup / kPaperSpeedup - 1.0)) + "%)");
  out.notes.push_back("sim_p99_latency_us not reported: " + std::to_string(runs) +
                      " samples < 1000");
  out.notes.push_back("the suite's inputs are its fixed per-network inputs; the seed does "
                      "not change this workload");
  out.notes.push_back(std::to_string(times.size()) + " iterations of " +
                      std::to_string(runs) + " network runs in " + fmt("%.3f", host_s) +
                      " normalised host s: " + list(times) + speed_note(hs));
  out.digest = first_digest;

  if (a.trace) {
    auto& L = out.layers;
    const double per_net = static_cast<double>(first.front().nets.size());
    L.push_back({"rrm.engine_run_ms", 1e3 * tr.mean("rrm.Engine::run_suite") / per_net, "ms"});
    L.push_back({"iss.instrs", static_cast<double>(instrs), "count"});
    L.push_back({"iss.cycles", static_cast<double>(cycles), "count"});
    for (const char* name : {"serve.execs", "serve.batched_execs", "serve.preemptions",
                             "serve.retries", "integrity.detections", "integrity.rollbacks",
                             "fault.exec_failures"}) {
      L.push_back({name, 0.0, "count"});
    }
    const auto t0 = Clock::now();
    (void)tr.span("obs.json", [&] {
      obs::Json levels = obs::Json::array();
      for (const auto& s : first) {
        obs::Json nets = obs::Json::array();
        for (const auto& n : s.nets) {
          obs::Json j = obs::Json::object();
          j.set("name", n.name);
          j.set("cycles", n.cycles);
          j.set("instrs", n.instrs);
          j.set("verified", n.verified);
          nets.push(std::move(j));
        }
        levels.push(std::move(nets));
      }
      return levels.dump();
    });
    L.push_back({"obs.json_ms", 1e3 * since(t0), "ms"});
    L.push_back({"trace.window_host_req_per_s", static_cast<double>(runs) / t_iter,
                 "1/s"});
  }
  return out;
}

std::vector<Metric> probe_scheduler(uint64_t seed) {
  const Outcome o = run_serving(translated_edf_spec(1'000), RunArgs{seed, 0.0, true});
  std::vector<Metric> keep;
  for (const Metric& m : o.layers) {
    if (m.name.starts_with("serve.") && m.unit != "count") keep.push_back(m);
  }
  return keep;
}

std::vector<Metric> probe_city(uint64_t seed) {
  scenario::ScenarioConfig cfg;
  cfg.ttis = 16;
  cfg.city.seed = derive_stream(seed, 100);
  cfg.seed = seed;
  const Outcome o = run_city(cfg, RunArgs{seed, 0.0, true});
  std::vector<Metric> keep;
  for (const Metric& m : o.layers) {
    if (m.name.starts_with("scenario.") || m.name == "rrm.wmmse_us") keep.push_back(m);
  }
  return keep;
}

}  // namespace perfbench
