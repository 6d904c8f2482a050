// perfbench — the repository benchmark binary.
//
//   perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// Runs the named workload (or every workload, one after another, in this
// single-threaded process), prints each metric by name with its unit, the
// workload's simulated-result digest, and as its last line one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 1 when any output
// is wrong, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "perfbench/perfbench.h"
#include "src/rrm/networks.h"

using namespace perfbench;
using rnnasip::kernels::OptLevel;

namespace {

struct Workload {
  const char* name;
  Outcome (*run)(const RunArgs&);
  /// Programs the traced run's ledger times.
  std::vector<Program> ledger;
};

std::vector<Program> at(const std::vector<std::string>& nets, OptLevel level) {
  std::vector<Program> p;
  for (const auto& n : nets) p.emplace_back(n, level);
  return p;
}

std::vector<Workload> workloads() {
  std::vector<std::string> suite;
  for (const auto& def : rnnasip::rrm::rrm_suite()) suite.push_back(def.name);
  const std::vector<std::string> fc = {"ahmed19", "eisen19", "nasir18"};
  // The city runs ahmed19 at level d; the FC trio at level e adds longer
  // programs to its backend ledger.
  std::vector<Program> city = at({"ahmed19"}, OptLevel::kLoadCompute);
  for (const auto& p : at(fc, OptLevel::kInputTiling)) city.push_back(p);
  return {
      {"serve_iss_batched", run_serve_iss_batched, at(suite, OptLevel::kInputTiling)},
      {"serve_translated_edf", run_serve_translated_edf, at(fc, OptLevel::kInputTiling)},
      {"city_storm", run_city_storm, city},
      {"paper_suite", run_paper_suite, at(suite, OptLevel::kInputTiling)},
  };
}

void complete_trace(const Workload& w, const RunArgs& args, Outcome& o) {
  ledger(w.ledger, o);
  if (!o.has_layer("serve.scheduler_self_s")) {
    for (auto& m : probe_scheduler(args.seed)) o.layers.push_back(m);
    o.notes.push_back("serve.* host times come from a probe: serve_translated_edf's "
                      "configuration at 1000 requests");
  }
  if (!o.has_layer("scenario.engine_self_s")) {
    for (auto& m : probe_city(args.seed)) o.layers.push_back(m);
    o.notes.push_back("scenario.* and rrm.wmmse_us come from a 16-TTI city probe");
  }
  o.layers.push_back({"trace.span_ns", 1e9 * span_cost_seconds(), "ns"});
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string json_metrics(const std::vector<Metric>& ms, const std::string& prefix) {
  std::string s;
  char buf[128];
  for (const Metric& m : ms) {
    if (!s.empty()) s += ", ";
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    s += "\"" + prefix + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  return s;
}

std::string json_line(bool correct, uint64_t attempted, uint64_t failed,
                      const std::string& metrics) {
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + metrics + "}}";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name|all> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    char* end = nullptr;
    if (key == "--workload") {
      name = argv[i + 1];
    } else if (key == "--seed") {
      args.seed = std::strtoull(argv[i + 1], &end, 10);
      if (*end != '\0') usage("--seed wants a whole number");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(argv[i + 1], &end);
      if (*end != '\0' || !(args.seconds > 0)) usage("--seconds wants a positive number");
    } else if (key == "--trace") {
      const std::string v = argv[i + 1];
      if (v != "0" && v != "1") usage("--trace wants 0 or 1");
      args.trace = v == "1";
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) usage("arguments come in --key value pairs");

  std::vector<Workload> selected;
  for (auto& w : workloads()) {
    if (name == "all" || name == w.name) selected.push_back(std::move(w));
  }
  if (selected.empty()) usage(("unknown workload '" + name + "'").c_str());

  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::string all_metrics;
  std::string last_line;
  try {
    for (const Workload& w : selected) {
      Outcome o = w.run(args);
      if (args.trace) complete_trace(w, args, o);
      std::printf("== %s (seed %llu, %g s, trace %d)\n", w.name,
                  static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
      for (const auto& n : o.notes) std::printf("  note: %s\n", n.c_str());
      print_metrics(" end-to-end:", o.end_to_end);
      print_metrics(" simulated (exact per seed):", o.simulated);
      if (args.trace) print_metrics(" per-layer:", o.layers);
      std::printf("  digest %s %016llx\n", w.name, static_cast<unsigned long long>(o.digest));
      std::printf("  correct %s (attempted %llu, failed %llu)\n", o.correct ? "yes" : "NO",
                  static_cast<unsigned long long>(o.attempted),
                  static_cast<unsigned long long>(o.failed));
      correct = correct && o.correct;
      attempted += o.attempted;
      failed += o.failed;
      const auto& ms = args.trace ? o.layers : o.end_to_end;
      last_line = json_line(o.correct, o.attempted, o.failed, json_metrics(ms, ""));
      const std::string part = json_metrics(ms, std::string(w.name) + ".");
      all_metrics += (all_metrics.empty() ? "" : ", ") + part;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", selected.size() == 1
                          ? last_line.c_str()
                          : json_line(correct, attempted, failed, all_metrics).c_str());
  return correct ? 0 : 1;
}
