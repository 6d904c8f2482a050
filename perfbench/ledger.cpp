// The traced run's per-program ledger: every module a request passes
// through, timed call by call on the workload's own programs.
#include <algorithm>
#include <set>

#include "perfbench/perfbench.h"
#include "src/analysis/network_lint.h"
#include "src/analysis/wcet.h"
#include "src/exec/backend.h"
#include "src/integrity/integrity.h"
#include "src/isa/decode.h"
#include "src/iss/core.h"
#include "src/kernels/network.h"
#include "src/rrm/engine.h"
#include "src/serve/cluster.h"
#include "src/translate/tcore.h"
#include "src/translate/translate.h"

namespace perfbench {

using namespace rnnasip;

namespace {

/// Minimum host time each backend spends on one program, so short
/// programs are timed over many executions.
constexpr double kMinExecSeconds = 0.01;

}  // namespace

void ledger(const std::vector<Program>& programs, Outcome& out) {
  Tracer tr(true);
  const iss::Core::Config cfg;
  double iss_s = 0, tr_s = 0, instrs_total = 0;
  double decode_s = 0, decodes = 0;
  double overhead_s = -1;

  for (const auto& [name, level] : programs) {
    const rrm::RrmNetwork net(rrm::find_network(name));
    iss::Memory mem(16u << 20);
    iss::Core core(&mem, cfg);
    const auto built = tr.span("kernels.build", [&] {
      return net.build(&mem, level, core.tanh_table(), core.sig_table());
    });

    const std::vector<uint32_t> words = built.program.encode_words();
    uint64_t decoded = 0;
    const auto d0 = Clock::now();
    do {
      for (const uint32_t w : words) decoded += isa::decode(w).has_value() ? 1 : 0;
      decodes += static_cast<double>(words.size());
    } while (since(d0) < 2e-3);
    decode_s += since(d0);
    if (decoded % words.size() != 0) out.fail(name + ": program text does not decode");

    (void)tr.span("analysis.static_bounds",
                  [&] { return analysis::static_bounds(built, cfg.timing); });
    const auto image = tr.span("translate.translate", [&] {
      return translate::translate(built.program, analysis::memory_map_of(built), cfg);
    });
    if (!image.ok()) {
      out.fail(name + ": translation refused: " + image.error.message);
      continue;
    }

    const std::vector<int16_t> input = net.make_input(0);
    rrm::RrmNetwork::Golden golden(net, core.tanh_table(), core.sig_table());
    const std::vector<int16_t> want = tr.span("nn.Golden::forward", [&] {
      golden.reset();
      return golden.forward(input);
    });

    // The identical program on both backends, same memory image.
    core.load_program(built.program);
    exec::IssBackend issb(&core);
    int reps = 0;
    uint64_t instrs = 0, cycles = 0;
    const auto i0 = Clock::now();
    do {
      kernels::reset_state(mem, built);
      const auto fr = kernels::try_run_forward(issb, mem, built, input);
      instrs = fr.result.instrs;
      cycles = fr.result.cycles;
      if (!fr.ok() || fr.outputs != want) out.fail(name + ": ISS output differs from golden");
      ++reps;
    } while (since(i0) < kMinExecSeconds || reps < 2);
    const double iss_run = since(i0);

    translate::TranslatedCore tcore(&mem, cfg);
    tcore.bind(image.program);
    const auto t0 = Clock::now();
    for (int k = 0; k < reps; ++k) {
      kernels::reset_state(mem, built);
      const auto fr = kernels::try_run_forward(tcore, mem, built, input);
      if (!fr.ok() || fr.outputs != want || fr.result.cycles != cycles) {
        out.fail(name + ": translated run differs from the ISS");
      }
    }
    const double tr_run = since(t0);
    iss_s += iss_run;
    tr_s += tr_run;
    instrs_total += static_cast<double>(instrs) * reps;
    // Fixed host cost of one ISS execution: the same forward pass stopped
    // after its first instruction (state reset, input write, core reset,
    // run entry and exit), on the first ahmed19 program.
    if (name == "ahmed19" && overhead_s < 0) {
      iss::RunLimits one;
      one.max_instrs = 1;
      int n = 0;
      const auto o0 = Clock::now();
      do {
        kernels::reset_state(mem, built);
        (void)kernels::try_run_forward(issb, mem, built, input, one);
        ++n;
      } while (since(o0) < kMinExecSeconds);
      overhead_s = since(o0) / n;
    }

    // ABFT-instrumented flavor through the integrity harness.
    iss::Memory imem(16u << 20);
    iss::Core icore(&imem, cfg);
    const auto ibuilt =
        net.build(&imem, level, icore.tanh_table(), icore.sig_table(), 8, 0, true);
    icore.load_program(ibuilt.program);
    exec::IssBackend ib(&icore);
    auto checks = tr.span("integrity.golden_checks", [&] {
      return integrity::golden_checks(net, icore.tanh_table(), icore.sig_table(), input);
    });
    tr.span("integrity.CheckedRun", [&] {
      integrity::CheckedRun run(&ib, &imem, &ibuilt, integrity::CheckedRunConfig{});
      run.set_golden(std::move(checks));
      run.begin(input);
      while (run.step() == integrity::CheckedRun::State::kBoundary) {
      }
      if (run.outputs() != want) out.fail(name + ": CheckedRun output differs from golden");
    });

    rrm::Engine engine;
    rrm::Request req;
    req.network = name;
    req.level = level;
    req.input = input;
    const auto resp = tr.span("rrm.Engine::run", [&] { return engine.run(req); });
    if (!resp.ok() || resp.outputs != want) out.fail(name + ": Engine::run failed verify");
  }

  // Calibration runs, one cluster per level.
  std::set<kernels::OptLevel> levels;
  for (const auto& p : programs) levels.insert(p.second);
  for (const auto level : levels) {
    serve::ClusterConfig cc;
    cc.cores = 1;
    cc.level = level;
    std::vector<std::string> nets;
    for (const auto& [name, l] : programs) {
      if (l == level && std::find(nets.begin(), nets.end(), name) == nets.end()) {
        nets.push_back(name);
      }
    }
    serve::Cluster cluster(cc, nets);
    for (const auto& name : nets) {
      (void)tr.span("serve.estimated_single_cycles",
                    [&] { return cluster.estimated_single_cycles(name, level); });
    }
  }

  const double iss_ns = 1e9 * iss_s / instrs_total;
  const double tr_ns = 1e9 * tr_s / instrs_total;
  auto& L = out.layers;
  L.push_back({"iss.ns_per_instr", iss_ns, "ns"});
  L.push_back({"iss.exec_overhead_us", 1e6 * overhead_s, "us"});
  L.push_back({"isa.decode_ns", 1e9 * decode_s / decodes, "ns"});
  L.push_back({"translate.ns_per_instr", tr_ns, "ns"});
  L.push_back({"translate.image_ms", 1e3 * tr.mean("translate.translate"), "ms"});
  L.push_back({"kernels.build_ms", 1e3 * tr.mean("kernels.build"), "ms"});
  L.push_back({"analysis.bounds_ms", 1e3 * tr.mean("analysis.static_bounds"), "ms"});
  L.push_back({"serve.calibration_ms", 1e3 * tr.mean("serve.estimated_single_cycles"), "ms"});
  L.push_back({"nn.golden_us", 1e6 * tr.mean("nn.Golden::forward"), "us"});
  // Layers the workload itself already timed keep the workload's figure.
  if (!out.has_layer("integrity.checkedrun_us")) {
    L.push_back({"integrity.checkedrun_us", 1e6 * tr.mean("integrity.CheckedRun"), "us"});
    L.push_back({"integrity.golden_us", 1e6 * tr.mean("integrity.golden_checks"), "us"});
  }
  if (!out.has_layer("rrm.engine_run_ms")) {
    L.push_back({"rrm.engine_run_ms", 1e3 * tr.mean("rrm.Engine::run"), "ms"});
  }
  out.notes.push_back("backend ledger: iss " + std::to_string(iss_ns) + " ns/instr vs translated " +
                      std::to_string(tr_ns) + " ns/instr on the identical " +
                      std::to_string(programs.size()) + " programs; the ISS takes " +
                      std::to_string(iss_ns / tr_ns) + "x the translated time (base: the ISS)");
}

}  // namespace perfbench
