// perfbench: the measuring half of the repository benchmark. perfbench/run.py
// builds it, picks the seeds, runs it once per pipeline (a crash then costs
// one pipeline, not the run) and turns its records into the reported
// metrics; this binary only runs pipelines and prints one JSON record per
// measurement on stdout.
//
//   perfbench --workload NAME --seed S --threads N [--setups K] [--pipelines P]
//             [--traced TRACE.json] [--simulation-run]
//
// Untraced (default): K setup timings (default 0), then P pipelines
// (default 1), each printing a "pipeline" record.
//
// --traced: the seed's pipeline untraced, then with metrics and tracing on
// (followed by the module probes), then untraced again. Prints the three
// pipeline records, a "layers" record with every per-layer metric, and
// writes the Chrome trace plus a "<TRACE>.self.json" self-time table.
//
// --simulation-run: train through Simulation::run instead of the benchmark's
// own round loop (the self-test checks both give the same model hash).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/error.h"
#include "common/logging.h"
#include "common/sysinfo.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "probes.h"
#include "tensor/quant.h"
#include "workloads.h"

namespace {

using namespace perfbench;

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_pipeline(const PipelineResult& r, bool traced) {
  std::string rounds;
  for (double ms : r.round_ms) {
    if (!rounds.empty()) rounds += ',';
    rounds += num(ms);
  }
  std::printf(
      "{\"kind\":\"pipeline\",\"seed\":%" PRIu64
      ",\"traced\":%s,\"setup_s\":%s,\"train_s\":%s,\"eval_s\":%s,\"defense_s\":%s,"
      "\"round_ms\":[%s],\"train_samples\":%" PRIu64 ",\"wire_bytes\":%" PRIu64
      ",\"final_ta\":%s,\"final_asr\":%s,\"neurons_pruned\":%d,\"weights_zeroed\":%d,"
      "\"reports_expected\":%" PRIu64 ",\"reports_failed\":%" PRIu64 ",\"hash\":\"%s\"}\n",
      r.seed, traced ? "true" : "false", num(r.setup_s).c_str(), num(r.train_s).c_str(),
      num(r.eval_s).c_str(), num(r.defense_s).c_str(), rounds.c_str(), r.train_samples,
      r.wire_bytes, num(r.final_ta).c_str(), num(r.final_asr).c_str(),
      r.report.neurons_pruned, r.report.weights_zeroed, r.reports_expected,
      r.reports_failed, r.model_hash.c_str());
  std::fflush(stdout);
}

void run_traced(const Workload& w, const std::string& trace_path) {
  // Untraced, traced, untraced again: the first pipeline pays the process's
  // warm-up, so the overhead compares the traced one with the last.
  print_pipeline(run_pipeline(w), false);
  fedcleanse::obs::set_metrics_enabled(true);
  fedcleanse::obs::set_tracing_enabled(true);
  TraceProbes probes(w);
  const PipelineResult traced = run_pipeline(w, &probes);
  print_pipeline(traced, true);
  fedcleanse::obs::set_tracing_enabled(false);
  fedcleanse::obs::set_metrics_enabled(false);
  const PipelineResult plain = run_pipeline(w);
  print_pipeline(plain, false);

  Metrics layers = probes.metrics();
  const double plain_s = plain.setup_s + plain.train_s + plain.defense_s;
  const double traced_s = traced.setup_s + traced.train_s + traced.defense_s;
  layers["obs.trace_overhead_share"] = traced_s / plain_s - 1.0;
  std::string body;
  for (const auto& name : per_layer_metric_names()) {
    const auto it = layers.find(name);
    if (it == layers.end()) throw fedcleanse::Error("per-layer metric not measured: " + name);
    if (!body.empty()) body += ',';
    body += "\"" + name + "\":" + num(it->second);
  }
  std::printf("{\"kind\":\"layers\",\"metrics\":{%s}}\n", body.c_str());

  const auto events = fedcleanse::obs::trace_events_snapshot();
  if (!fedcleanse::obs::write_chrome_trace(trace_path)) {
    throw fedcleanse::Error("cannot write " + trace_path);
  }
  std::ofstream self(trace_path + ".self.json");
  self << "{";
  bool first = true;
  for (const auto& [name, ms] : span_self_ms(events)) {
    self << (first ? "" : ",") << "\n  \"" << name << "\": " << num(ms);
    first = false;
  }
  self << "\n}\n";
  if (!self) throw fedcleanse::Error("cannot write " + trace_path + ".self.json");
}

}  // namespace

int main(int argc, char** argv) {
  fedcleanse::common::init_log_level_from_env();
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  int threads = 0;
  int setups = 0;
  int pipelines = 1;
  std::string trace_path;
  bool simulation_run = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--workload" && has_value) {
        workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        seed = std::strtoull(argv[++i], nullptr, 10);
        have_seed = true;
      } else if (arg == "--threads" && has_value) {
        threads = std::atoi(argv[++i]);
      } else if (arg == "--setups" && has_value) {
        setups = std::atoi(argv[++i]);
      } else if (arg == "--pipelines" && has_value) {
        pipelines = std::atoi(argv[++i]);
      } else if (arg == "--traced" && has_value) {
        trace_path = argv[++i];
      } else if (arg == "--simulation-run") {
        simulation_run = true;
      } else {
        std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
        return 2;
      }
    }
    if (workload.empty() || !have_seed || threads <= 0) {
      std::fprintf(stderr, "perfbench: need --workload, --seed and --threads\n");
      return 2;
    }
    std::printf("{\"kind\":\"host\",\"int8_dispatch\":\"%s\",\"build_type\":\"%s\","
                "\"cxx_flags\":\"%s\"}\n",
                fedcleanse::tensor::int8_dispatch_name(), PERFBENCH_BUILD_TYPE,
                PERFBENCH_CXX_FLAGS);
    std::fflush(stdout);
    const Workload w = make_workload(workload, seed, threads);
    if (!trace_path.empty()) {
      run_traced(w, trace_path);
    } else {
      for (int i = 0; i < setups; ++i) {
        std::printf("{\"kind\":\"setup\",\"seconds\":%s}\n", num(time_setup(w)).c_str());
      }
      for (int i = 0; i < pipelines; ++i) {
        print_pipeline(run_pipeline(w, nullptr, !simulation_run), false);
      }
    }
    std::printf("{\"kind\":\"end\",\"peak_rss_bytes\":%zu}\n",
                fedcleanse::common::peak_rss_bytes());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
