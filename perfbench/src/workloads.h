// The benchmark's workloads and the timed paper pipeline they share:
// Simulation construction → training rounds (each followed by TA/ASR
// evaluation) → run_defense. Everything is driven through the library's
// public API; the only timing is taken here, around those calls.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "defense/pipeline.h"
#include "fl/simulation.h"

namespace perfbench {

struct Workload {
  fedcleanse::fl::SimulationConfig sim;
  fedcleanse::defense::DefenseConfig defense;
};

// Known names: mnist_pipeline, cifar_dba_pipeline, fleet_virtual. Throws
// fedcleanse::ConfigError for anything else.
Workload make_workload(const std::string& name, std::uint64_t seed, int n_threads);
std::vector<std::string> workload_names();

// What one pipeline execution measured and produced.
struct PipelineResult {
  std::uint64_t seed = 0;
  double setup_s = 0.0;
  double train_s = 0.0;    // rounds + per-round TA/ASR evaluation
  double eval_s = 0.0;     // the evaluation part of train_s
  double defense_s = 0.0;  // run_defense wall time
  std::vector<double> round_ms;  // run_round() only, one per training round
  std::uint64_t train_samples = 0;  // local samples trained in the rounds
  std::uint64_t wire_bytes = 0;     // network().total_bytes() at the end
  std::uint64_t uplink_bytes = 0;
  std::uint64_t downlink_bytes = 0;
  double final_ta = 0.0;
  double final_asr = 0.0;
  // Client reports the exchanges expected / did not get (dropped, corrupted,
  // or part of a quorum-missed exchange).
  std::uint64_t reports_expected = 0;
  std::uint64_t reports_failed = 0;
  std::string model_hash;  // flat parameters + prune masks of the final model
  fedcleanse::defense::DefenseReport report;
};

// Hooks the traced run uses to look inside a finished pipeline before the
// Simulation is destroyed (its pool is the ambient pool the probes need).
struct PipelineHooks {
  virtual ~PipelineHooks() = default;
  virtual void after_setup(fedcleanse::fl::Simulation&) {}
  virtual void after_train(fedcleanse::fl::Simulation&) {}
  virtual void after_defense(fedcleanse::fl::Simulation&, const PipelineResult&) {}
};

// `drive_rounds` = true runs the training rounds through the benchmark's own
// loop (timed per round); false calls Simulation::run, which must give the
// same final model — the self-test compares the two hashes.
PipelineResult run_pipeline(const Workload& w, PipelineHooks* hooks = nullptr,
                            bool drive_rounds = true);

// Seconds to construct the workload's Simulation once (data synthesis,
// partition, model init, clients, pool start-up).
double time_setup(const Workload& w);

// FNV-1a over the model's flat parameters followed by its prune masks.
std::string model_hash(fedcleanse::nn::Sequential& net);

}  // namespace perfbench
