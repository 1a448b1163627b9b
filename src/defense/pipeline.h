// The full defense pipeline (Algorithm 1):
//   Federated Pruning (RAP or MVP) → optional Fine-Tuning → Adjusting
//   Extreme Weights — with per-phase wall-clock timing (Fig 9).
//
// Operates on a finished fl::Simulation: the same clients that trained the
// model answer the pruning protocol and participate in fine-tuning, so
// attackers get every chance the paper gives them.
#pragma once

#include <map>
#include <string>

#include "defense/adjust_weights.h"
#include "defense/finetune.h"
#include "defense/pruning.h"
#include "fl/run_state.h"
#include "fl/simulation.h"

namespace fedcleanse::defense {

enum class PruneMethod { kRAP, kMVP };
const char* prune_method_name(PruneMethod method);

struct DefenseConfig {
  PruneMethod method = PruneMethod::kMVP;
  // p announced to clients under MVP.
  double vote_prune_rate = 0.5;
  // Pruning stops when validation accuracy falls more than this below the
  // pre-defense baseline.
  double prune_acc_drop = 0.02;
  // If true, the server has no validation data and instead averages
  // client-reported accuracies (attackers inflate theirs).
  bool use_client_accuracy = false;
  bool enable_finetune = true;
  FineTuneConfig finetune;
  bool enable_adjust_weights = true;
  AdjustConfig adjust;  // adjust.min_accuracy is derived from aw_acc_drop
  // AW stops when accuracy falls more than this below the post-FT accuracy.
  double aw_acc_drop = 0.03;
  // Also adjust the fully connected head, not just the last conv layer (see
  // adjust_weights.h for the rationale; false reproduces the paper's literal
  // single-layer rule).
  bool aw_include_fc = true;
};

struct StageMetrics {
  double test_acc = 0.0;
  double attack_acc = 0.0;
};

struct DefenseReport {
  StageMetrics training;   // before any defense
  StageMetrics after_fp;   // after federated pruning
  StageMetrics after_ft;   // after fine-tuning (== after_fp if disabled)
  StageMetrics after_aw;   // after adjusting extreme weights (final)
  int neurons_pruned = 0;
  int weights_zeroed = 0;
  PruneOutcome prune;
  FineTuneOutcome finetune;
  AdjustOutcome adjust;
  // What the FP rank/vote exchange saw at the server (degraded-mode
  // bookkeeping; all-valid on a perfect wire).
  fl::ExchangeStats fp_exchange;
  // Phase name → seconds ("pruning", "fine-tuning", "adjust-weights").
  std::map<std::string, double> phase_seconds;
};

// Everything the pipeline has computed when a fine-tune-stage snapshot is
// taken: the pre-defense metrics, the whole pruning stage's outcome, and the
// fine-tune loop's keep-best state. Stored (encoded) in
// fl::RunSnapshot::stage_state so run_defense can resume after fine-tune
// round N without repeating the oracle baseline or the pruning protocol.
struct DefenseProgress {
  StageMetrics training;
  StageMetrics after_fp;
  double baseline = 0.0;  // pre-defense accuracy-oracle reading
  PruneOutcome prune;
  fl::ExchangeStats fp_exchange;
  double pruning_seconds = 0.0;
  FineTuneState finetune;
};

// DefenseProgress ↔ bytes. decode throws CheckpointError on malformed input
// (the enclosing snapshot's checksum normally catches corruption first).
std::vector<std::uint8_t> encode_defense_progress(const DefenseProgress& progress);
DefenseProgress decode_defense_progress(const std::vector<std::uint8_t>& bytes);

// Run the configured stages against sim's global model, in place.
//
// Unlike training rounds, the defense protocol cannot proceed on a
// below-quorum collect (a pruning decision from a sliver of clients is worse
// than no decision): throws QuorumError when, after all retries, fewer than
// ceil(min_collect_fraction · clients) valid reports arrived.
//
// With a `checkpoint` manager, each due fine-tune round writes a resumable
// snapshot (pruning and adjust-weights replay deterministically from the
// nearest earlier snapshot, so they need none of their own). `resume` is the
// snapshot the caller already restored into `sim`: a "finetune"-stage
// snapshot skips straight past the baseline oracle and pruning protocol;
// a "train"-stage one runs the full defense.
DefenseReport run_defense(fl::Simulation& sim, const DefenseConfig& config,
                          fl::CheckpointManager* checkpoint = nullptr,
                          const fl::RunSnapshot* resume = nullptr);

// The Adjusting-Extreme-Weights stage's policy, shared by run_defense and the
// benches' side branches: the accuracy floor is
// min(accuracy_eval(), baseline) − aw_acc_drop — anchored to the pre-defense
// baseline, so headroom fine-tuning bought may be spent — and the swept
// layers are default_adjust_layers (aw_include_fc) or the last conv layer
// alone. accuracy_eval is called once for the floor, then by the sweep.
AdjustOutcome adjust_weights_stage(nn::ModelSpec& model, const DefenseConfig& config,
                                   double baseline,
                                   const std::function<double()>& accuracy_eval);

// Just the federated-pruning stage (used by Table V / Fig 5): returns the
// pruning order chosen by the configured method without applying it.
// `stats`, when non-null, receives the exchange bookkeeping.
std::vector<int> federated_pruning_order(fl::Simulation& sim, const DefenseConfig& config,
                                         fl::ExchangeStats* stats = nullptr);

}  // namespace fedcleanse::defense
