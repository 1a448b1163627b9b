// Crash-resume integration: a run snapshotted at round N and restored into a
// fresh Simulation must finish bit-identical to the uninterrupted run —
// model bytes, round history, reputation scores — at any thread count, on a
// perfect or lossy wire, and through the defense pipeline (DESIGN.md §13).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/serialize.h"
#include "defense/pipeline.h"
#include "fl/run_state.h"
#include "fl/simulation.h"
#include "nn/checkpoint.h"
#include "test_util.h"

namespace fs = std::filesystem;
using fedcleanse::fl::CheckpointManager;
using fedcleanse::fl::RunSnapshot;
using fedcleanse::fl::Simulation;
using fedcleanse::testutil::tiny_sim_config;

namespace {

std::string fresh_dir(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fedcleanse_resume_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<std::uint8_t> model_bytes(Simulation& sim) {
  return fedcleanse::nn::save_model(sim.server().model());
}

// Run `cfg` uninterrupted; also run it with a mid-run snapshot restored into
// a brand-new Simulation, and require the two endings to match exactly.
void check_train_resume_identical(fedcleanse::fl::SimulationConfig cfg,
                                  int snapshot_every, int resume_threads) {
  cfg.rounds = 6;

  Simulation straight(cfg);
  straight.run();

  // The "crashed" run: same config, snapshots every `snapshot_every` rounds.
  // The seed keeps the directory unique per caller: tests run as parallel
  // ctest processes, and two sharing a directory race remove_all against
  // load_snapshot_file.
  const std::string dir = fresh_dir("train_s" + std::to_string(cfg.seed) + "_e" +
                                    std::to_string(snapshot_every) + "_t" +
                                    std::to_string(resume_threads));
  Simulation crashed(cfg);
  CheckpointManager manager(dir, snapshot_every, /*keep=*/16);
  crashed.set_checkpoint_manager(&manager);
  crashed.run();
  ASSERT_EQ(model_bytes(crashed), model_bytes(straight));

  // Resume from the EARLIEST generation — the most replay, the strongest
  // check — into a fresh Simulation with a possibly different thread count.
  const RunSnapshot snap =
      fedcleanse::fl::load_snapshot_file(dir + "/snapshot-000000.fcrs");
  ASSERT_EQ(snap.stage, fedcleanse::fl::run_stage::kTrain);
  ASSERT_LT(snap.next_round, cfg.rounds);

  cfg.n_threads = resume_threads;
  Simulation resumed(cfg);
  fedcleanse::fl::resume_simulation(resumed, snap);
  EXPECT_EQ(resumed.completed_rounds(), snap.next_round);
  resumed.run();

  EXPECT_EQ(model_bytes(resumed), model_bytes(straight));
  EXPECT_EQ(resumed.history(), straight.history());
  EXPECT_EQ(resumed.network().total_bytes(), straight.network().total_bytes());
}

}  // namespace

TEST(Resume, TrainingBitIdenticalPerfectWire) {
  auto cfg = tiny_sim_config(21);
  cfg.n_threads = 1;
  check_train_resume_identical(cfg, /*snapshot_every=*/2, /*resume_threads=*/1);
}

TEST(Resume, TrainingBitIdenticalAcrossThreadCounts) {
  auto cfg = tiny_sim_config(22);
  cfg.n_threads = 4;
  check_train_resume_identical(cfg, /*snapshot_every=*/3, /*resume_threads=*/1);
}

TEST(Resume, TrainingBitIdenticalWithReputation) {
  auto cfg = tiny_sim_config(23);
  cfg.server.use_reputation = true;
  check_train_resume_identical(cfg, /*snapshot_every=*/2, /*resume_threads=*/2);
}

TEST(Resume, TrainingBitIdenticalOnLossyWire) {
  auto cfg = tiny_sim_config(24);
  cfg.fault.dropout_rate = 0.08;
  cfg.fault.corrupt_rate = 0.05;
  cfg.fault.duplicate_rate = 0.05;
  cfg.fault.delay_rate = 0.05;
  cfg.fault.recv_timeout_ms = 5;
  check_train_resume_identical(cfg, /*snapshot_every=*/2, /*resume_threads=*/2);
}

TEST(Resume, ClientSelectionStreamSurvivesResume) {
  // Per-round client sampling draws from the selection RNG; a resume must
  // pick exactly the clients the uninterrupted run would have picked.
  auto cfg = tiny_sim_config(25);
  cfg.clients_per_round = 2;
  check_train_resume_identical(cfg, /*snapshot_every=*/2, /*resume_threads=*/1);
}

TEST(Resume, ReputationScoresRestoredExactly) {
  auto cfg = tiny_sim_config(26);
  cfg.server.use_reputation = true;
  cfg.rounds = 5;

  Simulation straight(cfg);
  straight.run();

  const std::string dir = fresh_dir("rep");
  Simulation crashed(cfg);
  CheckpointManager manager(dir, 2, /*keep=*/8);
  crashed.set_checkpoint_manager(&manager);
  crashed.run();

  const RunSnapshot snap =
      fedcleanse::fl::load_snapshot_file(dir + "/snapshot-000000.fcrs");
  Simulation resumed(cfg);
  fedcleanse::fl::resume_simulation(resumed, snap);
  resumed.run();

  const auto* a = straight.server().reputation();
  const auto* b = resumed.server().reputation();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->reputations(), b->reputations());
}

TEST(Resume, DefensePipelineBitIdenticalFromFinetuneSnapshot) {
  // Kill during fine-tuning: resume from the first fine-tune-stage snapshot
  // and require the defense's final model to match the uninterrupted one.
  auto cfg = tiny_sim_config(27);
  cfg.rounds = 3;
  cfg.n_threads = 2;

  fedcleanse::defense::DefenseConfig dcfg;
  dcfg.method = fedcleanse::defense::PruneMethod::kMVP;
  dcfg.finetune.max_rounds = 4;

  Simulation straight(cfg);
  straight.run();
  const auto report_straight = fedcleanse::defense::run_defense(straight, dcfg);

  const std::string dir = fresh_dir("defense");
  Simulation crashed(cfg);
  CheckpointManager manager(dir, /*every=*/1, /*keep=*/32);
  crashed.set_checkpoint_manager(&manager);
  crashed.run();
  const auto report_crashed =
      fedcleanse::defense::run_defense(crashed, dcfg, &manager, nullptr);
  ASSERT_EQ(model_bytes(crashed), model_bytes(straight));
  ASSERT_GT(report_crashed.finetune.rounds_run, 1)
      << "config produced too few fine-tune rounds to test a mid-stage resume";

  // Pick the first finetune-stage generation (training wrote the earlier
  // ones) and replay the rest of the defense from it.
  RunSnapshot snap;
  bool found = false;
  for (std::uint64_t gen = 0; !found; ++gen) {
    char name[64];
    std::snprintf(name, sizeof(name), "/snapshot-%06llu.fcrs",
                  static_cast<unsigned long long>(gen));
    const std::string path = dir + name;
    ASSERT_TRUE(fs::exists(path)) << "ran out of generations before a finetune one";
    snap = fedcleanse::fl::load_snapshot_file(path);
    found = snap.stage == fedcleanse::fl::run_stage::kFinetune;
  }
  ASSERT_LT(snap.next_round, report_crashed.finetune.rounds_run)
      << "first finetune snapshot is already the last round; resume would be trivial";

  Simulation resumed(cfg);
  fedcleanse::fl::resume_simulation(resumed, snap);
  resumed.run();  // training already complete in the snapshot: no-op
  const auto report_resumed =
      fedcleanse::defense::run_defense(resumed, dcfg, nullptr, &snap);

  EXPECT_EQ(model_bytes(resumed), model_bytes(straight));
  EXPECT_EQ(report_resumed.after_aw.test_acc, report_straight.after_aw.test_acc);
  EXPECT_EQ(report_resumed.after_aw.attack_acc, report_straight.after_aw.attack_acc);
  EXPECT_EQ(report_resumed.weights_zeroed, report_straight.weights_zeroed);
  EXPECT_EQ(report_resumed.neurons_pruned, report_straight.neurons_pruned);
  EXPECT_EQ(report_resumed.finetune.history, report_straight.finetune.history);
}

TEST(Resume, RestoreIntoMismatchedConfigThrows) {
  auto cfg = tiny_sim_config(28);
  cfg.rounds = 2;
  Simulation sim(cfg);
  sim.run();
  const RunSnapshot snap =
      fedcleanse::fl::make_run_snapshot(sim, fedcleanse::fl::run_stage::kTrain, 2);

  auto other_cfg = cfg;
  other_cfg.n_clients = cfg.n_clients + 2;
  Simulation other(other_cfg);
  EXPECT_THROW(fedcleanse::fl::resume_simulation(other, snap),
               fedcleanse::CheckpointError);
}

TEST(Resume, RepeatedResumesFromSameSnapshotAgree) {
  // On a lossy wire the fault RNG position is part of the run: every resume
  // from the same mid-run snapshot must replay identically, draw for draw.
  auto cfg = tiny_sim_config(29);
  cfg.fault.dropout_rate = 0.15;
  cfg.fault.recv_timeout_ms = 5;
  cfg.rounds = 4;

  const std::string dir = fresh_dir("repeat");
  Simulation source(cfg);
  CheckpointManager manager(dir, 2, /*keep=*/8);
  source.set_checkpoint_manager(&manager);
  source.run();
  const RunSnapshot snap =
      fedcleanse::fl::load_snapshot_file(dir + "/snapshot-000000.fcrs");
  ASSERT_LT(snap.next_round, cfg.rounds);

  auto finish = [&]() {
    Simulation sim(cfg);
    fedcleanse::fl::resume_simulation(sim, snap);
    sim.run();
    return model_bytes(sim);
  };
  EXPECT_EQ(finish(), finish());
}

// --- distributed-failover snapshots (DESIGN.md §18) -------------------------

TEST(Resume, ServerScopeSnapshotRestoresServerSideState) {
  auto cfg = tiny_sim_config(33);
  cfg.rounds = 3;
  Simulation ran(cfg);
  ran.run();

  RunSnapshot snap =
      fedcleanse::fl::make_server_snapshot(ran, ran.completed_rounds(), /*epoch=*/0);
  EXPECT_EQ(snap.stage, fedcleanse::fl::run_stage::kServerTrain);
  EXPECT_EQ(snap.epoch, 0u);

  // Through the on-disk codec, as a real failover would go.
  snap = fedcleanse::fl::decode_run_snapshot(fedcleanse::fl::encode_run_snapshot(snap));

  Simulation fresh(cfg);
  fedcleanse::fl::resume_server_simulation(fresh, snap, /*new_epoch=*/1);
  EXPECT_EQ(fresh.completed_rounds(), 3);
  EXPECT_EQ(fresh.run_epoch(), 1u);
  EXPECT_EQ(fresh.history(), ran.history());
  EXPECT_EQ(model_bytes(fresh), model_bytes(ran));
}

TEST(Resume, ServerScopeSnapshotRejectsWrongSeedOrScope) {
  auto cfg = tiny_sim_config(34);
  cfg.rounds = 2;
  Simulation ran(cfg);
  ran.run();
  const RunSnapshot snap =
      fedcleanse::fl::make_server_snapshot(ran, ran.completed_rounds(), /*epoch=*/0);

  // Same architecture, different run seed: the stage_state key must refuse.
  auto other_cfg = cfg;
  other_cfg.seed += 1;
  Simulation other(other_cfg);
  EXPECT_THROW(fedcleanse::fl::resume_server_simulation(other, snap, 1),
               fedcleanse::CheckpointError);

  // A full-run snapshot must never cross-resume through the server-scope
  // path (and vice versa): the scopes capture different state.
  const RunSnapshot full =
      fedcleanse::fl::make_run_snapshot(ran, fedcleanse::fl::run_stage::kTrain, 2);
  Simulation same(cfg);
  EXPECT_THROW(fedcleanse::fl::resume_server_simulation(same, full, 1),
               fedcleanse::CheckpointError);
}

TEST(Resume, ClientSnapshotRoundTripIsKeyedBySeedAndId) {
  auto cfg = tiny_sim_config(44);
  cfg.rounds = 2;
  Simulation ran(cfg);
  ran.run();

  RunSnapshot snap = fedcleanse::fl::make_client_snapshot(
      ran.client(1), cfg.seed, /*client_id=*/1, /*next_round=*/2, /*epoch=*/5);
  EXPECT_EQ(snap.stage, fedcleanse::fl::run_stage::kClientTrain);
  EXPECT_EQ(snap.epoch, 5u);
  snap = fedcleanse::fl::decode_run_snapshot(fedcleanse::fl::encode_run_snapshot(snap));

  Simulation fresh(cfg);
  fedcleanse::fl::restore_client_snapshot(fresh.client(1), snap, cfg.seed, 1);
  fedcleanse::common::ByteWriter a;
  fedcleanse::common::ByteWriter b;
  ran.client(1).save_state(a);
  fresh.client(1).save_state(b);
  EXPECT_EQ(a.bytes(), b.bytes());  // the restored replica is byte-exact

  // Restoring under the wrong id or the wrong run seed silently producing a
  // divergent replica is the §18 nightmare scenario — it must throw instead.
  EXPECT_THROW(
      fedcleanse::fl::restore_client_snapshot(fresh.client(0), snap, cfg.seed, 0),
      fedcleanse::CheckpointError);
  EXPECT_THROW(
      fedcleanse::fl::restore_client_snapshot(fresh.client(1), snap, cfg.seed + 1, 1),
      fedcleanse::CheckpointError);
}
