// Integration tests of the FL simulation: client/server round protocol over
// the comm layer, attack wiring, determinism, selection.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "fl/metrics.h"
#include "defense/majority_vote.h"
#include "fl/simulation.h"
#include "test_util.h"

using namespace fedcleanse;
using namespace fedcleanse::fl;

TEST(Simulation, ConstructsClientsAndAttackers) {
  Simulation sim(testutil::tiny_sim_config());
  EXPECT_EQ(sim.n_clients(), 4);
  EXPECT_EQ(sim.resident_clients(), 4u);
  EXPECT_FALSE(sim.virtual_clients());
  EXPECT_EQ(sim.attacker_ids(), (std::vector<int>{0}));
  EXPECT_TRUE(sim.client(0).malicious());
  EXPECT_FALSE(sim.client(1).malicious());
}

TEST(Simulation, AttackerHoldsVictimLabel) {
  Simulation sim(testutil::tiny_sim_config());
  const auto& data = sim.client(0).local_data();
  EXPECT_FALSE(data.indices_of_label(9).empty());
}

TEST(Simulation, RoundRunsAndUpdatesModel) {
  Simulation sim(testutil::tiny_sim_config());
  auto before = sim.server().params();
  auto participants = sim.run_round(0);
  EXPECT_EQ(participants.size(), 4u);
  EXPECT_NE(sim.server().params(), before);
}

TEST(Simulation, TrafficIsCounted) {
  Simulation sim(testutil::tiny_sim_config());
  sim.run_round(0);
  // 4 downlink model broadcasts + 4 uplink updates, each ≈ num_params·4B.
  const std::size_t param_bytes = sim.server().model().net.num_params() * 4;
  EXPECT_GE(sim.network().total_bytes(), 8 * param_bytes);
}

TEST(Simulation, DeterministicBySeed) {
  auto cfg = testutil::tiny_sim_config(123);
  Simulation a(cfg), b(cfg);
  a.run(false);
  b.run(false);
  EXPECT_EQ(a.server().params(), b.server().params());
}

TEST(Simulation, DifferentSeedsDiverge) {
  Simulation a(testutil::tiny_sim_config(1)), b(testutil::tiny_sim_config(2));
  a.run(false);
  b.run(false);
  EXPECT_NE(a.server().params(), b.server().params());
}

TEST(Simulation, HistoryRecorded) {
  auto cfg = testutil::tiny_sim_config();
  cfg.rounds = 3;
  Simulation sim(cfg);
  sim.run(true);
  ASSERT_EQ(sim.history().size(), 3u);
  for (const auto& rec : sim.history()) {
    EXPECT_GE(rec.test_acc, 0.0);
    EXPECT_LE(rec.test_acc, 1.0);
  }
}

TEST(Simulation, RandomSelectionRespectsCount) {
  auto cfg = testutil::tiny_sim_config();
  cfg.n_clients = 8;
  cfg.clients_per_round = 3;
  Simulation sim(cfg);
  std::set<int> seen;
  for (int r = 0; r < 6; ++r) {
    auto participants = sim.run_round(static_cast<std::uint32_t>(r));
    EXPECT_EQ(participants.size(), 3u);
    std::set<int> unique(participants.begin(), participants.end());
    EXPECT_EQ(unique.size(), 3u);
    seen.insert(participants.begin(), participants.end());
  }
  EXPECT_GT(seen.size(), 3u);  // selection actually varies
}

TEST(Simulation, DbaSplitsPatternAcrossAttackers) {
  auto cfg = testutil::tiny_sim_config();
  cfg.n_clients = 6;
  cfg.n_attackers = 3;
  cfg.dba = true;
  cfg.attack.pattern = data::make_dba_global_pattern(20, 20);
  Simulation sim(cfg);
  std::size_t total_pixels = 0;
  for (int a : sim.attacker_ids()) {
    const auto* spec = sim.client(a).attack();
    ASSERT_NE(spec, nullptr);
    total_pixels += spec->pattern.pixels.size();
    EXPECT_LT(spec->pattern.pixels.size(), cfg.attack.pattern.pixels.size());
  }
  EXPECT_EQ(total_pixels, cfg.attack.pattern.pixels.size());
}

TEST(Simulation, BackdoorTestsetUsesFullPattern) {
  auto cfg = testutil::tiny_sim_config();
  Simulation sim(cfg);
  const auto& bd = sim.backdoor_testset();
  ASSERT_FALSE(bd.empty());
  for (std::size_t i = 0; i < bd.size(); ++i) EXPECT_EQ(bd.label(i), 1);
}

TEST(Simulation, AttackerConfigRequiresPattern) {
  auto cfg = testutil::tiny_sim_config();
  cfg.attack.pattern.pixels.clear();
  EXPECT_THROW(Simulation sim(cfg), Error);
}

// --- client behaviours ---------------------------------------------------------

TEST(Client, HonestUpdateIsLocalMinusGlobal) {
  auto cfg = testutil::tiny_sim_config();
  cfg.n_attackers = 0;
  Simulation sim(cfg);
  auto& client = sim.client(1);
  auto global = sim.server().params();
  auto update = client.compute_update(global);
  auto local = client.model().net.get_flat();
  ASSERT_EQ(update.size(), local.size());
  for (std::size_t i = 0; i < update.size(); i += 97) {
    EXPECT_NEAR(update[i], local[i] - global[i], 1e-5f);
  }
}

TEST(Client, MaliciousUpdateIsAmplified) {
  Simulation sim(testutil::tiny_sim_config());
  auto& attacker = sim.client(0);
  const double gamma = attacker.attack()->gamma;
  auto global = sim.server().params();
  auto update = attacker.compute_update(global);
  auto local = attacker.model().net.get_flat();
  for (std::size_t i = 0; i < update.size(); i += 131) {
    EXPECT_NEAR(update[i], gamma * (local[i] - global[i]), 1e-4f);
  }
}

TEST(Client, RankReportIsValidPermutation) {
  Simulation sim(testutil::tiny_sim_config());
  auto global = sim.server().params();
  const int units =
      sim.server().model().net.layer(sim.server().model().last_conv_index).prunable_units();
  for (int c : sim.all_client_ids()) {
    auto report = sim.client(c).rank_report(global);
    ASSERT_EQ(static_cast<int>(report.size()), units);
    std::set<std::uint32_t> unique(report.begin(), report.end());
    EXPECT_EQ(unique.size(), report.size());
    EXPECT_EQ(*unique.begin(), 1u);
    EXPECT_EQ(*unique.rbegin(), static_cast<std::uint32_t>(units));
  }
}

TEST(Client, VoteReportHonorsQuota) {
  Simulation sim(testutil::tiny_sim_config());
  auto global = sim.server().params();
  const int units =
      sim.server().model().net.layer(sim.server().model().last_conv_index).prunable_units();
  for (double rate : {0.25, 0.5, 0.75}) {
    auto votes = sim.client(1).vote_report(global, rate);
    ASSERT_EQ(static_cast<int>(votes.size()), units);
    std::size_t cast = 0;
    for (auto v : votes) cast += v;
    EXPECT_EQ(cast, defense::expected_votes(units, rate));
  }
}

TEST(Client, AccuracyReportInRange) {
  Simulation sim(testutil::tiny_sim_config());
  auto global = sim.server().params();
  for (int c : sim.all_client_ids()) {
    const double acc = sim.client(c).report_accuracy(global);
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
  }
}

TEST(Client, MasksPropagateThroughMessages) {
  Simulation sim(testutil::tiny_sim_config());
  auto& server = sim.server();
  auto& model = server.model();
  model.net.layer(model.last_conv_index).set_unit_active(2, false);

  const auto clients = sim.all_client_ids();
  server.broadcast_masks(clients, 0);
  for (int c : clients) sim.client(c).handle_pending(sim.network());
  for (int c : clients) {
    EXPECT_FALSE(sim.client(c).model().net.layer(model.last_conv_index).unit_active(2));
  }
}

// A server fan-out stamps one message and copies it to every recipient:
// each copy carries the same checksum, and it verifies against the payload.
TEST(Server, FanOutCopiesCarryOneValidChecksum) {
  Simulation sim(testutil::tiny_sim_config());
  auto& server = sim.server();
  const auto clients = sim.all_client_ids();
  server.broadcast_model(clients, 3);
  server.request_votes(clients, 0.5, 4);
  for (const auto& [type, round] : {std::pair{comm::MessageType::kModelBroadcast, 3u},
                                   std::pair{comm::MessageType::kVoteRequest, 4u}}) {
    std::optional<std::uint64_t> first;
    for (int c : clients) {
      auto msg = sim.network().client_try_recv(c);
      ASSERT_TRUE(msg.has_value()) << "client " << c;
      EXPECT_EQ(msg->type, type);
      EXPECT_EQ(msg->round, round);
      EXPECT_TRUE(msg->checksum_ok()) << "client " << c;
      EXPECT_EQ(msg->checksum, comm::payload_checksum(msg->payload));
      if (!first) first = msg->checksum;
      EXPECT_EQ(msg->checksum, *first) << "client " << c;
    }
  }
}

TEST(ServerAggregators, RobustRuleCanBeConfigured) {
  auto cfg = testutil::tiny_sim_config();
  cfg.server.aggregator = AggregatorKind::kMedian;
  Simulation sim(cfg);
  EXPECT_NO_THROW(sim.run_round(0));
}

TEST(Simulation, QuantizedUpdateCodecShrinksUplink) {
  auto cfg = testutil::tiny_sim_config(31);
  Simulation f32(cfg);
  f32.run(true);
  cfg.train.update_codec = comm::UpdateCodec::kInt8;
  Simulation q8(cfg);
  q8.run(true);

  ASSERT_EQ(f32.history().size(), q8.history().size());
  std::uint64_t bytes_f32 = 0, bytes_q8 = 0;
  for (const auto& rec : f32.history()) bytes_f32 += rec.wire_bytes;
  for (const auto& rec : q8.history()) bytes_q8 += rec.wire_bytes;
  ASSERT_GT(bytes_q8, 0u);
  // int8 payloads are 1 byte/param vs 4 (plus fixed scale+header overhead).
  EXPECT_GE(static_cast<double>(bytes_f32) / static_cast<double>(bytes_q8), 3.5);

  // Per-round quantization error is half a step per parameter; after a short
  // run the two models must still agree on most test samples.
  EXPECT_NEAR(q8.history().back().test_acc, f32.history().back().test_acc, 0.25);
}

TEST(Simulation, F32CodecIsDefaultAndDeterministic) {
  // The explicit f32 codec is the default; spelling it out must not change a
  // single byte of the run.
  auto cfg = testutil::tiny_sim_config(32);
  Simulation implicit(cfg);
  implicit.run(false);
  cfg.train.update_codec = comm::UpdateCodec::kF32;
  Simulation explicit_f32(cfg);
  explicit_f32.run(false);
  EXPECT_EQ(implicit.server().params(), explicit_f32.server().params());
}

TEST(Simulation, WireBytesRecordedPerRound) {
  Simulation sim(testutil::tiny_sim_config(33));
  sim.run(true);
  const std::size_t param_bytes = sim.server().model().net.num_params() * 4;
  for (const auto& rec : sim.history()) {
    // Each round uplinks one ≈4B/param update per participating client.
    EXPECT_GE(rec.wire_bytes, param_bytes);
  }
}
