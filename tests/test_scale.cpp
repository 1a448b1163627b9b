// Million-client scale machinery: streaming aggregation equivalence against
// the materialized reference path, virtual-client determinism and residency
// bounds, and the peak-RSS probe (DESIGN.md §14).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/serialize.h"
#include "common/sysinfo.h"
#include "defense/majority_vote.h"
#include "defense/pipeline.h"
#include "defense/rank_aggregation.h"
#include "fl/aggregation.h"
#include "fl/protocol.h"
#include "fl/simulation.h"
#include "fl/streaming.h"
#include "test_util.h"

using namespace fedcleanse;
using namespace fedcleanse::fl;

namespace {

std::vector<std::vector<float>> random_updates(std::size_t n, std::size_t dim,
                                               std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::vector<float>> updates(n, std::vector<float>(dim));
  for (auto& u : updates) {
    for (auto& v : u) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return updates;
}

SimulationConfig virtual_config(std::uint64_t seed = 51) {
  auto cfg = testutil::tiny_sim_config(seed);
  cfg.n_clients = 64;
  cfg.clients_per_round = 8;
  cfg.samples_per_client = 4;
  cfg.residency = ClientResidency::kVirtual;
  cfg.defense_clients = 8;
  cfg.rounds = 3;
  return cfg;
}

// Buffered reference for the streaming equivalence tests: one training round
// of `sim` driven by hand through the materialize-everything exchange and the
// server's classic apply_aggregate, which fl::StreamingAggregator must
// reproduce bit for bit. The configs used here are unsampled and
// materialized, so every client participates and no selection is drawn.
ExchangeStats buffered_round(Simulation& sim, std::uint32_t round) {
  auto& server = sim.server();
  auto ex = exchange_with_retries<std::vector<float>>(
      sim, sim.all_client_ids(),
      [&](const std::vector<int>& ids) { server.broadcast_model(ids, round); },
      [&](const std::vector<int>& ids, CollectStats* cs) {
        return server.collect_updates(ids, round, cs);
      },
      "training round");
  if (ex.stats.quorum_met) server.apply_aggregate(ex.clients, ex.values);
  return ex.stats;
}

// Runs `cfg` through Simulation::run_round and through buffered_round side by
// side, requiring identical server params, exchange stats and wire bytes
// (total and uplink) after every round, and identical reputation scores at
// the end.
void expect_same_run(SimulationConfig cfg, int n_threads) {
  cfg.n_threads = n_threads;
  Simulation streaming(cfg);
  Simulation buffered(cfg);
  for (int r = 0; r < cfg.rounds; ++r) {
    const auto round = static_cast<std::uint32_t>(r);
    streaming.run_round(round);
    const ExchangeStats stats = buffered_round(buffered, round);
    EXPECT_EQ(streaming.server().params(), buffered.server().params())
        << "threads=" << n_threads << " round=" << r;
    EXPECT_EQ(streaming.last_round_stats(), stats)
        << "threads=" << n_threads << " round=" << r;
    EXPECT_EQ(streaming.network().total_bytes(), buffered.network().total_bytes())
        << "threads=" << n_threads << " round=" << r;
    EXPECT_EQ(streaming.network().uplink_bytes(), buffered.network().uplink_bytes())
        << "threads=" << n_threads << " round=" << r;
  }
  const auto* streaming_rep = streaming.server().reputation();
  const auto* buffered_rep = buffered.server().reputation();
  ASSERT_EQ(streaming_rep != nullptr, cfg.server.use_reputation);
  ASSERT_EQ(buffered_rep != nullptr, cfg.server.use_reputation);
  if (streaming_rep != nullptr) {
    EXPECT_EQ(streaming_rep->reputations(), buffered_rep->reputations());
  }
}

}  // namespace

// --- streaming mean vs materialized mean ------------------------------------

TEST(StreamingMean, MatchesMaterializedMeanInOrder) {
  const auto updates = random_updates(7, 129, 3);
  StreamingMeanAccumulator acc(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) acc.accept(i, updates[i]);
  EXPECT_EQ(acc.buffered(), 0u);  // in-order arrivals never buffer
  EXPECT_EQ(acc.finalize(), mean_update(updates));
}

TEST(StreamingMean, MatchesMaterializedMeanOutOfOrderWithGaps) {
  const auto updates = random_updates(5, 64, 4);
  // Positions 1 and 4 never report; survivors arrive out of order.
  StreamingMeanAccumulator acc(updates.size());
  acc.accept(3, updates[3]);
  acc.accept(0, updates[0]);
  acc.accept(2, updates[2]);
  // The materialized exchange compacts survivors in position order.
  const std::vector<std::vector<float>> compacted{updates[0], updates[2], updates[3]};
  EXPECT_EQ(acc.finalize(), mean_update(compacted));
}

TEST(StreamingMean, RejectsDuplicateAndOutOfRangePositions) {
  StreamingMeanAccumulator acc(3);
  acc.accept(1, {1.0f});
  EXPECT_THROW(acc.accept(1, {2.0f}), Error);
  EXPECT_THROW(acc.accept(3, {2.0f}), Error);
}

TEST(StreamingAggregator, RetainCompactsInPositionOrder) {
  const auto updates = random_updates(4, 16, 5);
  StreamingAggregator agg(StreamingAggregator::Mode::kRetain, updates.size());
  agg.accept(2, updates[2]);
  agg.accept(0, updates[0]);
  agg.accept(3, updates[3]);
  const std::vector<std::vector<float>> expected{updates[0], updates[2], updates[3]};
  EXPECT_EQ(agg.finalize_retained(), expected);
}

TEST(StreamingAggregator, ModeSelection) {
  EXPECT_EQ(StreamingAggregator::mode_for(AggregatorKind::kFedAvg, false),
            StreamingAggregator::Mode::kFold);
  EXPECT_EQ(StreamingAggregator::mode_for(AggregatorKind::kFedAvg, true),
            StreamingAggregator::Mode::kRetain);
  EXPECT_EQ(StreamingAggregator::mode_for(AggregatorKind::kMedian, false),
            StreamingAggregator::Mode::kRetain);
}

// --- streaming rank/vote histograms vs materialized aggregation --------------

TEST(StreamingRanks, MatchesMaterializedAggregation) {
  const int units = 6;
  std::vector<std::vector<std::uint32_t>> reports{
      {1, 2, 3, 4, 5, 6},
      {6, 5, 4, 3, 2, 1},
      {2, 1, 4, 3, 6, 5},
      {1, 1, 1, 1, 1, 1},  // invalid: not a permutation
      {1, 2, 3},           // invalid: wrong width
  };
  defense::StreamingRankAggregator agg(units);
  for (const auto& r : reports) agg.accept(r);
  EXPECT_EQ(agg.valid(), 3u);
  EXPECT_EQ(agg.mean_ranks(), defense::rap_aggregate(reports, units));
  EXPECT_EQ(agg.pruning_order(), defense::rap_pruning_order(reports, units));
}

TEST(StreamingVotes, MatchesMaterializedAggregation) {
  const int units = 6;
  const double rate = 0.5;
  std::vector<std::vector<std::uint8_t>> ballots{
      {1, 1, 1, 0, 0, 0},
      {0, 1, 1, 1, 0, 0},
      {1, 1, 1, 1, 0, 0},  // invalid: over quota
      {1, 0, 2, 0, 1, 0},  // invalid: not 0/1
      {0, 0, 0, 1, 1, 1},
  };
  defense::StreamingVoteAggregator agg(units, rate);
  for (const auto& b : ballots) agg.accept(b);
  EXPECT_EQ(agg.valid(), 3u);
  EXPECT_EQ(agg.shares(), defense::mvp_aggregate(ballots, units, rate));
  EXPECT_EQ(agg.pruning_order(), defense::mvp_pruning_order(ballots, units, rate));
}

TEST(StreamingRanks, ThrowsWithoutValidReports) {
  defense::StreamingRankAggregator ranks(4);
  EXPECT_THROW(ranks.mean_ranks(), ConfigError);
  defense::StreamingVoteAggregator votes(4, 0.5);
  EXPECT_THROW(votes.shares(), ConfigError);
}

// --- whole-run equivalence: streaming vs buffered reference -------------------

TEST(StreamingEquivalence, FedAvgMatchesBufferedAcrossThreadCounts) {
  auto cfg = testutil::tiny_sim_config(61);
  cfg.rounds = 3;
  for (int threads : {1, 2, 4}) expect_same_run(cfg, threads);
}

TEST(StreamingEquivalence, HoldsOnLossyWire) {
  auto cfg = testutil::tiny_sim_config(62);
  cfg.rounds = 3;
  cfg.fault.dropout_rate = 0.15;
  cfg.fault.delay_rate = 0.10;
  cfg.fault.corrupt_rate = 0.05;
  for (int threads : {1, 4}) expect_same_run(cfg, threads);
}

TEST(StreamingEquivalence, ReputationWeightingMatches) {
  auto cfg = testutil::tiny_sim_config(63);
  cfg.rounds = 3;
  cfg.server.use_reputation = true;
  expect_same_run(cfg, 0);
}

TEST(StreamingEquivalence, RobustAggregatorMatches) {
  auto cfg = testutil::tiny_sim_config(64);
  cfg.rounds = 2;
  cfg.server.aggregator = AggregatorKind::kMedian;
  expect_same_run(cfg, 2);
}

TEST(StreamingEquivalence, FederatedPruneSetMatchesMaterializedReference) {
  // Same seed, both pruning methods: the streamed FP scan must select the
  // same prune set the buffered rap/mvp path would have.
  for (auto method : {defense::PruneMethod::kRAP, defense::PruneMethod::kMVP}) {
    auto cfg = testutil::tiny_sim_config(65);
    cfg.rounds = 2;
    Simulation streaming(cfg);
    Simulation reference(cfg);
    streaming.run(false);
    reference.run(false);
    ASSERT_EQ(streaming.server().params(), reference.server().params());

    defense::DefenseConfig dcfg;
    dcfg.method = method;
    auto order = defense::federated_pruning_order(streaming, dcfg);

    // Materialized reference: collect every report by hand, aggregate with
    // the classic buffered functions.
    auto& server = reference.server();
    const auto clients = reference.all_client_ids();
    const int units =
        server.model().net.layer(server.model().last_conv_index).prunable_units();
    std::vector<int> expected;
    if (method == defense::PruneMethod::kRAP) {
      std::vector<std::vector<std::uint32_t>> reports;
      server.request_ranks(clients, 2000);
      reference.dispatch_clients(clients);
      for (auto& reply : server.collect_ranks(clients, 2000)) {
        ASSERT_TRUE(reply.has_value());
        reports.push_back(std::move(*reply));
      }
      expected = defense::rap_pruning_order(reports, units);
    } else {
      std::vector<std::vector<std::uint8_t>> ballots;
      server.request_votes(clients, dcfg.vote_prune_rate, 2001);
      reference.dispatch_clients(clients);
      for (auto& reply : server.collect_votes(clients, 2001)) {
        ASSERT_TRUE(reply.has_value());
        ballots.push_back(std::move(*reply));
      }
      expected = defense::mvp_pruning_order(ballots, units, dcfg.vote_prune_rate);
    }
    EXPECT_EQ(order, expected);
  }
}

TEST(StreamingEquivalence, SurvivesMidRunCheckpointResume) {
  auto cfg = testutil::tiny_sim_config(66);
  cfg.rounds = 4;

  Simulation straight(cfg);
  straight.run(false);

  Simulation first_half(cfg);
  first_half.run_round(0);
  first_half.run_round(1);
  common::ByteWriter w;
  first_half.save_state(w);
  const auto bytes = w.take();

  Simulation resumed(cfg);
  common::ByteReader r(bytes);
  resumed.restore_state(r);
  resumed.run_round(2);
  resumed.run_round(3);
  EXPECT_EQ(resumed.server().params(), straight.server().params());
}

// --- virtual clients ---------------------------------------------------------

TEST(VirtualClients, AutoStaysMaterializedForSmallPopulations) {
  Simulation sim(testutil::tiny_sim_config(71));
  EXPECT_FALSE(sim.virtual_clients());
  EXPECT_EQ(sim.resident_clients(), 4u);
}

TEST(VirtualClients, RunIsDeterministicAndResidencyBounded) {
  auto cfg = virtual_config(72);
  Simulation a(cfg);
  Simulation b(cfg);
  EXPECT_TRUE(a.virtual_clients());
  EXPECT_EQ(a.n_clients(), 64);
  a.run(true);
  b.run(true);
  EXPECT_EQ(a.server().params(), b.server().params());
  EXPECT_EQ(a.history(), b.history());
  // Default capacity: max(2·clients_per_round, defense_clients) = 16 ≪ 64.
  EXPECT_LE(a.resident_clients(), 16u);
  EXPECT_GT(a.resident_clients(), 0u);
}

TEST(VirtualClients, AttackerRoleAndVictimDataAreDerived) {
  auto cfg = virtual_config(73);
  Simulation sim(cfg);
  EXPECT_TRUE(sim.client(0).malicious());
  EXPECT_FALSE(sim.client(1).malicious());
  EXPECT_FALSE(sim.client(0).local_data().indices_of_label(9).empty());
}

TEST(VirtualClients, StateSurvivesEviction) {
  auto cfg = virtual_config(74);
  Simulation sim(cfg);
  auto& probe = sim.client(50);
  const std::size_t data_size = probe.local_data().size();
  const int first_label = probe.local_data().label(0);
  probe.set_lr(0.0123);

  // Fill the slab past capacity with other clients; 50 gets evicted.
  std::vector<int> others;
  for (int c = 0; c < 20; ++c) others.push_back(c);
  sim.ensure_resident(others);
  EXPECT_LE(sim.resident_clients(), 21u);

  // Re-materialized client 50: same derived dataset, ledger-restored lr.
  auto& again = sim.client(50);
  EXPECT_EQ(again.local_data().size(), data_size);
  EXPECT_EQ(again.local_data().label(0), first_label);
  EXPECT_NEAR(again.lr(), 0.0123, 1e-15);
}

TEST(VirtualClients, CommitteeIsStridedSortedAndSized) {
  auto cfg = virtual_config(75);
  Simulation sim(cfg);
  const auto committee = sim.protocol_client_ids();
  ASSERT_EQ(committee.size(), 8u);
  EXPECT_TRUE(std::is_sorted(committee.begin(), committee.end()));
  EXPECT_EQ(std::set<int>(committee.begin(), committee.end()).size(), committee.size());
  EXPECT_EQ(committee.front(), 0);
  EXPECT_LT(committee.back(), 64);
}

TEST(VirtualClients, ResumeIsBitIdentical) {
  auto cfg = virtual_config(76);
  Simulation straight(cfg);
  straight.run(false);

  Simulation first_half(cfg);
  first_half.run_round(0);
  first_half.run_round(1);
  common::ByteWriter w;
  first_half.save_state(w);
  const auto bytes = w.take();

  Simulation resumed(cfg);
  common::ByteReader r(bytes);
  resumed.restore_state(r);
  resumed.run_round(2);
  EXPECT_EQ(resumed.server().params(), straight.server().params());
}

TEST(VirtualClients, ResidencyMismatchOnRestoreThrows) {
  auto cfg = virtual_config(77);
  Simulation sim(cfg);
  sim.run_round(0);
  common::ByteWriter w;
  sim.save_state(w);
  const auto bytes = w.take();

  auto materialized_cfg = cfg;
  materialized_cfg.residency = ClientResidency::kMaterialized;
  Simulation other(materialized_cfg);
  common::ByteReader r(bytes);
  EXPECT_THROW(other.restore_state(r), CheckpointError);
}

TEST(VirtualClients, RequiresSampledRounds) {
  auto cfg = virtual_config(78);
  cfg.clients_per_round = 0;
  EXPECT_THROW(Simulation sim(cfg), Error);
}

TEST(VirtualClients, DefensePipelineRunsOnCommittee) {
  auto cfg = virtual_config(79);
  Simulation sim(cfg);
  sim.run(false);
  defense::DefenseConfig dcfg;
  dcfg.finetune.max_rounds = 1;
  auto report = defense::run_defense(sim, dcfg);
  EXPECT_GE(report.neurons_pruned, 0);
  EXPECT_GE(report.after_aw.test_acc, 0.0);
  // The defense only ever touched the committee-bounded slab.
  EXPECT_LE(sim.resident_clients(), 16u);
}

// --- peak RSS ----------------------------------------------------------------

TEST(PeakRss, ProbeReportsAndIsMonotone) {
  const std::size_t before = common::peak_rss_bytes();
  EXPECT_GT(before, 0u);
  {
    std::vector<char> ballast(32u << 20, 1);
    volatile char sink = ballast[ballast.size() / 2];
    (void)sink;
  }
  const std::size_t after = common::peak_rss_bytes();
  EXPECT_GE(after, before);
  EXPECT_GT(common::current_rss_bytes(), 0u);
}
