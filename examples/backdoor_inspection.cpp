// Backdoor anatomy inspection.
//
// Trains a backdoored federated model, then prints, for every channel of
// the pruning layer (last conv):
//   - mean activation on clean test data            (what FP ranks by)
//   - mean activation on triggered victim images    (the backdoor signal)
//   - max |w| of the channel's weights              (what AW clips)
//   - ASR and TA when that channel alone is pruned  (ground-truth effect)
//
// This is the view a researcher uses to verify that the backdoor hides in
// dormant neurons and/or extreme weights — the two assumptions behind the
// paper's defense.
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "fl/metrics.h"
#include "fl/simulation.h"
#include "nn/activation_stats.h"
#include "nn/conv2d.h"

using namespace fedcleanse;

namespace {

std::vector<double> channel_means(nn::ModelSpec& model, const data::Dataset& ds) {
  nn::ChannelMeanAccumulator acc;
  tensor::Tensor tapped;
  std::vector<std::size_t> idx;
  for (std::size_t start = 0; start < ds.size(); start += 64) {
    idx.clear();
    for (std::size_t i = start; i < std::min(ds.size(), start + 64); ++i) idx.push_back(i);
    auto batch = ds.make_batch(idx);
    model.net.infer(batch.images, model.tap_index, &tapped);
    acc.add_batch(tapped);
  }
  return acc.means();
}

}  // namespace

int main(int argc, char** argv) {
  common::init_log_level_from_env();
  fl::SimulationConfig cfg;
  cfg.rounds = argc > 1 ? std::atoi(argv[1]) : 25;
  cfg.attack.pattern = data::make_pixel_pattern(argc > 3 ? std::atoi(argv[3]) : 5);
  cfg.attack.victim_label = 9;
  cfg.attack.attack_label = 1;
  cfg.attack.gamma = 5.0;
  cfg.attack.poison_copies = 2;
  cfg.seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

  fl::Simulation sim(cfg);
  sim.run(false);
  std::printf("trained: TA=%.3f AA=%.3f\n", sim.test_accuracy(), sim.attack_success());

  auto& model = sim.server().model();
  auto clean_means = channel_means(model, sim.test_set());
  auto bd_means = channel_means(model, sim.backdoor_testset());

  auto& conv = dynamic_cast<nn::Conv2d&>(model.net.layer(model.last_conv_index));
  const int units = conv.prunable_units();
  const std::size_t per_channel =
      conv.weight().size() / static_cast<std::size_t>(units);

  std::printf("ch  clean_act  bd_act   ratio  max|w|  TA(-ch)  AA(-ch)\n");
  for (int ch = 0; ch < units; ++ch) {
    float wmax = 0.0f;
    for (std::size_t i = 0; i < per_channel; ++i) {
      wmax = std::max(wmax,
                      std::abs(conv.weight()[static_cast<std::size_t>(ch) * per_channel + i]));
    }
    // Prune just this channel, measure, restore.
    std::vector<float> saved_w = conv.weight().storage();
    std::vector<float> saved_b = conv.bias().storage();
    conv.set_unit_active(ch, false);
    const double ta = fl::evaluate_accuracy(model.net, sim.test_set());
    const double aa = fl::attack_success_rate(model.net, sim.backdoor_testset());
    conv.set_unit_active(ch, true);
    conv.weight().storage() = std::move(saved_w);
    conv.bias().storage() = std::move(saved_b);

    std::printf("%2d  %8.4f  %7.4f  %5.2f  %6.3f  %6.3f  %6.3f\n", ch, clean_means[ch],
                bd_means[ch],
                clean_means[ch] > 1e-9 ? bd_means[ch] / clean_means[ch] : 0.0, wmax, ta, aa);
  }

  // Cumulatively prune channels by descending (backdoor - clean) activation
  // gap: the oracle upper bound on what activation-based pruning can achieve.
  std::vector<int> order(units);
  for (int i = 0; i < units; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return bd_means[a] - clean_means[a] > bd_means[b] - clean_means[b];
  });
  std::printf("\ncumulative oracle pruning (by bd-clean gap):\n k   TA      AA\n");
  for (int k = 0; k < std::min(units, 10); ++k) {
    conv.set_unit_active(order[k], false);
    std::printf("%2d  %.3f  %.3f\n", k + 1, fl::evaluate_accuracy(model.net, sim.test_set()),
                fl::attack_success_rate(model.net, sim.backdoor_testset()));
  }
  return 0;
}
