#include "baselines/neural_cleanse.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "fl/metrics.h"
#include "nn/activation_stats.h"
#include "nn/loss.h"
#include "tensor/ops.h"

namespace fedcleanse::baselines {

namespace {

inline float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

// Blend a batch with the trigger: x' = (1−m)·x + m·p.
tensor::Tensor blend(const tensor::Tensor& images, const tensor::Tensor& mask,
                     const tensor::Tensor& pattern) {
  const int n = images.shape()[0], c = images.shape()[1], h = images.shape()[2],
            w = images.shape()[3];
  tensor::Tensor out(images.shape());
  const auto iv = images.data();
  const auto mv = mask.data();
  const auto pv = pattern.data();
  auto ov = out.data();
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  for (int b = 0; b < n; ++b) {
    for (int ch = 0; ch < c; ++ch) {
      const std::size_t base = (static_cast<std::size_t>(b) * c + ch) * plane;
      const std::size_t pbase = static_cast<std::size_t>(ch) * plane;
      for (std::size_t i = 0; i < plane; ++i) {
        const float m = mv[i];
        ov[base + i] = (1.0f - m) * iv[base + i] + m * pv[pbase + i];
      }
    }
  }
  return out;
}

struct TriggerParams {
  tensor::Tensor mask_raw;     // [H*W] pre-sigmoid
  tensor::Tensor pattern_raw;  // [C,H,W] pre-sigmoid
  tensor::Tensor mask;         // [1,H,W]
  tensor::Tensor pattern;      // [C,H,W]

  void materialize() {
    for (std::size_t i = 0; i < mask.size(); ++i) mask[i] = sigmoid(mask_raw[i]);
    for (std::size_t i = 0; i < pattern.size(); ++i) pattern[i] = sigmoid(pattern_raw[i]);
  }
};

}  // namespace

std::vector<double> mad_anomaly_index(const std::vector<double>& values) {
  FC_REQUIRE(!values.empty(), "mad_anomaly_index of empty vector");
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  std::vector<double> deviations(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    deviations[i] = std::abs(values[i] - median);
  }
  std::vector<double> dev_sorted = deviations;
  std::sort(dev_sorted.begin(), dev_sorted.end());
  const double mad = dev_sorted[dev_sorted.size() / 2] * 1.4826;
  std::vector<double> index(values.size(), 0.0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    // Only abnormally SMALL triggers indicate a backdoor.
    if (values[i] < median && mad > 1e-12) index[i] = deviations[i] / mad;
  }
  return index;
}

TriggerResult reverse_trigger(nn::ModelSpec& model, const data::Dataset& clean_data,
                              int target_label, const NeuralCleanseConfig& config) {
  FC_REQUIRE(!clean_data.empty(), "neural cleanse needs clean input data");
  const int c = model.input_shape[0], h = model.input_shape[1], w = model.input_shape[2];
  const std::size_t plane = static_cast<std::size_t>(h) * w;

  TriggerResult best;
  best.label = target_label;
  best.final_loss = std::numeric_limits<double>::infinity();

  for (double lr : config.learning_rates) {
    common::Rng rng(config.seed + static_cast<std::uint64_t>(lr * 1000) +
                    static_cast<std::uint64_t>(target_label) * 101);
    TriggerParams tp{
        tensor::Tensor::randn(tensor::Shape{h * w}, rng, -3.0f, 0.3f),
        tensor::Tensor::randn(tensor::Shape{c, h, w}, rng, 0.0f, 0.3f),
        tensor::Tensor(tensor::Shape{1, h, w}),
        tensor::Tensor(tensor::Shape{c, h, w}),
    };
    nn::SoftmaxCrossEntropy loss_fn;
    double last_loss = 0.0;

    for (int step = 0; step < config.optimization_steps; ++step) {
      tp.materialize();
      // Random minibatch of clean images, all targeted at `target_label`.
      std::vector<std::size_t> indices(static_cast<std::size_t>(config.batch_size));
      for (auto& idx : indices) idx = rng.index(clean_data.size());
      auto batch = clean_data.make_batch(indices);
      auto patched = blend(batch.images, tp.mask, tp.pattern);
      std::vector<int> targets(indices.size(), target_label);

      model.net.zero_grad();
      auto logits = model.net.forward(patched);
      const float ce = loss_fn.forward(logits, targets);
      auto grad_input = model.net.backward(loss_fn.backward());  // dL/dx'

      // Mask L1 penalty (mask ∈ (0,1) so |m| = m and d|m|/dm = 1).
      double l1 = 0.0;
      for (std::size_t i = 0; i < tp.mask.size(); ++i) l1 += tp.mask[i];
      last_loss = ce + config.lambda_l1 * l1;

      // Chain rule into the raw parameters.
      const int n = grad_input.shape()[0];
      const auto gi = grad_input.data();
      const auto iv = batch.images.data();
      const auto mv = tp.mask.data();
      const auto pv = tp.pattern.data();
      std::vector<float> gmask(plane, 0.0f);
      std::vector<float> gpattern(tp.pattern.size(), 0.0f);
      for (int b = 0; b < n; ++b) {
        for (int ch = 0; ch < c; ++ch) {
          const std::size_t base = (static_cast<std::size_t>(b) * c + ch) * plane;
          const std::size_t pbase = static_cast<std::size_t>(ch) * plane;
          for (std::size_t i = 0; i < plane; ++i) {
            const float g = gi[base + i];
            gmask[i] += g * (pv[pbase + i] - iv[base + i]);
            gpattern[pbase + i] += g * mv[i];
          }
        }
      }
      // L1 term on the mask.
      for (std::size_t i = 0; i < plane; ++i) {
        gmask[i] += static_cast<float>(config.lambda_l1);
      }
      // Sigmoid chain and SGD step.
      const float flr = static_cast<float>(lr);
      for (std::size_t i = 0; i < plane; ++i) {
        const float m = mv[i];
        tp.mask_raw[i] -= flr * gmask[i] * m * (1.0f - m);
      }
      for (std::size_t i = 0; i < gpattern.size(); ++i) {
        const float p = pv[i];
        tp.pattern_raw[i] -= flr * gpattern[i] * p * (1.0f - p);
      }
    }

    tp.materialize();
    if (last_loss < best.final_loss) {
      best.final_loss = last_loss;
      best.mask = tp.mask;
      best.pattern = tp.pattern;
      double l1 = 0.0;
      for (std::size_t i = 0; i < tp.mask.size(); ++i) l1 += tp.mask[i];
      best.mask_l1 = l1;
    }
  }

  // Flip rate of the best trigger over the clean data.
  {
    std::vector<std::size_t> all(clean_data.size());
    std::iota(all.begin(), all.end(), 0);
    std::size_t flipped = 0, total = 0;
    for (std::size_t start = 0; start < all.size(); start += 64) {
      const std::size_t end = std::min(all.size(), start + 64);
      std::vector<std::size_t> chunk(all.begin() + static_cast<std::ptrdiff_t>(start),
                                     all.begin() + static_cast<std::ptrdiff_t>(end));
      auto batch = clean_data.make_batch(chunk);
      auto patched = blend(batch.images, best.mask, best.pattern);
      auto preds = tensor::argmax_rows(model.net.infer(patched));
      for (int p : preds) {
        if (p == target_label) ++flipped;
      }
      total += preds.size();
    }
    best.flip_rate = static_cast<double>(flipped) / static_cast<double>(total);
  }
  return best;
}

NeuralCleanseReport run_neural_cleanse(nn::ModelSpec& model, const data::Dataset& clean_data,
                                       const NeuralCleanseConfig& config) {
  NeuralCleanseReport report;
  report.accuracy_before = fl::evaluate_accuracy(model.net, clean_data);

  // Stage 1: reverse-engineer one trigger per label.
  std::vector<double> l1s;
  for (int label = 0; label < model.num_classes; ++label) {
    auto trigger = reverse_trigger(model, clean_data, label, config);
    FC_LOG(Debug) << "NC label " << label << " mask L1 " << trigger.mask_l1 << " flip "
                  << trigger.flip_rate;
    l1s.push_back(trigger.mask_l1);
    report.triggers.push_back(std::move(trigger));
  }

  // Stage 2: MAD outlier detection over the mask norms.
  report.anomaly_index = mad_anomaly_index(l1s);
  for (int label = 0; label < model.num_classes; ++label) {
    if (report.anomaly_index[static_cast<std::size_t>(label)] > config.anomaly_threshold) {
      report.flagged_labels.push_back(label);
    }
  }

  // Stage 3: mitigation — prune the neurons most activated by the
  // reconstructed trigger(s), while clean accuracy holds.
  if (!report.flagged_labels.empty()) {
    auto& layer = model.net.layer(model.last_conv_index);
    const int units = layer.prunable_units();
    std::vector<double> trigger_activation(static_cast<std::size_t>(units), 0.0);

    for (int label : report.flagged_labels) {
      const auto& trig = report.triggers[static_cast<std::size_t>(label)];
      nn::ChannelMeanAccumulator acc;
      tensor::Tensor tapped;
      std::vector<std::size_t> all(clean_data.size());
      std::iota(all.begin(), all.end(), 0);
      for (std::size_t start = 0; start < all.size(); start += 64) {
        const std::size_t end = std::min(all.size(), start + 64);
        std::vector<std::size_t> chunk(all.begin() + static_cast<std::ptrdiff_t>(start),
                                       all.begin() + static_cast<std::ptrdiff_t>(end));
        auto batch = clean_data.make_batch(chunk);
        auto patched = blend(batch.images, trig.mask, trig.pattern);
        model.net.infer(patched, model.tap_index, &tapped);
        acc.add_batch(tapped);
      }
      auto means = acc.means();
      for (std::size_t i = 0; i < means.size(); ++i) trigger_activation[i] += means[i];
    }

    // Most trigger-activated first.
    std::vector<int> order(static_cast<std::size_t>(units));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return trigger_activation[static_cast<std::size_t>(a)] >
             trigger_activation[static_cast<std::size_t>(b)];
    });

    const double floor = report.accuracy_before - config.mitigation_acc_drop;
    int active = 0;
    for (int u = 0; u < units; ++u) active += layer.unit_active(u) ? 1 : 0;
    for (int neuron : order) {
      if (active <= 1) break;
      if (!layer.unit_active(neuron)) continue;
      std::vector<std::vector<float>> saved;
      for (auto& p : layer.params()) saved.emplace_back(p.value->storage());
      layer.set_unit_active(neuron, false);
      --active;
      const double acc_now = fl::evaluate_accuracy(model.net, clean_data);
      if (acc_now < floor) {
        auto params = layer.params();
        for (std::size_t i = 0; i < params.size(); ++i) {
          params[i].value->storage() = std::move(saved[i]);
        }
        layer.set_unit_active(neuron, true);
        ++active;
        break;
      }
      ++report.neurons_pruned;
    }
  }

  report.accuracy_after = fl::evaluate_accuracy(model.net, clean_data);
  return report;
}

}  // namespace fedcleanse::baselines
