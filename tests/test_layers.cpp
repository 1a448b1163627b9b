#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/optimizer.h"
#include "nn/pooling.h"
#include "tensor/ops.h"
#include "test_util.h"

using namespace fedcleanse;
using namespace fedcleanse::nn;
using fedcleanse::common::Rng;

TEST(ReLULayer, ForwardClampsNegatives) {
  ReLU relu;
  tensor::Tensor x(tensor::Shape{4}, {-1, 0, 2, -3});
  auto y = relu.forward(x);
  EXPECT_EQ(y.storage(), (std::vector<float>{0, 0, 2, 0}));
}

TEST(ReLULayer, BackwardMasksByInputSign) {
  ReLU relu;
  tensor::Tensor x(tensor::Shape{4}, {-1, 0, 2, 3});
  relu.forward(x);
  tensor::Tensor gy(tensor::Shape{4}, {1, 1, 1, 1});
  auto gx = relu.backward(gy);
  EXPECT_EQ(gx.storage(), (std::vector<float>{0, 0, 1, 1}));
}

TEST(FlattenLayer, RoundTrip) {
  Flatten flatten;
  tensor::Tensor x(tensor::Shape{2, 3, 2, 2});
  auto y = flatten.forward(x);
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 12}));
  auto gx = flatten.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(LinearLayer, ForwardHandComputed) {
  Rng rng(1);
  Linear linear(2, 2, rng);
  linear.weight().storage() = {1, 2, 3, 4};  // [out, in]
  linear.bias().storage() = {10, 20};
  tensor::Tensor x(tensor::Shape{1, 2}, {1, 1});
  auto y = linear.forward(x);
  EXPECT_EQ(y.storage(), (std::vector<float>{13, 27}));
}

TEST(LinearLayer, RejectsWrongInputWidth) {
  Rng rng(1);
  Linear linear(3, 2, rng);
  tensor::Tensor x(tensor::Shape{1, 4});
  EXPECT_THROW(linear.forward(x), Error);
}

TEST(LinearLayer, PrunedUnitOutputsZero) {
  Rng rng(2);
  Linear linear(3, 4, rng);
  linear.set_unit_active(2, false);
  tensor::Tensor x(tensor::Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  auto y = linear.forward(x);
  EXPECT_EQ(y.at(0, 2), 0.0f);
  EXPECT_EQ(y.at(1, 2), 0.0f);
  EXPECT_NE(y.at(0, 0), 0.0f);
}

TEST(LinearLayer, PrunedUnitZeroesWeightsAndGradients) {
  Rng rng(2);
  Linear linear(3, 4, rng);
  linear.set_unit_active(1, false);
  // Weights of the pruned row are zero.
  for (int j = 0; j < 3; ++j) EXPECT_EQ(linear.weight().at(1, j), 0.0f);
  EXPECT_EQ(linear.bias().at(1), 0.0f);
  // Backward gives the row no gradient.
  tensor::Tensor x(tensor::Shape{1, 3}, {1, 1, 1});
  linear.forward(x);
  tensor::Tensor gy(tensor::Shape{1, 4}, {1, 1, 1, 1});
  linear.backward(gy);
  auto params = linear.params();
  for (int j = 0; j < 3; ++j) EXPECT_EQ(params[0].grad->at(1, j), 0.0f);
  EXPECT_EQ(params[1].grad->at(1), 0.0f);
}

TEST(Conv2dLayer, PrunedChannelOutputsZero) {
  Rng rng(3);
  Conv2d conv(2, 3, 3, rng, 1, 1);
  conv.set_unit_active(1, false);
  auto x = tensor::Tensor::randn(tensor::Shape{1, 2, 5, 5}, rng);
  auto y = conv.forward(x);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) EXPECT_EQ(y.at(0, 1, i, j), 0.0f);
  }
}

TEST(Conv2dLayer, PrunedChannelGradientsStayExactlyZero) {
  // The packed GEMM skips pruned channels via its row/k masks rather than
  // zeroing afterwards; outputs and every gradient slot of a pruned channel
  // must still be exact (bitwise) zeros, even when the incoming grad_out
  // carries garbage in the pruned channel.
  Rng rng(6);
  // 10 channels: prunes land mid register-strip and at the strip edge.
  Conv2d conv(3, 10, 3, rng, 1, 1);
  conv.set_unit_active(2, false);
  conv.set_unit_active(9, false);
  auto x = tensor::Tensor::randn(tensor::Shape{2, 3, 6, 6}, rng);
  auto y = conv.forward(x);
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 6; ++i) {
      for (int j = 0; j < 6; ++j) {
        EXPECT_EQ(y.at(s, 2, i, j), 0.0f);
        EXPECT_EQ(y.at(s, 9, i, j), 0.0f);
      }
    }
  }

  auto gy = tensor::Tensor::randn(y.shape(), rng);
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 6; ++i) {
      for (int j = 0; j < 6; ++j) gy.at(s, 2, i, j) = 123.0f;  // must be ignored
    }
  }
  auto gx = conv.backward(gy);
  auto params = conv.params();
  for (int oc : {2, 9}) {
    for (int ic = 0; ic < 3; ++ic) {
      for (int u = 0; u < 3; ++u) {
        for (int v = 0; v < 3; ++v) {
          EXPECT_EQ(params[0].grad->at(oc, ic, u, v), 0.0f)
              << "grad_weight channel " << oc;
        }
      }
    }
    EXPECT_EQ(params[1].grad->at(oc), 0.0f) << "grad_bias channel " << oc;
  }

  // grad_input must match a conv where the pruned channels' grad_out is
  // explicitly zeroed — the mask drops exactly those contributions.
  Conv2d twin(3, 10, 3, rng, 1, 1);
  twin.weight() = conv.weight();
  twin.bias() = conv.bias();
  twin.forward(x);
  auto gy_zeroed = gy;
  for (int s = 0; s < 2; ++s) {
    for (int oc : {2, 9}) {
      for (int i = 0; i < 6; ++i) {
        for (int j = 0; j < 6; ++j) gy_zeroed.at(s, oc, i, j) = 0.0f;
      }
    }
  }
  auto gx_twin = twin.backward(gy_zeroed);
  ASSERT_EQ(gx.size(), gx_twin.size());
  for (std::size_t i = 0; i < gx.size(); ++i) {
    EXPECT_EQ(gx.data()[i], gx_twin.data()[i]) << "grad_input element " << i;
  }
}

TEST(LinearLayer, PrunedUnitIgnoresGarbageUpstreamGradient) {
  Rng rng(7);
  Linear linear(5, 4, rng);
  linear.set_unit_active(1, false);
  tensor::Tensor x(tensor::Shape{3, 5});
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = 0.1f * float(i);
  linear.forward(x);
  auto gy = tensor::Tensor::randn(tensor::Shape{3, 4}, rng);
  for (int s = 0; s < 3; ++s) gy.at(s, 1) = 999.0f;  // pruned row: must be ignored
  auto gx = linear.backward(gy);
  auto params = linear.params();
  for (int j = 0; j < 5; ++j) EXPECT_EQ(params[0].grad->at(1, j), 0.0f);
  EXPECT_EQ(params[1].grad->at(1), 0.0f);
  // grad_input drops the pruned unit from its contraction: same as zeroing.
  Linear twin(5, 4, rng);
  twin.weight() = linear.weight();
  twin.bias() = linear.bias();
  twin.forward(x);
  auto gy_zeroed = gy;
  for (int s = 0; s < 3; ++s) gy_zeroed.at(s, 1) = 0.0f;
  auto gx_twin = twin.backward(gy_zeroed);
  for (std::size_t i = 0; i < gx.size(); ++i) {
    EXPECT_EQ(gx.data()[i], gx_twin.data()[i]) << "grad_input element " << i;
  }
}

TEST(Conv2dLayer, ActiveWeightsExcludePrunedChannels) {
  Rng rng(3);
  Conv2d conv(2, 3, 3, rng);
  const auto all = conv.active_weights();
  EXPECT_EQ(all.size(), 3u * 2 * 9);
  conv.set_unit_active(0, false);
  EXPECT_EQ(conv.active_weights().size(), 2u * 2 * 9);
}

TEST(Conv2dLayer, PruneMaskRoundTrip) {
  Rng rng(3);
  Conv2d conv(1, 4, 3, rng);
  conv.set_prune_mask({1, 0, 1, 0});
  EXPECT_TRUE(conv.unit_active(0));
  EXPECT_FALSE(conv.unit_active(1));
  EXPECT_EQ(conv.prune_mask(), (std::vector<std::uint8_t>{1, 0, 1, 0}));
  EXPECT_THROW(conv.set_prune_mask({1, 1}), Error);
}

TEST(Conv2dLayer, CloneIsDeepCopy) {
  Rng rng(4);
  Conv2d conv(1, 2, 3, rng);
  auto clone = conv.clone();
  auto* cloned = dynamic_cast<Conv2d*>(clone.get());
  ASSERT_NE(cloned, nullptr);
  cloned->weight().storage()[0] = 999.0f;
  EXPECT_NE(conv.weight().storage()[0], 999.0f);
}

// Gradient checks for whole architectures — the key numeric property test.
class ModelGradientTest : public ::testing::TestWithParam<Architecture> {};

TEST_P(ModelGradientTest, BackwardMatchesFiniteDifference) {
  Rng rng(5);
  auto spec = make_model(GetParam(), rng);
  const auto& in = spec.input_shape;
  auto x = tensor::Tensor::rand_uniform(
      tensor::Shape{2, in[0], in[1], in[2]}, rng, 0.0f, 1.0f);
  std::vector<int> labels{1, 7};
  testutil::check_gradients(spec.net, x, labels);
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, ModelGradientTest,
                         ::testing::Values(Architecture::kMnistCnn,
                                           Architecture::kFashionCnn,
                                           Architecture::kVggSmall,
                                           Architecture::kSmallNn,
                                           Architecture::kLargeNn),
                         [](const auto& info) { return arch_name(info.param); });

// Gradient check with pruned units: masked channels must not perturb the
// gradients of live ones.
TEST(ModelGradient, HoldsUnderPruning) {
  Rng rng(6);
  auto spec = make_small_nn(rng);
  spec.net.layer(spec.last_conv_index).set_unit_active(3, false);
  spec.net.layer(spec.last_conv_index).set_unit_active(7, false);
  auto x = tensor::Tensor::rand_uniform(tensor::Shape{2, 1, 20, 20}, rng, 0.0f, 1.0f);
  testutil::check_gradients(spec.net, x, {0, 9});
}

// --- fused-epilogue model equivalence ---------------------------------------
// Sequential::forward collapses Conv2d+ReLU pairs into GEMM epilogues and
// forward_probs additionally fuses the classifier head's softmax; both are
// contractually BIT-IDENTICAL to the layer-by-layer pipeline.

namespace {

// The fusion-free reference: every layer through its virtual forward.
tensor::Tensor forward_unfused(Sequential& net, const tensor::Tensor& x) {
  tensor::Tensor cur = x;
  for (int i = 0; i < net.size(); ++i) cur = net.layer(i).forward(cur);
  return cur;
}

}  // namespace

TEST(FusedModel, ForwardMatchesUnfusedBitwise) {
  Rng rng(11);
  auto fused = make_small_nn(rng);
  auto ref = fused.clone();
  auto x = tensor::Tensor::rand_uniform(tensor::Shape{3, 1, 20, 20}, rng, 0.0f, 1.0f);
  const auto y_fused = fused.net.forward(x);
  const auto y_ref = forward_unfused(ref.net, x);
  EXPECT_EQ(y_fused.storage(), y_ref.storage());
}

TEST(FusedModel, ForwardProbsMatchesSoftmaxRowsBitwise) {
  Rng rng(12);
  auto fused = make_small_nn(rng);
  auto ref = fused.clone();
  auto x = tensor::Tensor::rand_uniform(tensor::Shape{5, 1, 20, 20}, rng, 0.0f, 1.0f);
  const auto probs = fused.net.forward_probs(x);
  const auto expected = tensor::softmax_rows(forward_unfused(ref.net, x));
  EXPECT_EQ(probs.storage(), expected.storage());
}

TEST(FusedModel, TrainingStepMatchesUnfusedBitwise) {
  Rng rng(13);
  auto fused = make_small_nn(rng);
  auto ref = fused.clone();
  auto x = tensor::Tensor::rand_uniform(tensor::Shape{4, 1, 20, 20}, rng, 0.0f, 1.0f);
  const std::vector<int> labels{0, 3, 7, 9};

  Sgd sgd_fused(fused.net, {0.1, 0.9});
  Sgd sgd_ref(ref.net, {0.1, 0.9});
  for (int step = 0; step < 3; ++step) {
    SoftmaxCrossEntropy loss_fused, loss_ref;
    fused.net.zero_grad();
    const float lf = loss_fused.forward_probs(fused.net.forward_probs(x), labels);
    fused.net.backward(loss_fused.backward());
    sgd_fused.step();

    ref.net.zero_grad();
    const float lr = loss_ref.forward(forward_unfused(ref.net, x), labels);
    ref.net.backward(loss_ref.backward());
    sgd_ref.step();

    ASSERT_EQ(lf, lr) << "step " << step;
  }
  EXPECT_EQ(fused.net.get_flat(), ref.net.get_flat());
}

TEST(FusedModel, ForwardMatchesUnfusedUnderPruning) {
  Rng rng(14);
  auto fused = make_small_nn(rng);
  fused.net.layer(fused.last_conv_index).set_unit_active(2, false);
  fused.net.layer(fused.last_conv_index).set_unit_active(5, false);
  auto ref = fused.clone();
  auto x = tensor::Tensor::rand_uniform(tensor::Shape{3, 1, 20, 20}, rng, 0.0f, 1.0f);
  EXPECT_EQ(fused.net.forward(x).storage(), forward_unfused(ref.net, x).storage());
}

TEST(FusedModel, TapOnFusedReluMatchesUnfused) {
  Rng rng(15);
  auto fused = make_small_nn(rng);
  auto ref = fused.clone();
  auto x = tensor::Tensor::rand_uniform(tensor::Shape{2, 1, 20, 20}, rng, 0.0f, 1.0f);
  tensor::Tensor tap_fused;
  fused.net.infer(x, fused.tap_index, &tap_fused);
  tensor::Tensor cur = x;
  tensor::Tensor tap_ref;
  for (int i = 0; i < ref.net.size(); ++i) {
    cur = ref.net.layer(i).forward(cur);
    if (i == ref.tap_index) tap_ref = cur;
  }
  EXPECT_EQ(tap_fused.storage(), tap_ref.storage());
}

TEST(FusedModel, QuantizedScanStaysCloseToF32) {
  Rng rng(16);
  auto model = make_small_nn(rng);
  auto x = tensor::Tensor::rand_uniform(tensor::Shape{4, 1, 20, 20}, rng, 0.0f, 1.0f);
  tensor::Tensor tap_f32, tap_i8;
  model.net.infer(x, model.tap_index, &tap_f32);
  model.net.infer(x, model.tap_index, &tap_i8, tensor::ComputeKernel::kInt8);
  ASSERT_EQ(tap_i8.shape(), tap_f32.shape());
  float ref_max = 0.0f;
  for (float v : tap_f32.storage()) ref_max = std::max(ref_max, std::fabs(v));
  ASSERT_GT(ref_max, 0.0f);
  const auto& rv = tap_f32.storage();
  const auto& iv = tap_i8.storage();
  for (std::size_t i = 0; i < rv.size(); ++i) {
    EXPECT_NEAR(iv[i], rv[i], 0.05f * ref_max) << i;
  }
}
