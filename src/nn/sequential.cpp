#include "nn/sequential.h"

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "tensor/ops.h"

namespace fedcleanse::nn {

int Sequential::add(std::unique_ptr<Layer> layer) {
  FC_REQUIRE(layer != nullptr, "cannot add null layer");
  layers_.push_back(std::move(layer));
  return static_cast<int>(layers_.size()) - 1;
}

Tensor Sequential::run_forward(const Tensor& x, bool fuse_softmax) {
  Tensor cur = x;
  const int n = size();
  int i = 0;
  while (i < n) {
    Layer* layer = layers_[static_cast<std::size_t>(i)].get();
    if (auto* conv = dynamic_cast<Conv2d*>(layer)) {
      // Conv2d+ReLU peephole: run the ReLU as the conv GEMM's epilogue and
      // hand the ReLU its output for backward.
      auto* relu = i + 1 < n ? dynamic_cast<ReLU*>(layers_[static_cast<std::size_t>(i) + 1].get())
                             : nullptr;
      cur = conv->forward_conv(cur, relu != nullptr);
      if (relu != nullptr) {
        relu->adopt_output(cur);
        ++i;
      }
    } else {
      if (fuse_softmax && i == n - 1) {
        if (auto* lin = dynamic_cast<Linear*>(layer)) return lin->forward_softmax(cur);
      }
      cur = layer->forward(cur);
    }
    ++i;
  }
  return fuse_softmax ? tensor::softmax_rows(cur) : cur;
}

Tensor Sequential::forward(const Tensor& x) { return run_forward(x, false); }

Tensor Sequential::forward_probs(const Tensor& x) { return run_forward(x, true); }

Tensor Sequential::infer(const Tensor& x, int tap_index, Tensor* tap_out,
                         tensor::ComputeKernel kernel) const {
  FC_REQUIRE(tap_out == nullptr || (tap_index >= 0 && tap_index < size()),
             "tap index out of range");
  if (tap_out == nullptr) tap_index = -1;
  const int n = size();
  Tensor cur;
  const Tensor* in = &x;  // the caller's input is read, never copied
  for (int i = 0; i < n; ++i) {
    const Layer& layer = *layers_[static_cast<std::size_t>(i)];
    if (const auto* conv = dynamic_cast<const Conv2d*>(&layer)) {
      // The same Conv2d+ReLU fusion as forward(), unless the tap wants this
      // conv's pre-activation values.
      const bool fuse = i + 1 < n && tap_index != i &&
                        dynamic_cast<const ReLU*>(layers_[static_cast<std::size_t>(i) + 1].get());
      cur = conv->infer_conv(*in, fuse, kernel);
      if (fuse) ++i;  // the ReLU ran as the epilogue
    } else {
      cur = layer.infer(*in);
    }
    in = &cur;
    if (i == tap_index) *tap_out = cur;
  }
  if (n == 0) return x;
  return cur;
}

Tensor Sequential::backward(Tensor grad_out) {
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad_out = (*it)->backward(std::move(grad_out));
  }
  return grad_out;
}

void Sequential::backward_params(Tensor grad_out) {
  FC_REQUIRE(!layers_.empty(), "backward on an empty model");
  for (std::size_t i = layers_.size() - 1; i > 0; --i) {
    grad_out = layers_[i]->backward(std::move(grad_out));
  }
  layers_.front()->backward_params(std::move(grad_out));
}

void Sequential::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

std::vector<ParamRef> Sequential::params() {
  std::vector<ParamRef> out;
  for (auto& layer : layers_) {
    auto ps = layer->params();
    out.insert(out.end(), ps.begin(), ps.end());
  }
  return out;
}

std::size_t Sequential::num_params() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) {
    auto ps = const_cast<Layer&>(*layer).params();
    for (const auto& p : ps) n += p.value->size();
  }
  return n;
}

std::vector<float> Sequential::get_flat() const {
  std::vector<float> flat;
  flat.reserve(num_params());
  for (const auto& layer : layers_) {
    for (const auto& p : const_cast<Layer&>(*layer).params()) {
      const auto v = p.value->data();
      flat.insert(flat.end(), v.begin(), v.end());
    }
  }
  return flat;
}

void Sequential::set_flat(std::span<const float> flat) {
  FC_REQUIRE(flat.size() == num_params(),
             "flat vector size " + std::to_string(flat.size()) + " != parameter count " +
                 std::to_string(num_params()));
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    for (auto& p : layer->params()) {
      auto v = p.value->data();
      std::copy(flat.begin() + static_cast<std::ptrdiff_t>(offset),
                flat.begin() + static_cast<std::ptrdiff_t>(offset + v.size()), v.begin());
      offset += v.size();
    }
    // Re-assert structural pruning: a pruned unit's weights stay zero even
    // if the incoming flat vector carried non-zero values for them.
    const int units = layer->prunable_units();
    for (int u = 0; u < units; ++u) {
      if (!layer->unit_active(u)) layer->set_unit_active(u, false);
    }
  }
}

std::vector<std::vector<std::uint8_t>> Sequential::prune_masks() const {
  std::vector<std::vector<std::uint8_t>> masks;
  masks.reserve(layers_.size());
  for (const auto& layer : layers_) masks.push_back(layer->prune_mask());
  return masks;
}

void Sequential::set_prune_masks(const std::vector<std::vector<std::uint8_t>>& masks) {
  FC_REQUIRE(masks.size() == layers_.size(), "mask count must match layer count");
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (!masks[i].empty()) layers_[i]->set_prune_mask(masks[i]);
  }
}

Sequential Sequential::clone() const {
  Sequential copy;
  for (const auto& layer : layers_) copy.add(layer->clone());
  return copy;
}

}  // namespace fedcleanse::nn
