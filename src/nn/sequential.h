// Sequential container: the whole-model abstraction used by clients, the
// server, the defense pipeline, and Neural Cleanse.
//
// Parameters can be flattened to a single float vector (the FedAvg wire
// format) and restored; prune masks are carried separately because they are
// structural state decided by the defense, not trained state.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "nn/layer.h"
#include "tensor/quant.h"

namespace fedcleanse::nn {

class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;
  Sequential(const Sequential&) = delete;
  Sequential& operator=(const Sequential&) = delete;

  // Returns the index of the added layer.
  int add(std::unique_ptr<Layer> layer);

  int size() const { return static_cast<int>(layers_.size()); }
  Layer& layer(int i) { return *layers_[static_cast<std::size_t>(i)]; }
  const Layer& layer(int i) const { return *layers_[static_cast<std::size_t>(i)]; }

  // The training forward: every layer caches what backward needs. Conv2d+ReLU
  // pairs fuse into a single GEMM-with-epilogue step (bit-identical to
  // running the layers separately).
  Tensor forward(const Tensor& x);
  // Forward with the classifier head's softmax fused into its GEMM: returns
  // row probabilities, bit-identical to softmax_rows over forward()'s
  // logits. The training loop pairs it with SoftmaxCrossEntropy::forward_probs.
  Tensor forward_probs(const Tensor& x);
  // The forward for passes that never run backward (evaluation, activation
  // scans): forward()'s output bit for bit, but const — it reads parameters
  // and masks only, keeps no caches and takes its scratch from the calling
  // thread's Workspace, so any number of threads may run it on one shared
  // model. With `tap_out`, the output of layer `tap_index` is copied there
  // as well; a tap on a Conv2d suppresses its ReLU fusion so the tapped
  // values stay pre-activation. `kernel` picks the convolutions' GEMM; kInt8
  // is the defense scans' reduced-precision opt-in.
  Tensor infer(const Tensor& x, int tap_index = -1, Tensor* tap_out = nullptr,
               tensor::ComputeKernel kernel = tensor::ComputeKernel::kF32) const;
  // Backpropagate from dLoss/dOutput; returns dLoss/dInput. The gradient
  // moves through the layers, so an rvalue argument is never copied.
  Tensor backward(Tensor grad_out);
  // The training backward: the same parameter gradients as backward(), bit
  // for bit, but layer 0 computes no dLoss/dInput, which training never reads.
  void backward_params(Tensor grad_out);

  void zero_grad();
  std::vector<ParamRef> params();
  std::size_t num_params() const;

  // Flat parameter vector in layer order (the FedAvg wire format).
  std::vector<float> get_flat() const;
  void set_flat(std::span<const float> flat);

  // Prune masks for every layer (empty vector for non-prunable layers).
  std::vector<std::vector<std::uint8_t>> prune_masks() const;
  void set_prune_masks(const std::vector<std::vector<std::uint8_t>>& masks);

  Sequential clone() const;

 private:
  // Shared driver behind forward and forward_probs.
  Tensor run_forward(const Tensor& x, bool fuse_softmax);

  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace fedcleanse::nn
