// Layer abstraction: forward/backward with cached context, parameter
// enumeration for the optimizer and for flat (de)serialization in FedAvg,
// and a unit-pruning interface ("neurons" in the paper = conv output
// channels / FC units).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace fedcleanse::nn {

using tensor::Shape;
using tensor::Tensor;

// Non-owning reference to a parameter tensor and its gradient.
struct ParamRef {
  Tensor* value;
  Tensor* grad;
};

class Layer {
 public:
  virtual ~Layer() = default;

  // Compute the layer output and cache whatever backward will need.
  virtual Tensor forward(const Tensor& x) = 0;
  // The same output as forward, bit for bit, for a pass that never runs
  // backward: it reads parameters and masks only and writes no member, so
  // any number of threads may run it on one shared layer.
  virtual Tensor infer(const Tensor& x) const = 0;
  // Given dLoss/dOutput, accumulate parameter gradients and return
  // dLoss/dInput. Must be called after forward on the same input. The
  // gradient is taken by value so a layer may reuse its storage.
  virtual Tensor backward(Tensor grad_out) = 0;
  // Accumulate parameter gradients only, for a layer whose dLoss/dInput no
  // one reads (the first layer of a training step). Layers that can skip the
  // input gradient override this; the default runs backward and drops it.
  virtual void backward_params(Tensor grad_out) { (void)backward(std::move(grad_out)); }

  virtual std::vector<ParamRef> params() { return {}; }
  virtual std::unique_ptr<Layer> clone() const = 0;
  virtual std::string name() const = 0;

  void zero_grad();

  // --- pruning interface -------------------------------------------------
  // Number of prunable output units (conv channels / linear units); 0 when
  // the layer has nothing to prune.
  virtual int prunable_units() const { return 0; }
  // Deactivate/reactivate a unit. Deactivation zeroes the unit's parameters
  // and forces its output (and gradient) to zero, so a pruned neuron can
  // never be resurrected by fine-tuning.
  virtual void set_unit_active(int /*unit*/, bool /*active*/) {}
  virtual bool unit_active(int /*unit*/) const { return true; }
  // 1 = active, 0 = pruned; empty for layers without prunable units.
  virtual std::vector<std::uint8_t> prune_mask() const { return {}; }
  virtual void set_prune_mask(const std::vector<std::uint8_t>& mask);

  // Per-layer L2 penalty coefficient, applied by the optimizer. Used by the
  // paper's Discussion (Fig 10): L2 on the last convolutional layer only.
  double weight_decay = 0.0;
};

}  // namespace fedcleanse::nn
