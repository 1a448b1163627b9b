// Model evaluation metrics: test accuracy (TA) and attack success rate (AA).
#pragma once

#include "data/dataset.h"
#include "nn/sequential.h"

namespace fedcleanse::fl {

// Fraction of examples whose argmax prediction matches the label. The
// dataset splits into contiguous slices of at most `batch_size` examples,
// at least two per thread of the ambient pool, which run Sequential::infer
// concurrently on the shared model; on a pool worker they run inline. A
// sample's logits do not depend on which batch carries it, so the result is
// the same for every pool size and batch size.
double evaluate_accuracy(const nn::Sequential& model, const data::Dataset& dataset,
                         int batch_size = 64);

// Attack success rate: accuracy on a backdoor test set (victim-label images
// stamped with the full trigger, labeled with the attack label — see
// data::make_backdoor_testset).
double attack_success_rate(const nn::Sequential& model, const data::Dataset& backdoor_testset,
                           int batch_size = 64);

}  // namespace fedcleanse::fl
