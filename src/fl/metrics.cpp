#include "fl/metrics.h"

#include <numeric>

#include "common/threadpool.h"
#include "tensor/ops.h"

namespace fedcleanse::fl {

double evaluate_accuracy(const nn::Sequential& model, const data::Dataset& dataset,
                         int batch_size) {
  FC_REQUIRE(!dataset.empty(), "cannot evaluate on an empty dataset");
  FC_REQUIRE(batch_size > 0, "batch_size must be positive");
  const std::size_t n = dataset.size();
  const std::size_t by_batch = (n + static_cast<std::size_t>(batch_size) - 1) /
                               static_cast<std::size_t>(batch_size);
  const std::size_t slices =
      std::min(n, std::max(by_batch, 2 * common::ambient_parallelism()));
  // Slice s is [s·n/slices, (s+1)·n/slices): contiguous, and never larger
  // than batch_size because slices ≥ ⌈n / batch_size⌉.
  std::vector<std::size_t> correct(slices, 0);
  common::ambient_parallel_for(slices, [&](std::size_t s) {
    const std::size_t begin = s * n / slices;
    const std::size_t end = (s + 1) * n / slices;
    std::vector<std::size_t> indices(end - begin);
    std::iota(indices.begin(), indices.end(), begin);
    const auto batch = dataset.make_batch(indices);
    const auto preds = tensor::argmax_rows(model.infer(batch.images));
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (preds[i] == batch.labels[i]) ++correct[s];
    }
  });
  const std::size_t total = std::accumulate(correct.begin(), correct.end(), std::size_t{0});
  return static_cast<double>(total) / static_cast<double>(n);
}

double attack_success_rate(const nn::Sequential& model, const data::Dataset& backdoor_testset,
                           int batch_size) {
  return evaluate_accuracy(model, backdoor_testset, batch_size);
}

}  // namespace fedcleanse::fl
