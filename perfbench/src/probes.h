// The traced run's per-layer measurements. Everything is taken from outside
// the library: counters obs::Registry already keeps, spans the library
// already records, and timed calls into each module's public functions.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

using Metrics = std::map<std::string, double>;

// Registry counters and spans around one traced pipeline. Construct before
// run_pipeline (with metrics and tracing on); after_defense runs the module
// probes while the Simulation — and so the ambient pool — is still alive.
class TraceProbes : public PipelineHooks {
 public:
  explicit TraceProbes(const Workload& w) : w_(w) {}

  void after_setup(fedcleanse::fl::Simulation& sim) override;
  void after_train(fedcleanse::fl::Simulation& sim) override;
  void after_defense(fedcleanse::fl::Simulation& sim, const PipelineResult& r) override;

  // Per-layer metrics gathered so far (filled by after_defense).
  const Metrics& metrics() const { return metrics_; }

 private:
  void probe_data();
  void probe_materialize();
  void probe_nn(fedcleanse::fl::Simulation& sim);
  void probe_comm(fedcleanse::fl::Simulation& sim);

  const Workload& w_;
  Metrics metrics_;
  std::map<std::string, std::uint64_t> counters_at_setup_;
  std::map<std::string, std::uint64_t> counters_after_train_;
};

// Every per-layer metric name the traced run reports, in a fixed order. The
// nn.L<idx>.<kind> entries are the union over the workloads' architectures;
// a layer the workload's model does not have reads 0.
std::vector<std::string> per_layer_metric_names();

// Self time per span name: each span's duration minus the part of it that
// its direct children on the same thread cover. Milliseconds, summed.
std::map<std::string, double> span_self_ms(const std::vector<fedcleanse::obs::TraceEvent>& ev);

}  // namespace perfbench
