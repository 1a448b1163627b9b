#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>

#include "bench_common.h"
#include "comm/message.h"
#include "common/error.h"
#include "obs/trace.h"

namespace perfbench {

using namespace fedcleanse;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// The quickstart example's configuration, field for field: the paper's
// headline MNIST run and the ROADMAP's definition of "end to end".
Workload mnist_pipeline(std::uint64_t seed) {
  Workload w;
  w.sim.arch = nn::Architecture::kMnistCnn;
  w.sim.dataset = data::SynthKind::kDigits;
  w.sim.n_clients = 10;
  w.sim.n_attackers = 1;
  w.sim.rounds = 25;
  w.sim.labels_per_client = 3;
  w.sim.attack.pattern = data::make_pixel_pattern(5);
  w.sim.attack.victim_label = 9;
  w.sim.attack.attack_label = 1;
  w.sim.attack.gamma = 5.0;
  w.sim.attack.poison_copies = 2;
  w.sim.seed = seed;
  w.defense.method = defense::PruneMethod::kMVP;
  w.defense.vote_prune_rate = 0.5;
  return w;
}

// Table III's CIFAR/DBA configuration on the quantized paths: RAP pruning,
// int8 defense scans and the int8 uplink codec. Local training runs at the
// TrainConfig default lr 0.1, not the table's 0.2: at 0.2 with the int8
// codec, about one pipeline seed in 50 diverges to NaN (TA 0.1), and the
// maxpool backward then crashes (see perfbench/README.md).
Workload cifar_dba_pipeline(std::uint64_t seed) {
  Workload w;
  w.sim = bench::cifar_dba_config(seed);
  w.sim.train.lr = 0.1;
  w.sim.train.scan_kernel = tensor::ComputeKernel::kInt8;
  w.sim.train.update_codec = comm::UpdateCodec::kInt8;
  w.defense = bench::default_defense();
  w.defense.method = defense::PruneMethod::kRAP;
  return w;
}

// A 100,000-client population on the virtual-client engine: tiny model,
// sampled cohorts, many rounds — per-call overhead, not arithmetic.
Workload fleet_virtual(std::uint64_t seed) {
  Workload w;
  w.sim.arch = nn::Architecture::kSmallNn;
  w.sim.dataset = data::SynthKind::kDigits;
  w.sim.n_clients = 100000;
  w.sim.n_attackers = w.sim.n_clients / 100;
  w.sim.clients_per_round = 32;
  w.sim.rounds = 300;
  w.sim.labels_per_client = 3;
  w.sim.samples_per_class_train = 32;
  w.sim.samples_per_class_test = 30;
  w.sim.samples_per_client = 16;
  w.sim.train.local_epochs = 1;
  w.sim.train.batch_size = 16;
  w.sim.attack.pattern = data::make_pixel_pattern(5);
  w.sim.attack.victim_label = 9;
  w.sim.attack.attack_label = 1;
  w.sim.attack.gamma = 5.0;
  w.sim.attack.poison_copies = 2;
  w.sim.residency = fl::ClientResidency::kVirtual;
  w.sim.defense_clients = 64;
  w.sim.seed = seed;
  w.defense = bench::default_defense();
  return w;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"mnist_pipeline", "cifar_dba_pipeline", "fleet_virtual"};
}

Workload make_workload(const std::string& name, std::uint64_t seed, int n_threads) {
  Workload w;
  if (name == "mnist_pipeline") {
    w = mnist_pipeline(seed);
  } else if (name == "cifar_dba_pipeline") {
    w = cifar_dba_pipeline(seed);
  } else if (name == "fleet_virtual") {
    w = fleet_virtual(seed);
  } else {
    throw ConfigError("unknown workload " + name);
  }
  w.sim.n_threads = n_threads;
  return w;
}

std::string model_hash(nn::Sequential& net) {
  std::vector<std::uint8_t> bytes;
  const auto flat = net.get_flat();
  bytes.resize(flat.size() * sizeof(float));
  std::memcpy(bytes.data(), flat.data(), bytes.size());
  for (const auto& mask : net.prune_masks()) {
    bytes.push_back(0xFF);  // layer separator: empty masks still count
    bytes.insert(bytes.end(), mask.begin(), mask.end());
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(comm::payload_checksum(bytes)));
  return hex;
}

double time_setup(const Workload& w) {
  const auto t0 = std::chrono::steady_clock::now();
  fl::Simulation sim(w.sim);
  return seconds_since(t0);
}

namespace {

void count_reports(PipelineResult& out, int participants, int dropped, int corrupted,
                   bool quorum_met) {
  out.reports_expected += static_cast<std::uint64_t>(participants);
  const int failed = quorum_met ? std::min(participants, dropped + corrupted) : participants;
  out.reports_failed += static_cast<std::uint64_t>(failed);
}

}  // namespace

PipelineResult run_pipeline(const Workload& w, PipelineHooks* hooks, bool drive_rounds) {
  PipelineResult out;
  out.seed = w.sim.seed;
  auto t0 = std::chrono::steady_clock::now();
  std::optional<fl::Simulation> sim;
  {
    obs::Span span("bench.setup", "bench");
    sim.emplace(w.sim);
  }
  out.setup_s = seconds_since(t0);
  if (hooks != nullptr) hooks->after_setup(*sim);

  // Local samples per client are fixed for the run: the partition is eager
  // in materialized mode and samples_per_client in virtual mode.
  std::vector<std::uint64_t> local_samples;
  if (!sim->virtual_clients()) {
    for (int id = 0; id < sim->n_clients(); ++id) {
      local_samples.push_back(sim->client(id).dataset_size());
    }
  }
  auto samples_of = [&](int id) -> std::uint64_t {
    if (local_samples.empty()) return static_cast<std::uint64_t>(w.sim.samples_per_client);
    return local_samples[static_cast<std::size_t>(id)];
  };

  t0 = std::chrono::steady_clock::now();
  if (drive_rounds) {
    obs::Span train_span("bench.train", "bench");
    for (int r = 0; r < w.sim.rounds; ++r) {
      std::vector<int> cohort;
      {
        obs::Span span("bench.round", "bench");
        span.set_arg("round", r);
        const auto r0 = std::chrono::steady_clock::now();
        cohort = sim->run_round(static_cast<std::uint32_t>(r));
        out.round_ms.push_back(seconds_since(r0) * 1e3);
      }
      const auto& st = sim->last_round_stats();
      count_reports(out, st.n_participants, st.n_dropped, st.n_corrupted,
                    st.quorum_met);
      for (int id : cohort) out.train_samples += samples_of(id) * w.sim.train.local_epochs;
      obs::Span span("bench.eval", "bench");
      const auto e0 = std::chrono::steady_clock::now();
      sim->test_accuracy();
      sim->attack_success();
      out.eval_s += seconds_since(e0);
    }
  } else {
    sim->run();
    for (const auto& rec : sim->history()) {
      count_reports(out, rec.n_participants, rec.n_dropped, rec.n_corrupted,
                    rec.quorum_met);
    }
  }
  out.train_s = seconds_since(t0);
  if (hooks != nullptr) hooks->after_train(*sim);

  t0 = std::chrono::steady_clock::now();
  {
    obs::Span span("bench.defense", "bench");
    out.report = defense::run_defense(*sim, w.defense);
  }
  out.defense_s = seconds_since(t0);

  const auto& rep = out.report;
  count_reports(out, rep.fp_exchange.n_participants,
                rep.fp_exchange.n_dropped, rep.fp_exchange.n_corrupted,
                rep.fp_exchange.quorum_met);
  for (const auto& rec : rep.finetune.history) {
    count_reports(out, rec.n_participants, rec.n_dropped, rec.n_corrupted,
                  rec.quorum_met);
  }
  out.final_ta = rep.after_aw.test_acc;
  out.final_asr = rep.after_aw.attack_acc;
  out.wire_bytes = sim->network().total_bytes();
  out.uplink_bytes = sim->network().uplink_bytes();
  out.downlink_bytes = sim->network().downlink_bytes();
  out.model_hash = model_hash(sim->server().model().net);
  if (hooks != nullptr) hooks->after_defense(*sim, out);
  return out;
}

}  // namespace perfbench
