#include "core/load_driver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "workloads/workload.hpp"

namespace rattrap::core {

namespace {

std::vector<workloads::TaskSpec> make_variants(
    const LoadDriverConfig& config) {
  const std::uint32_t count = std::max<std::uint32_t>(1, config.task_variants);
  const std::uint32_t size_class =
      config.size_class > 0 ? config.size_class
                            : workloads::default_size_class(config.kind);
  sim::Rng task_rng = sim::Rng(config.loadgen.seed).fork("loadgen-tasks");
  const auto workload = workloads::make_workload(config.kind);
  std::vector<workloads::TaskSpec> variants;
  variants.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    variants.push_back(workload->make_task(task_rng, size_class));
  }
  return variants;
}

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank > 0 ? rank - 1 : 0)];
}

/// Mean (summed in sample order) and percentiles of one ascending
/// response sample (ms) into `stats`; p95 where the slice keeps one.  An
/// empty sample leaves `stats` untouched.
template <typename Stats>
void fill_distribution(Stats& stats, const std::vector<double>& sorted) {
  if (sorted.empty()) return;
  double sum = 0;
  for (const double r : sorted) sum += r;
  stats.mean_ms = sum / static_cast<double>(sorted.size());
  stats.p50_ms = percentile(sorted, 0.50);
  if constexpr (requires { stats.p95_ms; }) {
    stats.p95_ms = percentile(sorted, 0.95);
  }
  stats.p99_ms = percentile(sorted, 0.99);
}

/// Task-shaping side of an adversary profile: cache-thrash tenants ship
/// inflated one-shot inputs (tmpfs pressure evicting the shared layer),
/// noisy neighbors pad compute-adjacent costs (I/O ops and control
/// rounds serialize with the job and pin the shard).  Pure in the spec;
/// the arrival schedule is untouched.
workloads::TaskSpec shape_task(workloads::TaskSpec spec,
                               sim::AdversaryProfile adversary) {
  switch (adversary) {
    case sim::AdversaryProfile::kCacheThrash:
      spec.input_file_bytes =
          std::max<std::uint64_t>(1, spec.input_file_bytes) * 16;
      spec.io_ops += 8;
      break;
    case sim::AdversaryProfile::kNoisyNeighbor:
      spec.input_file_bytes =
          std::max<std::uint64_t>(1, spec.input_file_bytes) * 4;
      spec.io_ops += 32;
      spec.control_rounds += 4;
      break;
    default:
      break;
  }
  return spec;
}

/// The one request builder: request `sequence` from `device` at `at`,
/// its task drawn from the variant pool and shaped by mix slot `slot`'s
/// adversary profile.  Serves the schedule, the closed-loop follow-ups
/// and make_load_stream alike.
class RequestBuilder {
 public:
  explicit RequestBuilder(const LoadDriverConfig& config)
      : loadgen_(config.loadgen), variants_(make_variants(config)) {}

  workloads::OffloadRequest operator()(std::uint64_t sequence,
                                       std::uint32_t device, sim::SimTime at,
                                       std::size_t slot) const {
    workloads::OffloadRequest request;
    request.sequence = sequence;
    request.device_id = device;
    request.task = shape_task(variants_[sequence % variants_.size()],
                              slot < loadgen_.mix.size()
                                  ? loadgen_.mix[slot].adversary
                                  : sim::AdversaryProfile::kNone);
    request.arrival = at;
    return request;
  }

 private:
  const sim::LoadGenConfig& loadgen_;
  std::vector<workloads::TaskSpec> variants_;
};

/// One tenant's entries in a LoadSummary, resolved on its first outcome.
struct TenantSlots {
  TenantLoadStats* stats = nullptr;
  std::size_t* completed = nullptr;  ///< its completed_by_tenant entry
};

/// A completed outcome's response, tagged with its class and tenant.
struct CompletedResponse {
  double ms = 0;
  std::uint32_t tenant = 0;  ///< index into the summary's tenant slots
  std::uint8_t klass = 0;    ///< qos::class_index
};

/// Merges per-session outcome vectors back into sequence order.  A part
/// that already is the dense sequence order (a one-stream run's) becomes
/// the merge when nothing was merged yet: its buffer changes hands, so
/// the run's outcomes are never held twice.
void absorb_outcomes(std::vector<RequestOutcome>& merged,
                     std::vector<RequestOutcome> part) {
  const auto dense = [&part] {
    for (std::size_t i = 0; i < part.size(); ++i) {
      if (part[i].request.sequence != i) return false;
    }
    return true;
  };
  if (merged.empty() && dense()) {
    merged = std::move(part);
    return;
  }
  for (RequestOutcome& outcome : part) {
    const std::size_t sequence = outcome.request.sequence;
    if (merged.size() <= sequence) merged.resize(sequence + 1);
    merged[sequence] = std::move(outcome);
  }
}

/// The one driving loop: opens one stream per mix slot into `streams`
/// (a single default session when the mix is empty), submits `schedule`
/// in arrival order routed by each arrival's mix slot, then closes every
/// stream and merges what the closes return into `outcomes`, indexed by
/// sequence.  The first close drains the whole run, follow-ups a
/// completion observer submits through `streams` included.  An
/// open_session reject aborts the run (empty summary, no outcomes).
LoadSummary drive_load(SessionTransport& transport,
                       const sim::LoadGenConfig& loadgen,
                       const RequestBuilder& build,
                       std::vector<sim::Arrival> schedule,
                       std::vector<std::uint64_t>& streams,
                       std::vector<RequestOutcome>& outcomes) {
  outcomes.clear();
  const std::size_t slots = std::max<std::size_t>(1, loadgen.mix.size());
  streams.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    Result<std::uint64_t> opened =
        transport.open_session(mix_session_config(loadgen, i));
    if (!opened) {
      // Close what opened (draining nothing — no submits yet).
      for (const std::uint64_t id : streams) transport.close(id);
      return LoadSummary{};
    }
    streams.push_back(*opened);
  }
  for (const sim::Arrival& arrival : schedule) {
    transport.submit(streams[arrival.mix_index],
                     build(arrival.sequence, arrival.device_id, arrival.at,
                           arrival.mix_index));
  }
  std::vector<sim::Arrival>().swap(schedule);  // not held through the drain
  for (const std::uint64_t id : streams) {
    absorb_outcomes(outcomes, transport.close(id));
  }
  return summarize_load(outcomes);
}

}  // namespace

SessionConfig mix_session_config(const sim::LoadGenConfig& loadgen,
                                 std::size_t slot) {
  // Adversary profiles shape the slot's SessionConfig (docs/RAC.md):
  // permission probers carry probe_ops, class flooders escalate their
  // whole stream to the interactive lane.
  SessionConfig session_config;
  if (slot < loadgen.mix.size()) {
    const sim::TrafficClassMix& entry = loadgen.mix[slot];
    session_config.tenant = entry.tenant;
    session_config.priority = static_cast<qos::PriorityClass>(
        std::min<std::uint8_t>(entry.priority, qos::kClassCount - 1));
    session_config.tenant_weight = std::max<std::uint32_t>(1, entry.weight);
    switch (entry.adversary) {
      case sim::AdversaryProfile::kPermissionProbe:
        session_config.probe_ops = {Operation::kWriteSharedLayer,
                                    Operation::kReadForeignCode};
        break;
      case sim::AdversaryProfile::kClassFlood:
        session_config.priority = qos::PriorityClass::kInteractive;
        break;
      default:
        break;
    }
  }
  return session_config;
}

Result<std::uint64_t> LocalSessionTransport::open_session(
    const SessionConfig& config) {
  Result<Session> opened = platform_.open_session(config);
  if (!opened) return opened.error();
  const std::uint64_t id = next_id_++;
  sessions_.emplace(id, std::move(*opened));
  return id;
}

void LocalSessionTransport::submit(std::uint64_t id,
                                   const workloads::OffloadRequest& request) {
  const auto it = sessions_.find(id);
  assert(it != sessions_.end() && "submit on an unopened local stream");
  if (it != sessions_.end()) it->second.submit(request);
}

std::vector<RequestOutcome> LocalSessionTransport::close(std::uint64_t id) {
  const auto it = sessions_.find(id);
  assert(it != sessions_.end() && "close on an unopened local stream");
  if (it == sessions_.end()) return {};
  std::vector<RequestOutcome> outcomes = it->second.take();
  sessions_.erase(it);
  return outcomes;
}

std::vector<workloads::OffloadRequest> make_load_stream(
    const LoadDriverConfig& config) {
  const std::vector<sim::Arrival> arrivals =
      sim::make_arrivals(config.loadgen);
  const RequestBuilder build(config);
  std::vector<workloads::OffloadRequest> stream;
  stream.reserve(arrivals.size());
  for (const sim::Arrival& arrival : arrivals) {
    stream.push_back(build(arrival.sequence, arrival.device_id, arrival.at,
                           arrival.mix_index));
  }
  return stream;
}

LoadSummary run_load(Platform& platform, const LoadDriverConfig& config) {
  std::vector<RequestOutcome> outcomes;
  return run_load(platform, config, outcomes);
}

LoadSummary run_load(Platform& platform, const LoadDriverConfig& config,
                     std::vector<RequestOutcome>& outcomes) {
  LocalSessionTransport transport(platform);
  const RequestBuilder build(config);
  std::vector<sim::Arrival> schedule = sim::make_arrivals(config.loadgen);
  std::vector<std::uint64_t> streams;
  const bool closed_loop =
      config.loadgen.arrival == sim::ArrivalProcess::kClosedLoop;
  // Closed loop: the schedule is the seed wave; every follow-up request
  // is born inside the completion observer, after the issuing device's
  // think time, and submitted through the transport's stream of the
  // device's pinned mix slot (mix_for_device — a device's tenant and
  // class never flap mid-run).  Backpressure at the completion instant
  // stretches the think draw, which is the graceful-degradation feedback
  // path.  The source continues the sequence count after the seed wave
  // and must outlive the drain.
  std::optional<sim::ClosedLoopSource> source;
  if (closed_loop) {
    source.emplace(config.loadgen, schedule.size());
    platform.set_completion_observer([&](const RequestOutcome& done) {
      if (source->exhausted()) return;
      const std::uint64_t sequence = source->take();
      const std::uint32_t device = done.request.device_id;
      const sim::SimDuration think =
          source->think(device, platform.backpressure());
      const std::uint32_t slot = sim::mix_for_device(config.loadgen, device);
      transport.submit(
          streams[slot],
          build(sequence, device, platform.server().simulator().now() + think,
                slot));
    });
  }
  LoadSummary summary = drive_load(transport, config.loadgen, build,
                                   std::move(schedule), streams, outcomes);
  if (closed_loop) platform.set_completion_observer({});
  return summary;
}

LoadSummary run_load_transport(SessionTransport& transport,
                               const LoadDriverConfig& config) {
  assert(config.loadgen.arrival != sim::ArrivalProcess::kClosedLoop &&
         "closed-loop feedback needs the in-process observer (run_load)");
  std::vector<std::uint64_t> streams;
  std::vector<RequestOutcome> outcomes;
  return drive_load(transport, config.loadgen, RequestBuilder(config),
                    sim::make_arrivals(config.loadgen), streams, outcomes);
}

LoadSummary summarize_load(const std::vector<RequestOutcome>& outcomes) {
  LoadSummary summary;
  summary.offered = outcomes.size();
  // Each distinct tenant and radio is looked up in the summary's ordered
  // maps once; later outcomes reach those entries through a hash of the
  // name (the views point into `outcomes`).
  std::vector<TenantSlots> tenants;
  std::unordered_map<std::string_view, std::uint32_t> tenant_index;
  std::unordered_map<std::string_view, RadioLoadStats*> radios;
  std::vector<CompletedResponse> responses;
  responses.reserve(outcomes.size());
  double queue_wait_ms = 0;
  sim::SimTime span_end = 0;
  for (const RequestOutcome& outcome : outcomes) {
    span_end = std::max(span_end, outcome.completed_at);
    const std::size_t class_index = qos::class_index(outcome.qos_class);
    ClassLoadStats& klass = summary.by_class[class_index];
    ++klass.offered;
    const auto [found, fresh] = tenant_index.try_emplace(
        outcome.tenant, static_cast<std::uint32_t>(tenants.size()));
    if (fresh) {
      tenants.push_back(TenantSlots{&summary.by_tenant[outcome.tenant]});
    }
    TenantSlots& slots = tenants[found->second];
    TenantLoadStats& tenant = *slots.stats;
    ++tenant.offered;
    if (outcome.resumed) ++summary.resumed;
    if (outcome.rejected) {
      ++summary.rejected;
      ++klass.rejected;
      ++tenant.rejected;
      ++summary.rejects_by_reason[outcome.reject_reason];
      if (outcome.stranded) ++summary.stranded;
      continue;
    }
    ++summary.completed;
    ++klass.completed;
    ++tenant.completed;
    if (outcome.deadline_missed) ++klass.deadline_missed;
    if (slots.completed == nullptr) {
      slots.completed = &summary.completed_by_tenant[outcome.tenant];
    }
    ++*slots.completed;
    if (!outcome.radio.empty()) {
      RadioLoadStats*& entry = radios[outcome.radio];
      if (entry == nullptr) entry = &summary.by_radio[outcome.radio];
      RadioLoadStats& radio = *entry;
      ++radio.completed;
      radio.mean_transfer_ms += sim::to_millis(outcome.phases.data_transfer);
      radio.mean_response_ms += sim::to_millis(outcome.response);
      radio.mean_energy_mj += outcome.offload_energy_mj;
    }
    responses.push_back(
        CompletedResponse{sim::to_millis(outcome.response), found->second,
                          static_cast<std::uint8_t>(class_index)});
    queue_wait_ms += sim::to_millis(outcome.queue_wait);
  }
  summary.duration_s = sim::to_seconds(span_end);
  if (summary.duration_s > 0) {
    summary.offered_rate_per_s =
        static_cast<double>(summary.offered) / summary.duration_s;
    summary.goodput_per_s =
        static_cast<double>(summary.completed) / summary.duration_s;
  }
  // One sort orders every distribution: split in response order, each
  // class's and tenant's responses come out already ascending — the
  // same sequences (equal responses are equal doubles) that sorting
  // each of them would give, so every mean and percentile is unchanged.
  std::sort(responses.begin(), responses.end(),
            [](const CompletedResponse& a, const CompletedResponse& b) {
              return a.ms < b.ms;
            });
  std::vector<double> responses_ms;
  responses_ms.reserve(responses.size());
  std::array<std::vector<double>, qos::kClassCount> class_responses_ms;
  std::vector<std::vector<double>> tenant_responses_ms(tenants.size());
  for (const CompletedResponse& response : responses) {
    responses_ms.push_back(response.ms);
    class_responses_ms[response.klass].push_back(response.ms);
    tenant_responses_ms[response.tenant].push_back(response.ms);
  }
  fill_distribution(summary, responses_ms);
  if (!responses_ms.empty()) {
    summary.mean_queue_wait_ms =
        queue_wait_ms / static_cast<double>(responses_ms.size());
  }
  for (auto& [name, radio] : summary.by_radio) {
    (void)name;
    const double n = std::max<double>(1.0, static_cast<double>(radio.completed));
    radio.mean_transfer_ms /= n;
    radio.mean_response_ms /= n;
    radio.mean_energy_mj /= n;
  }
  for (std::size_t i = 0; i < qos::kClassCount; ++i) {
    fill_distribution(summary.by_class[i], class_responses_ms[i]);
  }
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    fill_distribution(*tenants[i].stats, tenant_responses_ms[i]);
  }
  return summary;
}

}  // namespace rattrap::core
