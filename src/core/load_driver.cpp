#include "core/load_driver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
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

/// One Session per mix entry; a single default standard-class session
/// when no mix is configured (slot 0 then serves every arrival).
std::vector<Session> open_mix_sessions(Platform& platform,
                                       const sim::LoadGenConfig& loadgen) {
  const std::size_t slots = std::max<std::size_t>(1, loadgen.mix.size());
  std::vector<Session> sessions;
  sessions.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    Result<Session> opened =
        platform.open_session(mix_session_config(loadgen, i));
    assert(opened && "load-driver session configs are well-formed");
    sessions.push_back(std::move(*opened));
  }
  return sessions;
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

/// The adversary profile of mix slot `slot` (kNone outside the mix).
sim::AdversaryProfile slot_adversary(const sim::LoadGenConfig& loadgen,
                                     std::size_t slot) {
  return slot < loadgen.mix.size() ? loadgen.mix[slot].adversary
                                   : sim::AdversaryProfile::kNone;
}

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

/// Merges per-session outcome vectors back into sequence order.
void absorb_outcomes(std::vector<RequestOutcome>& merged,
                     std::vector<RequestOutcome> part) {
  for (RequestOutcome& outcome : part) {
    const std::size_t sequence = outcome.request.sequence;
    if (merged.size() <= sequence) merged.resize(sequence + 1);
    merged[sequence] = std::move(outcome);
  }
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
  std::vector<RequestOutcome> outcomes = it->second.close();
  sessions_.erase(it);
  return outcomes;
}

std::vector<workloads::OffloadRequest> make_load_stream(
    const LoadDriverConfig& config) {
  const std::vector<sim::Arrival> arrivals =
      sim::make_arrivals(config.loadgen);
  const std::vector<workloads::TaskSpec> variants = make_variants(config);
  std::vector<workloads::OffloadRequest> stream;
  stream.reserve(arrivals.size());
  for (const sim::Arrival& arrival : arrivals) {
    workloads::OffloadRequest request;
    request.sequence = arrival.sequence;
    request.device_id = arrival.device_id;
    request.task = variants[arrival.sequence % variants.size()];
    request.arrival = arrival.at;
    stream.push_back(request);
  }
  return stream;
}

LoadSummary run_load(Platform& platform, const LoadDriverConfig& config) {
  if (config.loadgen.arrival != sim::ArrivalProcess::kClosedLoop) {
    // Open loop: the schedule is materialized up front, which is exactly
    // the transport-shaped workload — drive it through the local adapter
    // so the sim path and the RPC path share one code path (docs/RPC.md).
    LocalSessionTransport transport(platform);
    return run_load_transport(transport, config);
  }

  const std::vector<workloads::TaskSpec> variants = make_variants(config);
  std::vector<Session> sessions = open_mix_sessions(platform, config.loadgen);

  // The closed-loop source must outlive the close() drain below: the
  // completion observer captures it and keeps drawing from it until the
  // run's event queue is empty.
  sim::ClosedLoopSource source(config.loadgen);

  // Closed loop: the seed wave is materialized; every follow-up request
  // is born inside the completion observer, after the issuing device's
  // think time.  Backpressure at completion instant stretches the think
  // draw, which is the graceful-degradation feedback path.  Devices are
  // pinned to one mix slot (mix_for_device), so a device's tenant and
  // class never flap mid-run.
  platform.set_completion_observer([&platform, &source, &variants, &sessions,
                                    &config](const RequestOutcome& done) {
    if (source.exhausted()) return;
    const std::uint64_t sequence = source.take();
    const sim::SimDuration think =
        source.think(done.request.device_id, platform.backpressure());
    const std::uint32_t slot =
        sim::mix_for_device(config.loadgen, done.request.device_id);
    workloads::OffloadRequest next;
    next.sequence = sequence;
    next.device_id = done.request.device_id;
    next.task = shape_task(variants[sequence % variants.size()],
                           slot_adversary(config.loadgen, slot));
    next.arrival = platform.server().simulator().now() + think;
    sessions[slot].submit(next);
  });
  for (const sim::Arrival& arrival : sim::make_arrivals(config.loadgen)) {
    const std::uint64_t sequence = source.take();
    assert(sequence == arrival.sequence);
    workloads::OffloadRequest request;
    request.sequence = sequence;
    request.device_id = arrival.device_id;
    request.task = shape_task(variants[sequence % variants.size()],
                              slot_adversary(config.loadgen, arrival.mix_index));
    request.arrival = arrival.at;
    sessions[arrival.mix_index].submit(request);
  }

  // The first close() drains the whole run (the event queue is shared),
  // so any observer-born follow-ups complete before their session closes.
  std::vector<RequestOutcome> outcomes;
  for (Session& session : sessions) {
    absorb_outcomes(outcomes, session.close());
  }
  platform.set_completion_observer({});
  return summarize_load(outcomes);
}

LoadSummary run_load_transport(SessionTransport& transport,
                               const LoadDriverConfig& config) {
  assert(config.loadgen.arrival != sim::ArrivalProcess::kClosedLoop &&
         "closed-loop feedback needs the in-process observer (run_load)");
  const std::vector<workloads::TaskSpec> variants = make_variants(config);

  const std::size_t slots =
      std::max<std::size_t>(1, config.loadgen.mix.size());
  std::vector<std::uint64_t> streams;
  streams.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    Result<std::uint64_t> opened =
        transport.open_session(mix_session_config(config.loadgen, i));
    if (!opened) {
      // A rejected stream aborts the run: close what opened (draining
      // nothing — no submits yet) and report an empty summary.
      for (const std::uint64_t id : streams) transport.close(id);
      return LoadSummary{};
    }
    streams.push_back(*opened);
  }

  // Submit the whole schedule up front, routed by the per-arrival mix
  // draw — byte-for-byte the submission order of the pre-transport
  // driver.
  for (const sim::Arrival& arrival : sim::make_arrivals(config.loadgen)) {
    workloads::OffloadRequest request;
    request.sequence = arrival.sequence;
    request.device_id = arrival.device_id;
    request.task = shape_task(variants[arrival.sequence % variants.size()],
                              slot_adversary(config.loadgen, arrival.mix_index));
    request.arrival = arrival.at;
    transport.submit(streams[arrival.mix_index], request);
  }

  // The first close() drains the whole run server-side.
  std::vector<RequestOutcome> outcomes;
  for (const std::uint64_t id : streams) {
    absorb_outcomes(outcomes, transport.close(id));
  }
  return summarize_load(outcomes);
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
  if (!responses_ms.empty()) {
    double sum = 0;
    for (const double r : responses_ms) sum += r;
    summary.mean_ms = sum / static_cast<double>(responses_ms.size());
    summary.p50_ms = percentile(responses_ms, 0.50);
    summary.p95_ms = percentile(responses_ms, 0.95);
    summary.p99_ms = percentile(responses_ms, 0.99);
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
  for (const qos::PriorityClass klass : qos::kAllClasses) {
    const std::vector<double>& sorted =
        class_responses_ms[qos::class_index(klass)];
    if (sorted.empty()) continue;
    ClassLoadStats& stats = summary.by_class[qos::class_index(klass)];
    double sum = 0;
    for (const double r : sorted) sum += r;
    stats.mean_ms = sum / static_cast<double>(sorted.size());
    stats.p50_ms = percentile(sorted, 0.50);
    stats.p95_ms = percentile(sorted, 0.95);
    stats.p99_ms = percentile(sorted, 0.99);
  }
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const std::vector<double>& sorted = tenant_responses_ms[i];
    if (sorted.empty()) continue;
    TenantLoadStats& stats = *tenants[i].stats;
    double sum = 0;
    for (const double r : sorted) sum += r;
    stats.mean_ms = sum / static_cast<double>(sorted.size());
    stats.p50_ms = percentile(sorted, 0.50);
    stats.p99_ms = percentile(sorted, 0.99);
  }
  return summary;
}

}  // namespace rattrap::core
