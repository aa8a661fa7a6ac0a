#include "kernel/binder.hpp"

#include <algorithm>
#include <utility>

namespace rattrap::kernel {

SharedServiceTable make_service_table(std::vector<std::string> names) {
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return std::make_shared<const std::vector<std::string>>(std::move(names));
}

std::shared_ptr<BinderDriver::Context> BinderDriver::fresh_context() {
  // Endpoint 0 is the namespace's service manager, brought up implicitly
  // with the namespace (servicemanager is among the first init services).
  auto ctx = std::make_shared<Context>();
  ctx->endpoints[kServiceManagerHandle] = true;
  return ctx;
}

void BinderDriver::on_namespace_created(DevNsId ns, DevNsId base) {
  if (base == kHostDevNs) return;
  const Namespace* template_state = namespaces_.find(base);
  if (template_state == nullptr) return;
  std::shared_ptr<const Context> shadowed =
      template_state->own != nullptr ? template_state->own
                                     : template_state->shadowed;
  if (shadowed != nullptr) namespaces_[ns].shadowed = std::move(shadowed);
}

BinderDriver::Context& BinderDriver::context(DevNsId ns) {
  Namespace& state = namespaces_[ns];
  if (state.own == nullptr) {
    state.own = state.shadowed != nullptr
                    ? std::make_shared<Context>(*state.shadowed)
                    : fresh_context();
    state.shadowed.reset();
  } else if (state.own.use_count() > 1) {
    // A template written after namespaces were created over it: they
    // keep the context they shadow, the template writes to a copy.
    state.own = std::make_shared<Context>(*state.own);
  }
  return *state.own;
}

const BinderDriver::Context& BinderDriver::read_context(Namespace& state) {
  if (state.own != nullptr) return *state.own;
  if (state.shadowed != nullptr) return *state.shadowed;
  state.own = fresh_context();
  return *state.own;
}

const BinderDriver::Context* BinderDriver::find_context(DevNsId ns) const {
  const Namespace* state = namespaces_.find(ns);
  if (state == nullptr) return nullptr;
  return state->own != nullptr ? state->own.get() : state->shadowed.get();
}

void BinderDriver::on_namespace_destroyed(DevNsId ns) {
  namespaces_.erase(ns);
}

std::size_t BinderDriver::context_count() const {
  std::size_t n = 0;
  namespaces_.for_each([&n](DevNsId, const Namespace& state) {
    if (state.own != nullptr) ++n;
  });
  return n;
}

BinderHandle BinderDriver::create_endpoint(DevNsId ns) {
  Context& ctx = context(ns);
  const BinderHandle handle = ctx.next_handle++;
  ctx.endpoints[handle] = true;
  return handle;
}

bool BinderDriver::destroy_endpoint(DevNsId ns, BinderHandle handle) {
  Context& ctx = context(ns);
  const auto it = ctx.endpoints.find(handle);
  if (it == ctx.endpoints.end() || !it->second) return false;
  it->second = false;
  // Services provided by a dead endpoint return DEAD_REPLY on lookup-use;
  // we keep the registration so lookups can distinguish "dead" from
  // "never existed", mirroring binder's death-notification behaviour.
  const auto links = ctx.death_links.find(handle);
  if (links != ctx.death_links.end()) {
    auto callbacks = std::move(links->second);
    ctx.death_links.erase(links);
    for (auto& callback : callbacks) {
      if (callback) callback();
    }
  }
  return true;
}

bool BinderDriver::link_to_death(DevNsId ns, BinderHandle watched,
                                 std::function<void()> on_death) {
  Context& ctx = context(ns);
  const auto it = ctx.endpoints.find(watched);
  if (it == ctx.endpoints.end()) return false;
  if (!it->second) {
    // Already dead: fire immediately, as linkToDeath does.
    if (on_death) on_death();
    return true;
  }
  ctx.death_links[watched].push_back(std::move(on_death));
  return true;
}

bool BinderDriver::register_service(DevNsId ns,
                                    const std::string& service_name,
                                    BinderHandle provider) {
  Context& ctx = context(ns);
  const auto it = ctx.endpoints.find(provider);
  if (it == ctx.endpoints.end() || !it->second) return false;
  ctx.services[service_name] = provider;
  return true;
}

bool BinderDriver::register_services(DevNsId ns, SharedServiceTable table,
                                     BinderHandle provider) {
  Context& ctx = context(ns);
  const auto it = ctx.endpoints.find(provider);
  if (it == ctx.endpoints.end() || !it->second) return false;
  ctx.shared_services = std::move(table);
  ctx.shared_provider = provider;
  return true;
}

std::optional<BinderHandle> BinderDriver::lookup_service(
    DevNsId ns, const std::string& service_name) const {
  const Context* ctx = find_context(ns);
  if (ctx == nullptr) return std::nullopt;
  const auto it = ctx->services.find(service_name);
  if (it != ctx->services.end()) return it->second;
  if (ctx->shared_services != nullptr &&
      std::binary_search(ctx->shared_services->begin(),
                         ctx->shared_services->end(), service_name)) {
    return ctx->shared_provider;
  }
  return std::nullopt;
}

sim::SimDuration BinderDriver::transaction_cost(std::uint64_t payload_bytes) {
  // One kernel copy into the target's binder buffer plus wakeup: ~60 µs
  // base latency plus memory-copy time at ~4 GB/s.
  const double copy_us = static_cast<double>(payload_bytes) / 4096.0;
  return 60 + static_cast<sim::SimDuration>(copy_us);
}

std::optional<sim::SimDuration> BinderDriver::transact(
    DevNsId ns, BinderHandle from, BinderHandle to,
    std::uint64_t payload_bytes) {
  // A transaction only reads the context: a shadowing namespace keeps
  // reading its template's.
  Namespace& state = namespaces_[ns];
  const Context& ctx = read_context(state);
  if (!ctx.alive(from) || !ctx.alive(to)) {
    ++state.stats.failed;
    return std::nullopt;
  }
  if (faults_ != nullptr &&
      faults_->should_fire(sim::FaultKind::kBinderFail)) {
    // Target thread died mid-transaction: BR_DEAD_REPLY to the caller.
    ++state.stats.failed;
    return std::nullopt;
  }
  ++state.stats.transactions;
  state.stats.bytes += payload_bytes;
  // Synchronous transaction: request copy + reply copy.
  return 2 * transaction_cost(payload_bytes);
}

std::optional<sim::SimDuration> BinderDriver::transact_oneway(
    DevNsId ns, BinderHandle from, BinderHandle to,
    std::uint64_t payload_bytes) {
  Context& ctx = context(ns);
  BinderStats& stats = namespaces_.find(ns)->stats;
  if (!ctx.alive(from) || !ctx.alive(to)) {
    ++stats.failed;
    return std::nullopt;
  }
  if (faults_ != nullptr &&
      faults_->should_fire(sim::FaultKind::kBinderFail)) {
    ++stats.failed;
    return std::nullopt;
  }
  std::uint64_t& queued = ctx.async_queued[to];
  if (queued + payload_bytes > kAsyncBufferBytes) {
    ++stats.failed;  // async buffer exhausted
    return std::nullopt;
  }
  queued += payload_bytes;
  ++stats.transactions;
  stats.bytes += payload_bytes;
  return transaction_cost(payload_bytes);  // one copy, no reply leg
}

std::uint64_t BinderDriver::drain_async(DevNsId ns, BinderHandle target) {
  // Only a namespace's own context ever queues one-way work.
  Namespace* state = namespaces_.find(ns);
  if (state == nullptr || state->own == nullptr) return 0;
  std::map<BinderHandle, std::uint64_t>& queued = state->own->async_queued;
  const auto it = queued.find(target);
  if (it == queued.end()) return 0;
  const std::uint64_t drained = it->second;
  queued.erase(it);
  return drained;
}

std::uint64_t BinderDriver::async_pending(DevNsId ns,
                                          BinderHandle target) const {
  const Context* ctx = find_context(ns);
  if (ctx == nullptr) return 0;
  const auto it = ctx->async_queued.find(target);
  return it == ctx->async_queued.end() ? 0 : it->second;
}

BinderStats BinderDriver::stats(DevNsId ns) const {
  const Namespace* state = namespaces_.find(ns);
  return state == nullptr ? BinderStats{} : state->stats;
}

std::size_t BinderDriver::endpoint_count(DevNsId ns) const {
  const Context* ctx = find_context(ns);
  if (ctx == nullptr) return 0;
  std::size_t alive = 0;
  for (const auto& [handle, is_alive] : ctx->endpoints) {
    (void)handle;
    if (is_alive) ++alive;
  }
  return alive;
}

std::vector<std::string> BinderDriver::service_names(DevNsId ns) const {
  const Context* ctx = find_context(ns);
  std::vector<std::string> names;
  if (ctx == nullptr) return names;
  names.reserve(ctx->services.size());
  for (const auto& [name, provider] : ctx->services) {
    (void)provider;
    names.push_back(name);
  }
  if (ctx->shared_services != nullptr) {
    const std::size_t own = names.size();
    names.insert(names.end(), ctx->shared_services->begin(),
                 ctx->shared_services->end());
    std::inplace_merge(names.begin(), names.begin() + own, names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
  }
  return names;
}

}  // namespace rattrap::kernel
