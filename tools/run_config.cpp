#include "run_config.hpp"

#include <cstring>
#include <utility>

#include "sim/fault.hpp"
#include "trace/livelab.hpp"

#include "cli_util.hpp"

namespace rattrap::cli {

namespace {

/// The run being built, plus the values that feed a cross-key rule and
/// so wait until every key has been read.
struct Staged {
  RunConfig run;
  core::PlatformKind kind = core::PlatformKind::kRattrap;
  net::LinkConfig link = net::lan_wifi();
  bool rac = true;
  bool invariants = true;  ///< auto: armed at every scale
  std::uint32_t storm_crashes = 0;
  double storm_at = 0.0;
  double storm_spacing = 0.05;
  std::string trace_file;
  trace::TraceConfig synthetic;
};

/// How argv may give a key: with a value, as a bare on/off switch, or
/// repeatedly (each repeat appends ';'-separated entries).
enum class Form { kValue, kSwitch, kList };

/// Which trace source a key names (the cross-key trace rules).
enum class Source { kNone, kFile, kSynthetic };

struct Key {
  const char* name;
  const char* metavar;
  const char* help;
  bool (*apply)(const std::string& value, Staged& s);
  Form form = Form::kValue;
  Source source = Source::kNone;
};

// Parse a value straight into one field (cli_util.hpp's parse_token
// picks the parser by the field's type).
template <auto Field>
bool to_load(const std::string& v, Staged& s) {
  return parse_token(v.c_str(), s.run.driver.loadgen.*Field);
}
template <auto Field>
bool to_driver(const std::string& v, Staged& s) {
  return parse_token(v.c_str(), s.run.driver.*Field);
}
template <auto Field>
bool to_platform(const std::string& v, Staged& s) {
  return parse_token(v.c_str(), s.run.platform.*Field);
}
template <auto Field>
bool to_admission(const std::string& v, Staged& s) {
  return parse_token(v.c_str(), s.run.platform.admission.*Field);
}
template <auto Field>
bool to_access(const std::string& v, Staged& s) {
  return parse_token(v.c_str(), s.run.platform.access.*Field);
}
template <auto Field>
bool to_elastic(const std::string& v, Staged& s) {
  return parse_token(v.c_str(), s.run.platform.elastic.*Field);
}
template <auto Field>
bool to_synthetic(const std::string& v, Staged& s) {
  return parse_token(v.c_str(), s.synthetic.*Field);
}
template <auto Field>
bool to_staged(const std::string& v, Staged& s) {
  return parse_token(v.c_str(), s.*Field);
}

/// platform and link pick the make_config() base every later key edits.
bool rebase(Staged& s) {
  s.run.platform = core::make_config(s.kind, s.link);
  return true;
}

// Table order is build order.
const Key kKeys[] = {
    {"platform", "P", "rattrap | rattrap-noopt | vmcloud (default rattrap)",
     [](const std::string& v, Staged& s) {
       return parse_platform(v, s.kind) && rebase(s);
     }},
    {"link", "L", "lan | wifi | wan | 3g | 4g base radio (default lan)",
     [](const std::string& v, Staged& s) {
       return parse_link(v, s.link) && rebase(s);
     }},
    {"arrival", "P", "poisson | mmpp | closed | trace (default poisson)",
     to_load<&sim::LoadGenConfig::arrival>},
    {"devices", "N", "fleet size, > 0 (default 1000; experiments 100)",
     [](const std::string& v, Staged& s) {
       return parse_u32(v, s.run.driver.loadgen.devices) &&
              s.run.driver.loadgen.devices > 0;
     }},
    {"requests", "N",
     "total offered requests, > 0 (default 1000; experiments 500)",
     [](const std::string& v, Staged& s) {
       std::uint64_t requests = 0;
       if (!parse_u64(v, requests) || requests == 0) return false;
       s.run.driver.loadgen.requests = requests;
       return true;
     }},
    {"rate", "R", "offered req/s, open loop (default 100)",
     to_load<&sim::LoadGenConfig::rate_per_s>},
    {"burst_factor", "F", "mmpp burst-state rate multiplier (default 8)",
     to_load<&sim::LoadGenConfig::burst_factor>},
    {"mean_burst_s", "S", "mmpp mean burst-state holding time (default 2)",
     to_load<&sim::LoadGenConfig::mean_burst_s>},
    {"mean_calm_s", "S", "mmpp mean calm-state holding time (default 10)",
     to_load<&sim::LoadGenConfig::mean_calm_s>},
    {"think", "S", "closed-loop mean think time, seconds (default 1)",
     to_load<&sim::LoadGenConfig::think_time_s>},
    {"profile", "P", "flat | ramp | diurnal rate profile (default flat)",
     to_load<&sim::LoadGenConfig::profile>},
    {"profile_period", "S", "profile cycle length, seconds (default 60)",
     to_load<&sim::LoadGenConfig::profile_period_s>},
    {"profile_peak", "F", "profile peak rate multiplier (default 8)",
     to_load<&sim::LoadGenConfig::profile_peak_factor>},
    {"flash_at", "S", "flash-crowd surge onset, seconds",
     to_load<&sim::LoadGenConfig::flash_at_s>},
    {"flash_duration", "S", "flash-crowd surge length, seconds (0 = off)",
     to_load<&sim::LoadGenConfig::flash_duration_s>},
    {"flash_factor", "F", "flash-crowd rate multiplier (default 1)",
     to_load<&sim::LoadGenConfig::flash_factor>},
    {"trace_file", "PATH", "CSV trace to replay (arrival trace)",
     [](const std::string& v, Staged& s) {
       s.trace_file = v;
       return !v.empty();
     },
     Form::kValue, Source::kFile},
    {"trace_users", "N", "synthetic trace: users (default 5)",
     to_synthetic<&trace::TraceConfig::users>, Form::kValue,
     Source::kSynthetic},
    {"trace_days", "N", "synthetic trace: days (default 2)",
     to_synthetic<&trace::TraceConfig::days>, Form::kValue,
     Source::kSynthetic},
    {"trace_sessions_per_day", "F",
     "synthetic trace: sessions per user-day (default 26)",
     to_synthetic<&trace::TraceConfig::sessions_per_day>, Form::kValue,
     Source::kSynthetic},
    {"trace_seed", "S", "synthetic trace: seed (default 2011)",
     to_synthetic<&trace::TraceConfig::seed>, Form::kValue,
     Source::kSynthetic},
    {"trace_scale", "F", "trace time multiplier, > 0 (default 1)",
     [](const std::string& v, Staged& s) {
       return parse_double(v, s.run.driver.loadgen.trace_time_scale) &&
              s.run.driver.loadgen.trace_time_scale > 0;
     }},
    {"trace_repeat", "N", "trace playback loops (default 1)",
     to_load<&sim::LoadGenConfig::trace_repeat>},
    {"kind", "K", "linpack | ocr | chess | virusscan (default linpack)",
     to_driver<&core::LoadDriverConfig::kind>},
    {"task_variants", "N", "distinct task instances cycled (default 8)",
     to_driver<&core::LoadDriverConfig::task_variants>},
    {"seed", "S", "master seed (default 1)",
     to_load<&sim::LoadGenConfig::seed>},
    {"admission", "on|off", "admission front door (default off)",
     to_admission<&core::AdmissionConfig::enabled>, Form::kSwitch},
    {"queue", "N", "accept-queue capacity (default 64)",
     to_admission<&core::AdmissionConfig::queue_capacity>},
    {"max_in_service", "N", "concurrent dispatch bound (0 = 4x cores)",
     to_admission<&core::AdmissionConfig::max_in_service>},
    {"tenant_rate", "R", "per-app token-bucket rate, req/s (0 = off)",
     to_admission<&core::AdmissionConfig::tenant_rate_per_s>},
    {"shed", "U", "utilization shed threshold (0 = off)",
     to_admission<&core::AdmissionConfig::shed_utilization>},
    {"tenant_queue_quota", "N", "per-tenant accept-queue share (0 = off)",
     to_admission<&core::AdmissionConfig::tenant_queue_quota>},
    {"qos", "on|off", "class/tenant QoS scheduling; on implies admission",
     [](const std::string& v, Staged& s) {
       return parse_on_off(v, s.run.platform.admission.qos.enabled);
     },
     Form::kSwitch},
    {"mix", "T:C[:W[:S[:A]]]",
     "traffic-mix slice: tenant, class, DRR weight, share, adversary",
     [](const std::string& v, Staged& s) {
       return parse_mix(v, s.run.driver.loadgen.mix);
     },
     Form::kList},
    {"rac", "on|off", "request-based access controller (default on)",
     to_staged<&Staged::rac>, Form::kSwitch},
    {"rac_threshold", "N", "violations before a block, > 0 (default 5)",
     [](const std::string& v, Staged& s) {
       return parse_u32(v, s.run.platform.access.violation_threshold) &&
              s.run.platform.access.violation_threshold > 0;
     }},
    {"rac_block_s", "S", "block window, seconds (0 = permanent)",
     [](const std::string& v, Staged& s) {
       double block_s = 0;
       if (!parse_double(v, block_s)) return false;
       if (block_s > 0) {
         s.run.platform.access.block_duration = sim::from_seconds(block_s);
       }
       return true;
     }},
    {"rac_quota", "N", "per-tenant in-flight quota (0 = off)",
     to_access<&core::AccessConfig::tenant_quota>},
    {"elastic", "M", "off | static | predictive warm pool (default off)",
     to_elastic<&core::elastic::ElasticConfig::mode>},
    {"elastic_target", "N", "static warm-pool target (default 0)",
     to_elastic<&core::elastic::ElasticConfig::static_target>},
    {"elastic_max", "N", "warm-pool ceiling (default 64)",
     to_elastic<&core::elastic::ElasticConfig::max_warm>},
    {"faults", "PLAN", "fault plan, e.g. net.drop:p=0.02 (docs/FAULTS.md)",
     [](const std::string& v, Staged& s) {
       const auto plan = sim::FaultPlan::parse(v);
       if (plan) s.run.platform.fault_plan = *plan;
       return plan.has_value();
     },
     Form::kList},
    {"crash_recovery", "on|off",
     "re-dispatch sessions off crashed environments (default on)",
     to_platform<&core::PlatformConfig::crash_recovery>, Form::kSwitch},
    {"storm_crashes", "N", "grouped container crashes (default 0)",
     to_staged<&Staged::storm_crashes>},
    {"storm_at", "S", "first storm crash, seconds (default 0)",
     to_staged<&Staged::storm_at>},
    {"storm_spacing", "S", "gap between storm crashes (default 0.05)",
     to_staged<&Staged::storm_spacing>},
    {"handoff", "R:AT[:OUT]",
     "radio handoff: lan|wan|3g|4g at AT s, OUT s outage",
     [](const std::string& v, Staged& s) {
       return parse_handoffs(v, s.run.platform.mobility);
     },
     Form::kList},
    {"adaptive", "on|off", "adaptive offloading decisions (default off)",
     to_platform<&core::PlatformConfig::adaptive_offloading>, Form::kSwitch},
    {"invariants", "auto|on|off",
     "invariant oracle (default auto: armed at every scale)",
     [](const std::string& v, Staged& s) {
       return parse_invariants(v, s.invariants);
     }},
};

const Key* find_key(std::string_view name) {
  for (const Key& key : kKeys) {
    if (name == key.name) return &key;
  }
  return nullptr;
}

std::string flag_name(std::string_view key) {
  std::string flag = "--";
  for (const char c : key) flag.push_back(c == '_' ? '-' : c);
  return flag;
}

}  // namespace

std::optional<RunConfig> build_run_config(const RunKeys& keys, KeyStyle style,
                                          core::LoadDriverConfig load,
                                          std::string& error) {
  const auto spell = [style](std::string_view key) {
    if (style == KeyStyle::kFlag) return flag_name(key);
    std::string quoted(1, '\'');
    return quoted.append(key).append(1, '\'');
  };
  const auto fail = [&](std::string what) -> std::optional<RunConfig> {
    error = std::move(what);
    return std::nullopt;
  };
  for (const auto& [name, value] : keys) {
    if (find_key(name) == nullptr) return fail("unknown key " + spell(name));
  }

  Staged s;
  rebase(s);
  s.run.driver = std::move(load);
  const Key* file_key = nullptr;
  const Key* synthetic_key = nullptr;
  for (const Key& key : kKeys) {
    const auto it = keys.find(key.name);
    if (it == keys.end()) continue;
    if (!key.apply(it->second, s)) {
      return fail("bad value for " + spell(key.name) + ": " + it->second);
    }
    if (key.source == Source::kFile) file_key = &key;
    if (key.source == Source::kSynthetic && synthetic_key == nullptr) {
      synthetic_key = &key;
    }
  }

  // Cross-key rules, in one fixed order.
  core::PlatformConfig& platform = s.run.platform;
  sim::LoadGenConfig& loadgen = s.run.driver.loadgen;
  if (platform.admission.qos.enabled) platform.admission.enabled = true;
  if (!s.rac) {
    // Teeth ablation: an unreachable threshold and no quota neutralize
    // the defense layer while the permission tables stay live — the
    // attack scenarios must demonstrably fail without it.
    platform.access.violation_threshold = 0xFFFFFFFFu;
    platform.access.tenant_quota = 0;
  }
  // The pool is sized by the elastic clamp; a target above its ceiling
  // is an error, not a silently smaller pool.
  if (platform.elastic.static_target > platform.elastic.max_warm) {
    return fail(spell("elastic_target") + " must be <= " +
                spell("elastic_max") + " (" +
                std::to_string(platform.elastic.max_warm) + ")");
  }
  for (std::uint32_t i = 0; i < s.storm_crashes; ++i) {
    sim::FaultRule rule;
    rule.kind = sim::FaultKind::kContainerCrash;
    rule.at = sim::from_seconds(s.storm_at +
                                s.storm_spacing * static_cast<double>(i));
    platform.fault_plan.add(rule);
  }

  // Trace source: the arrival process and its source come together.
  const bool replay = loadgen.arrival == sim::ArrivalProcess::kTraceReplay;
  const Key* source = file_key != nullptr ? file_key : synthetic_key;
  const std::string trace_arrival =
      style == KeyStyle::kFlag ? "--arrival trace" : "arrival = trace";
  if (source != nullptr && !replay) {
    return fail(spell(source->name) + " requires " + trace_arrival);
  }
  if (replay && source == nullptr) {
    return fail(trace_arrival + " requires " + spell("trace_file") +
                " or a synthetic trace key");
  }
  if (file_key != nullptr && synthetic_key != nullptr) {
    return fail(spell(file_key->name) + " excludes " +
                spell(synthetic_key->name));
  }
  if (replay) {
    std::vector<trace::TraceEvent> events;
    if (file_key != nullptr) {
      auto loaded = trace::load_csv(s.trace_file);
      if (!loaded) return fail("cannot load trace '" + s.trace_file + "'");
      events = std::move(*loaded);
    } else {
      events = trace::generate(s.synthetic);
    }
    loadgen.trace.reserve(events.size());
    for (const trace::TraceEvent& event : events) {
      loadgen.trace.push_back(sim::TraceArrival{event.time, event.user});
    }
    if (loadgen.trace.empty()) return fail("trace has no events");
  }

  // auto (= on): the incremental oracle checks every event at any scale;
  // off disarms it, fault plans included.
  platform.force_invariants = s.invariants;
  platform.check_invariants = s.invariants;
  platform.seed = loadgen.seed;
  return std::move(s.run);
}

bool read_flag(int argc, char** argv, int& i, RunKeys& keys,
               std::string& error) {
  const std::string_view flag = argv[i];
  const Key* key = nullptr;
  if (flag.rfind("--", 0) == 0 && flag.find('_') == std::string_view::npos) {
    std::string name(flag.substr(2));
    for (char& c : name) c = c == '-' ? '_' : c;
    key = find_key(name);
  }
  if (key == nullptr) {
    error = "unknown option: " + std::string(flag);
    return false;
  }
  const bool has_value =
      i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0;
  std::string value;
  if (has_value) {
    value = argv[++i];
  } else if (key->form == Form::kSwitch) {
    value = "on";
  } else {
    error = "missing value for " + std::string(flag);
    return false;
  }
  std::string& slot = keys[key->name];
  slot = key->form == Form::kList && !slot.empty() ? slot + ';' + value
                                                   : value;
  return true;
}

void print_flag_help(std::FILE* out) {
  for (const Key& key : kKeys) {
    const std::string flag = flag_name(key.name) + " " + key.metavar;
    std::fprintf(out, "  %-27s %s\n", flag.c_str(), key.help);
  }
}

}  // namespace rattrap::cli
