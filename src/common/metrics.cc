#include "common/metrics.h"

#include <algorithm>
#include <cstdio>

namespace hyder {

namespace {
/// Joins a metric prefix and field name. An empty prefix yields the bare
/// field: MetricsRegistry providers emit bare fields (the registry adds
/// the provider prefix itself), while direct callers pass their own.
std::string Key(const std::string& prefix, const char* field) {
  return prefix.empty() ? std::string(field) : prefix + "." + field;
}
}  // namespace

// Field-count guards: every struct below is a flat bag of uint64_t
// counters, so its size pins the field count exactly. Adding a field
// without updating ToString(), EmitTo() and operator+= silently drops it
// from every stats printout (that happened to fm_resolver_locks and the
// hand-off counters once) — so the assert fails the build until the
// companion functions in this file are updated and the expected count
// below is bumped.
static_assert(sizeof(MeldWork) == 6 * sizeof(uint64_t),
              "MeldWork field added: update ToString/EmitTo/operator+= "
              "and this count");
static_assert(sizeof(ArenaStats) == 9 * sizeof(uint64_t),
              "ArenaStats field added: update ToString/EmitTo and this "
              "count");
static_assert(sizeof(ConfigEcho) == 5 * sizeof(int64_t),
              "ConfigEcho field added: update Observe/ToString/EmitTo and "
              "this count");
static_assert(
    sizeof(PipelineStats) ==
        (15 + kAbortCauseCount + kAbortStageCount) * sizeof(uint64_t) +
            4 * sizeof(MeldWork) + sizeof(ConfigEcho),
    "PipelineStats field added: update ToString/EmitTo/"
    "operator+= and this count");

std::string MeldWork::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "visited=%llu ephemeral=%llu grafts=%llu checks=%llu "
                "splits=%llu cpu_us=%.1f",
                static_cast<unsigned long long>(nodes_visited),
                static_cast<unsigned long long>(ephemeral_created),
                static_cast<unsigned long long>(grafts),
                static_cast<unsigned long long>(conflict_checks),
                static_cast<unsigned long long>(splits),
                double(cpu_nanos) / 1e3);
  return buf;
}

void MeldWork::EmitTo(const std::string& prefix,
                      const MetricEmit& emit) const {
  emit(Key(prefix, "nodes_visited"), double(nodes_visited));
  emit(Key(prefix, "ephemeral_created"), double(ephemeral_created));
  emit(Key(prefix, "grafts"), double(grafts));
  emit(Key(prefix, "conflict_checks"), double(conflict_checks));
  emit(Key(prefix, "splits"), double(splits));
  emit(Key(prefix, "cpu_nanos"), double(cpu_nanos));
}

std::string ArenaStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "live=%llu allocated=%llu recycled=%llu slabs=%llu "
                "slab_kb=%llu carved=%llu free_shared=%llu "
                "heap_payloads=%llu",
                static_cast<unsigned long long>(live),
                static_cast<unsigned long long>(allocated),
                static_cast<unsigned long long>(recycled),
                static_cast<unsigned long long>(slabs),
                static_cast<unsigned long long>(slab_bytes / 1024),
                static_cast<unsigned long long>(carved),
                static_cast<unsigned long long>(free_shared),
                static_cast<unsigned long long>(payload_heap_allocs -
                                                payload_heap_frees));
  return buf;
}

void ArenaStats::EmitTo(const std::string& prefix,
                        const MetricEmit& emit) const {
  emit(Key(prefix, "live"), double(live));
  emit(Key(prefix, "allocated"), double(allocated));
  emit(Key(prefix, "recycled"), double(recycled));
  emit(Key(prefix, "slabs"), double(slabs));
  emit(Key(prefix, "slab_bytes"), double(slab_bytes));
  emit(Key(prefix, "carved"), double(carved));
  emit(Key(prefix, "free_shared"), double(free_shared));
  emit(Key(prefix, "payload_heap_allocs"), double(payload_heap_allocs));
  emit(Key(prefix, "payload_heap_frees"), double(payload_heap_frees));
}

void ConfigEcho::Observe(const ConfigEcho& o) {
  premeld_threads = std::max(premeld_threads, o.premeld_threads);
  premeld_distance = std::max(premeld_distance, o.premeld_distance);
  group_meld = std::max(group_meld, o.group_meld);
  state_retention = std::max(state_retention, o.state_retention);
  disable_graft_fastpath =
      std::max(disable_graft_fastpath, o.disable_graft_fastpath);
}

std::string ConfigEcho::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "pm_threads=%lld pm_distance=%lld group=%lld retention=%lld "
                "no_graft=%lld",
                static_cast<long long>(premeld_threads),
                static_cast<long long>(premeld_distance),
                static_cast<long long>(group_meld),
                static_cast<long long>(state_retention),
                static_cast<long long>(disable_graft_fastpath));
  return buf;
}

void ConfigEcho::EmitTo(const std::string& prefix,
                        const MetricEmit& emit) const {
  emit(Key(prefix, "premeld_threads"), double(premeld_threads));
  emit(Key(prefix, "premeld_distance"), double(premeld_distance));
  emit(Key(prefix, "group_meld"), double(group_meld));
  emit(Key(prefix, "state_retention"), double(state_retention));
  emit(Key(prefix, "disable_graft_fastpath"), double(disable_graft_fastpath));
}

PipelineStats& PipelineStats::operator+=(const PipelineStats& o) {
  intentions += o.intentions;
  committed += o.committed;
  aborted += o.aborted;
  premeld_aborts += o.premeld_aborts;
  premeld_skips += o.premeld_skips;
  premeld_killed_nodes += o.premeld_killed_nodes;
  premeld_killed_nodes_materialized += o.premeld_killed_nodes_materialized;
  group_singletons += o.group_singletons;
  deserialize += o.deserialize;
  premeld += o.premeld;
  group_meld += o.group_meld;
  final_meld += o.final_meld;
  conflict_zone_sum += o.conflict_zone_sum;
  final_melds += o.final_melds;
  fm_resolver_locks += o.fm_resolver_locks;
  handoff_blocked_pushes += o.handoff_blocked_pushes;
  handoff_blocked_pops += o.handoff_blocked_pops;
  handoff_blocked_push_nanos += o.handoff_blocked_push_nanos;
  handoff_blocked_pop_nanos += o.handoff_blocked_pop_nanos;
  for (int i = 0; i < kAbortCauseCount; ++i) {
    aborts_by_cause[i] += o.aborts_by_cause[i];
  }
  for (int i = 0; i < kAbortStageCount; ++i) {
    aborts_by_stage[i] += o.aborts_by_stage[i];
  }
  config_echo.Observe(o.config_echo);
  return *this;
}

std::string PipelineStats::ToString() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "intentions=%llu committed=%llu aborted=%llu (premeld_aborts=%llu "
      "premeld_skips=%llu singletons=%llu) "
      "pm_killed_nodes=%llu/%llu ds[%s] pm[%s] gm[%s] fm[%s] "
      "final_melds=%llu avg_conflict_zone=%.1f fm_resolver_locks=%llu "
      "handoff_blocked=%llu/%llu (%.1f/%.1f ms) echo[%s]",
      static_cast<unsigned long long>(intentions),
      static_cast<unsigned long long>(committed),
      static_cast<unsigned long long>(aborted),
      static_cast<unsigned long long>(premeld_aborts),
      static_cast<unsigned long long>(premeld_skips),
      static_cast<unsigned long long>(group_singletons),
      static_cast<unsigned long long>(premeld_killed_nodes_materialized),
      static_cast<unsigned long long>(premeld_killed_nodes),
      deserialize.ToString().c_str(), premeld.ToString().c_str(),
      group_meld.ToString().c_str(), final_meld.ToString().c_str(),
      static_cast<unsigned long long>(final_melds),
      final_melds == 0 ? 0.0
                       : double(conflict_zone_sum) / double(final_melds),
      static_cast<unsigned long long>(fm_resolver_locks),
      static_cast<unsigned long long>(handoff_blocked_pushes),
      static_cast<unsigned long long>(handoff_blocked_pops),
      double(handoff_blocked_push_nanos) / 1e6,
      double(handoff_blocked_pop_nanos) / 1e6,
      config_echo.ToString().c_str());
  std::string s = buf;
  bool any = false;
  for (int i = 1; i < kAbortCauseCount; ++i) {
    if (aborts_by_cause[i] == 0) continue;
    s += any ? " " : " abort_causes[";
    any = true;
    s += AbortCauseName(static_cast<AbortCause>(i));
    s += "=" + std::to_string(aborts_by_cause[i]);
  }
  if (any) s += "]";
  return s;
}

void PipelineStats::EmitTo(const std::string& prefix,
                           const MetricEmit& emit) const {
  emit(Key(prefix, "intentions"), double(intentions));
  emit(Key(prefix, "committed"), double(committed));
  emit(Key(prefix, "aborted"), double(aborted));
  emit(Key(prefix, "premeld_aborts"), double(premeld_aborts));
  emit(Key(prefix, "premeld_skips"), double(premeld_skips));
  emit(Key(prefix, "premeld_killed_nodes"), double(premeld_killed_nodes));
  emit(Key(prefix, "premeld_killed_nodes_materialized"),
       double(premeld_killed_nodes_materialized));
  emit(Key(prefix, "group_singletons"), double(group_singletons));
  deserialize.EmitTo(Key(prefix, "ds"), emit);
  premeld.EmitTo(Key(prefix, "pm"), emit);
  group_meld.EmitTo(Key(prefix, "gm"), emit);
  final_meld.EmitTo(Key(prefix, "fm"), emit);
  emit(Key(prefix, "conflict_zone_sum"), double(conflict_zone_sum));
  emit(Key(prefix, "final_melds"), double(final_melds));
  emit(Key(prefix, "fm_resolver_locks"), double(fm_resolver_locks));
  emit(Key(prefix, "handoff_blocked_pushes"),
       double(handoff_blocked_pushes));
  emit(Key(prefix, "handoff_blocked_pops"), double(handoff_blocked_pops));
  emit(Key(prefix, "handoff_blocked_push_nanos"),
       double(handoff_blocked_push_nanos));
  emit(Key(prefix, "handoff_blocked_pop_nanos"),
       double(handoff_blocked_pop_nanos));
  // Per-cause / per-stage abort counters ("<prefix>.abort.write_write",
  // "<prefix>.abort_stage.final_meld", ...). Index 0 (kNone) is skipped —
  // it is structurally zero.
  for (int i = 1; i < kAbortCauseCount; ++i) {
    emit(Key(prefix, "abort") + "." + AbortCauseName(static_cast<AbortCause>(i)),
         double(aborts_by_cause[i]));
  }
  for (int i = 1; i < kAbortStageCount; ++i) {
    emit(Key(prefix, "abort_stage") + "." +
             AbortStageName(static_cast<AbortStage>(i)),
         double(aborts_by_stage[i]));
  }
  config_echo.EmitTo(Key(prefix, "echo"), emit);
}

}  // namespace hyder
