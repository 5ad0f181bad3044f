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

/// Renders every field `EmitTo` emits as space-separated `name=value`, so
/// a printout lists exactly what the registry exports.
template <typename Stats>
std::string FieldsToString(const Stats& stats) {
  std::string out;
  stats.EmitTo("", [&out](const std::string& name, double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!out.empty()) out += ' ';
    out += name + "=" + buf;
  });
  return out;
}
}  // namespace

// Field-count guards: every struct below is a flat bag of uint64_t
// counters, so its size pins the field count exactly. Adding a field
// without updating EmitTo() and operator+= silently drops it from every
// export and printout (that happened to fm_resolver_locks and the hand-off
// counters once) — so the assert fails the build until the companion
// functions in this file are updated and the expected count below is
// bumped.
static_assert(sizeof(MeldWork) == 6 * sizeof(uint64_t),
              "MeldWork field added: update EmitTo/operator+= and this "
              "count");
static_assert(sizeof(ArenaStats) == 9 * sizeof(uint64_t),
              "ArenaStats field added: update EmitTo and this count");
static_assert(sizeof(ConfigEcho) == 5 * sizeof(int64_t),
              "ConfigEcho field added: update Observe/EmitTo and this count");
static_assert(
    sizeof(PipelineStats) ==
        (15 + kAbortCauseCount + kAbortStageCount) * sizeof(uint64_t) +
            4 * sizeof(MeldWork) + sizeof(ConfigEcho),
    "PipelineStats field added: update EmitTo/operator+= and this count");

std::string MeldWork::ToString() const { return FieldsToString(*this); }
std::string ArenaStats::ToString() const { return FieldsToString(*this); }
std::string ConfigEcho::ToString() const { return FieldsToString(*this); }
std::string PipelineStats::ToString() const { return FieldsToString(*this); }

void MeldWork::EmitTo(const std::string& prefix,
                      const MetricEmit& emit) const {
  emit(Key(prefix, "nodes_visited"), double(nodes_visited));
  emit(Key(prefix, "ephemeral_created"), double(ephemeral_created));
  emit(Key(prefix, "grafts"), double(grafts));
  emit(Key(prefix, "conflict_checks"), double(conflict_checks));
  emit(Key(prefix, "splits"), double(splits));
  emit(Key(prefix, "cpu_nanos"), double(cpu_nanos));
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
