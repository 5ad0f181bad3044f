#include "common/registry.h"

#include <algorithm>
#include <cstdio>

namespace hyder {

namespace {

/// Formats a metric value: integers without a decimal point (counter
/// values round-trip exactly), everything else with %g.
std::string FormatValue(double v) {
  char buf[40];
  if (v == double(int64_t(v)) && v > -1e15 && v < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(int64_t(v)));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

ProviderHandle& ProviderHandle::operator=(ProviderHandle&& o) noexcept {
  if (this != &o) {
    if (registry_ != nullptr) registry_->Unregister(id_);
    registry_ = o.registry_;
    id_ = o.id_;
    o.registry_ = nullptr;
  }
  return *this;
}

ProviderHandle::~ProviderHandle() {
  if (registry_ != nullptr) registry_->Unregister(id_);
}

MetricsRegistry& MetricsRegistry::Global() {
  // Intentionally leaked: subsystems (node arena, logs) may still consult
  // the registry during static destruction.
  static MetricsRegistry* global = new MetricsRegistry();
  return *global;
}

LatencyHistogram* MetricsRegistry::histogram(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return slot.get();
}

ProviderHandle MetricsRegistry::RegisterProvider(const std::string& prefix,
                                                 Provider provider) {
  MutexLock lock(mu_);
  std::string unique = prefix;
  for (int n = 1;; /* uniquified */) {
    bool taken = false;
    for (const ProviderEntry& e : providers_) {
      if (e.prefix == unique) {
        taken = true;
        break;
      }
    }
    if (!taken) break;
    unique = prefix + "#" + std::to_string(++n);
  }
  const uint64_t id = next_provider_id_++;
  providers_.push_back(ProviderEntry{id, unique, std::move(provider)});
  return ProviderHandle(this, id);
}

void MetricsRegistry::Unregister(uint64_t id) {
  MutexLock lock(mu_);
  providers_.erase(
      std::remove_if(providers_.begin(), providers_.end(),
                     [id](const ProviderEntry& e) { return e.id == id; }),
      providers_.end());
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot snap;
  MutexLock lock(mu_);
  for (const ProviderEntry& entry : providers_) {
    const std::string& prefix = entry.prefix;
    entry.fn([&snap, &prefix](const std::string& field, double value) {
      snap.values.emplace_back(prefix + "." + field, value);
    });
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms.emplace_back(name, hist->snapshot());
  }
  std::sort(snap.values.begin(), snap.values.end());
  return snap;
}

std::string MetricsRegistry::DumpMetrics() const {
  const Snapshot snap = TakeSnapshot();
  std::string out;
  for (const auto& [name, value] : snap.values) {
    out += name;
    out += ' ';
    out += FormatValue(value);
    out += '\n';
  }
  for (const auto& [name, hist] : snap.histograms) {
    out += name;
    out += ": ";
    out += hist.Summary();
    out += '\n';
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  const Snapshot snap = TakeSnapshot();
  std::string json = "{\n  \"metrics\": {";
  for (size_t i = 0; i < snap.values.size(); ++i) {
    json += i == 0 ? "\n    " : ",\n    ";
    AppendJsonString(&json, snap.values[i].first);
    json += ": " + FormatValue(snap.values[i].second);
  }
  json += snap.values.empty() ? "},\n" : "\n  },\n";
  json += "  \"histograms\": {";
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    const Histogram& h = snap.histograms[i].second;
    json += i == 0 ? "\n    " : ",\n    ";
    AppendJsonString(&json, snap.histograms[i].first);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ": {\"count\": %llu, \"mean\": %.3f, \"min\": %llu, "
                  "\"p50\": %llu, \"p90\": %llu, \"p99\": %llu, "
                  "\"p999\": %llu, \"max\": %llu}",
                  (unsigned long long)h.count(), h.mean(),
                  (unsigned long long)h.min(),
                  (unsigned long long)h.Percentile(50),
                  (unsigned long long)h.Percentile(90),
                  (unsigned long long)h.Percentile(99),
                  (unsigned long long)h.Percentile(99.9),
                  (unsigned long long)h.max());
    json += buf;
  }
  json += snap.histograms.empty() ? "}\n" : "\n  }\n";
  json += "}\n";
  return json;
}

}  // namespace hyder
