#include "fault/recovery_monitor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "common/check.h"
#include "obs/obs.h"

namespace apple::fault {

LatencyStats LatencyStats::from_samples(std::vector<double> samples) {
  LatencyStats stats;
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  stats.count = samples.size();
  stats.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
               static_cast<double>(samples.size());
  const auto nearest_rank = [&](double p) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(samples.size())));
    return samples[std::min(rank == 0 ? 0 : rank - 1, samples.size() - 1)];
  };
  stats.p50 = nearest_rank(0.50);
  stats.p99 = nearest_rank(0.99);
  stats.max = samples.back();
  return stats;
}

void RecoveryMonitor::on_injected(const FaultEvent& e, double now) {
  if (records_.contains(e.fault_id)) return;  // flap up / duplicate hook
  FaultRecord record;
  record.fault_id = e.fault_id;
  record.kind = e.kind;
  record.injected_at = now;
  records_.emplace(e.fault_id, record);
}

void RecoveryMonitor::on_detected(FaultId fault_id, double now) {
  const auto it = records_.find(fault_id);
  if (it == records_.end() || it->second.detected()) return;
  it->second.detected_at = now;
  APPLE_OBS_COUNT("fault.detected");
  APPLE_OBS_EVENT_N("fault.detect", fault_id);
  APPLE_OBS_OBSERVE("fault.time_to_detect_seconds",
                    it->second.time_to_detect());
}

void RecoveryMonitor::on_repaired(FaultId fault_id, double now) {
  const auto it = records_.find(fault_id);
  if (it == records_.end() || it->second.repaired()) return;
  // A repair implies a detection: self-clearing faults (link up) may skip
  // the explicit on_detected call.
  if (!it->second.detected()) on_detected(fault_id, now);
  it->second.repaired_at = now;
  APPLE_OBS_COUNT("fault.repaired");
  APPLE_OBS_EVENT_N("fault.repair", fault_id);
  APPLE_OBS_OBSERVE("fault.time_to_repair_seconds",
                    it->second.time_to_repair());
}

void RecoveryMonitor::account_loss(FaultId fault_id, double mbit) {
  if (mbit <= 0.0) return;
  const auto it = records_.find(fault_id);
  if (it == records_.end()) {
    account_unattributed(mbit);
    return;
  }
  it->second.traffic_lost_mbit += mbit;
}

void RecoveryMonitor::account_unattributed(double mbit) {
  if (mbit <= 0.0) return;
  unattributed_lost_mbit_ += mbit;
}

std::size_t RecoveryMonitor::verify_policies(
    const dataplane::DataPlane& dp, std::span<const PolicyProbe> probes) {
  Sweep sweep;
  sweep.probes = probes.data();
  sweep.size = probes.size();
  for (const PolicyProbe& probe : probes) {
    const dataplane::DataPlane::WalkResult result =
        dp.walk(probe.class_id, probe.header);
    if (!result.delivered) {
      // Dropped mid-chain: availability loss, not a correctness loss.
      ++sweep.blackholed;
      continue;
    }
    if (dp.traversed_types(result.packet) != probe.expected_chain) {
      sweep.violating.push_back(probe.class_id);
    }
  }
  last_sweep_ = std::move(sweep);
  return count(*last_sweep_);
}

std::size_t RecoveryMonitor::repeat_last_sweep(
    std::span<const PolicyProbe> probes) {
  if (!last_sweep_) return 0;
  APPLE_DCHECK(probes.data() == last_sweep_->probes &&
               probes.size() == last_sweep_->size);
  return count(*last_sweep_);
}

std::size_t RecoveryMonitor::count(const Sweep& sweep) {
  policy_probes_ += sweep.size;
  blackholed_probes_ += sweep.blackholed;
  policy_violations_ += sweep.violating.size();
  if (sweep.size > 0) APPLE_OBS_COUNT_N("fault.policy_probes", sweep.size);
  if (sweep.blackholed > 0) {
    APPLE_OBS_COUNT_N("fault.blackholed_probes", sweep.blackholed);
  }
  if (!sweep.violating.empty()) {
    APPLE_OBS_COUNT_N("fault.policy_violations", sweep.violating.size());
  }
  for (const traffic::ClassId id : sweep.violating) {
    APPLE_OBS_EVENT_N("fault.policy_violation", id);
  }
  return sweep.violating.size();
}

bool RecoveryMonitor::all_repaired() const {
  return std::all_of(records_.begin(), records_.end(),
                     [](const auto& kv) { return kv.second.repaired(); });
}

std::vector<FaultId> RecoveryMonitor::open_faults() const {
  std::vector<FaultId> ids;
  for (const auto& [id, record] : records_) {
    if (!record.repaired()) ids.push_back(id);
  }
  return ids;  // map iteration: already ascending
}

std::optional<FaultRecord> RecoveryMonitor::record(FaultId fault_id) const {
  const auto it = records_.find(fault_id);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

RecoveryReport RecoveryMonitor::report() const {
  RecoveryReport report;
  std::vector<double> detect_samples;
  std::vector<double> repair_samples;
  for (const auto& [id, record] : records_) {
    report.records.push_back(record);
    ++report.injected;
    if (record.detected()) {
      ++report.detected;
      detect_samples.push_back(record.time_to_detect());
    }
    if (record.repaired()) {
      ++report.repaired;
      repair_samples.push_back(record.time_to_repair());
    }
    report.traffic_lost_mbit += record.traffic_lost_mbit;
  }
  report.detect_latency = LatencyStats::from_samples(std::move(detect_samples));
  report.repair_latency = LatencyStats::from_samples(std::move(repair_samples));
  report.unattributed_lost_mbit = unattributed_lost_mbit_;
  report.policy_probes = policy_probes_;
  report.policy_violations = policy_violations_;
  report.blackholed_probes = blackholed_probes_;
  return report;
}

std::string RecoveryReport::fingerprint() const {
  // Fixed-precision formatting so the string is a function of the values,
  // not of locale or float-printing defaults.
  std::string out;
  char line[256];
  for (const FaultRecord& r : records) {
    std::snprintf(line, sizeof(line),
                  "fault %u %s inject=%.6f detect=%.6f repair=%.6f "
                  "lost=%.6f\n",
                  r.fault_id, std::string(to_string(r.kind)).c_str(),
                  r.injected_at, r.detected_at, r.repaired_at,
                  r.traffic_lost_mbit);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "totals injected=%zu detected=%zu repaired=%zu "
                "lost=%.6f unattributed=%.6f probes=%zu violations=%zu "
                "blackholed_probes=%zu\n",
                injected, detected, repaired, traffic_lost_mbit,
                unattributed_lost_mbit, policy_probes, policy_violations,
                blackholed_probes);
  out += line;
  return out;
}

}  // namespace apple::fault
