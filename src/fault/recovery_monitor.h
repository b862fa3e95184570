// RecoveryMonitor: per-fault recovery-SLO and policy-violation accounting
// (DESIGN.md §10).
//
// The injector reports when a fault takes effect; the driver reports when
// its detector notices and when the repair lands. The monitor turns those
// three timestamps into time-to-detect / time-to-repair distributions,
// integrates the traffic blackholed while each fault was open, and counts
// policy-violation packets observed by probing the data plane. APPLE's
// claim is that faults cost availability, never correctness — a recovery
// run is only green when every fault is repaired AND the violation count
// is exactly zero.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dataplane/data_plane.h"
#include "fault/fault_schedule.h"
#include "hsa/predicate.h"
#include "vnf/nf_types.h"

namespace apple::fault {

// Lifecycle of one fault, all times in simulation seconds. Timestamps are
// -1 until the corresponding transition happens.
struct FaultRecord {
  FaultId fault_id = kNoFault;
  FaultKind kind = FaultKind::kInstanceCrash;
  double injected_at = -1.0;
  double detected_at = -1.0;
  double repaired_at = -1.0;
  // Demand-seconds (Mbps * s ≙ Mbit) blackholed while this fault was open.
  double traffic_lost_mbit = 0.0;

  bool detected() const { return detected_at >= 0.0; }
  bool repaired() const { return repaired_at >= 0.0; }
  double time_to_detect() const { return detected_at - injected_at; }
  double time_to_repair() const { return repaired_at - injected_at; }
};

// Nearest-rank percentiles over a latency sample; all fields 0 when the
// sample is empty.
struct LatencyStats {
  std::size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;

  static LatencyStats from_samples(std::vector<double> samples);
};

struct RecoveryReport {
  std::vector<FaultRecord> records;  // sorted by fault id
  std::size_t injected = 0;
  std::size_t detected = 0;
  std::size_t repaired = 0;
  LatencyStats detect_latency;  // over detected faults
  LatencyStats repair_latency;  // over repaired faults
  double traffic_lost_mbit = 0.0;        // attributed to some fault
  double unattributed_lost_mbit = 0.0;   // blackholed, owner unknown
  // Probes verified, summed over every sweep: walked (verify_policies) or
  // counted again over an unchanged data plane (repeat_last_sweep).
  std::size_t policy_probes = 0;
  std::size_t policy_violations = 0;
  std::size_t blackholed_probes = 0;  // probes dropped mid-chain (allowed)

  bool all_repaired() const { return repaired == injected; }
  // Deterministic text form of the whole report — two same-seed runs must
  // produce byte-identical fingerprints (the bench determinism gate).
  std::string fingerprint() const;
};

// A header probed through an installed class, with the NF chain the
// policy says it must traverse when delivered.
struct PolicyProbe {
  traffic::ClassId class_id = 0;
  hsa::PacketHeader header;
  std::vector<vnf::NfType> expected_chain;
};

class RecoveryMonitor {
 public:
  // --- fault lifecycle (injector hooks + driver) ---------------------------
  // Idempotent per fault id: a link flap's down event opens the record; a
  // repeated on_injected for the same id is ignored.
  void on_injected(const FaultEvent& e, double now);
  // Driver's detector noticed the fault (first call wins).
  void on_detected(FaultId fault_id, double now);
  // Repair landed (replacement serving / link back / retry succeeded).
  void on_repaired(FaultId fault_id, double now);

  // --- loss accounting -----------------------------------------------------
  // Blackholed demand integrated over one tick, attributed to `fault_id`.
  void account_loss(FaultId fault_id, double mbit);
  // Blackholed demand the driver could not pin on an open fault.
  void account_unattributed(double mbit);

  // --- policy verification -------------------------------------------------
  // Walks every probe through `dp`. A delivered packet whose traversed NF
  // chain differs from the probe's expected chain is a policy violation —
  // the thing APPLE must never produce, faults or not. A probe that drops
  // mid-chain (walk error) is blackholed, which is allowed during the
  // repair window. Returns violations found in this call.
  std::size_t verify_policies(const dataplane::DataPlane& dp,
                              std::span<const PolicyProbe> probes);
  // Verifies the last verify_policies sweep's probes again without walking
  // them: for a caller that knows the data plane has not changed since
  // (DataPlane::version()), so every walk would repeat its outcome.
  // `probes` must be that sweep's span (same data() and size()). Adds the
  // same probe / blackholed / violation totals, counters and violation
  // events as the sweep did and returns its violation count; before any
  // sweep it counts nothing and returns 0.
  std::size_t repeat_last_sweep(std::span<const PolicyProbe> probes);

  // --- queries -------------------------------------------------------------
  bool all_repaired() const;
  // Injected-but-unrepaired fault ids, ascending.
  std::vector<FaultId> open_faults() const;
  std::optional<FaultRecord> record(FaultId fault_id) const;
  std::size_t policy_violations() const { return policy_violations_; }

  RecoveryReport report() const;

 private:
  // Outcome of one verify_policies sweep.
  struct Sweep {
    const PolicyProbe* probes = nullptr;  // the span's identity, never read
    std::size_t size = 0;
    std::size_t blackholed = 0;
    std::vector<traffic::ClassId> violating;  // in probe order
  };

  // Adds `sweep`'s outcome to the totals, counters and events; returns its
  // violation count.
  std::size_t count(const Sweep& sweep);

  std::map<FaultId, FaultRecord> records_;
  double unattributed_lost_mbit_ = 0.0;
  std::size_t policy_probes_ = 0;
  std::size_t policy_violations_ = 0;
  std::size_t blackholed_probes_ = 0;
  std::optional<Sweep> last_sweep_;
};

}  // namespace apple::fault
