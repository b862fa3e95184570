// Fault-injection replay driver (DESIGN.md §10): replays a snapshot series
// over an epoch placement while a FaultSchedule fires against the live
// system, and runs the control-plane recovery machinery the paper's
// architecture implies:
//
//   * instance crash   — detected at the next counter poll, replaced at the
//                        same host (kBareXen for ClickOS images, the full
//                        OpenStack pipeline otherwise), rules swapped to the
//                        replacement once it is up.
//   * node down        — detected at the next poll; the controller recomputes
//                        the epoch excluding every down host
//                        (AppleController::optimize_excluding_hosts) and
//                        swaps the whole placement after the modeled boot +
//                        rule makespan (full_reinstall_latency).
//   * link down/up     — interference freedom means no reroute: the severed
//                        classes blackhole until the link's up event (the
//                        availability cost Sec. III accepts by design).
//   * boot failure     — the recovery launch fails; retried at the next poll
//                        under a fresh instance id. A launch the host has no
//                        cores for is retried the same way; its fault stays
//                        unrepaired until one succeeds.
//   * slow boot        — the recovery launch takes multiplier× longer; the
//                        blackhole window stretches accordingly.
//   * rule install     — the recovery rule swap is rejected once; retried at
//                        the next poll.
//
// Throughout, a RecoveryMonitor accounts time-to-detect / time-to-repair per
// fault, integrates blackholed traffic against the fault that caused it, and
// probes the data plane for policy violations: a delivered packet must
// traverse its full chain, faults or not. bench_fault_recovery gates on
// all-repaired + zero violations + determinism.
// The system under fault is AppleController::replay's (core/live_system.h)
// at the controller's timing, so a fault-free run loses what a plain replay
// without fast failover loses.
#pragma once

#include <span>
#include <vector>

#include "core/apple_controller.h"
#include "fault/fault_schedule.h"
#include "fault/recovery_monitor.h"

namespace apple::core {

struct FaultReplayOptions {
  // Probes per class verified at every poll for policy verification,
  // walked again only after the data plane changed.
  std::size_t probes_per_class = 2;
  // Extra simulated seconds after the series to let in-flight repairs
  // (30 s full-VM boots, late link-up events) land.
  double drain_limit = 90.0;
};

struct FaultReplayResult {
  fault::RecoveryReport recovery;
  // Per-snapshot offered-weighted loss and blackholed fraction (series
  // portion only; the drain phase is excluded).
  std::vector<double> snapshot_loss;
  std::vector<double> snapshot_blackholed;
  double mean_loss = 0.0;
  std::size_t boot_retries = 0;   // recovery launches lost to boot faults
  std::size_t rule_retries = 0;   // rule swaps lost to install faults
  std::size_t faults_skipped = 0; // schedule events with no victim
  double end_time = 0.0;          // simulation clock when the run stopped
};

// Replays `series` over `epoch` with `schedule` armed against the live
// system. Deterministic: identical (controller, epoch, series, schedule,
// options) produce identical results, including every timestamp in the
// recovery report.
FaultReplayResult replay_with_faults(
    const AppleController& controller, const Epoch& epoch,
    std::span<const traffic::TrafficMatrix> series,
    const fault::FaultSchedule& schedule, const FaultReplayOptions& options = {});

}  // namespace apple::core
