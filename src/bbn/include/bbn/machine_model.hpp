#pragma once

#include <cstddef>

#include "dls/params.hpp"
#include "hagerup/simulator.hpp"

namespace bbn {

/// Model of the 96-node BBN GP-1000 environment of the TSS publication
/// (Tzen & Ni 1993), the "values from original publication" side of the
/// paper's Figures 3-4.
///
/// The original measurements used *implicit* shared-memory parallelism:
/// processors self-dispatch chunks from a shared loop index.  The paper
/// names three mechanisms, absent from the explicit master-worker
/// model, as the likely cause of its unsuccessful reproduction
/// (Sections IV-A and VI); this model implements exactly those, as
/// parameters of the one direct simulator (hagerup::run, see
/// on_machine):
///
///   1. Dispatch serialization: the shared loop index is one memory
///      location; concurrent fetches serialize.  SS, CSS and TSS use
///      atomic instructions (cheap); GSS computes its chunk under a
///      lock (expensive), "the chunk calculation seems to have a strong
///      influence for GSS".
///   2. Contention growth: dispatch cost rises with the processor count
///      because the fetches traverse the multistage interconnection
///      network (a slight OMEGA variant).
///   3. Remote memory references: task execution is inflated by the
///      remote reference ratio (the publication pins it at 5%) times
///      the remote-access penalty.
struct MachineModel {
  /// Atomic fetch&add dispatch (SS, CSS, TSS): busy time per dispatch
  /// is atomic_base + atomic_per_pe * P.
  double atomic_base = 1.5e-6;
  double atomic_per_pe = 6.0e-8;
  /// Locked dispatch (GSS): lock_base + lock_per_pe * P held per
  /// dispatch; contended fetches queue.
  double lock_base = 2.0e-5;
  double lock_per_pe = 1.6e-6;
  /// Fraction of memory references that are remote, and the cost
  /// multiplier of a remote reference relative to a local one.
  double remote_ref_ratio = 0.05;
  double remote_penalty = 3.0;

  /// Effective task-time multiplier from remote references.
  [[nodiscard]] double inflation() const {
    return 1.0 + remote_ref_ratio * (remote_penalty - 1.0);
  }
  /// Dispatch hold time for a technique on P processors.
  [[nodiscard]] double dispatch_hold(dls::Kind technique, std::size_t pes) const;
};

/// `config` run on the GP-1000: every dispatch holds the shared
/// dispatcher for machine.dispatch_hold(technique, pes), executed task
/// times are inflated by machine.inflation(), and task times come from
/// xoshiro.  The overhead accounting is left as `config` has it (the
/// Config default: h analytically, not on the workers' timelines).
[[nodiscard]] hagerup::Config on_machine(hagerup::Config config,
                                         const MachineModel& machine = {});

/// Tzen-Ni measurements (their equations (11)-(13)) of a run: with X
/// computing (compute_time), O scheduling (schedule_time: queueing plus
/// hold), W waiting for synchronization and L the executed work,
/// sum(X + O + W) = P * makespan.
struct TzenNi {
  double speedup = 0.0;           ///< r      = L*P / sum(X+O+W)
  double overhead_degree = 0.0;   ///< Theta  = O*P / sum(X+O+W)
  double imbalance_degree = 0.0;  ///< Lambda = W*P / sum(X+O+W)
};

[[nodiscard]] TzenNi tzen_ni(const hagerup::RunResult& result);

}  // namespace bbn
