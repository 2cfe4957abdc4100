#include "bbn/machine_model.hpp"

#include <algorithm>

namespace bbn {

double MachineModel::dispatch_hold(dls::Kind technique, std::size_t pes) const {
  const double p = static_cast<double>(pes);
  if (technique == dls::Kind::kGSS) return lock_base + lock_per_pe * p;
  return atomic_base + atomic_per_pe * p;
}

hagerup::Config on_machine(hagerup::Config config, const MachineModel& machine) {
  config.dispatch_hold = machine.dispatch_hold(config.technique, config.pes);
  config.work_inflation = machine.inflation();
  config.use_rand48 = false;
  return config;
}

TzenNi tzen_ni(const hagerup::RunResult& result) {
  const double p = static_cast<double>(result.compute_time.size());
  const double denom = p * result.makespan;
  double x_sum = 0.0;
  double o_sum = 0.0;
  for (std::size_t pe = 0; pe < result.compute_time.size(); ++pe) {
    x_sum += result.compute_time[pe];
    o_sum += result.schedule_time[pe];
  }
  const double w_sum = std::max(0.0, denom - x_sum - o_sum);
  TzenNi out;
  if (denom > 0.0) {
    out.speedup = result.executed_work * p / denom;
    out.overhead_degree = o_sum * p / denom;
    out.imbalance_degree = w_sum * p / denom;
  }
  return out;
}

}  // namespace bbn
