// Bursty tenant traffic for the cluster consolidation scenarios.
//
// Each tenant VM runs `workers` request loops driven by a Poisson process
// whose rate λ(t) follows a compressed diurnal curve (sinusoid) with a
// few flash-crowd windows layered on top. The load is open-loop: request
// arrivals do not slow down when the VM is starved, so an overcommitted
// host shows up as steal time and wake-latency inflation — exactly the
// signal the steal-aware cluster scheduler consolidates on.
//
// Determinism: flash-crowd placement is pure in `spec.seed`, and each
// worker draws inter-arrivals from its own task rng, so a tenant's
// traffic is identical across tick modes, -j values and engine threads.
#pragma once

#include <cstdint>

#include "sim/types.hpp"

namespace paratick::guest {
class GuestKernel;
}  // namespace paratick::guest

namespace paratick::workload {

struct TenantTrafficSpec {
  int workers = 2;
  /// Workers loop until the guest clock reaches this time, then finish.
  sim::SimTime until = sim::SimTime::sec(1);
  /// Base mean inter-arrival at λ(t) = λ_base (diurnal scale 1.0).
  sim::SimTime mean_interarrival = sim::SimTime::us(800);
  std::int64_t service_cycles = 40'000;  // 20 us at 2 GHz

  /// Diurnal curve: λ(t) = λ_base * (1 + amplitude * sin(2πt / period)).
  /// A real day compressed into `diurnal_period` of simulated time.
  double diurnal_amplitude = 0.5;
  sim::SimTime diurnal_period = sim::SimTime::ms(250);

  /// Flash crowds: `flash_crowds` windows of `flash_duration`, placed
  /// uniformly at random in [0, until) by `seed`, during which the
  /// arrival rate is multiplied by `flash_multiplier`.
  int flash_crowds = 2;
  sim::SimTime flash_duration = sim::SimTime::ms(10);
  double flash_multiplier = 8.0;

  /// Seeds flash-crowd placement only (worker draws use task rngs).
  std::uint64_t seed = 42;
};

void install_tenant_traffic(guest::GuestKernel& kernel,
                            const TenantTrafficSpec& spec);

}  // namespace paratick::workload
