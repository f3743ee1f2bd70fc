// Umbrella header: the full public surface of the ptherm library.
//
// Layering (each header is independently includable):
//   common/    units, constants, tables, RNG, error types
//   numerics/  roots, quadrature, dense/sparse linear algebra, ODE, FFT
//   device/    technology descriptors and the Eq. (1)/(2) MOSFET models
//   spice/     MNA circuit solver (the "SPICE simulations" baseline), its
//              electro-thermal self-heating loop and solve reports
//   leakage/   stack collapse (Eqs. 3-13), gates, exact solver, baselines
//   thermal/   analytic profile + images (Eqs. 16-21), FDM reference,
//              spectral solver, die stacks, RC, the backend/influence seam
//   power/     dynamic + short-circuit power
//   netlist/   standard cells and gate-level leakage statistics
//   floorplan/ blocks, die, synthetic power maps, compiled block leakage
//   scaling/   roadmap behind the Fig. 1 reproduction
//   core/      the concurrent electro-thermal solver, influence operators,
//              the batched scenario engine, transient cosim
//   telemetry/ spans, the metrics registry and the solver-counter catalog
//   rtm/       runtime thermal management: traces, DVFS actuation, sensors,
//              policies, and the closed-loop driver over the transient cosim
#pragma once

#include "common/constants.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/cosim.hpp"
#include "core/scenario_batch.hpp"
#include "core/transient.hpp"
#include "device/mosfet.hpp"
#include "device/tech.hpp"
#include "device/variation.hpp"
#include "floorplan/compiled_leakage.hpp"
#include "floorplan/floorplan.hpp"
#include "floorplan/generators.hpp"
#include "leakage/baselines.hpp"
#include "leakage/collapse.hpp"
#include "leakage/exact_stack.hpp"
#include "leakage/gate.hpp"
#include "leakage/spnet.hpp"
#include "netlist/cells.hpp"
#include "netlist/netlist.hpp"
#include "power/dynamic.hpp"
#include "rtm/actuator.hpp"
#include "rtm/policy.hpp"
#include "rtm/sensor.hpp"
#include "rtm/simulator.hpp"
#include "rtm/trace.hpp"
#include "scaling/roadmap.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/electrothermal.hpp"
#include "spice/export.hpp"
#include "spice/report.hpp"
#include "spice/transient.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/telemetry.hpp"
#include "thermal/analytic.hpp"
#include "thermal/backend.hpp"
#include "thermal/fdm.hpp"
#include "thermal/images.hpp"
#include "thermal/map_io.hpp"
#include "thermal/rc.hpp"
#include "thermal/spectral.hpp"
#include "thermal/stack.hpp"
