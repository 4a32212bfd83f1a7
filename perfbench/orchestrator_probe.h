// The traced form of one Orchestrator run: run() split into its prepare,
// simulate and collect phases from outside the library.
#pragma once

#include <functional>

#include "harness.h"
#include "orchestrator/orchestrator.h"

namespace perfbench {

/// Runs `config` once on a fresh Orchestrator and records the spans
///
///   orchestrator.build_ms      the constructor: testbed, NICs, switch,
///                              dumpers
///   orchestrator.run_ms        run(), split into
///     orchestrator.prepare_ms  run() entry to the first simulated event
///     sim.run_ms               first event to the heartbeat that sees the
///                              traffic generator finished
///     orchestrator.collect_ms  the rest: simulation tail, trace
///                              reconstruction, §3.5 check, telemetry scrape
///   orchestrator.teardown_ms   the destructor
///
/// plus the layer counts (sim.*, trace.packets, injector.*, dumper.*,
/// rnic.*). `inspect` runs untimed between run() and teardown. Returns the
/// wall time of construction, run() and destruction.
double traced_orchestrator_run(
    const lumina::TestConfig& config,
    const lumina::Orchestrator::Options& options, Tracer& tracer,
    const std::function<void(lumina::Orchestrator&)>& inspect);

}  // namespace perfbench
