// Canned fuzz targets for the hunts described in the paper.
#pragma once

#include <optional>
#include <string>

#include "config/test_config.h"
#include "fuzz/fuzzer.h"

namespace lumina {

/// §6.2.2: "finding potential bugs where packet loss in one connection
/// affects other co-existing connections". The target generates Read
/// workloads, splits connections into a drop-injected set and an innocent
/// set, and scores configurations by the damage done to innocent flows
/// (message completion time inflation and requester-side rx discards).
FuzzTarget make_noisy_neighbor_target(NicType nic);

/// General target: "find bugs in a lossy network setting" — random verbs,
/// random single-packet drops, scored by counter inconsistencies and by
/// recovery latency (large NACK generation/reaction times).
FuzzTarget make_lossy_network_target(NicType nic);

/// Outcome of a crc-differential batch (see run_crc_differential).
struct CrcDifferentialOutcome {
  int iterations = 0;
  int mismatches = 0;
  /// Human-readable description of the first divergence, if any.
  std::string first_mismatch;
};

/// Differentially checks the packet/icrc fast paths against the retained
/// bit-at-a-time / pseudo-packet references (packet/icrc.h) on random
/// buffers, split points, and alignments: the dispatched CRC engine
/// (CLMUL where available, else slice-by-8) vs bitwise CRC, chained
/// crc32_update segmentation, the copy-free compute_icrc vs the
/// materializing reference, and set_mig_req's trailer update against a
/// rebuilt frame. A healthy implementation reports 0 mismatches for every
/// seed.
CrcDifferentialOutcome run_crc_differential(std::uint64_t seed,
                                            int iterations);

/// Wraps run_crc_differential as a fuzz target: each fuzzer iteration runs
/// a differential batch (plus a tiny corrupt-event simulation so the real
/// verify_icrc path executes) and anomaly = any fast-vs-reference
/// divergence. The `nic` only parameterizes the carrier simulation.
FuzzTarget make_crc_differential_target(NicType nic);

/// Scenario-explosion target: an n-host incast (hosts 1..n-1 drive Writes
/// at host 0 through the event injector) whose mutation space spans the
/// FULL injected-event vocabulary — single-packet events (drop, ecn,
/// corrupt, rewrite-migreq, delay, reorder, duplicate) and the stateful
/// fault models (burst-loss, pause-storm, link-flap) with their
/// parameters. Delays and durations are generated at whole-microsecond
/// granularity so configurations survive the canonical YAML round trip
/// the corpus checkpoint depends on. Score: report-driven fitness (MCT
/// inflation + event/fault activity, fuzz/scorers.h); anomaly: a §3.5
/// integrity failure or aborted traffic — the injected faults are designed
/// to be survivable, so a run the analyzer cannot trust is a finding.
FuzzTarget make_scenario_target(NicType nic, int num_hosts = 4);

/// Looks a canned target up by its campaign-YAML name
/// ("noisy-neighbor" | "lossy-network" | "crc-differential" | "scenario").
/// Empty on unknown names. `scenario_hosts` parameterizes only the
/// scenario target's topology width.
std::optional<FuzzTarget> make_fuzz_target(const std::string& name,
                                           NicType nic,
                                           int scenario_hosts = 4);

}  // namespace lumina
