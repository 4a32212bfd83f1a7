// Persisting a TestResult to disk — the file layout the real orchestrator
// collects per run (Table 1):
//
//   <dir>/trace.pcap              reconstructed packet trace (ns pcap)
//   <dir>/integrity.txt           §3.5 integrity-check verdict
//   <dir>/requester_counters.txt  NIC counters, one `name value` per line
//   <dir>/responder_counters.txt    (hosts 0/1; host i >= 2 writes
//   <dir>/host<i>_counters.txt       host<i>_counters.txt)
//   <dir>/switch_counters.txt     event-injector port/mirror counters
//   <dir>/flows.csv               per-message application metrics
//   <dir>/connections.txt         runtime QP metadata (QPN/IPSN/GID)
//   <dir>/report.json             telemetry scrape (docs/telemetry.md)
//
// Everything written here is a pure function of the TestResult, which is a
// pure function of (config, seed) — so artifact directories can be diffed
// byte-for-byte across runs, thread counts, and golden baselines. Each
// artifact is built as bytes and written through util/file_io, so a write
// that fails anywhere, the final flush included, fails the whole call.
// Nothing in the program reads a results directory back.
#pragma once

#include <string>

#include "orchestrator/orchestrator.h"

namespace lumina {

/// Writes every artifact into `dir` (created if missing). Returns false on
/// the first write that fails; when `failed_path` is non-null it receives the
/// path of the artifact that could not be written, so callers can report
/// *what* failed before propagating the error to their exit code.
bool write_results(const TestResult& result, const std::string& dir,
                   std::string* failed_path = nullptr);

}  // namespace lumina
