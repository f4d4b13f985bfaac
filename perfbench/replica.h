// Traced replicas of the campaign loops.
//
// The untraced benchmark runs drive RunCampaign and RunFleet. A traced run
// instead calls, from these benchmark files, the same public functions those
// loops call and in the same order, timing each call as a span:
//   - ReplicaCampaign mirrors RunSerialCampaign with ExecutionHarness::Run
//     (serial backends) or ExecutionHarness::RunConcurrent (sessions > 1);
//   - ReplicaFleet mirrors the single-process fleet reference that the fleet
//     tests pin: every shard in shard order through ExecuteShard's steps,
//     its pool and outcome through the wire encoders, then UpdatePool.
// A replica that drifts from the loop it copies shows up as a fidelity
// failure: the benchmark compares edges, bug ids and statement counts with
// the untraced run of the same seed.

#ifndef PERFBENCH_REPLICA_H_
#define PERFBENCH_REPLICA_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "coverage/coverage.h"
#include "fleet/fleet.h"
#include "fuzz/campaign.h"
#include "fuzz/fuzzer.h"
#include "fuzz/harness.h"
#include "trace.h"

namespace perfbench {

namespace cov = lego::cov;
namespace fleet = lego::fleet;
namespace fuzz = lego::fuzz;
using lego::Status;

/// Counts taken at the same boundaries as the spans.
struct LayerCounts {
  int64_t executions = 0;
  int64_t new_coverage = 0;  // executions whose MergeDetectNew returned true
  int64_t statements_ok = 0;
  int64_t statements_rejected = 0;
  int64_t server_deaths = 0;  // crashes and hangs
  int64_t oracle_checks = 0;  // Check and CheckHistory calls
  int64_t switches = 0;       // scheduler session switches
  int64_t deadlocks = 0;

  void Add(const LayerCounts& o) {
    executions += o.executions;
    new_coverage += o.new_coverage;
    statements_ok += o.statements_ok;
    statements_rejected += o.statements_rejected;
    server_deaths += o.server_deaths;
    oracle_checks += o.oracle_checks;
    switches += o.switches;
    deadlocks += o.deadlocks;
  }
};

/// RunSerialCampaign over `harness`'s backend, without persistence or
/// progress hooks (neither is configured by the benchmark). `coverage`
/// receives the campaign's accumulated edge map.
fuzz::CampaignResult ReplicaCampaign(
    fuzz::Fuzzer* fuzzer, fuzz::ExecutionHarness* harness,
    int max_executions, const std::vector<fuzz::TestCase>* import_seeds,
    bool export_corpus, Tracer* tracer, LayerCounts* counts,
    cov::GlobalCoverage* coverage);

struct FleetReplicaResult {
  Status status = Status::OK();
  int64_t executions = 0;
  int64_t statements_executed = 0;
  int64_t statement_errors = 0;
  std::set<std::string> bug_ids;
  std::set<uint64_t> logic_fingerprints;
  size_t edges = 0;
  size_t rules = 0;
  /// Summed over the shards' fuzzers.
  fuzz::FuzzerStats fuzzer_stats;
};

/// The fleet's shards in shard order, each leased the current pool through
/// EncodePool/DecodePool and returned through EncodeShardOutcome /
/// ProbeEnvelope / DecodeShardOutcome, then merged and passed to UpdatePool.
/// With a tracer, each shard is ExecuteShard's steps around ReplicaCampaign
/// and every step is a span; without one (the untraced reference the traced
/// run is checked and timed against) each shard is ExecuteShard itself.
FleetReplicaResult ReplicaFleet(const fleet::FleetConfig& config,
                                Tracer* tracer, LayerCounts* counts);

}  // namespace perfbench

#endif  // PERFBENCH_REPLICA_H_
