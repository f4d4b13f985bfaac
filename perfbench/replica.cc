#include "replica.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "coverage/rule_coverage.h"
#include "fleet/shard.h"
#include "fuzz/backend_concurrent.h"
#include "fuzz/multi_case.h"
#include "minidb/profile.h"
#include "persist/io.h"
#include "triage/oracle_suite.h"
#include "util/hash.h"

namespace perfbench {
namespace {

/// Mirrors ExecutionHarness's per-campaign state and its Run /
/// RunConcurrent / MergeRunFeedback bodies, timing each layer call.
class ReplicaHarness {
 public:
  ReplicaHarness(fuzz::ExecutionHarness* harness, Tracer* tracer,
                 LayerCounts* counts, cov::GlobalCoverage* coverage)
      : harness_(harness),
        backend_(&harness->backend()),
        tracer_(tracer),
        counts_(counts),
        coverage_(coverage) {
    coverage_->Reset();
  }

  fuzz::ExecResult Run(const fuzz::TestCase& tc) {
    const fuzz::BackendOptions& options = harness_->backend_options();
    fuzz::ExecResult result = options.kind == fuzz::BackendKind::kConcurrent &&
                                      options.sessions > 1
                                  ? RunConcurrent(tc)
                                  : RunSerial(tc);
    ++counts_->executions;
    counts_->new_coverage += result.new_coverage ? 1 : 0;
    counts_->statements_ok += result.executed;
    counts_->statements_rejected += result.errors;
    counts_->server_deaths += result.crashed ? 1 : 0;
    counts_->switches += result.interleave_switches;
    counts_->deadlocks += result.deadlocks;
    return result;
  }

  size_t CoveredRules() const { return rules_.CoveredRules(); }

 private:
  fuzz::ExecResult RunSerial(const fuzz::TestCase& tc) {
    fuzz::ExecResult result;
    ++executions_;
    {
      Scoped span(tracer_, SpanName::kBackendReset);
      backend_->Reset();
    }
    fuzz::LogicOracle* oracle = harness_->logic_oracle();
    for (const auto& stmt : tc.statements()) {
      fuzz::StmtOutcome out;
      {
        Scoped span(tracer_, SpanName::kBackendExecute);
        out = backend_->Execute(*stmt, /*want_rows=*/false);
      }
      if (out.status == fuzz::StmtOutcome::Status::kOk) {
        ++result.executed;
        if (oracle != nullptr && !result.logic_bug &&
            stmt->type() == lego::sql::StatementType::kSelect) {
          Scoped span(tracer_, SpanName::kOracleCheck);
          ++counts_->oracle_checks;
          fuzz::OracleSession guard(backend_);
          result.logic_bug = oracle->Check(backend_, *stmt, &result.logic);
        }
        continue;
      }
      if (out.server_died()) {
        result.crashed = true;
        result.crash = out.crash;
        result.hang = (out.status == fuzz::StmtOutcome::Status::kHang);
        break;
      }
      ++result.errors;
    }
    MergeRunFeedback(tc, &result);
    return result;
  }

  fuzz::ExecResult RunConcurrent(const fuzz::TestCase& tc) {
    const fuzz::BackendOptions& options = harness_->backend_options();
    fuzz::ExecResult result;
    ++executions_;
    const uint64_t seed = lego::HashMix(options.concurrency_seed,
                                        static_cast<uint64_t>(executions_));
    result.interleave_seed = seed;
    auto* backend = static_cast<fuzz::ConcurrentBackend*>(backend_);
    {
      Scoped span(tracer_, SpanName::kBackendReset);
      backend->Reset();
    }
    fuzz::MultiSessionCase mcase;
    {
      Scoped span(tracer_, SpanName::kSessionsSplit);
      mcase = fuzz::SplitForSessions(tc, options.sessions, seed);
    }
    fuzz::ConcurrentBackend::CaseResult cr;
    {
      Scoped span(tracer_, SpanName::kSessionsRunCase);
      cr = backend->RunCase(mcase, seed);
    }
    result.executed = cr.setup_executed + cr.stats.executed;
    result.errors = cr.setup_errors + cr.stats.errors;
    result.deadlocks = cr.stats.deadlocks;
    result.trace_digest = cr.stats.trace_digest;
    result.history_digest = cr.stats.history_digest;
    result.interleave_switches = cr.stats.switches;
    fuzz::LogicOracle* oracle = harness_->logic_oracle();
    if (cr.stats.crashed) {
      result.crashed = true;
      if (cr.stats.crash.has_value()) result.crash = *cr.stats.crash;
    } else if (oracle != nullptr) {
      bool flagged = false;
      {
        Scoped span(tracer_, SpanName::kOracleHistory);
        ++counts_->oracle_checks;
        flagged = oracle->CheckHistory(backend->history(), &result.logic);
      }
      if (flagged) {
        result.logic_bug = true;
        result.logic.query = mcase.ToSql();
        result.logic.interleave_seed = seed;
        result.logic.sessions = static_cast<int>(mcase.sessions.size());
      }
    }
    MergeRunFeedback(tc, &result);
    return result;
  }

  void MergeRunFeedback(const fuzz::TestCase& tc, fuzz::ExecResult* result) {
    const cov::CoverageMap* run_map = nullptr;
    {
      Scoped span(tracer_, SpanName::kBackendFinish);
      run_map = &backend_->FinishRun();
    }
    {
      Scoped span(tracer_, SpanName::kCoverageMerge);
      result->new_coverage = coverage_->MergeDetectNew(*run_map);
    }
    result->total_edges = coverage_->CoveredEdges();
    if (harness_->rule_coverage()) {
      std::string sql;
      {
        Scoped span(tracer_, SpanName::kSqlPrint);
        sql = tc.ToSql();
      }
      cov::RuleMap rule_map;
      {
        Scoped span(tracer_, SpanName::kRulesCollect);
        cov::CollectRules(sql, &rule_map);
      }
      result->new_rules = rules_.MergeDetectNew(rule_map);
      result->total_rules = rules_.CoveredRules();
    }
  }

  fuzz::ExecutionHarness* harness_;
  fuzz::DbBackend* backend_;
  Tracer* tracer_;
  LayerCounts* counts_;
  cov::GlobalCoverage* coverage_;
  cov::GlobalRuleCoverage rules_;
  int executions_ = 0;
};

}  // namespace

fuzz::CampaignResult ReplicaCampaign(
    fuzz::Fuzzer* fuzzer, fuzz::ExecutionHarness* harness,
    int max_executions, const std::vector<fuzz::TestCase>* import_seeds,
    bool export_corpus, Tracer* tracer, LayerCounts* counts,
    cov::GlobalCoverage* coverage) {
  fuzz::CampaignResult result;
  result.fuzzer = fuzzer->name();
  result.profile = harness->profile().name;
  ReplicaHarness replica(harness, tracer, counts, coverage);

  fuzzer->Prepare(harness);
  if (import_seeds != nullptr) {
    for (const fuzz::TestCase& tc : *import_seeds) fuzzer->ImportSeed(tc);
  }
  for (int i = 0; i < max_executions; ++i) {
    if (harness->backend().broken()) break;
    tracer->set_exec(i);
    fuzz::TestCase tc;
    {
      Scoped span(tracer, SpanName::kLegoNext);
      tc = fuzzer->Next();
    }
    auto types = tc.TypeSequence();
    for (size_t t = 1; t < types.size(); ++t) {
      if (types[t - 1] == types[t]) continue;
      result.affinities.emplace(static_cast<int>(types[t - 1]),
                                static_cast<int>(types[t]));
    }
    fuzz::ExecResult exec = replica.Run(tc);
    ++result.executions;
    result.statement_errors += exec.errors;
    result.statements_executed += exec.executed;
    if (exec.crashed) {
      ++result.crashes_total;
      if (result.crash_hashes.insert(exec.crash.stack_hash).second) {
        result.bug_ids.insert(exec.crash.bug_id);
        ++result.bugs_by_component[exec.crash.component];
        result.captured_cases.push_back(tc.Clone());
        result.captured_crashes.push_back(exec.crash);
      }
    }
    if (exec.logic_bug) {
      ++result.logic_bugs_total;
      if (result.logic_fingerprints.insert(exec.logic.fingerprint).second) {
        result.captured_logic_cases.push_back(tc.Clone());
        result.captured_logic_bugs.push_back(exec.logic);
      }
    }
    Scoped span(tracer, SpanName::kLegoOnResult);
    fuzzer->OnResult(tc, exec);
  }
  tracer->set_exec(-1);
  result.edges = coverage->CoveredEdges();
  result.rules = replica.CoveredRules();
  result.storage = harness->backend().storage_stats();
  result.fuzzer_stats = fuzzer->stats();
  if (export_corpus) result.corpus_export = fuzzer->ExportCorpus();
  return result;
}

namespace {

/// ExecuteShard's steps with the campaign replaced by ReplicaCampaign.
lego::StatusOr<fleet::ShardOutcome> ReplicaShard(
    const fleet::FleetConfig& config, int shard_id,
    const std::vector<fuzz::TestCase>& pool, Tracer* tracer,
    LayerCounts* counts) {
  const lego::minidb::DialectProfile* profile =
      lego::minidb::DialectProfile::ByName(config.profile);
  if (profile == nullptr) {
    return Status::InvalidArgument("unknown profile " + config.profile);
  }
  // ExecuteShard validates the fuzzer name with a throwaway instance first.
  if (fleet::MakeFleetFuzzer(config.fuzzer, *profile, 0) == nullptr) {
    return Status::InvalidArgument("unknown fuzzer " + config.fuzzer);
  }
  auto fuzzer = fleet::MakeFleetFuzzer(config.fuzzer, *profile,
                                       fleet::ShardSeed(config, shard_id));
  std::unique_ptr<lego::triage::OracleSuite> suite;
  fuzz::BackendOptions backend = config.backend;
  if (!config.oracle_spec.empty()) {
    std::string error;
    suite = lego::triage::OracleSuite::FromSpec(config.oracle_spec, &error);
    if (suite == nullptr) return Status::InvalidArgument(error);
    if (suite->durability_requested()) backend.durability_check = true;
  }
  fuzz::ExecutionHarness harness(*profile, backend);
  harness.set_rule_coverage(config.rule_coverage);
  if (suite != nullptr) harness.set_logic_oracle(suite.get());

  fleet::ShardOutcome outcome;
  outcome.shard_id = shard_id;
  outcome.result = ReplicaCampaign(
      fuzzer.get(), &harness, config.shard_budget,
      pool.empty() ? nullptr : &pool, /*export_corpus=*/true, tracer, counts,
      &outcome.coverage);
  outcome.complete = outcome.result.executions >= config.shard_budget;
  return outcome;
}

}  // namespace

FleetReplicaResult ReplicaFleet(const fleet::FleetConfig& config,
                                Tracer* tracer, LayerCounts* counts) {
  FleetReplicaResult out;
  std::vector<fuzz::TestCase> pool;
  std::vector<fuzz::TestCase> pending;
  int distill_cycles = 0;
  double distill_seconds = 0.0;
  cov::GlobalCoverage coverage;
  coverage.Reset();
  for (int s = 0; s < config.num_shards; ++s) {
    // Coordinator -> worker: the lease carries the encoded pool.
    std::string pool_bytes;
    {
      Scoped span(tracer, SpanName::kFleetPoolEncode);
      pool_bytes = fleet::EncodePool(pool);
    }
    lego::StatusOr<std::vector<fuzz::TestCase>> leased =
        Status::Internal("unset");
    {
      Scoped span(tracer, SpanName::kFleetPoolDecode);
      leased = fleet::DecodePool(pool_bytes);
    }
    if (!leased.ok()) {
      out.status = leased.status();
      return out;
    }
    lego::StatusOr<fleet::ShardOutcome> shard = Status::Internal("unset");
    {
      Scoped span(tracer, SpanName::kFleetShard);
      shard = tracer != nullptr
                  ? ReplicaShard(config, s, *leased, tracer, counts)
                  : fleet::ExecuteShard(config, s, *leased, nullptr, {});
    }
    if (!shard.ok()) {
      out.status = shard.status();
      return out;
    }
    // Worker -> coordinator: the outcome travels as an enveloped frame.
    std::string outcome_bytes;
    {
      Scoped span(tracer, SpanName::kFleetOutcomeEncode);
      outcome_bytes = fleet::EncodeShardOutcome(*shard);
    }
    lego::StatusOr<fleet::ShardOutcome> decoded = Status::Internal("unset");
    {
      Scoped span(tracer, SpanName::kFleetOutcomeDecode);
      Status probe = lego::persist::ProbeEnvelope(outcome_bytes);
      decoded = probe.ok() ? fleet::DecodeShardOutcome(outcome_bytes)
                           : lego::StatusOr<fleet::ShardOutcome>(probe);
    }
    if (!decoded.ok() || !decoded->complete) {
      out.status = decoded.ok() ? Status::Internal("shard incomplete")
                                : decoded.status();
      return out;
    }
    const fuzz::FuzzerStats& stats = shard->result.fuzzer_stats;
    out.fuzzer_stats.corpus_seeds += stats.corpus_seeds;
    out.fuzzer_stats.affinity_pairs += stats.affinity_pairs;
    out.fuzzer_stats.sequences_dropped += stats.sequences_dropped;
    const fuzz::CampaignResult& r = decoded->result;
    out.executions += r.executions;
    out.statements_executed += r.statements_executed;
    out.statement_errors += r.statement_errors;
    out.rules = std::max(out.rules, r.rules);
    for (const auto& crash : r.captured_crashes) {
      out.bug_ids.insert(crash.bug_id);
    }
    for (const auto& logic : r.captured_logic_bugs) {
      out.logic_fingerprints.insert(logic.fingerprint);
    }
    coverage.MergeFrom(decoded->coverage);
    const int cycles_before = distill_cycles;
    Status st = Status::OK();
    {
      Scoped span(tracer, SpanName::kFleetDistill);
      st = fleet::UpdatePool(config, s + 1,
                             std::move(decoded->result.corpus_export), &pool,
                             &pending, &distill_cycles, &distill_seconds);
    }
    // Only a call that distilled counts as a fleet.distill span; the others
    // just append to the pending list.
    if (tracer != nullptr && distill_cycles == cycles_before) {
      tracer->DropLast();
    }
    if (!st.ok()) {
      out.status = st;
      return out;
    }
  }
  out.edges = coverage.CoveredEdges();
  return out;
}

}  // namespace perfbench
