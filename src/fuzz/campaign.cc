#include "fuzz/campaign.h"

#include <algorithm>
#include <atomic>
#include <bitset>
#include <cctype>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "faults/bug_catalog.h"
#include "fuzz/checkpoint.h"
#include "fuzz/corpus.h"
#include "fuzz/state.h"

namespace lego::fuzz {
namespace {

constexpr uint32_t kWorkerTag = persist::ChunkTag("WRKR");
constexpr uint32_t kManifestTag = persist::ChunkTag("MANI");

/// End-of-campaign saves are retried this many times before giving up:
/// losing a whole campaign's final state to one transient write failure
/// (or one chaos-mode probability draw) is the wrong trade, and each
/// attempt is independent. Mid-run checkpoints are NOT retried — the next
/// cadence point writes a strictly newer one anyway.
constexpr int kFinalSaveAttempts = 8;

bool Persisting(const CampaignOptions& options) {
  return !options.state_dir.empty();
}

/// Which (t1, t2) type pairs an affinity set already holds, so a tally
/// touches the set only for a pair it has not seen.
using AffinitySeen =
    std::bitset<sql::kNumStatementTypes * sql::kNumStatementTypes>;

/// Affinity accounting (Table II): adjacent distinct type pairs contained in
/// a generated test case. `seen` may lag `affinities` (after a resume); it
/// never holds a pair the set lacks.
void TallyAffinities(const TestCase& tc, AffinitySeen* seen,
                     std::set<std::pair<int, int>>* affinities) {
  auto types = tc.TypeSequence();
  for (size_t t = 1; t < types.size(); ++t) {
    if (types[t - 1] == types[t]) continue;
    int a = static_cast<int>(types[t - 1]);
    int b = static_cast<int>(types[t]);
    size_t bit = static_cast<size_t>(a * sql::kNumStatementTypes + b);
    if (seen->test(bit)) continue;
    seen->set(bit);
    affinities->emplace(a, b);
  }
}

/// Serial persistence: one file holding fingerprint + result-so-far +
/// fuzzer + harness, replaced atomically at every checkpoint.
Status SaveSerialState(const CampaignOptions& options,
                       const CampaignResult& result, Fuzzer* fuzzer,
                       ExecutionHarness* harness) {
  std::error_code ec;
  std::filesystem::create_directories(options.state_dir, ec);
  persist::StateWriter w;
  WriteCampaignFingerprint(fuzzer->name(), harness->profile().name, options,
                           &w);
  LEGO_RETURN_IF_ERROR(SaveCampaignResult(result, &w));
  LEGO_RETURN_IF_ERROR(fuzzer->SaveState(&w));
  LEGO_RETURN_IF_ERROR(harness->SaveState(&w));
  return w.WriteFileAtomic(SerialStatePath(options.state_dir));
}

Status LoadSerialState(const CampaignOptions& options, CampaignResult* result,
                       Fuzzer* fuzzer, ExecutionHarness* harness) {
  LEGO_ASSIGN_OR_RETURN(
      persist::StateReader r,
      persist::StateReader::FromFile(SerialStatePath(options.state_dir)));
  LEGO_RETURN_IF_ERROR(VerifyCampaignFingerprint(
      fuzzer->name(), harness->profile().name, options, &r));
  LEGO_RETURN_IF_ERROR(LoadCampaignResult(&r, result));
  LEGO_RETURN_IF_ERROR(fuzzer->LoadState(&r));
  LEGO_RETURN_IF_ERROR(harness->LoadState(&r));
  return r.status();
}

/// The historical single-threaded loop. num_workers == 1 runs exactly this
/// code, so serial campaigns are bit-identical to the pre-parallel runner;
/// a resumed campaign re-enters the loop at i == restored executions with
/// every piece of fuzzer/harness state restored, so the remaining
/// iterations replay exactly what an uninterrupted run would have done.
CampaignResult RunSerialCampaign(Fuzzer* fuzzer, ExecutionHarness* harness,
                                 const CampaignOptions& options) {
  CampaignResult result;
  result.fuzzer = fuzzer->name();
  result.profile = harness->profile().name;

  const size_t total_bugs = harness->bug_engine().bugs().size();
  fuzzer->Prepare(harness);

  const bool resumed = Persisting(options) && options.resume;
  if (resumed) {
    Status loaded = LoadSerialState(options, &result, fuzzer, harness);
    if (!loaded.ok()) {
      CampaignResult failed;
      failed.fuzzer = fuzzer->name();
      failed.profile = harness->profile().name;
      failed.state_status = std::move(loaded);
      return failed;
    }
    // The end-of-campaign flush appends an off-cadence curve point; if the
    // budget was raised and the campaign continues, drop it so the final
    // curve matches an uninterrupted run's exactly.
    if (result.executions < options.max_executions &&
        !result.coverage_curve.empty() &&
        result.coverage_curve.back().first == result.executions &&
        (options.snapshot_every <= 0 ||
         result.executions % options.snapshot_every != 0)) {
      result.coverage_curve.pop_back();
    }
  } else if (options.import_seeds != nullptr) {
    for (const TestCase& tc : *options.import_seeds) fuzzer->ImportSeed(tc);
  }

  // The uninterrupted run may have broken out of the loop early; a resume
  // of its state must not fuzz past that point, so re-derive the stop
  // decision from the restored tallies before executing anything.
  bool stopped =
      resumed &&
      ((options.stop_when_all_bugs_found &&
        result.bug_ids.size() >= total_bugs) ||
       (options.max_statements > 0 &&
        result.statements_executed + result.statement_errors >=
            options.max_statements));

  AffinitySeen affinity_seen;
  for (int i = result.executions; !stopped && i < options.max_executions;
       ++i) {
    if (options.stop_flag != nullptr &&
        options.stop_flag->load(std::memory_order_relaxed)) {
      result.stopped_early = true;
      break;
    }
    if (harness->backend().broken()) {
      std::fprintf(stderr,
                   "campaign: backend broken (spawn circuit open); stopping "
                   "after %d executions\n",
                   result.executions);
      break;
    }
    TestCase tc = fuzzer->Next();
    TallyAffinities(tc, &affinity_seen, &result.affinities);

    ExecResult exec = harness->Run(tc);
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
    fuzzer->OnResult(tc, exec);

    if (options.on_progress && options.progress_every > 0 &&
        result.executions % options.progress_every == 0) {
      options.on_progress(result.executions);
    }
    if (options.snapshot_every > 0 &&
        result.executions % options.snapshot_every == 0) {
      result.coverage_curve.emplace_back(result.executions,
                                         harness->CoveredEdges());
    }
    if (Persisting(options) && options.checkpoint_every > 0 &&
        result.executions % options.checkpoint_every == 0) {
      // Self-healing: a failed mid-run checkpoint costs only resume
      // granularity, never the campaign — warn, count, and let the next
      // cadence point write a newer state anyway.
      Status saved = SaveSerialState(options, result, fuzzer, harness);
      if (!saved.ok()) {
        ++result.checkpoints_failed;
        std::fprintf(stderr,
                     "campaign: checkpoint at %d executions failed (%s); "
                     "continuing\n",
                     result.executions, saved.ToString().c_str());
      }
    }
    if (options.stop_when_all_bugs_found &&
        result.bug_ids.size() >= total_bugs) {
      break;
    }
    if (options.max_statements > 0 &&
        result.statements_executed + result.statement_errors >=
            options.max_statements) {
      break;
    }
  }

  result.edges = harness->CoveredEdges();
  result.rules = harness->CoveredRules();
  result.storage = harness->backend().storage_stats();
  if (result.coverage_curve.empty() ||
      result.coverage_curve.back().first != result.executions) {
    result.coverage_curve.emplace_back(result.executions, result.edges);
  }
  result.fuzzer_stats = fuzzer->stats();
  result.fuzzer_stats.import_skipped = options.import_skipped;
  if (options.export_corpus) result.corpus_export = fuzzer->ExportCorpus();
  if (Persisting(options)) {
    Status saved = Status::OK();
    for (int attempt = 0; attempt < kFinalSaveAttempts; ++attempt) {
      saved = SaveSerialState(options, result, fuzzer, harness);
      if (saved.ok()) break;
    }
    if (!saved.ok() && result.state_status.ok()) {
      result.state_status = std::move(saved);
    }
  }
  return result;
}

/// Reusable round barrier: the last arriver runs `completion` while every
/// other worker is still blocked, then all are released together. This is
/// the only place parallel workers observe each other, which is what makes
/// merged results deterministic per (seed, workers, sync_every).
class RoundBarrier {
 public:
  explicit RoundBarrier(int count) : count_(count) {}

  void ArriveAndWait(const std::function<void()>& completion) {
    std::unique_lock<std::mutex> lock(mu_);
    uint64_t my_phase = phase_;
    if (++waiting_ == count_) {
      completion();
      waiting_ = 0;
      ++phase_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return phase_ != my_phase; });
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const int count_;
  int waiting_ = 0;
  uint64_t phase_ = 0;
};

/// Removes per-worker scratch directories (`<db_dir>/w<N>`) under a paged
/// campaign's db_dir. Each worker wipes *inside* its own directory on every
/// Reset, but an abnormal exit (SIGKILL, test-runner timeout, crash in the
/// parent) leaves the last generation's directories behind; a follow-up
/// campaign reusing the same db_dir would inherit them. Swept before the
/// worker pool spawns — healing leftovers from any earlier run, including
/// one with a wider pool — and again at campaign teardown once every
/// backend has been destroyed.
void RemoveWorkerScratchDirs(const std::string& db_dir) {
  if (db_dir.empty()) return;
  namespace fsys = std::filesystem;
  std::error_code ec;
  for (const auto& entry : fsys::directory_iterator(db_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 2 || name[0] != 'w') continue;
    bool digits = true;
    for (size_t i = 1; i < name.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(name[i]))) {
        digits = false;
        break;
      }
    }
    if (!digits) continue;
    std::error_code rm_ec;
    fsys::remove_all(entry.path(), rm_ec);
  }
}

/// Everything one worker owns plus its tallies. Workers write only their
/// own slot during a round; barrier completions read all slots.
struct WorkerState {
  std::unique_ptr<Fuzzer> fuzzer;
  std::unique_ptr<ExecutionHarness> harness;
  int target = 0;  // this worker's share of max_executions
  int done = 0;

  int executions = 0;
  int crashes_total = 0;
  int statement_errors = 0;
  int statements_executed = 0;
  std::set<std::pair<int, int>> affinities;
  AffinitySeen affinity_seen;
  /// Locally-unique crashes by synthetic stack hash; the merge dedups
  /// across workers the same way the serial loop dedups across executions.
  std::map<uint64_t, minidb::CrashInfo> unique_crashes;
  /// First local test case per unique stack hash (triage capture).
  std::map<uint64_t, TestCase> crash_cases;

  int logic_bugs_total = 0;
  std::map<uint64_t, LogicBugInfo> unique_logic;
  std::map<uint64_t, TestCase> logic_cases;

  /// New-coverage test cases found this round, published at the barrier.
  std::vector<TestCase> pending_exports;
  uint64_t drain_cursor = 0;
};

/// Worker tallies round-trip. Only valid at the checkpoint barrier, where
/// pending_exports is empty (everything was published one barrier earlier)
/// and all drain cursors point at the end of the shared corpus — which is
/// why the shared corpus itself never needs to be serialized: a resumed
/// campaign starts it empty with cursors at zero.
Status SaveWorkerTallies(const WorkerState& s, persist::StateWriter* w) {
  if (!s.pending_exports.empty()) {
    return Status::Internal("checkpoint with unpublished exports");
  }
  w->BeginChunk(kWorkerTag);
  w->WriteI64(s.done);
  w->WriteI64(s.executions);
  w->WriteI64(s.crashes_total);
  w->WriteI64(s.statement_errors);
  w->WriteI64(s.statements_executed);
  w->WriteU64(s.affinities.size());
  for (const auto& [a, b] : s.affinities) {
    w->WriteI64(a);
    w->WriteI64(b);
  }
  w->WriteU64(s.unique_crashes.size());
  for (const auto& [hash, crash] : s.unique_crashes) {
    auto tc = s.crash_cases.find(hash);
    if (tc == s.crash_cases.end()) {
      return Status::Internal("crash without captured test case");
    }
    w->WriteU64(hash);
    w->WriteString(crash.bug_id);
    w->WriteString(crash.component);
    w->WriteString(crash.kind);
    w->WriteU64(crash.stack_hash);
    w->WriteString(crash.message);
    SaveTestCase(tc->second, w);
  }
  w->WriteI64(s.logic_bugs_total);
  w->WriteU64(s.unique_logic.size());
  for (const auto& [fp, info] : s.unique_logic) {
    auto tc = s.logic_cases.find(fp);
    if (tc == s.logic_cases.end()) {
      return Status::Internal("logic bug without captured test case");
    }
    w->WriteU64(fp);
    w->WriteString(info.check);
    w->WriteString(info.query);
    w->WriteString(info.detail);
    w->WriteU64(info.fingerprint);
    w->WriteU64(info.interleave_seed);
    w->WriteI64(info.sessions);
    SaveTestCase(tc->second, w);
  }
  w->EndChunk();
  return Status::OK();
}

Status LoadWorkerTallies(persist::StateReader* r, WorkerState* s) {
  LEGO_RETURN_IF_ERROR(r->EnterChunk(kWorkerTag));
  s->done = static_cast<int>(r->ReadI64());
  s->executions = static_cast<int>(r->ReadI64());
  s->crashes_total = static_cast<int>(r->ReadI64());
  s->statement_errors = static_cast<int>(r->ReadI64());
  s->statements_executed = static_cast<int>(r->ReadI64());

  s->affinities.clear();
  uint64_t n = r->ReadU64();
  if (!r->CheckCount(n, 16)) return r->status();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    int a = static_cast<int>(r->ReadI64());
    int b = static_cast<int>(r->ReadI64());
    s->affinities.insert({a, b});
  }

  s->unique_crashes.clear();
  s->crash_cases.clear();
  n = r->ReadU64();
  if (!r->CheckCount(n, 8)) return r->status();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    uint64_t hash = r->ReadU64();
    minidb::CrashInfo crash;
    crash.bug_id = r->ReadString();
    crash.component = r->ReadString();
    crash.kind = r->ReadString();
    crash.stack_hash = r->ReadU64();
    crash.message = r->ReadString();
    LEGO_ASSIGN_OR_RETURN(TestCase tc, LoadTestCase(r));
    s->unique_crashes.emplace(hash, std::move(crash));
    s->crash_cases.emplace(hash, std::move(tc));
  }

  s->logic_bugs_total = static_cast<int>(r->ReadI64());
  s->unique_logic.clear();
  s->logic_cases.clear();
  n = r->ReadU64();
  if (!r->CheckCount(n, 8)) return r->status();
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    uint64_t fp = r->ReadU64();
    LogicBugInfo info;
    info.check = r->ReadString();
    info.query = r->ReadString();
    info.detail = r->ReadString();
    info.fingerprint = r->ReadU64();
    info.interleave_seed = r->ReadU64();
    info.sessions = static_cast<int>(r->ReadI64());
    LEGO_ASSIGN_OR_RETURN(TestCase tc, LoadTestCase(r));
    s->unique_logic.emplace(fp, std::move(info));
    s->logic_cases.emplace(fp, std::move(tc));
  }

  s->pending_exports.clear();
  s->drain_cursor = 0;  // resumed campaigns restart with an empty corpus
  return r->ExitChunk();
}

CampaignResult RunParallelCampaign(Fuzzer* prototype,
                                   ExecutionHarness* harness,
                                   const CampaignOptions& options) {
  const int workers = options.num_workers;
  const int sync_every = std::max(1, options.sync_every);
  const bool persisting = Persisting(options);

  // Heal scratch dirs a previous abnormal exit left behind before any
  // worker claims its own.
  RemoveWorkerScratchDirs(harness->backend_options().db_dir);

  std::vector<WorkerState> states(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    states[w].fuzzer = prototype->CloneForWorker(w);
    if (states[w].fuzzer == nullptr) {
      // Prototype has no worker factory: degrade to the serial path.
      return RunSerialCampaign(prototype, harness, options);
    }
    // Same profile *and* backend: a forked-backend campaign gets one child
    // process per worker, all spawned here — before the worker threads
    // start, so the initial forks come from a single-threaded parent.
    // Paged storage gets a per-worker subdirectory so workers never share a
    // WAL/snapshot generation.
    BackendOptions worker_backend = harness->backend_options();
    if (!worker_backend.db_dir.empty()) {
      worker_backend.db_dir += "/w" + std::to_string(w);
    }
    states[w].harness = std::make_unique<ExecutionHarness>(
        harness->profile(), worker_backend);
    states[w].harness->set_setup_script(harness->setup_script());
    states[w].harness->set_rule_coverage(harness->rule_coverage());
    // Oracles are stateless (LogicOracle contract), so sharing the
    // prototype harness's instance across workers is safe.
    states[w].harness->set_logic_oracle(harness->logic_oracle());
  }

  cov::SharedCoverage shared_coverage;
  cov::SharedRuleCoverage shared_rules;
  SharedCorpus shared_corpus(std::max(8, workers));
  for (auto& s : states) {
    s.harness->set_shared_coverage(&shared_coverage);
    s.harness->set_shared_rule_coverage(&shared_rules);
  }

  // Deterministic budget split: worker w executes
  // max_executions / workers (+1 for the first `remainder` workers).
  const int base = options.max_executions / workers;
  const int remainder = options.max_executions % workers;
  for (int w = 0; w < workers; ++w) {
    states[w].target = base + (w < remainder ? 1 : 0);
  }

  const size_t total_bugs = harness->bug_engine().bugs().size();

  CampaignResult merged;
  merged.fuzzer = prototype->name();
  merged.profile = harness->profile().name;

  auto fail = [&](Status why) {
    CampaignResult failed;
    failed.fuzzer = merged.fuzzer;
    failed.profile = merged.profile;
    failed.state_status = std::move(why);
    return failed;
  };

  // Resume preamble (single-threaded): locate the newest complete
  // checkpoint via LATEST and restore the merged round state. Per-worker
  // files are loaded later, by each worker thread after Prepare().
  int start_round = 0;
  int next_snapshot = options.snapshot_every;
  int next_checkpoint = options.checkpoint_every;
  bool resumed = false;
  std::string resume_dir;      // directory worker files are loaded from
  std::string prev_ckpt_dir;   // last complete checkpoint (cleanup target)
  if (persisting && options.resume) {
    // Self-healing resume: skip over torn/checksum-failing checkpoints
    // (e.g. the process died mid-checkpoint and LATEST is stale) and fall
    // back to the newest one a resume can actually load.
    std::vector<std::string> ckpt_warnings;
    int rejected = 0;
    auto latest = LocateUsableCheckpoint(options.state_dir, workers,
                                         &ckpt_warnings, &rejected);
    for (const std::string& warning : ckpt_warnings) {
      std::fprintf(stderr, "campaign: %s\n", warning.c_str());
    }
    if (!latest.ok()) return fail(latest.status());
    merged.checkpoint_fallbacks = rejected;
    std::filesystem::path dir =
        std::filesystem::path(options.state_dir) / *latest;
    auto opened = persist::StateReader::FromFile(ManifestPath(dir.string()));
    if (!opened.ok()) return fail(opened.status());
    persist::StateReader r = std::move(*opened);
    Status st = VerifyCampaignFingerprint(merged.fuzzer, merged.profile,
                                          options, &r);
    if (!st.ok()) return fail(st);
    st = r.EnterChunk(kManifestTag);
    if (!st.ok()) return fail(st);
    const bool complete = r.ReadBool();
    FuzzerStats stats;
    if (complete) {
      stats.corpus_seeds = r.ReadU64();
      stats.affinity_pairs = r.ReadU64();
      stats.sequences_total = r.ReadU64();
      stats.sequences_dropped = r.ReadU64();
    }
    start_round = static_cast<int>(r.ReadI64());
    next_snapshot = static_cast<int>(r.ReadI64());
    next_checkpoint = static_cast<int>(r.ReadI64());
    uint64_t n = r.ReadU64();
    if (!r.CheckCount(n, 16)) return fail(r.status());
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
      int execs = static_cast<int>(r.ReadI64());
      size_t edges = static_cast<size_t>(r.ReadU64());
      merged.coverage_curve.emplace_back(execs, edges);
    }
    st = r.ExitChunk();
    if (!st.ok()) return fail(st);
    st = shared_coverage.LoadState(&r);
    if (!st.ok()) return fail(st);
    st = shared_rules.LoadState(&r);
    if (!st.ok()) return fail(st);
    if (complete) {
      CampaignResult done;
      st = LoadCampaignResult(&r, &done);
      if (!st.ok()) return fail(st);
      if (done.executions >= options.max_executions) {
        // The campaign already finished under this (or a larger) budget:
        // hand back its recorded result without spawning workers.
        done.fuzzer_stats = stats;
        done.checkpoint_fallbacks = rejected;
        return done;
      }
      // Budget was raised past the recorded run: fall through and keep
      // fuzzing from the stored worker states.
    }
    resumed = true;
    resume_dir = dir.string();
    prev_ckpt_dir = *latest;
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> finished{false};
  std::atomic<bool> abort{false};
  std::vector<Status> worker_status(static_cast<size_t>(workers),
                                    Status::OK());
  RoundBarrier barrier(workers);

  // Runs single-threaded at every barrier, while all workers are parked:
  // publish discoveries in worker order, then take the global stop / curve
  // decisions every worker will observe identically next round.
  auto completion = [&] {
    for (int w = 0; w < workers; ++w) {
      for (TestCase& tc : states[w].pending_exports) {
        shared_corpus.Publish(w, std::move(tc));
      }
      states[w].pending_exports.clear();
    }

    // Self-healing: a worker whose backend broke permanently (spawn
    // circuit open) can never spend its remaining budget. Reclaim it and
    // hand it to the surviving workers — single-threaded here, while all
    // workers are parked at the barrier, so plain target/done writes are
    // safe and every worker observes the new split next round.
    int64_t orphaned = 0;
    int live = 0;
    for (WorkerState& s : states) {
      const bool parked = s.harness->backend().broken();
      if (parked && s.target > s.done) {
        orphaned += s.target - s.done;
        s.target = s.done;
      }
      if (!parked) ++live;
    }
    if (orphaned > 0 && live > 0) {
      std::fprintf(stderr,
                   "campaign: redistributing %lld executions from parked "
                   "worker(s) across %d live worker(s)\n",
                   static_cast<long long>(orphaned), live);
      const int64_t share = orphaned / live;
      int64_t extra = orphaned % live;
      for (WorkerState& s : states) {
        if (s.harness->backend().broken()) continue;
        s.target += static_cast<int>(share + (extra > 0 ? 1 : 0));
        if (extra > 0) --extra;
      }
    }

    int total_execs = 0;
    int64_t total_stmts = 0;
    for (const WorkerState& s : states) {
      total_execs += s.executions;
      total_stmts += s.statements_executed + s.statement_errors;
    }
    if (options.on_progress) options.on_progress(total_execs);
    if (options.stop_flag != nullptr &&
        options.stop_flag->load(std::memory_order_relaxed)) {
      merged.stopped_early = true;
      stop.store(true);
    }
    if (options.stop_when_all_bugs_found) {
      std::set<std::string> bugs;
      for (const WorkerState& s : states) {
        for (const auto& [hash, crash] : s.unique_crashes) {
          bugs.insert(crash.bug_id);
        }
      }
      if (bugs.size() >= total_bugs) stop.store(true);
    }
    if (options.max_statements > 0 && total_stmts >= options.max_statements) {
      stop.store(true);
    }
    if (options.snapshot_every > 0 && total_execs > 0 &&
        total_execs >= next_snapshot) {
      merged.coverage_curve.emplace_back(total_execs,
                                         shared_coverage.CoveredEdges());
      next_snapshot =
          (total_execs / options.snapshot_every + 1) * options.snapshot_every;
    }

    // The campaign is over when every live worker has spent its (possibly
    // redistributed) target; parked workers are excluded, so a campaign
    // with a permanently dead worker still terminates.
    bool all_done = true;
    for (const WorkerState& s : states) {
      if (s.harness->backend().broken()) continue;
      if (s.done < s.target) {
        all_done = false;
        break;
      }
    }
    if (all_done || stop.load()) finished.store(true);
  };

  // One state file per worker; only callable while the worker threads are
  // parked (checkpoint barrier) or joined (final save).
  auto save_worker_files = [&](const std::filesystem::path& dir) -> Status {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status::Internal("cannot create checkpoint dir " + dir.string());
    }
    for (int w = 0; w < workers; ++w) {
      persist::StateWriter sw;
      WriteCampaignFingerprint(merged.fuzzer, merged.profile, options, &sw);
      LEGO_RETURN_IF_ERROR(SaveWorkerTallies(states[w], &sw));
      LEGO_RETURN_IF_ERROR(states[w].fuzzer->SaveState(&sw));
      LEGO_RETURN_IF_ERROR(states[w].harness->SaveState(&sw));
      LEGO_RETURN_IF_ERROR(
          sw.WriteFileAtomic(WorkerStatePath(dir.string(), w)));
    }
    return Status::OK();
  };

  // Writes one complete checkpoint directory, then flips LATEST. Runs only
  // inside the second (post-drain) barrier, where no worker holds
  // unpublished exports and every drain cursor is at the corpus end.
  auto write_checkpoint = [&](int round, int advanced_checkpoint) -> Status {
    namespace fsys = std::filesystem;
    const std::string name = CheckpointDirName(round);
    const fsys::path dir = fsys::path(options.state_dir) / name;
    LEGO_RETURN_IF_ERROR(save_worker_files(dir));
    persist::StateWriter mw;
    WriteCampaignFingerprint(merged.fuzzer, merged.profile, options, &mw);
    mw.BeginChunk(kManifestTag);
    mw.WriteBool(false);  // mid-run
    mw.WriteI64(round + 1);
    mw.WriteI64(next_snapshot);
    mw.WriteI64(advanced_checkpoint);
    mw.WriteU64(merged.coverage_curve.size());
    for (const auto& [execs, edges] : merged.coverage_curve) {
      mw.WriteI64(execs);
      mw.WriteU64(edges);
    }
    mw.EndChunk();
    LEGO_RETURN_IF_ERROR(shared_coverage.SaveState(&mw));
    LEGO_RETURN_IF_ERROR(shared_rules.SaveState(&mw));
    LEGO_RETURN_IF_ERROR(mw.WriteFileAtomic(ManifestPath(dir.string())));
    LEGO_RETURN_IF_ERROR(WriteLatestPointer(options.state_dir, name));
    if (!prev_ckpt_dir.empty() && prev_ckpt_dir != name) {
      std::error_code ec;
      fsys::remove_all(fsys::path(options.state_dir) / prev_ckpt_dir, ec);
    }
    prev_ckpt_dir = name;
    return Status::OK();
  };

  int ckpt_round = start_round;  // advanced once per round, single-threaded
  auto ckpt_completion = [&] {
    const int round = ckpt_round++;
    if (abort.load() || options.checkpoint_every <= 0) return;
    int total_execs = 0;
    for (const WorkerState& s : states) total_execs += s.executions;
    if (total_execs < next_checkpoint) return;
    const int advanced =
        (total_execs / options.checkpoint_every + 1) *
        options.checkpoint_every;
    Status saved = write_checkpoint(round, advanced);
    if (saved.ok()) {
      next_checkpoint = advanced;
    } else {
      // Self-healing: keep fuzzing and retry at the next barrier (the
      // cadence point is deliberately not advanced), instead of poisoning
      // state_status over one failed mid-run write.
      ++merged.checkpoints_failed;
      std::fprintf(stderr,
                   "campaign: checkpoint at round %d failed (%s); will retry "
                   "at the next barrier\n",
                   round, saved.ToString().c_str());
    }
  };

  auto worker_fn = [&](int w) {
    WorkerState& st = states[w];
    st.fuzzer->Prepare(st.harness.get());
    if (resumed) {
      Status loaded = [&]() -> Status {
        LEGO_ASSIGN_OR_RETURN(
            persist::StateReader r,
            persist::StateReader::FromFile(WorkerStatePath(resume_dir, w)));
        LEGO_RETURN_IF_ERROR(VerifyCampaignFingerprint(
            merged.fuzzer, merged.profile, options, &r));
        LEGO_RETURN_IF_ERROR(LoadWorkerTallies(&r, &st));
        LEGO_RETURN_IF_ERROR(st.fuzzer->LoadState(&r));
        return st.harness->LoadState(&r);
      }();
      if (!loaded.ok()) {
        worker_status[static_cast<size_t>(w)] = std::move(loaded);
        abort.store(true);
        stop.store(true);
      }
      // Re-derive the sticky stop flag from restored tallies before the
      // first batch (the flag is derived state, never serialized). Runs on
      // every resume so all workers attend the same barrier sequence.
      barrier.ArriveAndWait(completion);
    } else if (options.import_seeds != nullptr) {
      for (const TestCase& tc : *options.import_seeds) {
        st.fuzzer->ImportSeed(tc);
      }
    }
    while (!finished.load()) {
      // A parked worker (backend's spawn circuit open) keeps attending
      // barriers — the barrier counts all workers — but runs no batches;
      // its remaining budget is redistributed by the completion handler.
      const bool parked = st.harness->backend().broken();
      const int batch =
          (stop.load() || parked)
              ? 0
              : std::max(0, std::min(sync_every, st.target - st.done));
      for (int i = 0; i < batch; ++i) {
        TestCase tc = st.fuzzer->Next();
        TallyAffinities(tc, &st.affinity_seen, &st.affinities);

        ExecResult exec = st.harness->Run(tc);
        ++st.executions;
        st.statement_errors += exec.errors;
        st.statements_executed += exec.executed;
        if (exec.crashed) {
          ++st.crashes_total;
          if (st.unique_crashes.emplace(exec.crash.stack_hash, exec.crash)
                  .second) {
            st.crash_cases.emplace(exec.crash.stack_hash, tc.Clone());
          }
        }
        if (exec.logic_bug) {
          ++st.logic_bugs_total;
          if (st.unique_logic.emplace(exec.logic.fingerprint, exec.logic)
                  .second) {
            st.logic_cases.emplace(exec.logic.fingerprint, tc.Clone());
          }
        }
        st.fuzzer->OnResult(tc, exec);
        // Export on *local* new coverage (either signal): the decision
        // depends only on this worker's own history, never on cross-worker
        // timing.
        if (exec.new_coverage || exec.new_rules) {
          st.pending_exports.push_back(tc.Clone());
        }
      }
      st.done += batch;

      barrier.ArriveAndWait(completion);

      // Adopt everything other workers published up to this barrier. Every
      // worker drains the same prefix in the same order, and nothing new is
      // published until all drains finish (publishing happens only inside
      // the next completion, which waits for all arrivals).
      std::vector<TestCase> imported;
      shared_corpus.DrainNew(w, &st.drain_cursor, &imported);
      for (const TestCase& tc : imported) st.fuzzer->ImportSeed(tc);

      // Second barrier: checkpoints must observe fully drained cursors and
      // empty export buffers, which is only true after every worker's drain.
      if (persisting) barrier.ArriveAndWait(ckpt_completion);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) threads.emplace_back(worker_fn, w);
  for (std::thread& t : threads) t.join();

  if (abort.load()) {
    for (const Status& s : worker_status) {
      if (!s.ok()) return fail(s);
    }
    return fail(Status::Internal("campaign aborted"));
  }

  // Worker files for the final checkpoint must be written before the merge
  // below moves captured test cases out of the worker states; the curve is
  // snapshotted here too, before the end-of-campaign flush point, so a
  // budget-raising resume continues with an uninterrupted-identical curve.
  Status final_workers_saved = Status::OK();
  std::vector<std::pair<int, size_t>> curve_at_join;
  const std::string final_name = "ckpt_final";
  if (persisting) {
    for (int attempt = 0; attempt < kFinalSaveAttempts; ++attempt) {
      final_workers_saved = save_worker_files(
          std::filesystem::path(options.state_dir) / final_name);
      if (final_workers_saved.ok()) break;
    }
    curve_at_join = merged.coverage_curve;
  }

  // Final merge in worker order (worker order only affects which duplicate
  // crash "wins" attribution, and duplicates carry identical payloads; the
  // captured repro for a hash is the first worker's, deterministically).
  for (int w = 0; w < workers; ++w) {
    WorkerState& s = states[w];
    merged.executions += s.executions;
    merged.crashes_total += s.crashes_total;
    merged.statement_errors += s.statement_errors;
    merged.statements_executed += s.statements_executed;
    merged.affinities.insert(s.affinities.begin(), s.affinities.end());
    for (const auto& [hash, crash] : s.unique_crashes) {
      if (merged.crash_hashes.insert(hash).second) {
        merged.bug_ids.insert(crash.bug_id);
        ++merged.bugs_by_component[crash.component];
        merged.captured_cases.push_back(std::move(s.crash_cases.at(hash)));
        merged.captured_crashes.push_back(crash);
      }
    }
    merged.logic_bugs_total += s.logic_bugs_total;
    for (const auto& [fp, info] : s.unique_logic) {
      if (merged.logic_fingerprints.insert(fp).second) {
        merged.captured_logic_cases.push_back(std::move(s.logic_cases.at(fp)));
        merged.captured_logic_bugs.push_back(info);
      }
    }
    if (s.harness->backend().broken()) ++merged.workers_parked;
    merged.storage.Add(s.harness->backend().storage_stats());
    FuzzerStats fs = s.fuzzer->stats();
    merged.fuzzer_stats.corpus_seeds += fs.corpus_seeds;
    merged.fuzzer_stats.affinity_pairs += fs.affinity_pairs;
    merged.fuzzer_stats.sequences_total += fs.sequences_total;
    merged.fuzzer_stats.sequences_dropped += fs.sequences_dropped;
    if (options.export_corpus) {
      std::vector<TestCase> exported = s.fuzzer->ExportCorpus();
      for (TestCase& tc : exported) {
        merged.corpus_export.push_back(std::move(tc));
      }
    }
  }
  merged.fuzzer_stats.import_skipped = options.import_skipped;
  merged.edges = shared_coverage.CoveredEdges();
  merged.rules = shared_rules.CoveredRules();
  if (merged.coverage_curve.empty() ||
      merged.coverage_curve.back().first != merged.executions) {
    merged.coverage_curve.emplace_back(merged.executions, merged.edges);
  }

  if (persisting) {
    // The complete checkpoint is both the recorded result (read back by a
    // same-budget resume and by corpus_cli) and a full mid-run-style state
    // (worker files + round cursor), so a later budget-raising resume can
    // keep fuzzing from it.
    auto save_final_manifest = [&]() -> Status {
      LEGO_RETURN_IF_ERROR(final_workers_saved);
      namespace fsys = std::filesystem;
      const fsys::path dir = fsys::path(options.state_dir) / final_name;
      persist::StateWriter mw;
      WriteCampaignFingerprint(merged.fuzzer, merged.profile, options, &mw);
      mw.BeginChunk(kManifestTag);
      mw.WriteBool(true);  // complete
      mw.WriteU64(merged.fuzzer_stats.corpus_seeds);
      mw.WriteU64(merged.fuzzer_stats.affinity_pairs);
      mw.WriteU64(merged.fuzzer_stats.sequences_total);
      mw.WriteU64(merged.fuzzer_stats.sequences_dropped);
      mw.WriteI64(ckpt_round);  // round_next for a future budget extension
      mw.WriteI64(next_snapshot);
      mw.WriteI64(next_checkpoint);
      mw.WriteU64(curve_at_join.size());
      for (const auto& [execs, edges] : curve_at_join) {
        mw.WriteI64(execs);
        mw.WriteU64(edges);
      }
      mw.EndChunk();
      LEGO_RETURN_IF_ERROR(shared_coverage.SaveState(&mw));
      LEGO_RETURN_IF_ERROR(shared_rules.SaveState(&mw));
      LEGO_RETURN_IF_ERROR(SaveCampaignResult(merged, &mw));
      LEGO_RETURN_IF_ERROR(mw.WriteFileAtomic(ManifestPath(dir.string())));
      LEGO_RETURN_IF_ERROR(WriteLatestPointer(options.state_dir, final_name));
      if (!prev_ckpt_dir.empty() && prev_ckpt_dir != final_name) {
        std::error_code ec;
        fsys::remove_all(fsys::path(options.state_dir) / prev_ckpt_dir, ec);
      }
      return Status::OK();
    };
    Status saved = Status::OK();
    for (int attempt = 0; attempt < kFinalSaveAttempts; ++attempt) {
      saved = save_final_manifest();
      if (saved.ok()) break;
    }
    if (!saved.ok() && merged.state_status.ok()) {
      merged.state_status = std::move(saved);
    }
  }

  // Teardown: release every worker backend (child processes, open WAL
  // handles), then sweep the scratch directories they ran in.
  const std::string scratch_root = harness->backend_options().db_dir;
  states.clear();
  RemoveWorkerScratchDirs(scratch_root);
  return merged;
}

}  // namespace

CampaignResult RunCampaign(Fuzzer* fuzzer, ExecutionHarness* harness,
                           const CampaignOptions& options) {
  if (options.num_workers <= 1) {
    return RunSerialCampaign(fuzzer, harness, options);
  }
  return RunParallelCampaign(fuzzer, harness, options);
}

}  // namespace lego::fuzz
