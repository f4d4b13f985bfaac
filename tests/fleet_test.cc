// Fleet coordinator robustness tests: shard purity against an in-process
// reference, corpus distill/redistribute equivalence, worker kills mid-shard,
// coordinator SIGKILL + resume, poisoned-result quarantine, heartbeat-loss
// lease expiry, and graceful drain + resume.
//
// Every fleet config arms the TLP oracle against the planted NOT-NULL
// evaluator defect: logic bugs then surface within a few hundred executions,
// so small (fast) shard budgets still produce non-empty finding sets worth
// comparing across chaos and clean runs. The planted flag is process-global
// and is inherited by forked workers, so the whole fleet fuzzes the same
// deliberately buggy engine build.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/failpoint.h"
#include "fleet/fleet.h"
#include "fleet/journal.h"
#include "fleet/protocol.h"
#include "fleet/shard.h"
#include "fleet/status_json.h"
#include "fuzz/state.h"
#include "minidb/env.h"
#include "minidb/eval.h"

namespace lego::fleet {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "lego_fleet_" + name + "_" +
                    std::to_string(static_cast<long long>(getpid()));
  (void)minidb::Env::Posix()->RemoveDirRecursive(dir);
  return dir;
}

FleetConfig BaseConfig() {
  FleetConfig config;
  config.profile = "pglite";
  config.fuzzer = "lego";
  config.base_seed = 3;
  config.num_shards = 4;
  config.shard_budget = 500;
  config.oracle_spec = "tlp";
  return config;
}

/// The single-process ground truth: runs every shard in-order in this
/// process through the same ExecuteShard + UpdatePool the coordinator uses,
/// merging the same way. A healthy fleet of any worker count must reproduce
/// these sets exactly (shard purity), as long as either distill is off (the
/// imported pool stays empty regardless of completion order) or the fleet
/// runs one worker (completion order matches shard order).
struct Reference {
  int64_t executions = 0;
  std::set<uint64_t> crash_hashes;
  std::set<uint64_t> logic_fps;
  cov::GlobalCoverage coverage;
  std::vector<fuzz::TestCase> pool;
  std::vector<fuzz::TestCase> pending;
  int distill_cycles = 0;
  double distill_seconds = 0.0;

  size_t corpus_total() const { return pool.size() + pending.size(); }
};

Reference RunReference(const FleetConfig& config) {
  Reference ref;
  int completed = 0;
  for (int s = 0; s < config.num_shards; ++s) {
    auto outcome = ExecuteShard(config, s, ref.pool, nullptr, {});
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome.ok()) return ref;
    EXPECT_TRUE(outcome->complete);
    ref.executions += outcome->result.executions;
    for (uint64_t h : outcome->result.crash_hashes) ref.crash_hashes.insert(h);
    for (uint64_t f : outcome->result.logic_fingerprints) {
      ref.logic_fps.insert(f);
    }
    ref.coverage.MergeFrom(outcome->coverage);
    ++completed;
    Status st =
        UpdatePool(config, completed, std::move(outcome->result.corpus_export),
                   &ref.pool, &ref.pending, &ref.distill_cycles,
                   &ref.distill_seconds);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return ref;
}

/// Exact identity of a case: its structural serialization.
std::string Bytes(const fuzz::TestCase& tc) {
  persist::StateWriter w;
  fuzz::SaveTestCase(tc, &w);
  return w.buffer();
}

void ExpectSameCases(const std::vector<fuzz::TestCase>& got,
                     const std::vector<fuzz::TestCase>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(Bytes(got[i]), Bytes(want[i])) << "case " << i;
  }
}

void ExpectMatchesReference(const FleetResult& result, const Reference& ref) {
  EXPECT_EQ(result.executions, ref.executions);
  EXPECT_EQ(result.crash_hashes(), ref.crash_hashes);
  EXPECT_EQ(result.logic_fingerprints(), ref.logic_fps);
  EXPECT_EQ(result.edges(), ref.coverage.CoveredEdges());
  EXPECT_EQ(result.corpus.size() + result.corpus_pending.size(),
            ref.corpus_total());
}

class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    chaos::DisarmAll();
    minidb::Evaluator::SetNotNullEvalBugForTesting(true);
  }
  void TearDown() override {
    minidb::Evaluator::SetNotNullEvalBugForTesting(false);
    chaos::DisarmAll();
  }
};

// --- wire protocol -------------------------------------------------------

TEST_F(FleetTest, FrameRoundTripAndReassembly) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(SendFrame(fds[1], MsgType::kHeartbeat, "payload-bytes").ok());
  uint8_t type = 0;
  std::string payload;
  ASSERT_TRUE(RecvFrame(fds[0], &type, &payload).ok());
  EXPECT_EQ(type, static_cast<uint8_t>(MsgType::kHeartbeat));
  EXPECT_EQ(payload, "payload-bytes");
  ::close(fds[1]);
  // Clean EOF (peer gone before a frame started) is NotFound, not an error.
  Status eof = RecvFrame(fds[0], &type, &payload);
  EXPECT_EQ(eof.code(), StatusCode::kNotFound);
  ::close(fds[0]);

  // Byte-at-a-time reassembly: frames only pop once complete.
  std::string wire;
  AppendU32(&wire, 1 + 3);  // type + "abc"
  wire.push_back(static_cast<char>(MsgType::kResult));
  wire += "abc";
  FrameBuffer buffer;
  std::string got;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    buffer.Append(wire.data() + i, 1);
    EXPECT_FALSE(buffer.Next(&type, &got));
  }
  buffer.Append(wire.data() + wire.size() - 1, 1);
  ASSERT_TRUE(buffer.Next(&type, &got));
  EXPECT_EQ(type, static_cast<uint8_t>(MsgType::kResult));
  EXPECT_EQ(got, "abc");
  EXPECT_EQ(buffer.buffered(), 0u);

  // A corrupt length prefix poisons the buffer instead of allocating.
  std::string bogus;
  AppendU32(&bogus, kMaxFrameBytes + 1);
  buffer.Append(bogus.data(), bogus.size());
  EXPECT_FALSE(buffer.Next(&type, &got));
  EXPECT_TRUE(buffer.Overflowed());
}

// --- clean fleets reproduce the single-process campaign ------------------

TEST_F(FleetTest, CleanFleetMatchesReference) {
  FleetConfig config = BaseConfig();
  Reference ref = RunReference(config);
  ASSERT_FALSE(ref.logic_fps.empty());  // planted bug must be visible

  for (int workers : {1, 2}) {
    FleetOptions options;
    options.config = config;
    options.num_workers = workers;
    options.fleet_dir = FreshDir("clean_w" + std::to_string(workers));
    FleetResult result = RunFleet(options);
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_FALSE(result.degraded);
    EXPECT_FALSE(result.stopped_early);
    EXPECT_EQ(result.shards_done.size(),
              static_cast<size_t>(config.num_shards));
    EXPECT_EQ(result.shards_requeued, 0);
    EXPECT_EQ(result.results_rejected, 0);
    ExpectMatchesReference(result, ref);

    // The control plane left a parseable final status behind.
    auto status_json = minidb::Env::Posix()->ReadFile(options.fleet_dir + "/" +
                                                      kStatusFile);
    ASSERT_TRUE(status_json.ok());
    for (const char* key :
         {"\"shards_done\"", "\"execs_per_sec\"", "\"workers\"",
          "\"unique_logic_bugs\"", "\"degraded\"", "\"storage\""}) {
      EXPECT_NE(status_json->find(key), std::string::npos) << key;
    }
  }
}

// --- merge -> distill -> redistribute ------------------------------------

TEST_F(FleetTest, DistillRedistributeMatchesReference) {
  FleetConfig config = BaseConfig();
  config.shard_budget = 400;
  config.distill_every = 2;
  Reference ref = RunReference(config);
  ASSERT_GT(ref.distill_cycles, 0);

  // One worker: fleet completion order == shard order, so the pool each
  // lease imports evolves exactly like the reference's.
  FleetOptions options;
  options.config = config;
  options.num_workers = 1;
  options.fleet_dir = FreshDir("distill");
  FleetResult result = RunFleet(options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.shards_done.size(), static_cast<size_t>(config.num_shards));
  EXPECT_EQ(result.distill_cycles, ref.distill_cycles);
  ExpectSameCases(result.corpus, ref.pool);
  ExpectSameCases(result.corpus_pending, ref.pending);
  ExpectMatchesReference(result, ref);
}

// --- shards ship home only the seeds they found ---------------------------

TEST_F(FleetTest, ShardExportsOnlyItsOwnSeeds) {
  FleetConfig config = BaseConfig();
  config.shard_budget = 400;
  // No oracle: the test replays the shard's campaign on a plain harness.
  config.oracle_spec.clear();
  const minidb::DialectProfile& profile =
      *minidb::DialectProfile::ByName(config.profile);
  for (const char* fuzzer : {"lego", "squirrel"}) {
    SCOPED_TRACE(fuzzer);
    config.fuzzer = fuzzer;
    // Shard 0 on an empty pool: its export is its whole corpus.
    auto first = ExecuteShard(config, 0, {}, nullptr, {});
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    const std::vector<fuzz::TestCase> pool =
        std::move(first->result.corpus_export);
    ASSERT_FALSE(pool.empty());
    EXPECT_EQ(pool.size(), first->result.fuzzer_stats.corpus_seeds);

    // Shard 1 imports that pool and must not send it back.
    auto second = ExecuteShard(config, 1, pool, nullptr, {});
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    const std::vector<fuzz::TestCase>& exported =
        second->result.corpus_export;
    EXPECT_EQ(exported.size(),
              second->result.fuzzer_stats.corpus_seeds - pool.size());

    // The same campaign run directly exports its whole corpus: the pool in
    // import order, then exactly what the shard shipped. Checked by
    // position, because a shard may rediscover a case identical to a pool
    // case (the seed scripts, for one) and then rightly ships it as its own.
    auto direct = MakeFleetFuzzer(config.fuzzer, profile, ShardSeed(config, 1));
    fuzz::ExecutionHarness harness(profile, config.backend);
    fuzz::CampaignOptions options;
    options.max_executions = config.shard_budget;
    options.snapshot_every = 0;
    options.export_corpus = true;
    options.import_seeds = &pool;
    std::vector<fuzz::TestCase> whole =
        fuzz::RunCampaign(direct.get(), &harness, options).corpus_export;
    ASSERT_EQ(whole.size(), pool.size() + exported.size());
    std::vector<fuzz::TestCase> imported, own;
    for (size_t i = 0; i < whole.size(); ++i) {
      (i < pool.size() ? imported : own).push_back(std::move(whole[i]));
    }
    ExpectSameCases(imported, pool);
    ExpectSameCases(own, exported);
  }
}

// --- worker killed mid-shard: requeue without loss ------------------------

TEST_F(FleetTest, WorkerKillMidShardRequeuesWithoutLoss) {
  FleetConfig config = BaseConfig();
  config.num_shards = 4;
  config.shard_budget = 800;  // ~14 heartbeats per shard at progress_every=64
  Reference ref = RunReference(config);

  // The only worker dies on its 20th heartbeat each incarnation: it
  // completes one shard (~14 beats), then is SIGKILLed partway into its
  // next lease. The shard re-queues and the respawned worker finishes it.
  // With one worker the kills follow heartbeat counts alone, never which
  // slot happened to win a lease, so they land the same at any speed.
  // Three kills need strike_limit above 3 to keep the slot alive.
  FleetOptions options;
  options.config = config;
  options.num_workers = 1;
  options.fleet_dir = FreshDir("workerkill");
  options.respawn_backoff_ms = 10;
  options.strike_limit = 8;
  options.worker_chaos.push_back({0, "fleet.heartbeat=kill:20"});
  FleetResult result = RunFleet(options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.shards_done.size(), static_cast<size_t>(config.num_shards));
  EXPECT_GE(result.shards_requeued, 1);
  EXPECT_GE(result.workers_spawned, 3);  // at least one respawn happened
  ExpectMatchesReference(result, ref);
}

// --- coordinator SIGKILL mid-campaign, then --resume ----------------------

TEST_F(FleetTest, CoordinatorKillAndResumeLosesNothing) {
  FleetConfig config = BaseConfig();
  Reference ref = RunReference(config);
  const std::string fleet_dir = FreshDir("coordkill");

  // Child coordinator arms fleet.journal_write=kill:3: the setup journal
  // and the first accepted-result journal land on disk, then the third save
  // SIGKILLs the coordinator before writing a byte — the journal on disk
  // stays the last good state.
  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    (void)chaos::ArmSpec("fleet.journal_write=kill:3", config.base_seed);
    FleetOptions options;
    options.config = config;
    options.num_workers = 2;
    options.fleet_dir = fleet_dir;
    (void)RunFleet(options);
    _exit(7);  // unreachable when the failpoint fires
  }
  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wait_status));
  EXPECT_EQ(WTERMSIG(wait_status), SIGKILL);

  // The journal survived the kill and already holds completed shards.
  FleetResult journaled;
  ASSERT_TRUE(LoadJournal(fleet_dir, config, &journaled).ok());
  EXPECT_GE(journaled.shards_done.size(), 1u);
  EXPECT_LT(journaled.shards_done.size(),
            static_cast<size_t>(config.num_shards));

  // Resume (failpoints clean): only the missing shards re-run, and the
  // merged outcome equals an uninterrupted campaign.
  FleetOptions options;
  options.config = config;
  options.num_workers = 2;
  options.fleet_dir = fleet_dir;
  options.resume = true;
  FleetResult result = RunFleet(options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.resumed);
  EXPECT_EQ(result.shards_done.size(), static_cast<size_t>(config.num_shards));
  ExpectMatchesReference(result, ref);

  // A resume under a different campaign identity must refuse the journal.
  FleetConfig other = config;
  other.base_seed = config.base_seed + 1;
  FleetOptions mismatched = options;
  mismatched.config = other;
  FleetResult refused = RunFleet(mismatched);
  EXPECT_FALSE(refused.status.ok());
}

// --- poisoned results: strikes, quarantine, graceful degradation ----------

TEST_F(FleetTest, QuarantineAfterThreePoisonedResults) {
  FleetConfig config = BaseConfig();
  config.num_shards = 2;
  config.shard_budget = 200;

  // The only worker poisons every result envelope, so the coordinator
  // rejects 3 results (checksum mismatch), strikes the slot each time, and
  // quarantines it — then returns degraded instead of stalling.
  FleetOptions options;
  options.config = config;
  options.num_workers = 1;
  options.fleet_dir = FreshDir("poison");
  options.strike_limit = 3;
  options.respawn_backoff_ms = 10;
  options.worker_chaos.push_back({0, "fleet.result_write=always"});
  FleetResult result = RunFleet(options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.results_rejected, 3);
  EXPECT_EQ(result.workers_quarantined, 1);
  EXPECT_TRUE(result.shards_done.empty());
  EXPECT_EQ(result.shards_requeued, 3);
  // Nothing poisoned leaked into the merged state.
  EXPECT_EQ(result.executions, 0);
  EXPECT_TRUE(result.crashes.empty());
  EXPECT_TRUE(result.logic.empty());
}

// --- heartbeat loss: lease expiry requeues the shard ----------------------

TEST_F(FleetTest, HeartbeatLossExpiresLeaseAndRequeues) {
  FleetConfig config = BaseConfig();
  config.num_shards = 2;
  config.shard_budget = 4000;
  Reference ref = RunReference(config);

  // Slot 0 fuzzes but never heartbeats (failpoint swallows them, including
  // the lease-accept beat), and then wedges instead of reporting its
  // result, so its lease expires however fast the shard ran, and the shard
  // re-queues to the healthy slot. strike_limit=1 quarantines the mute on
  // first expiry. The deadline is sized for the healthy slot instead: its
  // longest gap between heartbeats is ~40 ms in a release build and
  // ~0.6 s under TSan.
  FleetOptions options;
  options.config = config;
  options.num_workers = 2;
  options.fleet_dir = FreshDir("mute");
  options.lease_deadline_ms = 3000;
  options.strike_limit = 1;
  options.worker_chaos.push_back({0, "fleet.heartbeat=always"});
  options.worker_chaos.push_back({0, "fleet.result_hold=always"});
  FleetResult result = RunFleet(options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_FALSE(result.degraded);
  EXPECT_GE(result.leases_expired, 1);
  EXPECT_EQ(result.workers_quarantined, 1);
  EXPECT_EQ(result.shards_done.size(), static_cast<size_t>(config.num_shards));
  ExpectMatchesReference(result, ref);
}

// --- graceful drain + resume ----------------------------------------------

TEST_F(FleetTest, GracefulShutdownDrainsAndResumeCompletes) {
  FleetConfig config = BaseConfig();
  // Large enough that two workers cannot finish all shards before the stop
  // lands 300 ms in, on a fast machine too.
  config.shard_budget = 20000;
  Reference ref = RunReference(config);
  const std::string fleet_dir = FreshDir("drain");

  std::atomic<bool> stop{false};
  std::thread stopper([&stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop.store(true);
  });
  FleetOptions options;
  options.config = config;
  options.num_workers = 2;
  options.fleet_dir = fleet_dir;
  options.stop_flag = &stop;
  FleetResult drained = RunFleet(options);
  stopper.join();
  ASSERT_TRUE(drained.status.ok()) << drained.status.ToString();
  EXPECT_TRUE(drained.stopped_early);
  EXPECT_LT(drained.shards_done.size(),
            static_cast<size_t>(config.num_shards));

  // Partial (drained) results were discarded, not merged: resume reproduces
  // the uninterrupted campaign exactly.
  options.stop_flag = nullptr;
  options.resume = true;
  FleetResult result = RunFleet(options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.resumed);
  EXPECT_FALSE(result.stopped_early);
  EXPECT_EQ(result.shards_done.size(), static_cast<size_t>(config.num_shards));
  ExpectMatchesReference(result, ref);
}

// --- journal round trip ----------------------------------------------------

TEST_F(FleetTest, JournalRoundTripsMergedState) {
  FleetConfig config = BaseConfig();
  config.num_shards = 2;
  config.shard_budget = 300;

  FleetOptions options;
  options.config = config;
  options.num_workers = 1;
  options.fleet_dir = FreshDir("journal");
  FleetResult result = RunFleet(options);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  FleetResult loaded;
  ASSERT_TRUE(LoadJournal(options.fleet_dir, config, &loaded).ok());
  EXPECT_EQ(loaded.executions, result.executions);
  EXPECT_EQ(loaded.shards_done, result.shards_done);
  EXPECT_EQ(loaded.crash_hashes(), result.crash_hashes());
  EXPECT_EQ(loaded.logic_fingerprints(), result.logic_fingerprints());
  EXPECT_EQ(loaded.edges(), result.edges());
  EXPECT_EQ(loaded.corpus.size(), result.corpus.size());
  EXPECT_EQ(loaded.corpus_pending.size(), result.corpus_pending.size());
  for (const auto& [hash, origin] : result.crash_origins) {
    EXPECT_EQ(loaded.crash_origins[hash], origin);
  }
  for (const auto& [fp, origin] : result.logic_origins) {
    EXPECT_EQ(loaded.logic_origins[fp], origin);
  }
}

}  // namespace
}  // namespace lego::fleet
