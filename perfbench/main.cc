// perfbench: one fuzzing workload per invocation, measured end to end through
// RunCampaign / RunFleet, or traced layer by layer through the replicas in
// replica.cc.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// Every campaign runs in a process of its own, forked from this one, so each
// starts from the same state, its peak memory is its own, and a seed is shown
// to replay across processes.
//
// Untraced (--trace 0): times set-up several times, runs one campaign per
// sub-seed of N (a fixed set, so count metrics do not depend on speed), then
// repeats them from the first until S seconds of campaigns have run; every
// repeat must reproduce its first run exactly. Prints the end-to-end
// metrics. Traced (--trace 1): runs an untraced campaign and its traced
// replica per sub-seed, alternating which goes first, until S seconds have
// run; the replica must reproduce the untraced edges, bug ids and statement
// counts. Prints the per-layer metrics. Either way the last line of stdout
// is one JSON object {"correct", "attempted", "failed", "metrics"}; a failed
// check prints the workload and the check to stderr and exits 1 without it.

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "faults/bug_catalog.h"
#include "fleet/fleet.h"
#include "fleet/shard.h"
#include "fuzz/campaign.h"
#include "lego/lego_fuzzer.h"
#include "minidb/profile.h"
#include "persist/io.h"
#include "replica.h"
#include "trace.h"
#include "triage/oracle_suite.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double SafeDiv(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

// --- workloads -------------------------------------------------------------

struct Workload {
  const char* name;
  const char* profile;
  fuzz::BackendKind backend;  // storage is always mem; see WORKLOADS.md
  const char* oracles;  // OracleSuite spec, "" for none
  bool rule_coverage;
  /// Executions per campaign (single-process) or per shard (fleet).
  int budget;
  /// Distinct sub-seeds per untraced run.
  int campaigns;
  /// Set-up trials per untraced run; setup_s is their median.
  int setup_trials;
  // Fleet only (workers == 0 for single-process workloads).
  int workers;
  int shards;
  int distill_every;
};

// Why each workload exists, which layers it loads and which it bypasses:
// see WORKLOADS.md next to this file.
const Workload kWorkloads[] = {
    {"lego_serial", "marialite", fuzz::BackendKind::kInProcess, "", false,
     48000, 4, 101, 0, 0, 0},
    {"lego_fleet3", "marialite", fuzz::BackendKind::kInProcess, "", false,
     4000, 4, 15, 3, 12, 4},
    {"sessions_mem", "pglite", fuzz::BackendKind::kConcurrent, "iso", false,
     12000, 8, 101, 0, 0, 0},
    {"forked_oracles", "pglite", fuzz::BackendKind::kForked,
     "tlp,norec,clause", true, 16000, 8, 101, 0, 0, 0},
};

bool IsFleet(const Workload& w) { return w.workers > 0; }

/// Processes a workload keeps alive beside its own: fleet workers or the
/// forked backend's child.
int ForkedChildren(const Workload& w) {
  if (IsFleet(w)) return w.workers;
  return w.backend == fuzz::BackendKind::kForked ? 1 : 0;
}

/// Sub-seed k of run seed `seed`: the run's k-th campaign.
uint64_t SubSeed(uint64_t seed, int k) {
  return seed * 1000 + static_cast<uint64_t>(k);
}

struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// --- one campaign ----------------------------------------------------------

/// What one campaign (untraced or traced, serial or fleet) produced. It
/// crosses from the campaign's process to this one through Encode/Decode.
struct Outcome {
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
  int64_t planned = 0;  // executions the budget asked for
  int64_t executions = 0;
  int64_t failed = 0;  // planned executions lost to a non-finding failure
  int64_t statements_executed = 0;
  int64_t statement_errors = 0;
  uint64_t edges = 0;
  uint64_t rules = 0;
  std::set<std::string> bug_ids;
  std::set<uint64_t> logic_fingerprints;
  fuzz::FuzzerStats fuzzer_stats;
  fuzz::BackendStorageStats storage;
  // Untraced fleet only.
  double distill_s = 0.0;
  double fleet_elapsed_s = 0.0;
  uint64_t pool_seeds = 0;
  uint64_t pool_bytes = 0;
  int64_t requeued = 0;
  int64_t rejected = 0;
  int64_t leases_expired = 0;
  // Traced only.
  LayerCounts counts;
  std::vector<SpanSamples> samples;
};

// Outcome's encoding between a campaign's process and this one. Both sides
// are this binary, so the field lists below only have to agree here.

std::string Encode(const Outcome& o) {
  lego::persist::StateWriter w;
  for (double v : {o.wall_s, o.peak_rss_mb, o.distill_s, o.fleet_elapsed_s}) {
    w.WriteDouble(v);
  }
  for (int64_t v : {o.planned, o.executions, o.failed, o.statements_executed,
                    o.statement_errors, o.requeued, o.rejected,
                    o.leases_expired}) {
    w.WriteI64(v);
  }
  const fuzz::FuzzerStats& f = o.fuzzer_stats;
  const fuzz::BackendStorageStats& st = o.storage;
  const LayerCounts& c = o.counts;
  for (uint64_t v :
       {o.edges, o.rules, o.pool_seeds, o.pool_bytes,
        uint64_t{f.corpus_seeds}, uint64_t{f.affinity_pairs},
        uint64_t{f.sequences_total}, uint64_t{f.sequences_dropped},
        uint64_t{f.import_skipped}, st.pool_hits, st.pool_misses,
        st.pool_evictions, st.pool_writebacks, st.wal_records, st.wal_bytes,
        st.fsyncs, st.steal_flushes, st.commits, st.checkpoints}) {
    w.WriteU64(v);
  }
  for (int64_t v : {c.executions, c.new_coverage, c.statements_ok,
                    c.statements_rejected, c.server_deaths, c.oracle_checks,
                    c.switches, c.deadlocks}) {
    w.WriteI64(v);
  }
  w.WriteU64(o.bug_ids.size());
  for (const std::string& id : o.bug_ids) w.WriteString(id);
  w.WriteU64(o.logic_fingerprints.size());
  for (uint64_t fp : o.logic_fingerprints) w.WriteU64(fp);
  w.WriteU64(o.samples.size());
  for (const SpanSamples& samples : o.samples) {
    w.WriteDouble(samples.self_ns);
    w.WriteU64(samples.durations_ns.size());
    for (double d : samples.durations_ns) w.WriteDouble(d);
  }
  return w.buffer();
}

bool Decode(std::string bytes, Outcome* o) {
  lego::persist::StateReader r =
      lego::persist::StateReader::FromPayload(std::move(bytes));
  for (double* v : {&o->wall_s, &o->peak_rss_mb, &o->distill_s,
                    &o->fleet_elapsed_s}) {
    *v = r.ReadDouble();
  }
  for (int64_t* v : {&o->planned, &o->executions, &o->failed,
                     &o->statements_executed, &o->statement_errors,
                     &o->requeued, &o->rejected, &o->leases_expired}) {
    *v = r.ReadI64();
  }
  fuzz::FuzzerStats& f = o->fuzzer_stats;
  fuzz::BackendStorageStats& st = o->storage;
  LayerCounts& c = o->counts;
  for (uint64_t* v :
       {&o->edges, &o->rules, &o->pool_seeds, &o->pool_bytes,
        &f.corpus_seeds, &f.affinity_pairs, &f.sequences_total,
        &f.sequences_dropped, &f.import_skipped, &st.pool_hits,
        &st.pool_misses, &st.pool_evictions, &st.pool_writebacks,
        &st.wal_records, &st.wal_bytes, &st.fsyncs, &st.steal_flushes,
        &st.commits, &st.checkpoints}) {
    *v = r.ReadU64();
  }
  for (int64_t* v : {&c.executions, &c.new_coverage, &c.statements_ok,
                     &c.statements_rejected, &c.server_deaths,
                     &c.oracle_checks, &c.switches, &c.deadlocks}) {
    *v = r.ReadI64();
  }
  for (uint64_t n = r.ReadU64(); n > 0 && r.ok(); --n) {
    o->bug_ids.insert(r.ReadString());
  }
  for (uint64_t n = r.ReadU64(); n > 0 && r.ok(); --n) {
    o->logic_fingerprints.insert(r.ReadU64());
  }
  const uint64_t names = r.ReadU64();
  if (!r.CheckCount(names, 16)) return false;
  o->samples.resize(names);
  for (SpanSamples& samples : o->samples) {
    samples.self_ns = r.ReadDouble();
    const uint64_t n = r.ReadU64();
    if (!r.CheckCount(n, sizeof(double))) return false;
    samples.durations_ns.resize(n);
    for (double& d : samples.durations_ns) d = r.ReadDouble();
  }
  return r.ok() && r.AtEnd();
}

/// Restarts this process's peak-RSS watermark (VmHWM) at its current RSS.
void ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

/// This process's peak RSS since the last ResetPeakRss, in MB.
double SelfPeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// Peak memory of a campaign's process: its own peak plus, per process it
/// keeps alive beside itself, the largest peak among the processes it
/// forked.
double CampaignPeakRssMb(const Workload& w) {
  struct rusage children {};
  getrusage(RUSAGE_CHILDREN, &children);
  return SelfPeakRssMb() +
         static_cast<double>(children.ru_maxrss) * ForkedChildren(w) / 1024.0;
}

/// Binds this process, and the threads and processes it starts, to the CPU
/// it is running on.
void PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

class Bench {
 public:
  Bench(const Workload& w, uint64_t seed, std::string work_dir,
        std::string out_dir)
      : w_(w),
        seed_(seed),
        work_dir_(std::move(work_dir)),
        out_dir_(std::move(out_dir)),
        profile_(lego::minidb::DialectProfile::ByName(w.profile)) {}

  const Workload& workload() const { return w_; }
  uint64_t seed() const { return seed_; }

  /// Aborts the run. Thrown, not exited, so that unwinding destroys every
  /// backend and reaps the processes it forked.
  [[noreturn]] void Fail(const std::string& why) const {
    throw CheckFailed(std::string("CHECK FAILED [") + w_.name + "]: " + why);
  }

  /// One set-up, timed: the rig plus Prepare for a single-process workload;
  /// a fleet of `workers` processes running one single-execution shard each
  /// for a fleet workload.
  double SetupOnce(int trial) {
    const uint64_t s = SubSeed(seed_, trial);
    if (IsFleet(w_)) {
      fleet::FleetOptions options;
      options.config = FleetConfigFor(s, w_.workers, 1, 0);
      options.num_workers = w_.workers;
      options.fleet_dir = FreshDir("setup");
      const Clock::time_point t0 = Clock::now();
      fleet::FleetResult r = fleet::RunFleet(options);
      const double t = SecondsSince(t0);
      RemoveDir(options.fleet_dir);
      if (!r.status.ok() || r.degraded) {
        Fail("fleet set-up failed: " + r.status.ToString());
      }
      return t;
    }
    const Clock::time_point t0 = Clock::now();
    Rig rig = MakeRig(s);
    rig.fuzzer->Prepare(rig.harness.get());
    return SecondsSince(t0);
  }

  /// The campaign of `campaign_seed` through RunCampaign / RunFleet, in a
  /// process of its own.
  Outcome Untraced(uint64_t campaign_seed) {
    Outcome o = InChild([&] { return RunUntraced(campaign_seed); });
    CheckBugIds(o);
    return o;
  }

  /// The same campaign through its traced replica, in a process of its
  /// own; that process also writes its spans to the output directory.
  Outcome Traced(uint64_t campaign_seed) {
    Outcome o = InChild([&] { return RunTraced(campaign_seed); });
    CheckBugIds(o);
    return o;
  }

  /// Fleet only: the fleet's shards run in this process in the reference
  /// order, untraced; what the traced replica is checked and timed against.
  Outcome Reference(uint64_t campaign_seed) {
    Outcome o =
        InChild([&] { return RunFleetReplica(campaign_seed, nullptr); });
    CheckBugIds(o);
    return o;
  }

  /// Two campaigns of one seed agree on everything the benchmark scores.
  void CheckSame(const Outcome& a, const Outcome& b, const char* what) const {
    std::string diff;
    if (a.executions != b.executions) diff += " executions";
    if (a.edges != b.edges) diff += " edges";
    if (a.rules != b.rules) diff += " rules";
    if (a.bug_ids != b.bug_ids) diff += " bug_ids";
    if (a.logic_fingerprints != b.logic_fingerprints) diff += " logic_flags";
    if (a.statements_executed != b.statements_executed ||
        a.statement_errors != b.statement_errors) {
      diff += " statements";
    }
    if (!diff.empty()) {
      Fail(std::string(what) + " differs in" + diff + " (edges " +
           std::to_string(a.edges) + " vs " + std::to_string(b.edges) +
           ", bugs " + std::to_string(a.bug_ids.size()) + " vs " +
           std::to_string(b.bug_ids.size()) + ", statements " +
           std::to_string(a.statements_executed) + "+" +
           std::to_string(a.statement_errors) + " vs " +
           std::to_string(b.statements_executed) + "+" +
           std::to_string(b.statement_errors) + ")");
    }
  }

 private:
  /// Everything a single-process campaign needs before its first
  /// execution: oracle suite, harness (forks the child of a forked
  /// backend) and fuzzer.
  struct Rig {
    std::unique_ptr<lego::triage::OracleSuite> suite;
    std::unique_ptr<fuzz::ExecutionHarness> harness;
    std::unique_ptr<fuzz::Fuzzer> fuzzer;
  };

  Rig MakeRig(uint64_t campaign_seed) {
    Rig rig;
    if (w_.oracles[0] != '\0') {
      std::string error;
      rig.suite = lego::triage::OracleSuite::FromSpec(w_.oracles, &error);
      if (rig.suite == nullptr) Fail("oracle spec: " + error);
    }
    fuzz::BackendOptions backend;
    backend.kind = w_.backend;
    backend.concurrency_seed = campaign_seed;
    rig.harness = std::make_unique<fuzz::ExecutionHarness>(*profile_, backend);
    rig.harness->set_rule_coverage(w_.rule_coverage);
    if (rig.suite != nullptr) rig.harness->set_logic_oracle(rig.suite.get());
    lego::core::LegoOptions options;
    options.rng_seed = campaign_seed;
    rig.fuzzer = std::make_unique<lego::core::LegoFuzzer>(*profile_, options);
    return rig;
  }

  fleet::FleetConfig FleetConfigFor(uint64_t campaign_seed, int shards,
                                    int budget, int distill_every) const {
    fleet::FleetConfig c;
    c.profile = w_.profile;
    c.fuzzer = "lego";
    c.base_seed = campaign_seed;
    c.num_shards = shards;
    c.shard_budget = budget;
    c.distill_every = distill_every;
    c.oracle_spec = w_.oracles;
    c.rule_coverage = w_.rule_coverage;
    return c;
  }

  /// A fresh, unused scratch path for a fleet journal under the run's work
  /// directory.
  std::string FreshDir(const char* what) {
    fs::path p = fs::path(work_dir_) /
                 (what + std::to_string(static_cast<long>(getpid())) + "-" +
                  std::to_string(++dirs_));
    RemoveDir(p.string());
    return p.string();
  }

  static void RemoveDir(const std::string& dir) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  /// Runs `campaign` in a forked process and returns its Outcome, with that
  /// process's peak memory. A check that fails there fails here.
  Outcome InChild(const std::function<Outcome()>& campaign) {
    std::fflush(stdout);
    std::fflush(stderr);
    int fds[2];
    if (::pipe(fds) != 0) Fail(std::string("pipe: ") + std::strerror(errno));
    const pid_t pid = ::fork();
    if (pid < 0) Fail(std::string("fork: ") + std::strerror(errno));
    if (pid == 0) {
      ::close(fds[0]);
      // Session threads, or the forked backend's child, take turns with the
      // campaign and never run at once; on one CPU those turns cost the
      // program's handoff, not a cross-CPU wake-up on a busy VM.
      if (!IsFleet(w_) && w_.backend != fuzz::BackendKind::kInProcess) {
        PinToCurrentCpu();
      }
      ResetPeakRss();
      std::string msg;
      char tag = 'O';
      try {
        Outcome o = campaign();
        o.peak_rss_mb = CampaignPeakRssMb(w_);
        msg = Encode(o);
      } catch (const std::exception& e) {
        tag = 'F';
        msg = e.what();
      }
      msg.insert(msg.begin(), tag);
      size_t off = 0;
      while (off < msg.size()) {
        const ssize_t n = ::write(fds[1], msg.data() + off, msg.size() - off);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        off += static_cast<size_t>(n);
      }
      ::close(fds[1]);
      ::_exit(0);
    }
    ::close(fds[1]);
    std::string msg;
    char buf[1 << 16];
    while (true) {
      const ssize_t n = ::read(fds[0], buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      msg.append(buf, static_cast<size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || msg.empty()) {
      Fail("campaign process died (wait status " + std::to_string(status) +
           ")");
    }
    if (msg[0] == 'F') throw CheckFailed(msg.substr(1));
    Outcome o;
    if (!Decode(msg.substr(1), &o)) Fail("campaign result did not decode");
    return o;
  }

  Outcome RunUntraced(uint64_t campaign_seed) {
    Outcome o;
    if (IsFleet(w_)) {
      fleet::FleetOptions options;
      options.config = FleetConfigFor(campaign_seed, w_.shards, w_.budget,
                                      w_.distill_every);
      options.num_workers = w_.workers;
      options.fleet_dir = FreshDir("fleet");
      const Clock::time_point t0 = Clock::now();
      fleet::FleetResult r = fleet::RunFleet(options);
      o.wall_s = SecondsSince(t0);
      RemoveDir(options.fleet_dir);
      if (!r.status.ok()) Fail("fleet status " + r.status.ToString());
      if (r.degraded) Fail("fleet ended degraded");
      if (r.stopped_early) Fail("fleet stopped early");
      if (static_cast<int>(r.shards_done.size()) != w_.shards) {
        Fail("fleet finished " + std::to_string(r.shards_done.size()) +
             " of " + std::to_string(w_.shards) + " shards");
      }
      o.planned = static_cast<int64_t>(w_.shards) * w_.budget;
      o.executions = r.executions;
      // Requeued and rejected shards were run again; their first attempt
      // is lost work.
      const int64_t lost = r.shards_requeued + r.results_rejected;
      o.failed = std::min<int64_t>(o.planned, lost * w_.budget);
      o.statements_executed = r.statements_executed;
      o.statement_errors = r.statement_errors;
      o.edges = r.edges();
      o.rules = r.rules;
      o.bug_ids = r.bug_ids();
      o.logic_fingerprints = r.logic_fingerprints();
      o.storage = r.storage;
      o.distill_s = r.distill_seconds;
      o.fleet_elapsed_s = r.elapsed_seconds;
      o.pool_seeds = r.corpus.size();
      o.pool_bytes = fleet::EncodePool(r.corpus).size();
      o.requeued = r.shards_requeued;
      o.rejected = r.results_rejected;
      o.leases_expired = r.leases_expired;
      return o;
    }
    Rig rig = MakeRig(campaign_seed);
    fuzz::CampaignOptions options;
    options.max_executions = w_.budget;
    const Clock::time_point t0 = Clock::now();
    fuzz::CampaignResult r =
        fuzz::RunCampaign(rig.fuzzer.get(), rig.harness.get(), options);
    o.wall_s = SecondsSince(t0);
    if (!r.state_status.ok()) {
      Fail("campaign status " + r.state_status.ToString());
    }
    FromCampaign(r, &o);
    return o;
  }

  Outcome RunFleetReplica(uint64_t campaign_seed, Tracer* tracer) {
    Outcome o;
    fleet::FleetConfig config = FleetConfigFor(campaign_seed, w_.shards,
                                               w_.budget, w_.distill_every);
    const Clock::time_point t0 = Clock::now();
    FleetReplicaResult r = ReplicaFleet(config, tracer, &o.counts);
    o.wall_s = SecondsSince(t0);
    if (!r.status.ok()) Fail("fleet reference: " + r.status.ToString());
    o.planned = static_cast<int64_t>(w_.shards) * w_.budget;
    o.executions = r.executions;
    o.statements_executed = r.statements_executed;
    o.statement_errors = r.statement_errors;
    o.edges = r.edges;
    o.rules = r.rules;
    o.bug_ids = r.bug_ids;
    o.logic_fingerprints = r.logic_fingerprints;
    o.fuzzer_stats = r.fuzzer_stats;
    return o;
  }

  Outcome RunTraced(uint64_t campaign_seed) {
    Outcome o;
    Tracer tracer;
    if (IsFleet(w_)) {
      o = RunFleetReplica(campaign_seed, &tracer);
    } else {
      Rig rig = MakeRig(campaign_seed);
      cov::GlobalCoverage coverage;
      const Clock::time_point t0 = Clock::now();
      fuzz::CampaignResult r =
          ReplicaCampaign(rig.fuzzer.get(), rig.harness.get(), w_.budget,
                          nullptr, false, &tracer, &o.counts, &coverage);
      o.wall_s = SecondsSince(t0);
      FromCampaign(r, &o);
    }
    Accumulate(tracer.spans(), &o.samples);
    const std::string path = out_dir_ + "/trace-" + w_.name + ".tsv";
    if (!tracer.WriteTsv(path)) Fail("cannot write " + path);
    return o;
  }

  void FromCampaign(const fuzz::CampaignResult& r, Outcome* o) const {
    o->planned = w_.budget;
    o->executions = r.executions;
    o->failed = o->planned - r.executions;
    o->statements_executed = r.statements_executed;
    o->statement_errors = r.statement_errors;
    o->edges = r.edges;
    o->rules = r.rules;
    o->bug_ids = r.bug_ids;
    o->logic_fingerprints = r.logic_fingerprints;
    o->fuzzer_stats = r.fuzzer_stats;
    o->storage = r.storage;
  }

  /// Every bug id is an injected bug of the profile, a real death of the
  /// forked child (REAL-*) or a watchdog hang.
  void CheckBugIds(const Outcome& o) const {
    std::set<std::string> catalog;
    for (const auto* bug : lego::faults::BugsForProfile(w_.profile)) {
      catalog.insert(bug->id);
    }
    for (const std::string& id : o.bug_ids) {
      if (catalog.count(id) == 0 && id.rfind("REAL-", 0) != 0 &&
          id != "HANG") {
        Fail("bug id '" + id + "' is not in the " + std::string(w_.profile) +
             " catalog");
      }
    }
  }

  const Workload& w_;
  uint64_t seed_;
  std::string work_dir_;
  std::string out_dir_;
  const lego::minidb::DialectProfile* profile_;
  int dirs_ = 0;
};

// --- reporting -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* better;
};

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %-7s (%s is better)\n", m.name.c_str(),
                m.value, m.unit, m.better);
  }
}

void PrintResult(int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

std::string FilesystemOf(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlay";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx",
                static_cast<unsigned long>(st.f_type));
  return buf;
}

void PrintCampaign(const char* what, uint64_t seed, const Outcome& o) {
  std::printf("%s seed %llu: %.3f s, %lld execs, %llu edges, %zu bugs, "
              "%llu rules, %zu logic flags, peak %.1f MB\n",
              what, static_cast<unsigned long long>(seed), o.wall_s,
              static_cast<long long>(o.executions),
              static_cast<unsigned long long>(o.edges), o.bug_ids.size(),
              static_cast<unsigned long long>(o.rules),
              o.logic_fingerprints.size(), o.peak_rss_mb);
  std::fflush(stdout);
}

// --- the two modes ---------------------------------------------------------

int RunEndToEnd(Bench* bench, double seconds) {
  const Workload& w = bench->workload();
  std::vector<double> setups;
  for (int i = 0; i < w.setup_trials; ++i) {
    setups.push_back(bench->SetupOnce(i));
  }
  std::printf("set-up: min %.6f s, median %.6f s, max %.6f s over %d\n",
              *std::min_element(setups.begin(), setups.end()), Median(setups),
              *std::max_element(setups.begin(), setups.end()), w.setup_trials);

  // Counts come from the first run of each sub-seed, a set fixed by the
  // seed; rates are medians over every campaign run, repeats included.
  std::vector<Outcome> firsts;
  std::vector<double> exec_rates, edge_rates, bug_rates;
  int64_t attempted = 0, failed = 0;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0;; ++i) {
    const int k = i % w.campaigns;
    if (i > w.campaigns && SecondsSince(t0) >= seconds) break;
    const uint64_t s = SubSeed(bench->seed(), k);
    Outcome o = bench->Untraced(s);
    attempted += o.planned;
    failed += o.failed;
    PrintCampaign(i < w.campaigns ? "campaign" : "repeat  ", s, o);
    exec_rates.push_back(static_cast<double>(o.executions) / o.wall_s);
    edge_rates.push_back(static_cast<double>(o.edges) / o.wall_s);
    bug_rates.push_back(static_cast<double>(o.bug_ids.size()) / o.wall_s);
    if (i < w.campaigns) {
      firsts.push_back(std::move(o));
    } else if (!IsFleet(w)) {
      // A fleet's shard completion order, and so its pool, depends on
      // timing; only single-process campaigns must repeat exactly.
      bench->CheckSame(firsts[static_cast<size_t>(k)], o, "same-seed repeat");
    }
  }

  double edges = 0.0, bugs = 0.0, rules = 0.0, flags = 0.0, peak = 0.0;
  for (const Outcome& o : firsts) {
    edges += static_cast<double>(o.edges);
    bugs += static_cast<double>(o.bug_ids.size());
    rules += static_cast<double>(o.rules);
    flags += static_cast<double>(o.logic_fingerprints.size());
    peak += o.peak_rss_mb;
  }
  const double n = static_cast<double>(firsts.size());
  std::printf("%s: %zu campaigns over %d sub-seeds, median of %d set-ups; "
              "counts are means over sub-seeds, rates medians over "
              "campaigns\n",
              w.name, exec_rates.size(), w.campaigns, w.setup_trials);
  // unique_bugs, bugs_per_s, rules, logic_flags and failed_frac read 0 on
  // some workload, so they are shown here but left out of the bounded
  // end-to-end set; the traced run reports them as per-layer metrics.
  PrintMetrics({
      {"unique_bugs", bugs / n, "count", "higher"},
      {"bugs_per_s", Median(bug_rates), "1/s", "higher"},
      {"rules", rules / n, "count", "higher"},
      {"logic_flags", flags / n, "count", "lower"},
      {"failed_frac", SafeDiv(static_cast<double>(failed),
                              static_cast<double>(attempted)),
       "frac", "lower"},
  });
  const std::vector<Metric> bounded = {
      {"setup_s", Median(setups), "s", "lower"},
      {"execs_per_s", Median(exec_rates), "1/s", "higher"},
      {"edges", edges / n, "count", "higher"},
      {"edges_per_s", Median(edge_rates), "1/s", "higher"},
      {"peak_rss_mb", peak / n, "MB", "lower"},
  };
  PrintMetrics(bounded);
  PrintResult(attempted, failed, bounded);
  return 0;
}

int RunTracedMode(Bench* bench, double seconds) {
  const Workload& w = bench->workload();
  std::vector<SpanSamples> samples(kNumSpanNames);
  LayerCounts counts;
  fuzz::FuzzerStats fz;
  fuzz::BackendStorageStats storage;
  // untraced_wall sums the runs each replica is timed against: the
  // campaign itself, or for the fleet its untraced single-process reference.
  double untraced_wall = 0.0, traced_wall = 0.0, campaign_wall = 0.0;
  double bugs = 0.0, rules = 0.0, flags = 0.0;
  double distill_s = 0.0, fleet_s = 0.0, pool_seeds = 0.0, pool_bytes = 0.0;
  double requeued = 0.0, rejected = 0.0, expired = 0.0;
  int64_t attempted = 0, failed = 0;
  int pairs = 0;
  const Clock::time_point t0 = Clock::now();
  for (; pairs == 0 || SecondsSince(t0) < seconds; ++pairs) {
    const uint64_t s = SubSeed(bench->seed(), pairs);
    // The replica runs a fleet's shards in the single-process reference
    // order, while the real fleet's import order depends on timing; so a
    // fleet's replica is checked and timed against that reference, and the
    // fleet itself only supplies the fleet counters.
    Outcome u = IsFleet(w) ? bench->Untraced(s) : Outcome();
    // Alternate which side runs first, so that neither always runs on a
    // machine the other has just warmed or loaded.
    Outcome b, t;
    if (pairs % 2 == 0) {
      b = IsFleet(w) ? bench->Reference(s) : bench->Untraced(s);
      t = bench->Traced(s);
    } else {
      t = bench->Traced(s);
      b = IsFleet(w) ? bench->Reference(s) : bench->Untraced(s);
    }
    if (!IsFleet(w)) u = b;
    if (IsFleet(w)) PrintCampaign("fleet   ", s, u);
    PrintCampaign(IsFleet(w) ? "refer.  " : "untraced", s, b);
    PrintCampaign("traced  ", s, t);
    bench->CheckSame(b, t, "traced replica");
    if (t.executions != u.executions) {
      bench->Fail("replica ran " + std::to_string(t.executions) +
                  " executions, the campaign " + std::to_string(u.executions));
    }
    for (size_t i = 0; i < t.samples.size(); ++i) {
      auto& dst = samples[i].durations_ns;
      const auto& src = t.samples[i].durations_ns;
      dst.insert(dst.end(), src.begin(), src.end());
      samples[i].self_ns += t.samples[i].self_ns;
    }
    counts.Add(t.counts);
    fz.corpus_seeds += t.fuzzer_stats.corpus_seeds;
    fz.affinity_pairs += t.fuzzer_stats.affinity_pairs;
    fz.sequences_dropped += t.fuzzer_stats.sequences_dropped;
    storage.Add(t.storage);
    untraced_wall += b.wall_s;
    traced_wall += t.wall_s;
    campaign_wall += u.wall_s;
    bugs += static_cast<double>(u.bug_ids.size());
    rules += static_cast<double>(u.rules);
    flags += static_cast<double>(u.logic_fingerprints.size());
    distill_s += u.distill_s;
    fleet_s += u.fleet_elapsed_s;
    pool_seeds += static_cast<double>(u.pool_seeds);
    pool_bytes += static_cast<double>(u.pool_bytes);
    requeued += static_cast<double>(u.requeued);
    rejected += static_cast<double>(u.rejected);
    expired += static_cast<double>(u.leases_expired);
    attempted += u.planned + t.planned + (IsFleet(w) ? b.planned : 0);
    failed += u.failed + t.failed + (IsFleet(w) ? b.failed : 0);
  }

  std::vector<Metric> m;
  double shard_s = 0.0;
  std::printf("%s: %d traced campaigns, %.3f s traced wall; tail = highest "
              "percentile with >= 10 samples above it\n",
              w.name, pairs, traced_wall);
  for (int i = 0; i < kNumSpanNames; ++i) {
    const SpanName name = static_cast<SpanName>(i);
    SpanStats st = Summarise(std::move(samples[static_cast<size_t>(i)]));
    const double self_share = SafeDiv(st.self_ns / 1e9, traced_wall);
    if (name == SpanName::kFleetShard) shard_s = st.total_ns / 1e9;
    if (st.n > 0) {
      std::printf("  %-22s n=%-9zu p50 %10.2f us  p%-5g %10.2f us  "
                  "self %.4f\n",
                  SpanNameString(name), st.n, st.p50_us, st.tail_pct,
                  st.tail_us, self_share);
    }
    const std::string p = SpanNameString(name);
    m.push_back({p + ".p50_us", st.p50_us, "us", "lower"});
    m.push_back({p + ".tail_us", st.tail_us, "us", "lower"});
    m.push_back({p + ".tail_pct", st.tail_pct, "pct", "higher"});
    m.push_back({p + ".n", static_cast<double>(st.n), "count", "higher"});
    m.push_back({p + ".self_share", self_share, "frac", "lower"});
  }

  const double execs = static_cast<double>(counts.executions);
  const double stmts =
      static_cast<double>(counts.statements_ok + counts.statements_rejected);
  const double n = static_cast<double>(pairs);
  // The replica runs the shards back to back; spread over the fleet's
  // workers they would keep them busy for this share of the fleet's wall.
  const double idle_frac =
      IsFleet(w) ? 1.0 - SafeDiv(shard_s, w.workers * fleet_s) : 0.0;
  std::vector<Metric> c = {
      {"lego.stmt_valid_frac", SafeDiv(counts.statements_ok, stmts), "frac",
       "higher"},
      {"lego.stmts", stmts, "count", "higher"},
      {"lego.new_cov_frac", SafeDiv(counts.new_coverage, execs), "frac",
       "higher"},
      {"lego.corpus_seeds", fz.corpus_seeds / n, "count", "higher"},
      {"lego.affinity_pairs", fz.affinity_pairs / n, "count", "higher"},
      {"lego.sequences_dropped", fz.sequences_dropped / n, "count", "lower"},
      {"storage.fsyncs_per_exec", SafeDiv(storage.fsyncs, execs), "1/exec",
       "lower"},
      {"storage.wal_bytes_per_exec", SafeDiv(storage.wal_bytes, execs),
       "B/exec", "lower"},
      {"storage.checkpoints_per_exec", SafeDiv(storage.checkpoints, execs),
       "1/exec", "lower"},
      {"storage.writebacks_per_exec", SafeDiv(storage.pool_writebacks, execs),
       "1/exec", "lower"},
      {"storage.pool_hit_frac", storage.pool_hit_rate(), "frac", "higher"},
      {"storage.pool_hits", static_cast<double>(storage.pool_hits), "count",
       "higher"},
      {"storage.pool_misses", static_cast<double>(storage.pool_misses),
       "count", "lower"},
      {"sessions.switches_per_exec", SafeDiv(counts.switches, execs),
       "1/exec", "lower"},
      {"sessions.deadlocks_per_kexec",
       SafeDiv(1000.0 * counts.deadlocks, execs), "1/kexec", "lower"},
      {"backend.deaths_per_kexec",
       SafeDiv(1000.0 * counts.server_deaths, execs), "1/kexec", "lower"},
      {"oracle.checks_per_exec", SafeDiv(counts.oracle_checks, execs),
       "1/exec", "lower"},
      {"fleet.distill_share", SafeDiv(distill_s, fleet_s), "frac", "lower"},
      {"fleet.worker_idle_frac", idle_frac, "frac", "lower"},
      {"fleet.pool_seeds", pool_seeds / n, "count", "higher"},
      {"fleet.pool_bytes", pool_bytes / n, "B", "lower"},
      {"fleet.requeued", requeued, "count", "lower"},
      {"fleet.rejected", rejected, "count", "lower"},
      {"fleet.leases_expired", expired, "count", "lower"},
      {"trace.overhead_frac", SafeDiv(traced_wall, untraced_wall) - 1.0,
       "frac", "lower"},
      {"trace.execs", execs, "count", "higher"},
      {"trace.wall_s", traced_wall, "s", "lower"},
      {"unique_bugs", bugs / n, "count", "higher"},
      {"bugs_per_s", SafeDiv(bugs, campaign_wall), "1/s", "higher"},
      {"rules", rules / n, "count", "higher"},
      {"logic_flags", flags / n, "count", "lower"},
      {"failed_frac", SafeDiv(static_cast<double>(failed),
                              static_cast<double>(attempted)),
       "frac", "lower"},
  };
  std::printf("layer counts (storage and sessions per traced execution; "
              "fleet, bugs, rules and flags from the untraced runs):\n");
  PrintMetrics(c);
  m.insert(m.end(), c.begin(), c.end());
  PrintResult(attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, out_dir = ".";
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  // Fresh per-run scratch for fleet journals, inside the output directory,
  // removed when the run ends.
  const std::string work_dir = out_dir + "/work-" + w->name + "-" +
                               std::to_string(static_cast<long>(getpid()));
  std::error_code ec;
  fs::remove_all(work_dir, ec);
  fs::create_directories(work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", work_dir.c_str());
    return 2;
  }
  std::printf("workload %s, seed %llu, %s; scratch on %s\n", w->name,
              static_cast<unsigned long long>(seed),
              trace != 0 ? "traced" : "untraced",
              FilesystemOf(work_dir).c_str());
  Bench bench(*w, seed, work_dir, out_dir);
  int rc = 0;
  try {
    rc = trace != 0 ? RunTracedMode(&bench, seconds)
                    : RunEndToEnd(&bench, seconds);
  } catch (const CheckFailed& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    rc = 1;
  }
  fs::remove_all(work_dir, ec);
  return rc;
}
