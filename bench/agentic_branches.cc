/// The agentic many-branch workload (§1's motivating use case, stressed):
/// N agents loop fork -> write K records -> merge-or-abandon -> retire,
/// so branches are born, serve one unit of work, and die by the hundreds.
/// This is the lifecycle pattern of machine-driven curation — every agent
/// works on a private branch and either lands it on master or walks away.
///
/// Two transports run the *same* VQuel statement stream:
///   inproc  each agent owns a vquel::Interpreter on the shared facade
///   tcp     each agent owns a net::Client against an in-process
///           decibel::net::Server (real sockets, real framing)
///
/// Each result line is one JSON object, e.g. the committed
/// bench_results/BENCH_agentic_branches.json's inproc line:
///
///   {"mode": "inproc", "agents": 8, "cycles": 1008, "records_per_cycle": 8,
///    "merged": 756, "abandoned": 252, "seconds": 99.2255,
///    "cycles_per_sec": 10.2, "p50_ms": 663.99, "p99_ms": 2358.26}
///
/// The bench is also a leak check and fails hard (exit 1) unless:
///   - at least 1000 full cycles completed per mode, and
///   - the active branch count returns to 1 (master) afterwards, and
///   - the TCP server reaps every session once the clients disconnect.
///
/// A third case times the fork itself, per engine: master is loaded with
/// 10k and then 1M rows through ApplyBatch and committed, and the line
/// reports the mean of 20 `BRANCH … FROM master` statements, e.g.
///
///   {"mode": "fork", "engine": "HY", "master_rows": 1000000,
///    "forks": 20, "mean_fork_ms": 0.41}
///
/// DECIBEL_AGENTS overrides the agent count (default 8); DECIBEL_SCALE
/// multiplies the cycles per agent and the fork case's master rows.

#include <cinttypes>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "net/client.h"
#include "net/server.h"
#include "query/vquel.h"

namespace decibel {
namespace bench {
namespace {

constexpr uint64_t kRecordsPerCycle = 8;

struct ModeResult {
  uint64_t cycles = 0;
  uint64_t merged = 0;
  uint64_t abandoned = 0;
  double seconds = 0;
  std::vector<double> cycle_ms;

  double CyclesPerSec() const {
    return seconds > 0 ? static_cast<double>(cycles) / seconds : 0;
  }
  double Percentile(double p) {
    if (cycle_ms.empty()) return 0;
    std::sort(cycle_ms.begin(), cycle_ms.end());
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(cycle_ms.size() - 1) / 100.0 + 0.5);
    return cycle_ms[std::min(idx, cycle_ms.size() - 1)];
  }
};

/// One agent's statement transport: in-process interpreter or TCP client.
struct AgentLink {
  vquel::Interpreter* interp = nullptr;
  net::Client* client = nullptr;

  Status ExecOnce(const std::string& statement) {
    if (client != nullptr) {
      DECIBEL_ASSIGN_OR_RETURN(net::WireResult wr,
                               client->Execute(statement));
      return wr.ToStatus();
    }
    return interp->Execute(statement).status();
  }

  /// Lock timeouts surface as the retryable Status::Aborted (§2.2.3's 2PL
  /// discipline: nothing was applied — back off and reissue). With every
  /// agent merging into master, queueing behind its lock is the expected
  /// steady state, not an error.
  Status Exec(const std::string& statement) {
    Status st;
    for (int attempt = 0; attempt < 100; ++attempt) {
      st = ExecOnce(statement);
      if (!st.IsAborted()) return st;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(1 << std::min(attempt, 5)));
    }
    return st;
  }
};

/// Runs one agent's share of the workload; latencies land in *out_ms.
Status RunAgent(AgentLink link, int agent, uint64_t cycles,
                uint64_t* merged, uint64_t* abandoned,
                std::vector<double>* out_ms) {
  for (uint64_t c = 0; c < cycles; ++c) {
    const std::string branch =
        "agent" + std::to_string(agent) + "_c" + std::to_string(c);
    // Globally unique pk range per (agent, cycle) so merges never conflict.
    const int64_t base =
        (static_cast<int64_t>(agent) * 1000000 + static_cast<int64_t>(c)) *
        static_cast<int64_t>(kRecordsPerCycle);
    Stopwatch timer;
    DECIBEL_RETURN_NOT_OK(link.Exec("BRANCH " + branch + " FROM master"));
    for (uint64_t i = 0; i < kRecordsPerCycle; ++i) {
      DECIBEL_RETURN_NOT_OK(link.Exec(
          "INSERT " + branch + " " + std::to_string(base + (int64_t)i) +
          " " + std::to_string(agent) + " " + std::to_string(c)));
    }
    DECIBEL_RETURN_NOT_OK(link.Exec("COMMIT " + branch));
    // Three of four agents land their work; the fourth walks away.
    if ((static_cast<uint64_t>(agent) + c) % 4 != 0) {
      DECIBEL_RETURN_NOT_OK(
          link.Exec("MERGE master " + branch + " THREEWAY LEFT"));
      ++*merged;
    } else {
      ++*abandoned;
    }
    DECIBEL_RETURN_NOT_OK(link.Exec("RETIRE " + branch));
    out_ms->push_back(timer.ElapsedSeconds() * 1000.0);
  }
  return Status::OK();
}

Result<ModeResult> RunMode(const std::string& mode, Decibel* db,
                           net::Server* server, int agents,
                           uint64_t cycles_per_agent) {
  std::vector<Status> failures(agents, Status::OK());
  std::vector<uint64_t> merged(agents, 0);
  std::vector<uint64_t> abandoned(agents, 0);
  std::vector<std::vector<double>> latencies(agents);

  std::vector<std::thread> workers;
  workers.reserve(agents);
  Stopwatch timer;
  for (int t = 0; t < agents; ++t) {
    workers.emplace_back([&, t] {
      if (server != nullptr) {
        auto client = net::Client::Connect("127.0.0.1", server->port());
        if (!client.ok()) {
          failures[t] = client.status();
          return;
        }
        AgentLink link;
        link.client = &*client;
        failures[t] = RunAgent(link, t, cycles_per_agent, &merged[t],
                               &abandoned[t], &latencies[t]);
      } else {
        vquel::Interpreter interp(db);
        AgentLink link;
        link.interp = &interp;
        failures[t] = RunAgent(link, t, cycles_per_agent, &merged[t],
                               &abandoned[t], &latencies[t]);
      }
    });
  }
  for (auto& w : workers) w.join();
  ModeResult result;
  result.seconds = timer.ElapsedSeconds();
  for (const Status& st : failures) DECIBEL_RETURN_NOT_OK(st);

  for (int t = 0; t < agents; ++t) {
    result.cycles += latencies[t].size();
    result.merged += merged[t];
    result.abandoned += abandoned[t];
    result.cycle_ms.insert(result.cycle_ms.end(), latencies[t].begin(),
                           latencies[t].end());
  }

  // Leak gates: the workload retired everything it forked...
  const DecibelStats stats = db->Stats();
  if (stats.active_branches != 1) {
    return Status::Corruption(
        mode + ": leaked branches: " + std::to_string(stats.active_branches) +
        " still active (want 1)");
  }
  // ...and the server reaps every session once the clients hang up.
  if (server != nullptr) {
    for (int i = 0; i < 500 && server->num_sessions() != 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (server->num_sessions() != 0) {
      return Status::Corruption(
          mode + ": leaked sessions: " +
          std::to_string(server->num_sessions()) + " still open (want 0)");
    }
  }
  return result;
}

Result<ScopedDb> FreshAgentDb(const std::string& tag) {
  static int counter = 0;
  ScopedDb scoped;
  scoped.path = "/tmp/decibel_bench_" + std::to_string(::getpid()) + "_" +
                tag + "_" + std::to_string(counter++);
  DECIBEL_RETURN_NOT_OK(RemoveDirRecursive(scoped.path));
  // The server-facing schema (pk, c1, c2) — same as decibel_server.
  DECIBEL_ASSIGN_OR_RETURN(
      scoped.db,
      Decibel::Open(scoped.path, Schema::MakeBenchmark(2), DecibelOptions{}));
  return scoped;
}

void Emit(const std::string& mode, int agents, ModeResult result) {
  printf("{\"mode\": \"%s\", \"agents\": %d, \"cycles\": %" PRIu64
         ", \"records_per_cycle\": %" PRIu64 ", \"merged\": %" PRIu64
         ", \"abandoned\": %" PRIu64
         ", \"seconds\": %.4f, \"cycles_per_sec\": %.1f, "
         "\"p50_ms\": %.2f, \"p99_ms\": %.2f}\n",
         mode.c_str(), agents, result.cycles, kRecordsPerCycle,
         result.merged, result.abandoned, result.seconds,
         result.CyclesPerSec(), result.Percentile(50),
         result.Percentile(99));
}

/// Mean latency of \p forks `BRANCH … FROM master` statements once master
/// holds \p rows committed rows: the cost of a fork against table size.
Result<double> MeanForkMs(EngineType engine, uint64_t rows, int forks) {
  DECIBEL_ASSIGN_OR_RETURN(ScopedDb scoped, FreshDb(engine, "fork"));
  Decibel* db = scoped.db.get();
  constexpr uint64_t kBatchRows = 10000;
  for (uint64_t first = 0; first < rows; first += kBatchRows) {
    WriteBatch batch(&db->schema());
    for (uint64_t pk = first; pk < std::min(rows, first + kBatchRows); ++pk) {
      Record record(&db->schema());
      record.SetPk(static_cast<int64_t>(pk));
      batch.Insert(record);
    }
    DECIBEL_RETURN_NOT_OK(db->ApplyBatch(kMasterBranch, batch));
  }
  DECIBEL_RETURN_NOT_OK(db->CommitBranch(kMasterBranch).status());
  vquel::Interpreter interp(db);
  double total_ms = 0;
  for (int f = 0; f < forks; ++f) {
    Stopwatch timer;
    DECIBEL_RETURN_NOT_OK(
        interp.Execute("BRANCH fork" + std::to_string(f) + " FROM master")
            .status());
    total_ms += timer.ElapsedSeconds() * 1000.0;
  }
  return total_ms / forks;
}

void RunForks() {
  constexpr int kForks = 20;
  for (uint64_t base_rows : {uint64_t{10000}, uint64_t{1000000}}) {
    const uint64_t rows = base_rows * static_cast<uint64_t>(ScaleFactor());
    for (EngineType engine : AllEngines()) {
      BENCH_ASSIGN_OR_DIE(double mean_ms, MeanForkMs(engine, rows, kForks));
      printf("{\"mode\": \"fork\", \"engine\": \"%s\", "
             "\"master_rows\": %" PRIu64 ", \"forks\": %d, "
             "\"mean_fork_ms\": %.3f}\n",
             ShortName(engine), rows, kForks, mean_ms);
    }
  }
}

void Run() {
  const int agents = std::max(1, EnvInt("DECIBEL_AGENTS", 8));
  // >= 1000 total cycles per mode at the default agent count.
  const uint64_t cycles_per_agent =
      (1000 / static_cast<uint64_t>(agents) + 1) *
      static_cast<uint64_t>(ScaleFactor());
  const uint64_t want = static_cast<uint64_t>(agents) * cycles_per_agent;

  printf("=== agentic branch lifecycle (%d agents x %" PRIu64
         " fork/write/merge/retire cycles, %" PRIu64 " records each) ===\n",
         agents, cycles_per_agent, kRecordsPerCycle);

  // --- in-process facade ---
  {
    BENCH_ASSIGN_OR_DIE(ScopedDb scoped, FreshAgentDb("agentic_inproc"));
    BENCH_ASSIGN_OR_DIE(
        ModeResult result,
        RunMode("inproc", scoped.db.get(), nullptr, agents,
                cycles_per_agent));
    if (result.cycles < 1000 || result.cycles != want) {
      std::fprintf(stderr, "FATAL: inproc completed %" PRIu64
                   " cycles, want %" PRIu64 " (>= 1000)\n",
                   result.cycles, want);
      std::exit(1);
    }
    Emit("inproc", agents, std::move(result));
  }

  // --- over TCP ---
  {
    BENCH_ASSIGN_OR_DIE(ScopedDb scoped, FreshAgentDb("agentic_tcp"));
    net::ServerOptions opts;
    opts.worker_threads = static_cast<size_t>(agents);
    BENCH_ASSIGN_OR_DIE(auto server,
                        net::Server::Start(scoped.db.get(), opts));
    BENCH_ASSIGN_OR_DIE(
        ModeResult result,
        RunMode("tcp", scoped.db.get(), server.get(), agents,
                cycles_per_agent));
    if (result.cycles < 1000 || result.cycles != want) {
      std::fprintf(stderr, "FATAL: tcp completed %" PRIu64
                   " cycles, want %" PRIu64 " (>= 1000)\n",
                   result.cycles, want);
      std::exit(1);
    }
    server->Stop();
    Emit("tcp", agents, std::move(result));
  }

  // --- fork latency against table size ---
  RunForks();
}

}  // namespace
}  // namespace bench
}  // namespace decibel

int main() {
  decibel::bench::Run();
  return 0;
}
