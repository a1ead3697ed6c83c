/// Figure 8: Query 2 (multi-version positive diff) across the four
/// branching strategies — deep tail vs parent, flat child vs parent,
/// science oldest-active vs mainline, curation mainline vs dev.
///
/// Expected shape (§5.2): version-first uniformly worst (it rebuilds
/// winner tables over both ancestries); tuple-first and hybrid answer from
/// bitmaps; hybrid edges out tuple-first as interleaving grows because its
/// segment skipping touches fewer records.
///
/// The engines must agree on the answer: each case also prints the rows
/// every engine returned and the page bytes its diff read, and the bench
/// exits non-zero when the row counts differ.

#include "bench_common.h"

namespace decibel {
namespace bench {
namespace {

/// Returns false when the engines returned different row counts.
bool Run() {
  const int num_branches = EnvInt("DECIBEL_BRANCHES", 10);
  const std::vector<std::pair<const char*, Strategy>> cases = {
      {"deep", Strategy::kDeep},
      {"flat", Strategy::kFlat},
      {"sci", Strategy::kScience},
      {"cur", Strategy::kCuration},
  };

  printf("=== Figure 8: Query 2 (positive diff) latency (%d branches) ===\n",
         num_branches);
  printf("%-8s %10s %10s %10s %8s %10s %10s %10s\n", "case", "VF (ms)",
         "TF (ms)", "HY (ms)", "rows", "VF MB", "TF MB", "HY MB");

  bool agree = true;
  for (const auto& [label, strategy] : cases) {
    double ms[3];
    uint64_t rows[3];
    double mb[3];
    for (size_t e = 0; e < AllEngines().size(); ++e) {
      BENCH_ASSIGN_OR_DIE(ScopedDb scoped,
                          FreshDb(AllEngines()[e], "fig8"));
      WorkloadConfig config = BaseConfig(strategy, num_branches);
      BENCH_ASSIGN_OR_DIE(LoadedWorkload w,
                          LoadWorkload(scoped.db.get(), config));
      Random rng(7);
      const auto [a, b] = SelectQ2Pair(w, &rng);
      BENCH_ASSIGN_OR_DIE(TimedQuery q2, TimedQ2(scoped.db.get(), a, b));
      ms[e] = q2.seconds * 1e3;
      rows[e] = q2.stats.rows_emitted;
      mb[e] = static_cast<double>(q2.stats.bytes_read) / (1 << 20);
    }
    printf("%-8s %10.2f %10.2f %10.2f %8llu %10.2f %10.2f %10.2f\n", label,
           ms[0], ms[1], ms[2], static_cast<unsigned long long>(rows[0]),
           mb[0], mb[1], mb[2]);
    if (rows[0] != rows[1] || rows[0] != rows[2]) {
      fprintf(stderr,
              "fig8 %s: engines disagree on Q2 rows (VF %llu, TF %llu, "
              "HY %llu)\n",
              label, static_cast<unsigned long long>(rows[0]),
              static_cast<unsigned long long>(rows[1]),
              static_cast<unsigned long long>(rows[2]));
      agree = false;
    }
  }
  return agree;
}

}  // namespace
}  // namespace bench
}  // namespace decibel

int main() { return decibel::bench::Run() ? 0 : 1; }
