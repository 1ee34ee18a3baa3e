// Figure 9: decomposition of audit-time CPU costs, baseline vs OROCHI, three workloads.
//
// Paper stacks: "PHP" (re-execution), "DB query", and for OROCHI additionally
// "ProcOpRep" (Figures 5/6 logic), "DB redo" (versioned-store build), "Other".
// The shape under reproduction: OROCHI's PHP + DB-query bars shrink several-fold vs the
// baseline (SIMD-on-demand + query dedup), while ProcOpRep/DB-redo add small fixed costs.
//
// Every bar is read from AuditResult::phases (worker-seconds per traced phase):
// PHP = pass2_execute - sql_query, DB query = sql_query, ProcOpRep = proc_op_reports,
// DB redo = store_build, Other = prepare + pass3_compare. "covered" is the bars' sum as a
// share of the process-CPU total measured around the audit call. Spans are steady-clock
// time, so on a host busy with other work they also hold time a thread waited for a CPU,
// and "covered" can exceed 100%.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/auditor.h"

using namespace orochi;

namespace {

void PrintRow(const char* config, const AuditResult& r, double total) {
  using obs::Phase;
  const obs::PhaseBreakdown& p = r.phases;
  const double db_query = p[Phase::kSqlQuery];
  const double php = p[Phase::kPass2Execute] - db_query;
  const double other = p[Phase::kPrepare] + p[Phase::kPass3Compare];
  const double covered =
      php + db_query + p[Phase::kProcOpReports] + p[Phase::kStoreBuild] + other;
  const AuditStats& s = r.stats;
  std::printf("  %-9s total %6.2fs | PHP %6.2fs | DBquery %6.2fs | ProcOpRep %5.2fs | "
              "DBredo %5.2fs | other %5.2fs | covered %5.1f%% | instr %lluk (%lluk multi)\n",
              config, total, php, db_query, p[Phase::kProcOpReports],
              p[Phase::kStoreBuild], other, total > 0 ? 100.0 * covered / total : 0.0,
              static_cast<unsigned long long>(s.total_instructions / 1000),
              static_cast<unsigned long long>(s.multivalent_instructions / 1000));
}

}  // namespace

int main() {
  std::printf("Figure 9: decomposition of audit-time CPU costs\n");
  bool all_accepted = true;
  for (Workload (*make)() : {&BenchWiki, &BenchForum, &BenchConf}) {
    Workload w = make();
    ServedRun run = ServeForBench(w, /*record=*/true);
    Auditor auditor(&w.app);

    std::printf("%s (%zu requests):\n", w.name.c_str(), run.trace.NumRequests());
    double cpu0 = ProcessCpuSeconds();
    AuditResult baseline = auditor.AuditSequential(run.trace, run.reports, w.initial);
    double baseline_total = ProcessCpuSeconds() - cpu0;
    if (!baseline.accepted) {
      std::printf("!! baseline rejected: %s\n", baseline.reason.c_str());
      all_accepted = false;
    }
    PrintRow("baseline", baseline, baseline_total);

    cpu0 = ProcessCpuSeconds();
    AuditResult grouped = auditor.Audit(run.trace, run.reports, w.initial);
    double grouped_total = ProcessCpuSeconds() - cpu0;
    if (!grouped.accepted) {
      std::printf("!! orochi rejected: %s\n", grouped.reason.c_str());
      all_accepted = false;
    }
    PrintRow("orochi", grouped, grouped_total);
    std::printf("  dedup: %llu of %llu SELECTs served from cache; groups %llu "
                "(%llu multi)\n",
                static_cast<unsigned long long>(grouped.stats.db_selects_deduped),
                static_cast<unsigned long long>(grouped.stats.db_selects_deduped +
                                                grouped.stats.db_selects_issued),
                static_cast<unsigned long long>(grouped.stats.num_groups),
                static_cast<unsigned long long>(grouped.stats.groups_multi));
  }
  std::printf("\npaper shape: OROCHI bars are several-fold shorter; ProcOpRep and DB-redo "
              "are small additive costs\n");
  return all_accepted ? 0 : 1;
}
