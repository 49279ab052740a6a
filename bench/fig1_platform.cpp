// Figure 1 — the CAKE tile architecture (inside-tile view).
//
// The paper's Figure 1 is a block diagram; this harness prints the
// platform self-description of the simulated tile so the configuration
// used throughout the evaluation is on record.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "common/table.hpp"
#include "sim/platform.hpp"

using namespace cms;

int main(int argc, char** argv) {
  bench::warn_unknown_flags(argc, argv);  // fig1 takes no flags
  print_banner("Figure 1: CAKE tile (inside-tile view)");

  const sim::PlatformConfig paper = sim::cake_platform();
  std::printf(
      "\n"
      "  +--------------------------------------------------------------+\n"
      "  |  CPU0      CPU1      CPU2      CPU3        (TriMedia-class)   |\n"
      "  |  [L1]      [L1]      [L1]      [L1]        private caches     |\n"
      "  |    |         |         |         |                            |\n"
      "  |  ==============================================  snooping bus |\n"
      "  |                     [ shared unified L2 ]                     |\n"
      "  |        bank0      bank1      bank2      bank3   (memory)      |\n"
      "  +--------------------------------------------------------------+\n\n");

  Table t({"component", "configuration"});
  t.row().cell("processors").integer(paper.hier.num_procs).done();
  t.row().cell("L1 (per CPU)").cell(paper.hier.l1.to_string()).done();
  t.row().cell("L2 (shared, paper)").cell(paper.hier.l2.to_string()).done();
  {
    auto cfg1 = bench::app1_experiment();
    t.row().cell("L2 (bench, app 1)").cell(cfg1.platform.hier.l2.to_string()).done();
    auto cfg2 = bench::app2_experiment();
    t.row().cell("L2 (bench, app 2)").cell(cfg2.platform.hier.l2.to_string()).done();
  }
  t.row()
      .cell("DRAM banks")
      .integer(paper.hier.dram.num_banks)
      .done();
  t.row()
      .cell("DRAM latency / occupancy")
      .cell(std::to_string(paper.hier.dram.access_latency) + " / " +
            std::to_string(paper.hier.dram.bank_occupancy) + " cycles")
      .done();
  t.row()
      .cell("bus grant / transfer")
      .cell(std::to_string(paper.hier.bus.arbitration_latency) + " / " +
            std::to_string(paper.hier.bus.cycles_per_transaction) + " cycles")
      .done();
  t.row()
      .cell("L1 / L2 hit latency")
      .cell(std::to_string(paper.hier.l1_hit_latency) + " / " +
            std::to_string(paper.hier.l2_hit_latency) + " cycles")
      .done();
  t.row().cell("task switch cost").integer(paper.task_switch_cost).done();
  t.print();
  return 0;
}
