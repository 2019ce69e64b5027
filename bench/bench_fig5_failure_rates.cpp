// Fig. 5 reproduction: 6T read-access and write failure rates versus supply
// voltage from Monte-Carlo simulation of the 256x256 sub-array, plus the 8T
// rates showing they are negligible in the voltage range of interest.
//
// With --fresh the table is rebuilt from scratch and its wall-clock build
// time printed. --adaptive adds the adaptive-MC arm, whose contract checks
// (oracle agreement, fixed-path bit-identity across thread counts) make the
// harness exit 1 when they fail; the paper-shape checks are advisory.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

#include "common.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

/// The adaptive arm (--adaptive, docs/adaptive_mc.md): rebuild the fig5
/// grid with CI-targeted sampling and validate it against the fixed-sample
/// oracle -- every rate must land within the combined stated intervals, the
/// total sample count should shrink substantially, and the fixed path must
/// stay bit-identical across thread counts. Returns whether both musts hold.
bool run_adaptive_arm(const hynapse::bench::Context& ctx,
                      const hynapse::mc::FailureTable& oracle,
                      const hynapse::mc::AnalyzerOptions& base) {
  using namespace hynapse;

  const std::vector<double> grid = circuit::paper_voltage_grid();

  // The comparison runs at the paper-default budget (the cost the adaptive
  // sampler is cutting), not a --samples-reduced one: a small fixed budget
  // leaves the CI target nothing to save. Rebuild the fixed oracle at the
  // default budget if the cached table used a different one.
  mc::AnalyzerOptions def;
  def.threads = base.threads;
  std::optional<mc::FailureTable> rebuilt;
  if (base.mc_samples != def.mc_samples ||
      base.is_samples != def.is_samples) {
    std::printf("\n[adaptive] rebuilding fixed oracle at the default "
                "budget (%zu MC samples)...\n",
                def.mc_samples);
    const mc::FailureAnalyzer fixed_analyzer{ctx.criteria, ctx.sampler, def};
    rebuilt = mc::FailureTable::build(fixed_analyzer, grid, 20160312);
  }
  const mc::FailureTable& fixed_table = rebuilt ? *rebuilt : oracle;

  // 30 % relative target with a 1e-4 absolute floor: fig5's
  // decision-relevant rates are >= 1e-3 and span decades, so a
  // fraction-of-a-decade interval resolves every comparison the figure
  // makes, and mechanisms pinned near zero may stop once their interval is
  // provably below the floor. The max clamp caps any single estimate at
  // 24000 samples (60 % of the paper budget): a rate that cannot meet the
  // target by then reports converged=false rather than burning further
  // batches for a sub-target interval.
  mc::AnalyzerOptions adaptive_opts = def;
  adaptive_opts.adaptive.enabled = true;
  adaptive_opts.adaptive.rel_target = 0.3;
  adaptive_opts.adaptive.abs_target = 1e-4;
  adaptive_opts.adaptive.max_samples = 24000;
  const mc::FailureAnalyzer analyzer{ctx.criteria, ctx.sampler, adaptive_opts};

  const auto t0 = std::chrono::steady_clock::now();
  const mc::FailureTable adaptive =
      mc::FailureTable::build(analyzer, grid, 20160312);
  const double adaptive_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Oracle agreement: each of the five per-row rates inside the combined
  // stated CI half-widths (the row metadata records the worst of the five,
  // so the band is conservative). A miss is adjudicated by an unbiased
  // high-budget plain-MC referee: near the MC/IS decision boundary
  // (p ~ min_hits / budget) the fixed oracle itself answers from the biased
  // mean-shift estimator while the adaptive consistency guard keeps plain
  // MC, so the two legitimately diverge -- but only in the direction where
  // the oracle loses. The miss passes iff the adaptive answer is no farther
  // from the referee than the fixed one, within the stated intervals.
  std::size_t checked = 0;
  std::size_t within = 0;
  std::size_t refereed = 0;
  for (std::size_t i = 0; i < fixed_table.rows().size(); ++i) {
    const mc::FailureTableRow& f = fixed_table.rows()[i];
    const mc::FailureTableRow& a = adaptive.rows()[i];
    const double tol = f.ci_half_width + a.ci_half_width + 1e-12;
    static const char* const kNames[] = {"ra6", "wr6", "rd6", "ra8", "wr8"};
    std::size_t mech = 0;
    for (const auto& [fp, ap] :
         {std::pair{f.cell6.read_access, a.cell6.read_access},
          std::pair{f.cell6.write_fail, a.cell6.write_fail},
          std::pair{f.cell6.read_disturb, a.cell6.read_disturb},
          std::pair{f.cell8.read_access, a.cell8.read_access},
          std::pair{f.cell8.write_fail, a.cell8.write_fail}}) {
      ++checked;
      if (std::abs(fp - ap) <= tol) {
        ++within;
      } else {
        constexpr std::size_t kRefereeSamples = 400000;
        const mc::RateEstimate ref =
            mech < 3 ? analyzer.plain_mc_6t(static_cast<mc::Mechanism>(mech),
                                            f.vdd, kRefereeSamples, 977)
                     : analyzer.plain_mc_8t(
                           static_cast<mc::Mechanism>(mech - 3), f.vdd,
                           kRefereeSamples, 977);
        const double ref_half = 0.5 * (ref.ci_hi - ref.ci_lo);
        const bool ok = std::abs(ap - ref.p) <=
                        std::abs(fp - ref.p) + a.ci_half_width + ref_half +
                            1e-12;
        ++refereed;
        if (ok) ++within;
        std::printf("  [adaptive] CI miss at vdd=%.2f %s: fixed %.3e vs "
                    "adaptive %.3e (tol %.3e); plain-MC referee at %zu "
                    "samples: %.3e -> %s\n",
                    f.vdd, kNames[mech], fp, ap, tol, kRefereeSamples, ref.p,
                    ok ? "adaptive upheld" : "ADAPTIVE WRONG");
      }
      ++mech;
    }
  }
  const double fixed_samples = fixed_table.total_samples();
  const double adaptive_samples = adaptive.total_samples();
  const double reduction =
      adaptive_samples > 0.0 ? fixed_samples / adaptive_samples : 0.0;

  std::printf("\n[adaptive] CI-targeted arm (rel target %.2f, abs %.0e):\n",
              adaptive_opts.adaptive.rel_target,
              adaptive_opts.adaptive.abs_target);
  for (std::size_t i = 0; i < fixed_table.rows().size(); ++i) {
    std::printf("  vdd=%.2f: fixed %8.0f -> adaptive %8.0f samples "
                "(worst CI half-width %.2e)\n",
                fixed_table.rows()[i].vdd, fixed_table.rows()[i].samples,
                adaptive.rows()[i].samples, adaptive.rows()[i].ci_half_width);
  }
  std::printf("  samples: fixed %.0f -> adaptive %.0f (%.1fx reduction) "
              "in %.3f s\n",
              fixed_samples, adaptive_samples, reduction, adaptive_seconds);
  std::printf("  oracle agreement: %zu/%zu rates within combined CI "
              "(%zu adjudicated by referee) -> %s\n",
              within, checked, refereed,
              within == checked ? "PASS" : "FAIL");
  std::printf("  sample reduction >= 5x -> %s\n",
              reduction >= 5.0 ? "PASS" : "CHECK");

  // Fixed-path bit-identity across thread counts, re-asserted on a fig5
  // subgrid so the oracle contract is checked where the arm ran.
  const double sub[] = {grid.front(), grid[grid.size() / 2], grid.back()};
  mc::AnalyzerOptions small = def;
  small.mc_samples = 6000;
  small.is_samples = 3000;
  bool bit_identical = true;
  std::vector<mc::FailureTable> builds;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}}) {
    mc::AnalyzerOptions o = small;
    o.threads = threads;
    const mc::FailureAnalyzer a{ctx.criteria, ctx.sampler, o};
    builds.push_back(mc::FailureTable::build(a, sub, 20160312));
  }
  for (std::size_t t = 1; t < builds.size() && bit_identical; ++t) {
    for (std::size_t i = 0; i < builds[0].rows().size(); ++i) {
      const mc::FailureTableRow& x = builds[0].rows()[i];
      const mc::FailureTableRow& y = builds[t].rows()[i];
      if (x.cell6.read_access != y.cell6.read_access ||
          x.cell6.write_fail != y.cell6.write_fail ||
          x.cell6.read_disturb != y.cell6.read_disturb ||
          x.cell8.read_access != y.cell8.read_access ||
          x.cell8.write_fail != y.cell8.write_fail ||
          x.samples != y.samples || x.ci_half_width != y.ci_half_width) {
        bit_identical = false;
        break;
      }
    }
  }
  std::printf("  fixed path bit-identical at 1/3/8 threads -> %s\n",
              bit_identical ? "PASS" : "FAIL");

  return within == checked && bit_identical;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hynapse;
  const bench::BenchOptions opts = bench::parse_bench_flags(argc, argv);
  bench::reject_unknown_args(argc, argv);
  bench::print_header(
      "Fig. 5: 6T SRAM failure rates vs supply voltage (Monte-Carlo)",
      "Fig. 5(a) read access, Fig. 5(b) write; Section IV/V 8T claims");

  const bench::Context ctx;
  const auto t0 = std::chrono::steady_clock::now();
  const mc::FailureTable& table = bench::failure_table(ctx, opts);
  const double build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::size_t threads =
      opts.threads != 0 ? opts.threads : util::default_thread_count();
  std::printf("[fig5] failure table ready in %.3f s (threads=%zu%s)\n",
              build_seconds, threads, opts.fresh ? ", fresh build" : "");

  util::Table t{{"VDD [V]", "6T read access", "6T write", "6T read disturb",
                 "8T read access", "8T write"}};
  util::CsvWriter csv{bench::cache_dir() + "/fig5_failure_rates.csv"};
  csv.header({"vdd", "ra6", "wr6", "rd6", "ra8", "wr8"});
  for (const mc::FailureTableRow& row : table.rows()) {
    t.add_row({util::Table::num(row.vdd, 2),
               util::Table::sci(row.cell6.read_access),
               util::Table::sci(row.cell6.write_fail),
               util::Table::sci(row.cell6.read_disturb),
               util::Table::sci(row.cell8.read_access),
               util::Table::sci(row.cell8.write_fail)});
    csv.row_numeric({row.vdd, row.cell6.read_access, row.cell6.write_fail,
                     row.cell6.read_disturb, row.cell8.read_access,
                     row.cell8.write_fail});
  }
  t.print();
  csv.flush();

  const auto r65 = table.rates_6t(0.65);
  const auto r8_65 = table.rates_8t(0.65);
  std::printf("\nPaper-shape checks:\n");
  std::printf("  read access dominates write at scaled voltage (Fig 5): "
              "%.2e > %.2e -> %s\n",
              r65.read_access, r65.write_fail,
              r65.read_access > r65.write_fail ? "PASS" : "CHECK");
  std::printf("  6T read disturb negligible (Section V): %.2e -> %s\n",
              r65.read_disturb,
              r65.read_disturb < 1e-4 ? "PASS" : "CHECK");
  std::printf("  8T virtually unaffected in range (Section V): "
              "read %.2e, write %.2e -> %s\n",
              r8_65.read_access, r8_65.write_fail,
              (r8_65.read_access < 1e-5 && r8_65.write_fail < 1e-5)
                  ? "PASS"
                  : "CHECK");
  bool contract_held = true;
  if (opts.adaptive) {
    // Mirror the analyzer options bench::failure_table used for the oracle,
    // with the adaptive policy switched on.
    mc::AnalyzerOptions ao;
    if (opts.samples != 0) {
      ao.mc_samples = opts.samples;
      ao.is_samples = std::max<std::size_t>(opts.samples / 2, 1000);
    }
    ao.threads = opts.threads;
    contract_held = run_adaptive_arm(ctx, table, ao);
  }

  std::printf("\nCSV mirrored to %s/fig5_failure_rates.csv\n",
              bench::cache_dir().c_str());
  if (!contract_held) {
    std::fprintf(stderr,
                 "error: the adaptive arm broke a contract check (oracle "
                 "agreement or fixed-path bit-identity)\n");
    return 1;
  }
  return 0;
}
