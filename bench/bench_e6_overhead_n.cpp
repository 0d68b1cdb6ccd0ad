// E6 — Theorem 11, n-scaling: at fixed Delta the per-round overhead grows as
// Theta(log n).
//
// Sweeps n at fixed degree and reports the measured per-round beep cost and
// its ratio to Delta*log n (flat ratio = the claimed log n scaling). Each
// sweep point is a ScenarioSpec run through the unified scenario runner;
// the registry's e6-n256 spec is this bench's n=256 row.
//
// The verdict is computed from the rows, and the bench exits 1 when the
// claim fails: max/min of ours/(Delta*logn) above kMaxSpread, a row below
// the Omega(Delta log n) lower bound, or a round that is not perfect.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>

#include "baselines/cost_models.h"
#include "bench_util.h"
#include "common/math_util.h"
#include "scenarios/registry.h"

namespace {

/// Largest max/min of the ours/(Delta*logn) column still read as flat
/// (measured 168.0 / 157.1 = 1.07 on n = 64..2048).
constexpr double kMaxSpread = 1.25;

}  // namespace

int main() {
    using namespace nb;
    bench::header("E6", "Broadcast CONGEST overhead vs n (Theorem 11)",
                  "per-round cost O(Delta log n): doubling n adds one log-unit");

    Table table({"n", "log n", "Delta", "B=log n", "ours (beeps/round)", "ours/(D*logn)",
                 "round ok"});
    double min_normalized = std::numeric_limits<double>::infinity();
    double max_normalized = 0.0;
    std::size_t below_bound = 0;
    std::size_t imperfect = 0;
    for (const std::size_t n : {64u, 128u, 256u, 512u, 1024u, 2048u}) {
        const ScenarioResult result = run_scenario(scenarios::e6_overhead_point(n));
        const std::size_t delta = result.max_degree;
        const std::size_t log_n = ceil_log2(n);
        const double normalized = static_cast<double>(result.beep_rounds_per_round) /
                                  (static_cast<double>(delta) * static_cast<double>(log_n));
        const bool all_perfect = result.perfect_rounds == result.rounds;
        min_normalized = std::min(min_normalized, normalized);
        max_normalized = std::max(max_normalized, normalized);
        below_bound +=
            result.beep_rounds_per_round < lower_bound_broadcast_overhead(delta, log_n) ? 1 : 0;
        imperfect += all_perfect ? 0 : 1;
        table.add_row({Table::num(n), Table::num(log_n), Table::num(delta), Table::num(log_n),
                       Table::num(result.beep_rounds_per_round), Table::num(normalized, 1),
                       all_perfect ? "yes" : "partial"});
    }
    table.print(std::cout, "beep rounds per Broadcast CONGEST round (Delta~8, eps=0.1)");

    const double spread = max_normalized / min_normalized;
    const bool pass = spread <= kMaxSpread && below_bound == 0 && imperfect == 0;
    std::ostringstream text;
    text << std::fixed << std::setprecision(1) << "ours/(Delta*logn) spans " << min_normalized
         << "-" << max_normalized << std::setprecision(2) << " (max/min " << spread
         << ", flat bound " << kMaxSpread << ")";
    if (pass) {
        text << " => cost per round grows proportionally to log n at fixed Delta, the "
                "Theorem 11 n-dependence; every cost sits above the Omega(Delta log n) "
                "lower bound; every round perfect";
    } else {
        text << "; FAILED:";
        if (spread > kMaxSpread) {
            text << " not flat;";
        }
        text << " " << below_bound << " rows below the lower bound, " << imperfect
             << " rows with an imperfect round";
    }
    bench::verdict(text.str());
    return pass ? 0 : 1;
}
