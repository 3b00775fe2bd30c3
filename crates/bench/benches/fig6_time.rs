//! E6 + E7 — Figure 6: normalized execution time for the ten SPLASH-2
//! applications under the five configurations (B, H, O, T, I), broken into
//! Compute / Spin / Transition / Sleep, normalized to each application's
//! Baseline wall-clock; plus the §5.1 mean Thrifty slowdown over the
//! target applications.

use tb_bench::{banner, breakdown_row, full_matrix, target_summary};
use tb_core::SystemConfig;

fn main() {
    banner(
        "Figure 6",
        "normalized execution time, 10 apps x {B,H,O,T,I}",
    );
    let matrix = full_matrix();
    for m in &matrix {
        let base = &m.config_reports(SystemConfig::Baseline)[0];
        println!(
            "\n-- {} (baseline wall clock {})",
            m.app.name, base.wall_time
        );
        for r in m.reports.iter().flatten() {
            println!(
                "{}  (slowdown {:+.2}%)",
                breakdown_row(&r.config, &r.time_normalized_to(base)),
                r.slowdown_vs(base) * 100.0
            );
        }
    }
    let summary = target_summary(&matrix);
    println!(
        "\n== §5.1 headline: mean Thrifty slowdown over target apps {:+.2}% \
         (paper: ~2%, \"well bounded\")",
        summary.thrifty_slowdown * 100.0
    );
}
