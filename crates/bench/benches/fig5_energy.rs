//! E5 + E7 — Figure 5: normalized energy consumption for the ten SPLASH-2
//! applications under the five configurations (B, H, O, T, I), broken into
//! Compute / Spin / Transition / Sleep, normalized to each application's
//! Baseline; plus the §5.1 headline averages over the target applications.

use tb_bench::{banner, breakdown_row, full_matrix, target_summary};
use tb_core::SystemConfig;

fn main() {
    banner(
        "Figure 5",
        "normalized energy consumption, 10 apps x {B,H,O,T,I}",
    );
    let matrix = full_matrix();
    for m in &matrix {
        let base = &m.config_reports(SystemConfig::Baseline)[0];
        println!(
            "\n-- {} (baseline imbalance {:.2}%, baseline energy {:.2} J)",
            m.app.name,
            base.barrier_imbalance() * 100.0,
            base.total_energy()
        );
        for r in m.reports.iter().flatten() {
            println!(
                "{}",
                breakdown_row(&r.config, &r.energy_normalized_to(base))
            );
        }
    }
    let summary = target_summary(&matrix);
    println!("\n== §5.1 headline (mean over the five target applications)");
    for (config, s) in summary.savings {
        println!("  {:<13} energy savings {:>5.1}%", config.name(), s * 100.0);
    }
    println!(
        "  paper: Thrifty ~17%, Thrifty-Halt ~11% \
         (\"unable to accrue energy savings beyond 11%\")"
    );
}
