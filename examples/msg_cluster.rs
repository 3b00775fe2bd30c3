//! The thrifty barrier on a message-passing cluster (the paper's §1/§7
//! extension): the *unmodified* algorithm drives a coordinator barrier
//! whose release message both wakes sleepers and carries the measured
//! interval time. A Baseline and a Thrifty cell run on the cluster
//! substrate through the same executor as every other cell.
//!
//! ```text
//! cargo run --release --example msg_cluster [app-name] [nodes]
//! ```

use thrifty_barrier::core::SystemConfig;
use thrifty_barrier::energy::EnergyCategory;
use thrifty_barrier::machine::cluster::ClusterConfig;
use thrifty_barrier::machine::run::PAPER_SEED;
use thrifty_barrier::machine::{Cell, Substrate, Variant};
use thrifty_barrier::serve::{execute, ExecConfig};
use thrifty_barrier::workloads::AppSpec;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "Volrend".to_string());
    let nodes: u16 = args
        .next()
        .map(|s| s.parse().expect("nodes must be a number"))
        .unwrap_or(64);
    let app = AppSpec::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown application {name:?}");
        std::process::exit(1);
    });
    println!(
        "== {app}\ncluster: {}\n",
        ClusterConfig::default_cluster(nodes)
    );

    let cluster = Variant {
        substrate: Substrate::Cluster,
        ..Variant::default()
    };
    let cells = [SystemConfig::Baseline, SystemConfig::Thrifty]
        .map(|c| Cell::new(app.clone(), nodes, PAPER_SEED, c).with_variant(cluster.clone()));
    let outcomes = execute(&cells, &ExecConfig::default()).expect("reachable target");
    let report = |i: usize| outcomes[i].report.as_ref().expect("cluster cell");
    let (base, thrifty) = (report(0), report(1));

    for (label, r) in [("polling", base), ("thrifty", thrifty)] {
        let e = r.energy().fractions();
        println!(
            "{label:<8} wall {}  energy {:>8.2} J  (compute {:.1}% poll {:.1}% trans {:.1}% sleep {:.1}%)",
            r.wall_time,
            r.total_energy(),
            e[EnergyCategory::Compute] * 100.0,
            e[EnergyCategory::Spin] * 100.0,
            e[EnergyCategory::Transition] * 100.0,
            e[EnergyCategory::Sleep] * 100.0,
        );
    }
    println!(
        "\nthrifty saves {:.1}% energy at {:+.2}% wall-clock \
         ({} sleeps: {} timer wake-ups, {} message wake-ups)",
        thrifty.energy_savings_vs(base) * 100.0,
        thrifty.slowdown_vs(base) * 100.0,
        thrifty.counts.total_sleeps(),
        thrifty.counts.internal_wakeups,
        thrifty.counts.external_wakeups,
    );
}
