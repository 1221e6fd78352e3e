//! Figs. 11 and 12: checkpoint and restore time of the seven Table II
//! models on Portus, BeeGFS-PMem, and ext4-NVMe — with the **real data
//! plane** (every byte of every model actually moves). One pass over
//! the models times both operations; the binary prints both tables and
//! writes `fig11_checkpoint.json` and `fig12_restore.json`. Run with
//! `--release`.
//!
//! Paper, Fig. 11: Portus averages 8.49x over BeeGFS-PMem and 8.18x
//! over ext4-NVMe, peaking at 9.23x on ResNet50.
//!
//! Paper, Fig. 12: Portus averages 5.15x over BeeGFS-PMem and 3.83x
//! over ext4-NVMe, peaking at 7.0x on ResNet50; gains are smaller than
//! for checkpointing because GPUDirect Storage (GDS) already spares the
//! baselines the host staging copy.

use portus_bench::realplane::{self, SystemComparison};
use portus_dnn::zoo;

/// One figure's view of a [`SystemComparison`]: Portus, BeeGFS and
/// ext4 seconds, then the two speedups.
type Columns = fn(&SystemComparison) -> [f64; 5];

fn header(title: &str) {
    println!("{title}");
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "Model", "Portus", "BeeGFS", "ext4", "vs BGFS", "vs ext4"
    );
}

fn row(cmp: &SystemComparison, cols: Columns) {
    let [p, b, e, sb, se] = cols(cmp);
    println!(
        "{:<16} {:>9.3} {:>9.3} {:>9.3} {:>8.2}x {:>8.2}x",
        cmp.model, p, b, e, sb, se
    );
}

/// The average row and the JSON file of one figure.
fn footer(rows: &[SystemComparison], cols: Columns, paper: &str, id: &str) {
    let (sum_b, sum_e) = rows.iter().fold((0.0, 0.0), |(b, e), cmp| {
        let [.., sb, se] = cols(cmp);
        (b + sb, e + se)
    });
    let n = rows.len() as f64;
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>8.2}x {:>8.2}x   (paper: {paper})",
        "average",
        "",
        "",
        "",
        sum_b / n,
        sum_e / n
    );
    let path = portus_bench::write_experiment(id, &serde_json::to_value(rows).expect("serialize"));
    println!("wrote {}", path.display());
}

fn main() {
    let ckpt: Columns = |c| {
        [
            c.portus_ckpt,
            c.beegfs_ckpt,
            c.ext4_ckpt,
            c.ckpt_speedup_beegfs(),
            c.ckpt_speedup_ext4(),
        ]
    };
    let restore: Columns = |c| {
        [
            c.portus_restore,
            c.beegfs_restore,
            c.ext4_restore,
            c.restore_speedup_beegfs(),
            c.restore_speedup_ext4(),
        ]
    };
    header("Fig. 11 — checkpoint time (virtual seconds, real data plane)");
    let mut rows = Vec::new();
    for card in zoo::table2_cards() {
        eprintln!(
            "  running {} ({} MiB)...",
            card.spec.name,
            card.spec.total_bytes() >> 20
        );
        let cmp = realplane::compare_systems(&card.spec);
        row(&cmp, ckpt);
        rows.push(cmp);
    }
    footer(&rows, ckpt, "8.49x / 8.18x", "fig11_checkpoint");
    header("Fig. 12 — restore time (virtual seconds, real data plane)");
    for cmp in &rows {
        row(cmp, restore);
    }
    footer(&rows, restore, "5.15x / 3.83x", "fig12_restore");
}
