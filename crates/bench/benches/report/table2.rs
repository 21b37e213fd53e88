//! Table 2: how long updated data resides in memory, per log layer, under
//! RS(12,4) — append time, buffered time, recycle time, and the total
//! residency from update to full merge.
//!
//! Paper claims: appends and recycles are µs-to-ms scale; the buffered time
//! dominates (seconds); total residency is ~10 s, short enough that
//! dual-copy logs provide the needed reliability window.
//!
//! The check asserts "buffered time dominates": for every layer on both
//! traces, `BUFFER` exceeds both `APPEND` and `RECYCLE`. The tightest case
//! is Ali-Cloud's DELTA_LOG at smoke scale (614 vs 437 / 105 µs).

use ecfs::prelude::{ResidencySummary, RunResult};
use ecfs::Method;
use traces::TraceFamily;
use tsue_bench::sweep::{fixed, plain, Results, Row, Sweep};
use tsue_bench::{ssd_replay, BenchReport};

/// A cell: the trace family's name.
type Label = &'static str;
type Column = tsue_bench::sweep::Column<Label>;

/// A cell's rows: one per log layer, then the total.
const LAYERS: [&str; 4] = ["DATA_LOG", "DELTA_LOG", "PARITY_LOG", "TOTAL"];

fn layers(res: &RunResult) -> [ResidencySummary; 3] {
    [
        res.data_residency,
        res.delta_residency,
        res.parity_residency,
    ]
}

/// The row's layer, `None` on the total row.
fn layer(r: &Row<Label>) -> Option<ResidencySummary> {
    layers(r.res).get(r.part).copied()
}

pub fn sweep() -> Sweep<Label> {
    let cells = [
        (TraceFamily::AliCloud, "Ali-Cloud"),
        (TraceFamily::TenCloud, "Ten-Cloud"),
    ]
    .into_iter()
    .map(|(family, fam_name)| {
        let mut rcfg = ssd_replay(12, 4, Method::Tsue, family, 16);
        rcfg.ops_per_client = tsue_bench::ops_per_client() * 2;
        (fam_name, rcfg)
    })
    .collect();
    let title = "Table 2: time (us) data resides in each log layer (TSUE, RS(12,4))";
    Sweep::new("table2", title, cells, check)
        .columns([
            Column::key("trace", |r| *r.label).show("trace", plain),
            Column::key("layer", |r| LAYERS[r.part]).show("layer", plain),
            Column::key("append_us", |r| layer(r).map(|l| l.append_us))
                .show("APPEND us", fixed::<0>),
            Column::key("buffer_us", |r| layer(r).map(|l| l.buffer_us))
                .show("BUFFER us", fixed::<0>),
            // The total row's residency from update to full merge sits
            // under RECYCLE.
            Column::key("recycle_us", |r| match layer(r) {
                Some(l) => l.recycle_us,
                None => layers(r.res).iter().map(|l| l.total_us()).sum(),
            })
            .show("RECYCLE us", fixed::<0>),
        ])
        .rows(|_, _| LAYERS.len())
}

fn check(results: &Results<Label>, _: &mut BenchReport) {
    for (fam_name, res) in results.iter() {
        for (layer, r) in LAYERS.iter().zip(layers(res)) {
            assert!(
                r.buffer_us > r.append_us && r.buffer_us > r.recycle_us,
                "{fam_name} {layer}: buffered time {:.0} us must dominate append {:.0} us \
                 and recycle {:.0} us",
                r.buffer_us,
                r.append_us,
                r.recycle_us
            );
        }
    }
}
