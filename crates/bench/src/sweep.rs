//! The sweep harness: every figure, table and sweep of the bench report is
//! a [`Sweep`] value, and [`run`] runs the values a command line names.
//!
//! A value declares its cells (a label and a [`ReplayConfig`] each), its
//! columns once (report key, optional table header and formatter), and a
//! check that asserts its findings on the typed results and records them.
//! The harness fans the cells of every selected value out in one parallel
//! pool, asserts the invariants every cell must keep, builds the report
//! rows and the printed table from the one column list, runs the check,
//! and writes `BENCH_<name>_sweep.json` (see [`crate::report`]).

use std::fmt::Debug;

use ecfs::prelude::*;

use crate::{fan_out, kfmt, print_table, BenchReport, Json};

/// One row of a value's table: a cell's label and result, and the row's
/// index within its cell (below the value's rows per cell).
pub struct Row<'a, L> {
    /// The cell's label.
    pub label: &'a L,
    /// The cell's result.
    pub res: &'a RunResult,
    /// The row's index within its cell.
    pub part: usize,
}

/// One column, declared once: the report key it fills, the value it
/// reads off a row and, once [`Column::show`]n, the table header it
/// prints under and how the table prints the value.
pub struct Column<L> {
    key: Option<&'static str>,
    value: Reader<L>,
    header: Option<(&'static str, Fmt)>,
}

/// How a column reads its value off a row.
type Reader<L> = Box<dyn Fn(&Row<L>) -> Json>;

/// How the table prints a column's value.
pub type Fmt = fn(&Json) -> String;

impl<L> Column<L> {
    /// A report column; the table shows it only once [`Column::show`]n.
    pub fn key<V: Into<Json>>(key: &'static str, value: impl Fn(&Row<L>) -> V + 'static) -> Self {
        Column {
            key: Some(key),
            value: Box::new(move |row| value(row).into()),
            header: None,
        }
    }

    /// A column only the printed table shows.
    pub fn shown<V: Into<Json>>(
        header: &'static str,
        fmt: Fmt,
        value: impl Fn(&Row<L>) -> V + 'static,
    ) -> Self {
        let mut column = Column::key("", value).show(header, fmt);
        column.key = None;
        column
    }

    /// Prints the column in the table under `header`, formatted by `fmt`.
    pub fn show(mut self, header: &'static str, fmt: Fmt) -> Self {
        self.header = Some((header, fmt));
        self
    }
}

/// Strings as they are, numbers as the report renders them, `null` blank.
pub fn plain(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Null => String::new(),
        v => v.render(),
    }
}

/// A number with `N` decimals (`null` blank).
pub fn fixed<const N: usize>(v: &Json) -> String {
    v.as_f64().map_or(String::new(), |x| format!("{x:.N$}"))
}

/// A number in k-units ([`kfmt`]).
pub fn kilo(v: &Json) -> String {
    kfmt(v.as_f64().unwrap_or(0.0))
}

/// A saturation flag: `SAT` or `ok`.
pub fn state(v: &Json) -> String {
    if *v == Json::Bool(true) { "SAT" } else { "ok" }.to_string()
}

/// A value's cells after the run: each label with its outcome, in
/// declared order.
pub struct Results<L> {
    /// `(label, outcome)` per cell.
    pub cells: Vec<(L, RunOutcome)>,
}

impl<L> Results<L> {
    /// Every cell's label and result.
    pub fn iter(&self) -> impl Iterator<Item = (&L, &RunResult)> {
        self.cells.iter().map(|(label, out)| (label, &out.result))
    }

    /// The result of the first cell whose label matches `pred`.
    ///
    /// # Panics
    /// Panics when no cell matches: the grid lacks a cell the check reads.
    pub fn get(&self, pred: impl Fn(&L) -> bool) -> &RunResult {
        let found = self.iter().find(|(label, _)| pred(label));
        found.expect("the grid holds every cell the check reads").1
    }
}

/// One report value: a named grid of labelled cells, the columns its
/// report and table show, and the check its findings must pass.
pub struct Sweep<L> {
    name: &'static str,
    title: &'static str,
    cells: Vec<(L, ReplayConfig)>,
    rows_per_cell: fn(&L, &RunResult) -> usize,
    columns: Vec<Column<L>>,
    check: fn(&Results<L>, &mut BenchReport),
}

impl<L: Debug> Sweep<L> {
    /// A value named `name` (what `cargo bench --bench report -- <name>`
    /// selects) that runs `cells` and then `check`; `title` heads its
    /// printed table. It has no columns until [`Sweep::columns`] and
    /// yields one row per cell until [`Sweep::rows`].
    pub fn new(
        name: &'static str,
        title: &'static str,
        cells: Vec<(L, ReplayConfig)>,
        check: fn(&Results<L>, &mut BenchReport),
    ) -> Self {
        Sweep {
            name,
            title,
            cells,
            rows_per_cell: |_, _| 1,
            columns: Vec::new(),
            check,
        }
    }

    /// Sets the report keys and table columns, in order. The table is
    /// printed when a column is shown.
    pub fn columns<const N: usize>(mut self, columns: [Column<L>; N]) -> Self {
        self.columns = columns.into();
        self
    }

    /// Sets how many rows each cell yields: several where a result holds
    /// a table of its own, none for a cell only the check reads.
    pub fn rows(mut self, rows_per_cell: fn(&L, &RunResult) -> usize) -> Self {
        self.rows_per_cell = rows_per_cell;
        self
    }

    /// Asserts every cell's invariants, then builds the report rows and
    /// the table (headers, rows) from the one column list.
    ///
    /// # Panics
    /// Panics, naming the cell, when a cell reports oracle violations or
    /// an open-loop cell offered ops it neither acked nor failed.
    fn tabulate(&self, outs: &[RunOutcome]) -> (BenchReport, Vec<&'static str>, Vec<Vec<String>>) {
        let mut report = BenchReport::new(&format!("{}_sweep", self.name));
        let mut table = Vec::new();
        for ((label, rcfg), out) in self.cells.iter().zip(outs) {
            let res = &out.result;
            let cell = format!("{} cell {label:?} ({})", self.name, res.method);
            assert_eq!(res.oracle_violations, 0, "{cell} violated consistency");
            if !rcfg.workload.is_closed_loop() {
                let acked = res.completed_updates + res.completed_reads + res.completed_writes;
                let failed = res.failed_ops;
                assert_eq!(
                    res.offered_ops,
                    acked + failed,
                    "{cell}: offered ops must be acked ({acked}) or failed ({failed})"
                );
            }
            for part in 0..(self.rows_per_cell)(label, res) {
                let row = Row { label, res, part };
                let values: Vec<Json> = self.columns.iter().map(|c| (c.value)(&row)).collect();
                let cells = self.columns.iter().zip(values);
                let keyed = cells.clone().filter_map(|(c, v)| Some((c.key?, v)));
                report.add_row(res, keyed.collect());
                table.push(cells.filter_map(|(c, v)| Some((c.header?.1)(&v))).collect());
            }
        }
        let headers = self.columns.iter().filter_map(|c| Some(c.header?.0));
        (report, headers.collect(), table)
    }
}

/// A [`Sweep`] with its label type erased, so one list holds every value.
pub trait Value {
    /// The value's name.
    fn name(&self) -> &'static str;
    /// The cells' replays, in declared order.
    fn configs(&self) -> Vec<&ReplayConfig>;
    /// Tabulates the cells' outcomes (in declared order), prints the
    /// table, runs the check and writes the report.
    fn finish(self: Box<Self>, outs: Vec<RunOutcome>);
}

impl<L: Debug> Value for Sweep<L> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn configs(&self) -> Vec<&ReplayConfig> {
        self.cells.iter().map(|(_, rcfg)| rcfg).collect()
    }

    fn finish(self: Box<Self>, outs: Vec<RunOutcome>) {
        let (mut report, headers, table) = self.tabulate(&outs);
        if !headers.is_empty() {
            print_table(self.title, &headers, &table);
        }
        let labels = self.cells.into_iter().map(|(label, _)| label);
        let cells = labels.zip(outs).collect();
        (self.check)(&Results { cells }, &mut report);
        report.write_and_announce();
    }
}

/// Runs the values named on the command line, in `values`' order, or all
/// of them when none is named: every selected cell in one parallel
/// fan-out, then each value's table, check and report in turn.
///
/// Arguments starting with `-` are skipped (`cargo bench` appends
/// `--bench`). An unknown name exits with status 2, listing the known
/// ones, before anything runs.
pub fn run(values: Vec<Box<dyn Value>>) {
    let args = std::env::args().skip(1);
    let names: Vec<String> = args.filter(|arg| !arg.starts_with('-')).collect();
    let known: Vec<&str> = values.iter().map(|v| v.name()).collect();
    if let Some(unknown) = names.iter().find(|n| !known.contains(&n.as_str())) {
        eprintln!("unknown value {unknown:?}; known: {}", known.join(" "));
        std::process::exit(2);
    }
    let chosen: Vec<Box<dyn Value>> = values
        .into_iter()
        .filter(|v| names.is_empty() || names.iter().any(|n| n == v.name()))
        .collect();
    let configs: Vec<&ReplayConfig> = chosen.iter().flat_map(|v| v.configs()).collect();
    let mut outs = fan_out(&configs, |rcfg| Replay::run(rcfg)).into_iter();
    for value in chosen {
        let n = value.configs().len();
        value.finish(outs.by_ref().take(n).collect());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_column_list_orders_keys_and_headers_and_cells_are_checked() {
        let cell = |label, method: Arc<dyn UpdateMethod>| {
            let mut rcfg = crate::ssd_replay(4, 2, method, TraceFamily::AliCloud, 2);
            rcfg.ops_per_client = 25;
            rcfg.volume_bytes = 32 << 20;
            (label, rcfg)
        };
        let cells = vec![cell("cell-a", Arc::new(Fo)), cell("cell-b", Arc::new(Tsue))];
        let columns = [
            Column::key("label", |r| *r.label).show("cell", plain),
            Column::key("method", |r| r.res.method.clone()),
            Column::shown("x2", plain, |r| 2 * r.res.completed_updates),
            Column::key("updates", |r| r.res.completed_updates).show("updates", plain),
        ];
        let sweep = Sweep::new("unit", "unit", cells, |_, _| {}).columns(columns);
        let mut outs: Vec<RunOutcome> = sweep.configs().into_iter().map(Replay::run).collect();

        let (report, headers, table) = sweep.tabulate(&outs);
        assert_eq!(headers, ["cell", "x2", "updates"]);
        let doc = report.to_json();
        let Json::Obj(row) = &doc.get("rows").unwrap().as_arr().unwrap()[1] else {
            panic!("rows are objects")
        };
        let keys: Vec<&str> = row.iter().map(|(k, _)| k.as_str()).collect();
        let engine = "sim_events wall_ms events_per_sec";
        assert_eq!(keys.join(" "), format!("label method updates {engine}"));
        let updates = outs[1].result.completed_updates;
        assert_eq!(
            table[1].join(" "),
            format!("cell-b {} {updates}", 2 * updates)
        );

        outs[1].result.oracle_violations = 1;
        let tabulate = std::panic::AssertUnwindSafe(|| sweep.tabulate(&outs));
        let panic = std::panic::catch_unwind(tabulate).expect_err("a violated cell panics");
        let msg = panic.downcast_ref::<String>().unwrap();
        assert!(
            msg.contains("unit cell \"cell-b\" (TSUE) violated"),
            "{msg}"
        );
    }
}
