//! The bench report: the paper's figures and tables and the sweeps beyond
//! them, one [`Sweep`](tsue_bench::sweep::Sweep) value per module.
//!
//! `cargo bench -p tsue-bench --bench report` runs every value,
//! `... --bench report -- load fig5` the named ones. `TSUE_BENCH_SMOKE=1`
//! shrinks every grid to seconds and `TSUE_BENCH_FULL=1` runs the paper
//! scale (see the crate docs).

mod cache;
mod fault;
mod fig5;
mod fig6b;
mod fig7;
mod fig8a;
mod hetero;
mod load;
mod maint;
mod scale;
mod table1;
mod table2;
mod topo;
mod trace;

fn main() {
    tsue_bench::sweep::run(vec![
        Box::new(fig5::sweep()),
        Box::new(fig6b::sweep()),
        Box::new(fig7::sweep()),
        Box::new(fig8a::sweep()),
        Box::new(table1::sweep()),
        Box::new(table2::sweep()),
        Box::new(topo::sweep()),
        Box::new(fault::sweep()),
        Box::new(load::sweep()),
        Box::new(hetero::sweep()),
        Box::new(maint::sweep()),
        Box::new(scale::sweep()),
        Box::new(trace::sweep()),
        Box::new(cache::sweep()),
    ]);
}
