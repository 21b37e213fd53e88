//! Every contact between the benchmark and the repo's crates lives in this
//! module (and its three files), so an API-changing PR can see in one place
//! what the benchmark needs kept. `../README.md` lists the surface.
//!
//! * [`replay`] — `ecfs`: one simulated cell through `Replay::run`, or
//!   stage by stage through `run_update_phase` → `methods::drain` →
//!   `Oracle::violations`.
//! * [`engine`] — `tsue::engine::TsueEngine`, the real-byte artefact.
//! * [`layers`] — one isolated drive per layer's public function.

pub mod engine;
pub mod layers;
pub mod replay;

/// RS(6,3): the code shape every workload uses.
pub fn code() -> rscode::CodeParams {
    rscode::CodeParams::new(6, 3).expect("RS(6,3) is a valid shape")
}
