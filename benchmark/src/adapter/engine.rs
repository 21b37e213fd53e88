//! The real-byte `tsue::engine::TsueEngine`: `EngineConfig::builder`,
//! `new`, `update`, `read`, `flush`, `verify_parity`, `acked_updates`,
//! `applied_ranges`; inputs come from `traces::WorkloadGen`.

use traces::{OpKind, WorkloadGen};
use tsue::engine::{EngineConfig, TsueEngine};

use super::replay::Family;

const STRIPES: u64 = 16;
const BLOCK_LEN: u32 = 1 << 20;
/// Longest request either family draws (Ali-Cloud's 256 KiB).
const MAX_LEN: usize = 256 << 10;

/// One call into the engine: a trace op, cut at block boundaries.
#[derive(Debug, Clone, Copy)]
pub struct EngineOp {
    /// `true` → `TsueEngine::read`; `false` → `TsueEngine::update` (the
    /// engine has one write path, so fresh writes are updates too).
    pub read: bool,
    stripe: u64,
    block: u16,
    offset: u32,
    /// Bytes read or updated.
    pub len: u32,
}

/// The generated inputs of one engine run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Calls in issue order.
    pub ops: Vec<EngineOp>,
    /// Bytes the updates draw their new content from.
    payload: Vec<u8>,
}

/// Generates `trace_ops` ops of `family` over the engine's 96 MiB of data
/// blocks from `seed`; `only_4k` replaces the family's size mix by 4 KiB
/// requests. An op that crosses a block boundary becomes two calls.
pub fn inputs(family: Family, only_4k: bool, trace_ops: usize, seed: u64) -> Inputs {
    let k = super::code().k() as u64;
    let mut params = family.params(STRIPES * k * BLOCK_LEN as u64);
    if only_4k {
        params.size_dist = vec![(4096, 1.0)];
    }
    let mut ops = Vec::with_capacity(trace_ops + trace_ops / 16);
    for op in WorkloadGen::new(params, seed).take(trace_ops) {
        let (mut at, end) = (op.offset, op.end());
        while at < end {
            let block = at / BLOCK_LEN as u64;
            let offset = (at % BLOCK_LEN as u64) as u32;
            let len = (end - at).min((BLOCK_LEN - offset) as u64) as u32;
            ops.push(EngineOp {
                read: op.kind == OpKind::Read,
                stripe: block / k,
                block: (block % k) as u16,
                offset,
                len,
            });
            at += len as u64;
        }
    }
    // xorshift64: cheap, seeded, incompressible enough that no delta is zero.
    let mut x = seed | 1;
    let payload = (0..2 * MAX_LEN)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect();
    Inputs { ops, payload }
}

/// The engine under test: 16 stripes × RS(6,3) × 1 MiB blocks, 1 MiB log
/// units, 4 units per pool, 2 pools per layer, one recycler thread (with the
/// caller's writer thread that is the two cores of the reference host).
pub struct Engine(TsueEngine);

impl Engine {
    /// `TsueEngine::new`: allocates the blocks and starts the recycler.
    pub fn new() -> Engine {
        let cfg = EngineConfig::builder(super::code())
            .stripes(STRIPES)
            .block_len(BLOCK_LEN)
            .unit_bytes(1 << 20)
            .max_units(4)
            .pools_per_layer(2)
            .recycler_threads(1)
            .build()
            .expect("benchmark engine config is valid");
        Engine(TsueEngine::new(cfg))
    }

    /// Issues call `i` of `inputs`: an update returns at the two-stage ack
    /// point (logged, not yet folded into parity).
    pub fn issue(&self, inputs: &Inputs, i: usize) {
        let op = inputs.ops[i];
        if op.read {
            std::hint::black_box(self.0.read(op.stripe, op.block, op.offset, op.len));
        } else {
            let at = i.wrapping_mul(4099) % MAX_LEN;
            let bytes = &inputs.payload[at..at + op.len as usize];
            self.0.update(op.stripe, op.block, op.offset, bytes);
        }
    }

    /// `TsueEngine::flush`: returns once every log layer has drained.
    pub fn flush(&self) {
        self.0.flush();
    }

    /// `TsueEngine::verify_parity`: re-encodes every stripe and compares.
    pub fn verify_parity(&self) -> bool {
        self.0.verify_parity()
    }

    /// Updates acknowledged.
    pub fn acked_updates(&self) -> u64 {
        self.0.acked_updates()
    }

    /// Merged ranges the recycler folded into data blocks.
    pub fn applied_ranges(&self) -> u64 {
        self.0.applied_ranges()
    }
}
