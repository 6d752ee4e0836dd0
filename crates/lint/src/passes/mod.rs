//! The pass pipeline. Each pass walks the per-function token model built
//! by [`crate::model`] and appends diagnostics to a shared [`PassOutput`].

use crate::model::Workspace;
use crate::Finding;

pub(crate) mod atomics;
pub(crate) mod lock_order;
pub(crate) mod obs_hot;
pub(crate) mod wire_tags;

/// Accumulated pass results before suppression filtering.
#[derive(Default)]
pub(crate) struct PassOutput {
    pub(crate) findings: Vec<Finding>,
    /// Positive confirmations of invariants the passes specifically looked
    /// for (e.g. the mux scatter's ascending window-slot discipline in
    /// `tcp.rs`), so a clean run still proves the checks engaged.
    pub(crate) verified: Vec<String>,
}

/// Runs every pass over the workspace.
pub(crate) fn run_all(ws: &Workspace) -> PassOutput {
    let mut out = PassOutput::default();
    lock_order::run(ws, &mut out);
    atomics::run(ws, &mut out);
    obs_hot::run(ws, &mut out);
    wire_tags::run(ws, &mut out);
    out
}
