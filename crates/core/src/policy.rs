//! The PLA half of a [`crate::BiSystem`]: the registered documents and
//! meta-reports, and everything derived from them.
//!
//! Each PLA mutation pushes its input and recombines once, so between
//! mutations both combined policies, the PLA binding and the
//! epoch-keyed history are plain field reads: no lock, no miss path.

use std::collections::BTreeMap;
use std::sync::Arc;

use bi_pla::{CombinedPolicy, PlaDocument};
use bi_report::MetaReport;
use bi_types::PlaId;

/// Policy snapshots kept in the epoch-keyed history by default. Each is
/// one `Arc` plus the combined policy (small); the bound only matters
/// for systems whose PLAs churn for years within one process.
pub const DEFAULT_POLICY_HISTORY_RETENTION: usize = 1024;

pub(crate) struct PolicyState {
    documents: Vec<PlaDocument>,
    metas: Vec<MetaReport>,
    /// Counts PLA mutations; journaled with every delivery.
    epoch: u64,
    /// Every document + every meta-report annotation.
    full: Arc<CombinedPolicy>,
    /// Documents + annotations of *approved* meta-reports only — the
    /// policy the compliance gate binds.
    gate: Arc<CombinedPolicy>,
    /// PLA ids shown on delivery documents: every document, then every
    /// meta-report annotation.
    binding: Arc<Vec<PlaId>>,
    /// The full policy of every retained epoch, so a recheck can replay
    /// a journal entry against the exact policy that gated it.
    history: BTreeMap<u64, Arc<CombinedPolicy>>,
    retain: usize,
}

impl PolicyState {
    /// Epoch 0: the empty policy, already in the history, so entries
    /// journaled before the first PLA recheck against what gated them.
    pub fn new() -> Self {
        let mut state = PolicyState {
            documents: Vec::new(),
            metas: Vec::new(),
            epoch: 0,
            full: Arc::default(),
            gate: Arc::default(),
            binding: Arc::default(),
            history: BTreeMap::new(),
            retain: DEFAULT_POLICY_HISTORY_RETENTION,
        };
        state.recombine();
        state
    }

    /// Registers documents as one mutation (one epoch).
    pub fn add_documents(&mut self, docs: impl IntoIterator<Item = PlaDocument>) {
        self.documents.extend(docs);
        self.epoch += 1;
        self.recombine();
    }

    pub fn add_meta(&mut self, meta: MetaReport) {
        self.metas.push(meta);
        self.epoch += 1;
        self.recombine();
    }

    /// Bounds the history (at least 1), evicting oldest epochs now.
    pub fn set_retention(&mut self, retain: usize) {
        self.retain = retain.max(1);
        self.trim_history();
    }

    /// Recomputes everything derived for the current epoch and records
    /// its full policy in the history.
    fn recombine(&mut self) {
        let annotations = |approved_only: bool| {
            self.metas
                .iter()
                .filter(move |m| !approved_only || m.is_approved())
                .flat_map(|m| m.annotations.iter())
        };
        let combine = |approved_only: bool| {
            let docs: Vec<PlaDocument> = self
                .documents
                .iter()
                .chain(annotations(approved_only))
                .cloned()
                .collect();
            Arc::new(CombinedPolicy::combine(&docs))
        };
        self.full = combine(false);
        self.gate = combine(true);
        self.binding = Arc::new(
            self.documents
                .iter()
                .chain(annotations(false))
                .map(|d| d.id.clone())
                .collect(),
        );
        self.history.insert(self.epoch, Arc::clone(&self.full));
        self.trim_history();
    }

    fn trim_history(&mut self) {
        while self.history.len() > self.retain {
            self.history.pop_first();
        }
    }

    pub fn documents(&self) -> &[PlaDocument] {
        &self.documents
    }

    pub fn metas(&self) -> &[MetaReport] {
        &self.metas
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn full(&self) -> &Arc<CombinedPolicy> {
        &self.full
    }

    pub fn gate(&self) -> &Arc<CombinedPolicy> {
        &self.gate
    }

    pub fn binding(&self) -> &Arc<Vec<PlaId>> {
        &self.binding
    }

    pub fn history(&self) -> &BTreeMap<u64, Arc<CombinedPolicy>> {
        &self.history
    }
}
