//! A delegating [`RecoveryPolicy`] that times every call into the wrapped
//! policy and folds the totals into per-family accumulators.
//!
//! Every method forwards to the wrapped policy unchanged, so a timed run
//! makes exactly the decisions of the bare run; only host time is added.
//! Accumulators are sharded by worker thread (one cache-line-aligned slot
//! per thread) so concurrent workers never contend on a counter.

use pcm_sim::policy::{PolicyScratch, RecoveryPolicy};
use pcm_sim::timeline::DEFAULT_MAX_EVENTS_PER_BLOCK;
use pcm_sim::Fault;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Scheme families the benchmark attributes policy time to, in report
/// order.
pub const FAMILIES: [&str; 6] = ["ecp", "rdis", "safer", "aegis", "masking", "plbc"];

/// The family of a scheme, from its figure label (`ECP6`, `RDIS-3`,
/// `SAFER64`, `Aegis 9x61`, `Mask4`, `PLC4+2`).
#[must_use]
pub fn family_of(name: &str) -> Option<usize> {
    const PREFIXES: [&str; 6] = ["ECP", "RDIS", "SAFER", "Aegis", "Mask", "PLC"];
    PREFIXES.iter().position(|prefix| name.starts_with(prefix))
}

/// Slots per family; live workers take consecutive slot indices, so two
/// concurrent workers share a slot only beyond this many threads (and even
/// then the counters stay exact, merely contended).
const SLOTS: usize = 64;

/// Largest fault population a decision can see (one block's timeline).
pub const MAX_FAULTS: usize = DEFAULT_MAX_EVENTS_PER_BLOCK;

#[repr(align(128))]
struct Slot {
    observe_calls: AtomicU64,
    observe_ns: AtomicU64,
    decisions: AtomicU64,
    decide_ns: AtomicU64,
    forget_ns: AtomicU64,
    /// Decisions by fault-population size, for the split-sampling replay.
    by_faults: [AtomicU64; MAX_FAULTS + 1],
}

impl Slot {
    fn new() -> Self {
        Self {
            observe_calls: AtomicU64::new(0),
            observe_ns: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
            decide_ns: AtomicU64::new(0),
            forget_ns: AtomicU64::new(0),
            by_faults: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn slot_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local!(static SLOT: usize = NEXT.fetch_add(1, Relaxed) % SLOTS);
    SLOT.with(|slot| *slot)
}

#[allow(clippy::cast_possible_truncation)]
fn nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Per-family call counts and host time, shared by every wrapper of a run.
pub struct PolicyClock {
    families: Vec<Vec<Slot>>,
}

impl Default for PolicyClock {
    fn default() -> Self {
        Self {
            families: FAMILIES
                .iter()
                .map(|_| (0..SLOTS).map(|_| Slot::new()).collect())
                .collect(),
        }
    }
}

/// One family's totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FamilyTotals {
    /// `observe_fault` calls.
    pub observe_calls: u64,
    /// Nanoseconds inside `observe_fault`.
    pub observe_ns: u64,
    /// Recoverability decisions (`recoverable*` and `guaranteed*` calls).
    pub decisions: u64,
    /// Nanoseconds inside the decisions.
    pub decide_ns: u64,
    /// Nanoseconds inside `forget_block`.
    pub forget_ns: u64,
    /// `by_faults[f]`: decisions taken on a population of `f` faults.
    pub by_faults: Vec<u64>,
}

impl FamilyTotals {
    /// Host time inside any call into the policy.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.observe_ns + self.decide_ns + self.forget_ns
    }
}

impl PolicyClock {
    /// Totals per family, in [`FAMILIES`] order.
    #[must_use]
    pub fn totals(&self) -> Vec<FamilyTotals> {
        self.families
            .iter()
            .map(|slots| {
                let sum = |field: fn(&Slot) -> &AtomicU64| -> u64 {
                    slots.iter().map(|s| field(s).load(Relaxed)).sum()
                };
                FamilyTotals {
                    observe_calls: sum(|s| &s.observe_calls),
                    observe_ns: sum(|s| &s.observe_ns),
                    decisions: sum(|s| &s.decisions),
                    decide_ns: sum(|s| &s.decide_ns),
                    forget_ns: sum(|s| &s.forget_ns),
                    by_faults: (0..=MAX_FAULTS)
                        .map(|f| slots.iter().map(|s| s.by_faults[f].load(Relaxed)).sum())
                        .collect(),
                }
            })
            .collect()
    }
}

/// A policy whose every call is timed into a [`PolicyClock`].
pub struct TimedPolicy {
    inner: Box<dyn RecoveryPolicy>,
    clock: Arc<PolicyClock>,
    family: usize,
}

impl TimedPolicy {
    /// Wraps `inner`, attributing its time to its family.
    ///
    /// # Panics
    ///
    /// Panics if the scheme's label belongs to no family in [`FAMILIES`].
    #[must_use]
    pub fn new(inner: Box<dyn RecoveryPolicy>, clock: &Arc<PolicyClock>) -> Self {
        let name = inner.name();
        let family = family_of(&name).unwrap_or_else(|| panic!("no family for scheme '{name}'"));
        Self {
            inner,
            clock: Arc::clone(clock),
            family,
        }
    }

    fn slot(&self) -> &Slot {
        &self.clock.families[self.family][slot_index()]
    }

    fn decided(&self, faults: usize, started: Instant) {
        let ns = nanos(started);
        let slot = self.slot();
        slot.decisions.fetch_add(1, Relaxed);
        slot.decide_ns.fetch_add(ns, Relaxed);
        slot.by_faults[faults.min(MAX_FAULTS)].fetch_add(1, Relaxed);
    }
}

/// Wraps every policy of a scheme set.
#[must_use]
pub fn wrap_all(
    set: Vec<Box<dyn RecoveryPolicy>>,
    clock: &Arc<PolicyClock>,
) -> Vec<Box<dyn RecoveryPolicy>> {
    set.into_iter()
        .map(|policy| Box::new(TimedPolicy::new(policy, clock)) as Box<dyn RecoveryPolicy>)
        .collect()
}

impl RecoveryPolicy for TimedPolicy {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn overhead_bits(&self) -> usize {
        self.inner.overhead_bits()
    }

    fn block_bits(&self) -> usize {
        self.inner.block_bits()
    }

    fn recoverable(&self, faults: &[Fault], wrong: &[bool]) -> bool {
        let started = Instant::now();
        let verdict = self.inner.recoverable(faults, wrong);
        self.decided(faults.len(), started);
        verdict
    }

    fn recoverable_with(
        &self,
        faults: &[Fault],
        wrong: &[bool],
        scratch: &mut PolicyScratch,
    ) -> bool {
        let started = Instant::now();
        let verdict = self.inner.recoverable_with(faults, wrong, scratch);
        self.decided(faults.len(), started);
        verdict
    }

    fn observe_fault(&self, faults: &[Fault], scratch: &mut PolicyScratch) {
        let started = Instant::now();
        self.inner.observe_fault(faults, scratch);
        let ns = nanos(started);
        let slot = self.slot();
        slot.observe_calls.fetch_add(1, Relaxed);
        slot.observe_ns.fetch_add(ns, Relaxed);
    }

    fn forget_block(&self, scratch: &mut PolicyScratch) {
        let started = Instant::now();
        self.inner.forget_block(scratch);
        self.slot().forget_ns.fetch_add(nanos(started), Relaxed);
    }

    fn explain(&self, faults: &[Fault], wrong: &[bool]) -> Option<String> {
        self.inner.explain(faults, wrong)
    }

    fn guaranteed(&self, faults: &[Fault]) -> bool {
        let started = Instant::now();
        let verdict = self.inner.guaranteed(faults);
        self.decided(faults.len(), started);
        verdict
    }

    fn guaranteed_with(&self, faults: &[Fault], scratch: &mut PolicyScratch) -> bool {
        let started = Instant::now();
        let verdict = self.inner.guaranteed_with(faults, scratch);
        self.decided(faults.len(), started);
        verdict
    }
}
