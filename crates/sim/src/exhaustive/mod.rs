//! Exhaustive schedule exploration (bounded model checking).
//!
//! Random schedules sample the behaviour space; for small parameters we
//! can instead enumerate **every** schedule up to a depth bound and check
//! a predicate on each reachable execution. This is how the test suite
//! shows, e.g., that the DVV store is causally consistent on *all*
//! executions with ≤ N scheduler steps, not just on sampled ones.
//!
//! ## Entry points
//!
//! One per way of walking the tree, each taking what varies as an
//! argument: [`explore_all`] (nothing observing) and
//! [`explore_all_observed`] walk from the root on the calling thread;
//! [`explore_all_parallel`] takes a thread count and a fork/join observer;
//! [`explore_all_replay`] is the reference the others are tested against;
//! [`shrink`] minimises a failing schedule. Scenario families have their
//! own sweep, [`explore_family`](crate::scenario::explore_family).
//!
//! ## Engine
//!
//! The explorer walks the schedule tree depth-first, carrying one live
//! [`Simulator`] along the current branch: per child edge it captures a
//! per-step undo record ([`Simulator::begin_step`]), applies the action,
//! and undoes it on backtrack. Each tree edge therefore costs one machine
//! clone instead of the O(depth × state) replay-from-scratch of the
//! reference implementation, which is kept as [`explore_all_replay`] for
//! differential testing. There is exactly one walker: the [`parallel`]
//! engine cuts the tree into work units by running this same walker with
//! a split depth set, then runs it again per unit.
//!
//! With [`ExhaustiveConfig::dedup`] enabled the explorer additionally
//! memoises subtrees by *canonical global state*: a fingerprint of every
//! replica's [`state_fingerprint`](haec_model::ReplicaMachine::state_fingerprint)
//! (in replica order) plus the multiset of in-flight `(addressee, payload)`
//! copies, keyed together with the remaining depth. A prefix that reaches
//! an already-explored global state with the same remaining depth prunes
//! the whole subtree and credits its (previously counted) schedules, so
//! dedup-on reports the same schedule count as dedup-off. Fingerprinting
//! is a *heuristic* for history-dependent checkers — see
//! `DESIGN.md` §exploration-engine for the soundness argument and its
//! caveat; the differential suite pins the equivalence empirically.
//!
//! The memo is a flat open-addressed table per remaining depth, in parts
//! chosen by the fingerprint's top bits that each double on their own
//! (`memo.rs`): one linear probe per lookup, no capacity, no dropped
//! entry, and keys compared in full. The parallel engine's shared table is
//! the same type. Under POR the key also folds in a digest of the node's
//! sleep set — a wrapping sum of one fixed 64-bit mix per entry, so it
//! needs no hasher, buffer or sort — and the sleep sets themselves live in
//! per-depth buffers, so a child edge allocates nothing for them.
//!
//! ## Reductions
//!
//! Two further reductions shrink the tree itself (DESIGN.md §12):
//!
//! * [`ExhaustiveConfig::por`] — dynamic partial-order reduction via
//!   *sleep sets*: after exploring action `a` at a node, every sibling
//!   subtree puts `a` to sleep as long as only actions independent of `a`
//!   execute, pruning schedules that are equal to an explored one up to
//!   commuting adjacent independent actions. Two actions are independent
//!   when they touch disjoint replicas. Under POR the *reported schedule
//!   count legitimately shrinks*; counterexample existence is preserved
//!   (every Mazurkiewicz trace class keeps a representative), pinned by
//!   the coverage-completeness suite.
//! * [`ExhaustiveConfig::symmetry`] — replica-permutation symmetry
//!   canonicalization of the dedup key: the global fingerprint becomes the
//!   minimum over all replica renamings π of the renamed state (per-store
//!   [`state_fingerprint_renamed`](haec_model::ReplicaMachine::state_fingerprint_renamed)
//!   hooks), renamed in-flight multiset, and renamed sleep set, so
//!   π-related states share one memo entry. Requires `dedup`; stores that
//!   do not implement the renaming hooks fall back to the plain
//!   fingerprint, and the report says so
//!   ([`ExhaustiveReport::symmetry_applied`]). Symmetry changes *which*
//!   nodes are expanded, never the reported count: credits are
//!   count-preserving bijections, so POR, POR+dedup and
//!   POR+dedup+symmetry all report the same count.

use crate::obs::{NullObserver, Observer};
use crate::simulator::Simulator;
use haec_model::{MsgId, ObjectId, Op, ReplicaId, StoreConfig, StoreFactory};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

mod memo;
pub mod parallel;

use memo::Memo;

pub use parallel::explore_all_parallel;

/// One scheduler action in the enumeration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Action {
    /// Invoke a client operation.
    Do(ReplicaId, ObjectId, Op),
    /// Broadcast the pending message of a replica (no-op if none).
    Flush(ReplicaId),
    /// Deliver the `i`-th in-flight message copy.
    Deliver(usize),
}

/// Parameters of the exhaustive exploration.
#[derive(Clone, Debug)]
pub struct ExhaustiveConfig {
    /// Cluster configuration.
    pub store_config: StoreConfig,
    /// The client operations each replica may invoke, per step. Written
    /// values are automatically uniquified.
    pub ops: Vec<Op>,
    /// Maximum number of scheduler steps. Must be nonzero (a depth-0
    /// exploration would visit only the empty schedule).
    pub depth: usize,
    /// Cap on explored schedules (safety valve). Must be nonzero;
    /// `usize::MAX` disables the cap. With [`dedup`](Self::dedup) enabled
    /// the cap is checked after whole-subtree credits, so the reported
    /// count may overshoot it by the size of the last memoised subtree.
    ///
    /// The parallel engine applies this cap at merge time with *work-unit*
    /// granularity (see [`explore_all_parallel`]); the count stays exact
    /// with dedup off. Scenario-family exploration does **not** use this
    /// field: families cap via
    /// [`FamilyConfig::max_members`](crate::scenario::FamilyConfig::max_members),
    /// which truncates the canonical member enumeration *before* any
    /// member runs — member granularity, so cap accounting is
    /// bit-identical under `--threads N` for every `N` (pinned by
    /// `family_cap_hit_accounting_is_exact_across_threads`).
    pub max_schedules: usize,
    /// Memoise and prune schedule prefixes that reach an already-explored
    /// canonical global state (same replica states, same in-flight
    /// multiset, same remaining depth). Off by default: with dedup off the
    /// explorer visits exactly the nodes the replay reference visits, in
    /// the same order.
    pub dedup: bool,
    /// Dynamic partial-order reduction via sleep sets (see the module
    /// docs). Prunes schedules equal to an explored one up to commuting
    /// adjacent actions on disjoint replicas, so the reported schedule
    /// count shrinks while counterexample existence is preserved. Off by
    /// default. Composes with [`dedup`](Self::dedup): the memo key then
    /// folds in a canonical hash of the sleep set so subtree counts stay
    /// context-exact.
    pub por: bool,
    /// Replica-permutation symmetry canonicalization of the dedup key
    /// (see the module docs). Requires [`dedup`](Self::dedup); rejected by
    /// [`validate`](Self::validate) otherwise. No-op (plain fingerprints,
    /// [`ExhaustiveReport::symmetry_applied`] false) for stores that do
    /// not implement the renaming hooks.
    pub symmetry: bool,
}

/// Default exploration parameters: a 2-replica, 1-object cluster whose
/// replicas may issue a (uniquified) write or a read at each step, explored
/// to depth 5 with a 1 000 000-schedule safety cap and dedup off.
impl Default for ExhaustiveConfig {
    fn default() -> Self {
        ExhaustiveConfig {
            store_config: StoreConfig::new(2, 1),
            ops: vec![Op::Write(Value(0)), Op::Read],
            depth: 5,
            max_schedules: 1_000_000,
            dedup: false,
            por: false,
            symmetry: false,
        }
    }
}

/// An invalid [`ExhaustiveConfig`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExhaustiveConfigError {
    /// `depth` was 0.
    ZeroDepth,
    /// `max_schedules` was 0.
    ZeroMaxSchedules,
    /// `symmetry` was set without `dedup` (the quotient lives in the memo
    /// key, so there is nothing to canonicalise without one).
    SymmetryWithoutDedup,
}

impl fmt::Display for ExhaustiveConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExhaustiveConfigError::ZeroDepth => write!(f, "depth must be nonzero"),
            ExhaustiveConfigError::ZeroMaxSchedules => {
                write!(f, "max_schedules must be nonzero")
            }
            ExhaustiveConfigError::SymmetryWithoutDedup => {
                write!(f, "symmetry requires dedup")
            }
        }
    }
}

impl std::error::Error for ExhaustiveConfigError {}

impl ExhaustiveConfig {
    /// Validates the parameters: `depth` and `max_schedules` must both be
    /// nonzero. The family analogue is
    /// [`FamilyConfig::validate`](crate::scenario::FamilyConfig::validate),
    /// which checks `depth`/`max_members` under the same contract; every
    /// exploration entry point (sequential, parallel, family) validates
    /// before touching a simulator.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ExhaustiveConfigError> {
        if self.depth == 0 {
            return Err(ExhaustiveConfigError::ZeroDepth);
        }
        if self.max_schedules == 0 {
            return Err(ExhaustiveConfigError::ZeroMaxSchedules);
        }
        if self.symmetry && !self.dedup {
            return Err(ExhaustiveConfigError::SymmetryWithoutDedup);
        }
        Ok(())
    }
}

// Private alias so the default above can mention a write succinctly.
use haec_model::Value;
#[expect(
    non_snake_case,
    reason = "reads as the tuple-struct constructor it stands in for"
)]
fn Value(v: u64) -> Value {
    Value::new(v)
}

/// Summary of an exhaustive run.
#[derive(Clone, Debug)]
pub struct ExhaustiveReport {
    /// Number of complete schedules explored (including, under dedup,
    /// schedules credited from memoised subtrees).
    pub schedules: usize,
    /// The first failing schedule, if any.
    pub counterexample: Option<Vec<Action>>,
    /// Fingerprint-cache hits (0 unless [`ExhaustiveConfig::dedup`]).
    pub dedup_hits: u64,
    /// Fingerprint-cache misses (0 unless [`ExhaustiveConfig::dedup`]).
    pub dedup_misses: u64,
    /// Whether dedup keys were canonicalised over replica renamings: true
    /// only when [`ExhaustiveConfig::symmetry`] was set *and* the store
    /// implements the `*_renamed` hooks. False under `symmetry: true`
    /// means the search fell back to plain fingerprints.
    pub symmetry_applied: bool,
}

impl ExhaustiveReport {
    /// Did every schedule satisfy the predicate?
    pub fn all_passed(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// Uniquifies an operation's payload by its schedule position `step`:
/// writes get `Value(1000 + step)`, set elements cycle through a pool of
/// three. The one convention shared by the replay reference, the
/// incremental explorer and scenario members
/// ([`run_member`](crate::scenario::run_member)), so engines that perform
/// the same steps produce identical executions.
pub(crate) fn uniquify(op: &Op, step: usize) -> Op {
    match op {
        Op::Write(_) => Op::Write(Value(1000 + step as u64)),
        Op::Add(_) => Op::Add(Value(1 + (step % 3) as u64)),
        Op::Remove(_) => Op::Remove(Value(1 + (step % 3) as u64)),
        other => other.clone(),
    }
}

/// Applies one action to the simulator, [`uniquify`]ing written values by
/// the schedule position `step`.
fn apply(sim: &mut Simulator, action: &Action, step: usize) {
    match action {
        Action::Do(replica, obj, op) => {
            sim.do_op(*replica, *obj, uniquify(op, step));
        }
        Action::Flush(replica) => {
            sim.flush(*replica);
        }
        Action::Deliver(i) => {
            if *i < sim.inflight().len() {
                sim.deliver(*i);
            }
        }
    }
}

/// Replays a sequence of actions on a fresh cluster, uniquifying written
/// values by action position. Returns the simulator in its final state.
pub fn replay(
    factory: &dyn StoreFactory,
    config: &ExhaustiveConfig,
    actions: &[Action],
) -> Simulator {
    let mut sim = Simulator::new(factory, config.store_config);
    for (step, action) in actions.iter().enumerate() {
        apply(&mut sim, action, step);
    }
    sim
}

/// A canonical fingerprint of the multiset of in-flight
/// `(addressee, payload)` copies: entries are sorted so enqueue order is
/// canonicalised away, and message identities are deliberately excluded —
/// they index the transcript, not the state. The explorer caches this and
/// recomputes it only after actions that touch the in-flight list.
fn inflight_fingerprint(sim: &Simulator) -> u64 {
    let mut h = DefaultHasher::new();
    let mut inflight: Vec<(usize, &[u8], usize)> = sim
        .inflight()
        .iter()
        .map(|f| {
            let p = &sim.execution().message(f.msg).payload;
            (f.to.index(), p.bytes(), p.bits())
        })
        .collect();
    inflight.sort();
    inflight.hash(&mut h);
    h.finish()
}

/// A canonical fingerprint of the global state: every replica's state
/// fingerprint in replica order (`fps`) plus the [`inflight_fingerprint`].
/// Both inputs are maintained incrementally by the explorer — an action
/// re-hashes only the one machine it touched, and the in-flight summary
/// only when the action was a flush or a delivery.
fn global_fingerprint(fps: &[u64], inflight_fp: u64) -> u64 {
    let mut h = DefaultHasher::new();
    fps.hash(&mut h);
    inflight_fp.hash(&mut h);
    h.finish()
}

/// Enumerates every schedule up to `config.depth` steps and evaluates
/// `check` on the resulting simulator. Stops at the first failure (the
/// counterexample schedule is returned) or after `max_schedules`.
///
/// Uses the incremental snapshot/restore engine (see the module docs);
/// with [`ExhaustiveConfig::dedup`] off it visits exactly the schedules of
/// the replay reference [`explore_all_replay`], in the same order.
///
/// # Panics
///
/// Panics if `config` fails [`ExhaustiveConfig::validate`].
pub fn explore_all(
    factory: &dyn StoreFactory,
    config: &ExhaustiveConfig,
    check: &mut dyn FnMut(&Simulator) -> bool,
) -> ExhaustiveReport {
    explore_all_observed(factory, config, check, &mut NullObserver)
}

/// Like [`explore_all`], but reports search progress to `obs`:
/// [`Observer::on_search_node`] fires once per visited node with the
/// node's schedule prefix — the prefixes the reductions keep, not the ones
/// they prune — and the current frontier size (prefixes queued but not
/// yet visited), and [`Observer::on_dedup_lookup`] fires once per
/// fingerprint-cache probe when dedup is enabled. The prefixes are the
/// coverage-completeness suite's window into the reduced tree: at small
/// depths it checks every Mazurkiewicz trace class of the unreduced tree
/// keeps a representative under [`ExhaustiveConfig::por`].
///
/// # Panics
///
/// Panics if `config` fails [`ExhaustiveConfig::validate`].
pub fn explore_all_observed(
    factory: &dyn StoreFactory,
    config: &ExhaustiveConfig,
    check: &mut dyn FnMut(&Simulator) -> bool,
    obs: &mut dyn Observer,
) -> ExhaustiveReport {
    config.validate().expect("invalid ExhaustiveConfig");
    let mut sim = Simulator::new(factory, config.store_config);
    let mut dfs = Dfs::new(config, &sim, check, obs);
    dfs.visit(&mut sim, &[]);
    dfs.report()
}

/// The incremental depth-first explorer — the only tree walker: one live
/// simulator walked along the current branch, one per-step undo per edge.
/// The sequential engine runs it from the root; the parallel orchestrator
/// runs it once over the prefix (with [`split`](Self::split) set) to cut
/// the tree into work units, then once per unit.
struct Dfs<'a> {
    config: &'a ExhaustiveConfig,
    check: &'a mut dyn FnMut(&Simulator) -> bool,
    obs: &'a mut dyn Observer,
    schedules: usize,
    counterexample: Option<Vec<Action>>,
    prefix: Vec<Action>,
    /// Prefixes queued but not yet visited — the DFS equivalent of the
    /// replay reference's stack size, reported as the frontier.
    queued: usize,
    /// Subtrees this walk has fully explored.
    memo: Memo,
    /// One sleep-set scratch per prefix length, reused by every node at
    /// that depth (empty with POR off).
    levels: Vec<Level>,
    /// Per-replica state fingerprints, kept in sync with the live simulator
    /// so each dedup probe re-hashes only the machine the action touched.
    fps: Vec<u64>,
    /// Cached [`inflight_fingerprint`], refreshed only after flush/deliver.
    inflight_fp: u64,
    /// Symmetry caches; `Some` only when [`symmetry_applies`].
    sym: Option<Symmetry>,
    /// Shared cross-unit dedup table (parallel engine only). Probed
    /// read-only after the private memo; filled between levels by the
    /// orchestrator, never written by workers.
    shared: Option<&'a Memo>,
    /// Prefix length at which a node becomes a work unit in `units`
    /// instead of being visited. `usize::MAX` (never) except in the
    /// parallel orchestrator's prefix phase.
    split: usize,
    /// The work units cut at `split`, in canonical (visit) order.
    units: Vec<parallel::Unit>,
    hits: u64,
    misses: u64,
    done: bool,
}

/// The possible next actions from the current state, in the order the
/// replay reference visits them (it pushes onto a LIFO stack, so its
/// visit order is the reverse of its push order).
fn children(config: &ExhaustiveConfig, sim: &Simulator) -> Vec<Action> {
    let n_replicas = config.store_config.n_replicas;
    let n_objects = config.store_config.n_objects;
    let mut out = Vec::new();
    for i in (0..sim.inflight().len()).rev() {
        out.push(Action::Deliver(i));
    }
    for r in (0..n_replicas).rev() {
        let replica = ReplicaId::new(r as u32);
        if sim.machine(replica).pending_message().is_some() {
            out.push(Action::Flush(replica));
        }
        for o in (0..n_objects).rev() {
            for op in config.ops.iter().rev() {
                out.push(Action::Do(replica, ObjectId::new(o as u32), op.clone()));
            }
        }
    }
    out
}

/// The replica whose machine an action mutates, and whether the action can
/// disturb the in-flight message list (flush enqueues, deliver dequeues).
fn touched_by(sim: &Simulator, action: &Action) -> (ReplicaId, bool) {
    match action {
        Action::Do(replica, _, _) => (*replica, false),
        Action::Flush(replica) => (*replica, true),
        Action::Deliver(i) => (sim.inflight()[*i].to, true),
    }
}

/// The branch-stable identity of an enabled action, the currency of the
/// sleep-set reduction. `Do` is identified by (replica, object, op index in
/// `config.ops`); `Deliver` by the in-flight copy's (message id, addressee)
/// — positional `Deliver(i)` indices shift as the in-flight list mutates,
/// but message ids are stable along a branch because the transcript is
/// append-only and `undo_step` restores it exactly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(crate) enum SleepKey {
    /// (replica, object, index of the op in `config.ops`).
    Do(u32, u32, u32),
    /// (replica).
    Flush(u32),
    /// (message, addressee).
    Deliver(MsgId, u32),
}

/// The stable identity of `action`, enabled in the current state of `sim`.
fn sleep_key(config: &ExhaustiveConfig, sim: &Simulator, action: &Action) -> SleepKey {
    match action {
        Action::Do(r, o, op) => {
            let idx = config
                .ops
                .iter()
                .position(|p| p == op)
                .expect("child ops are drawn from config.ops");
            SleepKey::Do(r.index() as u32, o.index() as u32, idx as u32)
        }
        Action::Flush(r) => SleepKey::Flush(r.index() as u32),
        Action::Deliver(i) => {
            let f = sim.inflight()[*i];
            SleepKey::Deliver(f.msg, f.to.index() as u32)
        }
    }
}

/// The replica an action (by stable identity) mutates.
fn sleep_replica(key: SleepKey) -> u32 {
    match key {
        SleepKey::Do(r, _, _) => r,
        SleepKey::Flush(r) => r,
        SleepKey::Deliver(_, to) => to,
    }
}

/// The independence relation underlying the sleep sets: two enabled actions
/// are independent when they touch disjoint replicas. Each explorer action
/// mutates exactly one machine ([`touched_by`]); disjoint-replica pairs
/// commute *exactly* on the in-flight list too (a flush appends copies at
/// the end, a delivery removes one pre-existing copy by order-preserving
/// `Vec::remove`, so either order yields the same sequence), and neither
/// can enable or disable the other (pending-message status only changes
/// through same-replica actions; a copy is consumed only by its own
/// delivery; `Do` is always enabled). "Neither delivers a message the
/// other sends" is automatic here: a sleeping `Deliver` always references
/// a message that already existed when it went to sleep.
fn independent(a: SleepKey, b: SleepKey) -> bool {
    sleep_replica(a) != sleep_replica(b)
}

/// A node's sleep-set bookkeeping, kept per depth in [`Dfs::levels`] so
/// that no node or child edge allocates once the buffers have grown.
#[derive(Default)]
struct Level {
    /// The kept children's stable keys, in child order.
    keys: Vec<SleepKey>,
    /// Keys of the children explored so far, sorted.
    done: Vec<SleepKey>,
    /// The sleep set of the child being explored.
    child: Vec<SleepKey>,
}

/// Prunes the sleeping children of a node in place (no-op with POR off)
/// and writes the kept children's stable keys to `keys`, in child order.
/// `sleep` must be sorted.
fn reduce_children(
    config: &ExhaustiveConfig,
    sim: &Simulator,
    children: &mut Vec<Action>,
    sleep: &[SleepKey],
    keys: &mut Vec<SleepKey>,
) {
    keys.clear();
    if !config.por {
        return;
    }
    children.retain(|a| {
        let key = sleep_key(config, sim, a);
        let awake = sleep.binary_search(&key).is_err();
        if awake {
            keys.push(key);
        }
        awake
    });
}

/// The sleep set a child edge inherits, written to `out`: everything
/// sleeping or already explored at the parent that is independent of the
/// edge's action — those subtrees need only be explored on one side of
/// the commutation. `sleep` and `done` are sorted and disjoint (a sleeping
/// child is never explored), so one merge keeps `out` sorted for the
/// child's binary searches.
fn child_sleep(sleep: &[SleepKey], done: &[SleepKey], action: SleepKey, out: &mut Vec<SleepKey>) {
    out.clear();
    let mut sleep = sleep
        .iter()
        .copied()
        .filter(|&b| independent(b, action))
        .peekable();
    let mut done = done
        .iter()
        .copied()
        .filter(|&b| independent(b, action))
        .peekable();
    loop {
        let next = match (sleep.peek(), done.peek()) {
            (Some(s), Some(d)) if s < d => sleep.next(),
            (_, Some(_)) => done.next(),
            (Some(_), None) => sleep.next(),
            (None, None) => return,
        };
        out.extend(next);
    }
}

/// Content hash of a payload — the branch-stable stand-in for a message id
/// in dedup keys (message ids index the transcript, not the state).
fn payload_content_hash(p: &haec_model::Payload) -> u64 {
    let mut h = DefaultHasher::new();
    p.bytes().hash(&mut h);
    p.bits().hash(&mut h);
    h.finish()
}

/// splitmix64's finaliser: one fixed bijective 64-bit mix.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The branch-stable digest of a sleep set for the POR dedup key: the
/// wrapping sum of one [`mix64`] per entry, so entry order cancels out
/// without a sort and the sum needs no buffer. Replica ids pass through
/// `replica` (the identity, or a symmetry renaming), and a `Deliver` entry
/// mixes its addressee with `payload(msg)` — a payload *content*
/// fingerprint, plain or renamed — instead of the message id. Entry words
/// carry a kind tag in their top two bits; `Do` fields are packed 21/21/20
/// bits wide, exact for every config the explorer can walk.
fn sleep_digest(
    sleep: &[SleepKey],
    replica: impl Fn(u32) -> u32,
    payload: impl Fn(MsgId) -> u64,
) -> u64 {
    sleep.iter().fold(0u64, |sum, key| {
        let word = match *key {
            SleepKey::Do(r, o, op) => {
                u64::from(replica(r)) | u64::from(o) << 21 | u64::from(op) << 42
            }
            SleepKey::Flush(r) => 1 << 62 | u64::from(replica(r)),
            SleepKey::Deliver(m, to) => {
                let addressee = 2 << 62 | u64::from(replica(to));
                payload(m).wrapping_add(addressee.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            }
        };
        sum.wrapping_add(mix64(word))
    })
}

/// All permutations of `0..n` in lexicographic order (so index 0 is the
/// identity), as renaming maps `perm[old] = new`.
fn all_perms(n: usize) -> Vec<Vec<u32>> {
    fn go(n: usize, cur: &mut Vec<u32>, used: &mut [bool], out: &mut Vec<Vec<u32>>) {
        if cur.len() == n {
            out.push(cur.clone());
            return;
        }
        for i in 0..n {
            if !used[i] {
                used[i] = true;
                cur.push(i as u32);
                go(n, cur, used, out);
                cur.pop();
                used[i] = false;
            }
        }
    }
    let mut out = Vec::new();
    go(n, &mut Vec::new(), &mut vec![false; n], &mut out);
    out
}

/// The symmetry-canonicalization state: per-permutation renamed replica
/// fingerprints and in-flight summaries, maintained incrementally alongside
/// the explorer's plain `fps`/`inflight_fp` caches.
struct Symmetry {
    /// All `n!` renaming maps; `perms[0]` is the identity.
    perms: Vec<Vec<u32>>,
    /// Inverse maps: `pinvs[p][new] = old`.
    pinvs: Vec<Vec<u32>>,
    /// `ren_fps[p][r]`: fingerprint of machine `r`'s state renamed under
    /// `perms[p]`.
    ren_fps: Vec<Vec<u64>>,
    /// `ren_inflight[p]`: hash of the renamed in-flight multiset under
    /// `perms[p]`.
    ren_inflight: Vec<u64>,
    /// Payload content hash → per-permutation renamed payload
    /// fingerprints. Content-keyed, so entries stay valid across
    /// backtracking and are never invalidated.
    payload_cache: BTreeMap<u64, Vec<u64>>,
}

/// Whether the symmetry quotient takes effect: asked for, and the store
/// answers the renaming probe (identity permutation on machine 0 — all
/// machines of a store answer alike) instead of keeping the default
/// opt-out hooks. What [`ExhaustiveReport::symmetry_applied`] reports.
fn symmetry_applies(config: &ExhaustiveConfig, sim: &Simulator) -> bool {
    let identity: Vec<u32> = (0..config.store_config.n_replicas as u32).collect();
    config.symmetry
        && sim
            .machine(ReplicaId::new(0))
            .state_fingerprint_renamed(&identity)
            .is_some()
}

impl Symmetry {
    /// Initialises the caches from the simulator's initial state; the
    /// store must have passed [`symmetry_applies`].
    fn new(sim: &Simulator, config: &ExhaustiveConfig) -> Symmetry {
        let n = config.store_config.n_replicas;
        let perms = all_perms(n);
        let pinvs: Vec<Vec<u32>> = perms
            .iter()
            .map(|p| {
                let mut inv = vec![0u32; n];
                for (old, &new) in p.iter().enumerate() {
                    inv[new as usize] = old as u32;
                }
                inv
            })
            .collect();
        let np = perms.len();
        let mut sym = Symmetry {
            perms,
            pinvs,
            ren_fps: vec![vec![0; n]; np],
            ren_inflight: vec![0; np],
            payload_cache: BTreeMap::new(),
        };
        for r in 0..n {
            sym.refresh_machine(sim, ReplicaId::new(r as u32));
        }
        sym.refresh_inflight(sim);
        sym
    }

    /// Re-hashes one machine's renamed fingerprints (one column of
    /// `ren_fps`) after an action touched it.
    fn refresh_machine(&mut self, sim: &Simulator, r: ReplicaId) {
        let machine = sim.machine(r);
        for (p, perm) in self.perms.iter().enumerate() {
            self.ren_fps[p][r.index()] = machine
                .state_fingerprint_renamed(perm)
                .expect("store advertised symmetry support at init");
        }
    }

    /// Rebuilds the renamed in-flight summaries after a flush/delivery.
    fn refresh_inflight(&mut self, sim: &Simulator) {
        let copies: Vec<(usize, u64)> = sim
            .inflight()
            .iter()
            .map(|f| {
                let p = &sim.execution().message(f.msg).payload;
                let ck = payload_content_hash(p);
                if !self.payload_cache.contains_key(&ck) {
                    let probe = sim.machine(ReplicaId::new(0));
                    let fps: Vec<u64> = self
                        .perms
                        .iter()
                        .map(|perm| {
                            probe
                                .payload_fingerprint_renamed(p, perm)
                                .expect("store advertised symmetry support at init")
                        })
                        .collect();
                    self.payload_cache.insert(ck, fps);
                }
                (f.to.index(), ck)
            })
            .collect();
        for (p, perm) in self.perms.iter().enumerate() {
            let mut ren: Vec<(u32, u64)> = copies
                .iter()
                .map(|&(to, ck)| {
                    (
                        perm[to],
                        self.payload_cache.get(&ck).expect("cached above")[p],
                    )
                })
                .collect();
            ren.sort_unstable();
            let mut h = DefaultHasher::new();
            ren.hash(&mut h);
            self.ren_inflight[p] = h.finish();
        }
    }

    /// The canonical dedup key: the minimum over all renamings π of the
    /// hash of (renamed global state vector, renamed in-flight summary,
    /// renamed sleep set). The state vector under π places machine `old`'s
    /// renamed fingerprint at position `π(old)`, so π-related global
    /// states — and their π-related sleep contexts — collapse to one key.
    fn canonical_key(&self, sim: &Simulator, sleep: &[SleepKey]) -> u64 {
        let n = self.pinvs[0].len();
        let mut best = u64::MAX;
        for (p, perm) in self.perms.iter().enumerate() {
            let mut h = DefaultHasher::new();
            for j in 0..n {
                self.ren_fps[p][self.pinvs[p][j] as usize].hash(&mut h);
            }
            self.ren_inflight[p].hash(&mut h);
            sleep_digest(
                sleep,
                |r| perm[r as usize],
                |m| {
                    let ck = payload_content_hash(&sim.execution().message(m).payload);
                    self.payload_cache
                        .get(&ck)
                        .expect("sleeping message was in flight, hence cached")[p]
                },
            )
            .hash(&mut h);
            best = best.min(h.finish());
        }
        best
    }
}

impl<'a> Dfs<'a> {
    /// A walker positioned on the root of a whole-tree exploration, with
    /// its fingerprint caches primed from `sim`. The parallel engine
    /// repositions it (`prefix`, `queued`) onto a unit's subtree and sets
    /// `shared` / `split`; everything else starts the same everywhere.
    fn new(
        config: &'a ExhaustiveConfig,
        sim: &Simulator,
        check: &'a mut dyn FnMut(&Simulator) -> bool,
        obs: &'a mut dyn Observer,
    ) -> Dfs<'a> {
        Dfs {
            config,
            check,
            obs,
            schedules: 0,
            counterexample: None,
            prefix: Vec::new(),
            queued: 1,
            memo: Memo::default(),
            levels: (0..config.depth).map(|_| Level::default()).collect(),
            fps: (0..config.store_config.n_replicas)
                .map(|r| sim.machine(ReplicaId::new(r as u32)).state_fingerprint())
                .collect(),
            inflight_fp: inflight_fingerprint(sim),
            sym: symmetry_applies(config, sim).then(|| Symmetry::new(sim, config)),
            shared: None,
            split: usize::MAX,
            units: Vec::new(),
            hits: 0,
            misses: 0,
            done: false,
        }
    }

    /// What the walk found, once [`visit`](Self::visit) has returned.
    fn report(&mut self) -> ExhaustiveReport {
        ExhaustiveReport {
            schedules: self.schedules,
            counterexample: self.counterexample.take(),
            dedup_hits: self.hits,
            dedup_misses: self.misses,
            symmetry_applied: self.sym.is_some(),
        }
    }

    /// The dedup key of the current state in its sleep context. With
    /// symmetry: the canonical (minimum-over-renamings) key. Without:
    /// the plain global fingerprint, folded with the mixed
    /// [`sleep_digest`] when POR is on. Two nodes with equal global
    /// fingerprint and equal digest filter the same child multiset and so
    /// root equally-sized subtrees, which is what makes memoised counts
    /// reusable under POR.
    fn dedup_key(&self, sim: &Simulator, sleep: &[SleepKey]) -> u64 {
        if let Some(sym) = &self.sym {
            return sym.canonical_key(sim, sleep);
        }
        let g = global_fingerprint(&self.fps, self.inflight_fp);
        if self.config.por {
            let digest = sleep_digest(
                sleep,
                |r| r,
                |m| payload_content_hash(&sim.execution().message(m).payload),
            );
            g ^ mix64(digest)
        } else {
            g
        }
    }

    /// Visits the node the simulator currently sits on, with the given
    /// sleep set (`&[]` at the root; must be sorted); returns the number
    /// of schedules in its subtree (meaningful only when the subtree was
    /// fully explored, i.e. `!self.done`, and not cut off at `split`).
    fn visit(&mut self, sim: &mut Simulator, sleep: &[SleepKey]) -> usize {
        self.queued -= 1;
        if self.prefix.len() == self.split {
            // Subtree root of the parallel partition: snapshot it into a
            // work unit instead of descending. The sequential engine nets
            // the frontier back to this `queued` once it finishes the
            // subtree, so that is both the unit's offset and the walk's
            // continuation value.
            self.units.push(parallel::Unit {
                prefix: self.prefix.clone(),
                snap: sim.snapshot(),
                offset: self.queued,
                sleep: sleep.to_vec(),
                nodes_before: self.schedules,
            });
            return 0;
        }
        if self.schedules >= self.config.max_schedules || self.counterexample.is_some() {
            self.done = true;
            return 0;
        }
        self.obs.on_search_node(&self.prefix, self.queued);
        self.schedules += 1;
        if !(self.check)(sim) {
            self.counterexample = Some(self.prefix.clone());
            self.done = true;
            return 1;
        }
        if self.prefix.len() >= self.config.depth {
            return 1;
        }
        let mut children = children(self.config, sim);
        // This depth's buffers, lent to this node until it returns; the
        // children use the next depth's.
        let depth = self.prefix.len();
        let mut level = std::mem::take(&mut self.levels[depth]);
        // Sleeping actions are pruned before they count toward the
        // frontier: their subtrees are commutations of ones an explored
        // sibling already covers.
        reduce_children(self.config, sim, &mut children, sleep, &mut level.keys);
        level.done.clear();
        self.queued += children.len();
        let mut count = 1usize;
        for (ci, action) in children.into_iter().enumerate() {
            if self.done {
                break;
            }
            if self.config.por {
                child_sleep(sleep, &level.done, level.keys[ci], &mut level.child);
            }
            // Each explorer action mutates exactly one replica's machine,
            // so a per-step undo (one machine clone, moved back afterwards)
            // beats a full snapshot of the whole cluster.
            let (touched, saves_inflight) = touched_by(sim, &action);
            let undo = sim.begin_step(touched, saves_inflight);
            apply(sim, &action, self.prefix.len());
            let saved_fp = self.fps[touched.index()];
            let saved_inflight_fp = self.inflight_fp;
            let mut saved_sym: Option<(Vec<u64>, Vec<u64>)> = None;
            if self.config.dedup {
                self.fps[touched.index()] = sim.machine(touched).state_fingerprint();
                if saves_inflight {
                    self.inflight_fp = inflight_fingerprint(sim);
                }
                if let Some(sym) = self.sym.as_mut() {
                    saved_sym = Some((
                        sym.ren_fps.iter().map(|row| row[touched.index()]).collect(),
                        sym.ren_inflight.clone(),
                    ));
                    sym.refresh_machine(sim, touched);
                    if saves_inflight {
                        sym.refresh_inflight(sim);
                    }
                }
            }
            self.prefix.push(action);
            if self.config.dedup {
                let fp = self.dedup_key(sim, &level.child);
                let left = self.config.depth - self.prefix.len();
                let cached = self
                    .memo
                    .get(fp, left)
                    .or_else(|| self.shared.and_then(|table| table.get(fp, left)));
                if let Some(sub) = cached {
                    self.hits += 1;
                    self.obs.on_dedup_lookup(true);
                    self.queued -= 1;
                    self.schedules += sub;
                    count += sub;
                    if self.schedules >= self.config.max_schedules {
                        self.done = true;
                    }
                } else {
                    self.misses += 1;
                    self.obs.on_dedup_lookup(false);
                    let sub = self.visit(sim, &level.child);
                    if !self.done {
                        self.memo.insert(fp, left, sub);
                    }
                    count += sub;
                }
            } else {
                count += self.visit(sim, &level.child);
            }
            self.prefix.pop();
            self.fps[touched.index()] = saved_fp;
            self.inflight_fp = saved_inflight_fp;
            if let (Some(sym), Some((col, infl))) = (self.sym.as_mut(), saved_sym) {
                for (row, v) in sym.ren_fps.iter_mut().zip(col) {
                    row[touched.index()] = v;
                }
                sym.ren_inflight = infl;
            }
            sim.undo_step(undo);
            if self.config.por {
                let key = level.keys[ci];
                let at = level.done.binary_search(&key).unwrap_or_else(|at| at);
                level.done.insert(at, key);
            }
        }
        self.levels[depth] = level;
        count
    }
}

/// The replay reference explorer: enumerates the same tree as
/// [`explore_all`] by keeping a stack of schedule prefixes and replaying
/// each from scratch on a fresh cluster — O(depth) simulator steps per
/// node instead of O(1). Kept as the independent oracle for the
/// differential equivalence suite (`tests/explore_differential.rs`) and
/// the bench baseline.
///
/// # Panics
///
/// Panics if `config` fails [`ExhaustiveConfig::validate`].
pub fn explore_all_replay(
    factory: &dyn StoreFactory,
    config: &ExhaustiveConfig,
    check: &mut dyn FnMut(&Simulator) -> bool,
) -> ExhaustiveReport {
    config.validate().expect("invalid ExhaustiveConfig");
    let mut schedules = 0usize;
    let mut counterexample = None;
    let mut stack: Vec<Vec<Action>> = vec![Vec::new()];
    while let Some(prefix) = stack.pop() {
        if schedules >= config.max_schedules || counterexample.is_some() {
            break;
        }
        // Evaluate complete-at-this-length schedule.
        let sim = replay(factory, config, &prefix);
        schedules += 1;
        if !check(&sim) {
            counterexample = Some(prefix);
            break;
        }
        if prefix.len() >= config.depth {
            continue;
        }
        // Expand: all possible next actions given the current state.
        let n_replicas = config.store_config.n_replicas;
        let n_objects = config.store_config.n_objects;
        for r in 0..n_replicas {
            let replica = ReplicaId::new(r as u32);
            for o in 0..n_objects {
                for op in &config.ops {
                    let mut next = prefix.clone();
                    next.push(Action::Do(replica, ObjectId::new(o as u32), op.clone()));
                    stack.push(next);
                }
            }
            if sim.machine(replica).pending_message().is_some() {
                let mut next = prefix.clone();
                next.push(Action::Flush(replica));
                stack.push(next);
            }
        }
        for i in 0..sim.inflight().len() {
            let mut next = prefix.clone();
            next.push(Action::Deliver(i));
            stack.push(next);
        }
    }
    ExhaustiveReport {
        schedules,
        counterexample,
        dedup_hits: 0,
        dedup_misses: 0,
        symmetry_applied: false,
    }
}

/// Shrinks a failing schedule by greedy delta debugging: repeatedly drops
/// actions while the predicate still *fails* on the replayed execution.
/// Returns a (locally) minimal counterexample. Each tried candidate
/// schedule is reported to `obs` via [`Observer::on_shrink_step`].
///
/// `check` has the same polarity as in [`explore_all`]: `false` = failure,
/// so the input must satisfy `!check(replay(input))`.
///
/// # Panics
///
/// Panics if the input schedule does not actually fail.
pub fn shrink(
    factory: &dyn StoreFactory,
    config: &ExhaustiveConfig,
    actions: &[Action],
    check: &mut dyn FnMut(&Simulator) -> bool,
    obs: &mut dyn Observer,
) -> Vec<Action> {
    let fails = |acts: &[Action], check: &mut dyn FnMut(&Simulator) -> bool| {
        !check(&replay(factory, config, acts))
    };
    assert!(fails(actions, check), "input schedule must be failing");
    let mut current = actions.to_vec();
    let mut progress = true;
    while progress {
        progress = false;
        let mut i = 0;
        while i < current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            obs.on_shrink_step(candidate.len());
            if fails(&candidate, check) {
                current = candidate;
                progress = true;
            } else {
                i += 1;
            }
        }
    }
    current
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use haec_core::{causal, check_correct, ObjectSpecs, SpecKind};
    use haec_stores::{BoundedStore, DvvMvrStore};

    /// Correct (MVR) and causally consistent — the predicate the explorer,
    /// parallel and family unit tests all check.
    pub(crate) fn causal_check(sim: &Simulator) -> bool {
        let Ok(a) = sim.abstract_execution() else {
            return false;
        };
        check_correct(&a, &ObjectSpecs::uniform(SpecKind::Mvr)).is_ok() && causal::check(&a).is_ok()
    }

    #[test]
    fn dvv_store_causal_on_all_depth5_schedules() {
        let config = ExhaustiveConfig {
            store_config: StoreConfig::new(2, 1),
            ops: vec![Op::Write(Value(0)), Op::Read],
            depth: 5,
            max_schedules: 500_000,
            dedup: false,
            por: false,
            symmetry: false,
        };
        let report = explore_all(&DvvMvrStore, &config, &mut causal_check);
        assert!(
            report.all_passed(),
            "counterexample: {:?}",
            report.counterexample
        );
        assert!(
            report.schedules > 1000,
            "exploration too shallow: {}",
            report.schedules
        );
    }

    #[test]
    fn dvv_store_causal_on_two_objects_depth4() {
        let config = ExhaustiveConfig {
            store_config: StoreConfig::new(2, 2),
            ops: vec![Op::Write(Value(0)), Op::Read],
            depth: 4,
            max_schedules: 500_000,
            dedup: false,
            por: false,
            symmetry: false,
        };
        let report = explore_all(&DvvMvrStore, &config, &mut causal_check);
        assert!(report.all_passed(), "{:?}", report.counterexample);
    }

    #[test]
    fn bounded_store_has_a_counterexample() {
        // Exhaustive exploration finds a schedule on which the bounded
        // store's witness is not causally consistent (or not correct).
        let config = ExhaustiveConfig {
            store_config: StoreConfig::new(3, 2),
            ops: vec![Op::Write(Value(0)), Op::Read],
            depth: 6,
            max_schedules: 500_000,
            dedup: false,
            por: false,
            symmetry: false,
        };
        let report = explore_all(&BoundedStore, &config, &mut causal_check);
        assert!(
            !report.all_passed(),
            "bounded store must fail somewhere within {} schedules",
            report.schedules
        );
        // The counterexample replays deterministically...
        let cex = report.counterexample.unwrap();
        let sim = replay(&BoundedStore, &config, &cex);
        assert!(!causal_check(&sim));
        // ...and shrinks to a minimal failing schedule.
        let minimal = shrink(
            &BoundedStore,
            &config,
            &cex,
            &mut causal_check,
            &mut NullObserver,
        );
        assert!(minimal.len() <= cex.len());
        let sim = replay(&BoundedStore, &config, &minimal);
        assert!(!causal_check(&sim));
        // Minimality: dropping any single action repairs it.
        for i in 0..minimal.len() {
            let mut shorter = minimal.clone();
            shorter.remove(i);
            let sim = replay(&BoundedStore, &config, &shorter);
            assert!(causal_check(&sim), "shrunk schedule is not minimal");
        }
    }

    #[test]
    #[should_panic(expected = "must be failing")]
    fn shrink_rejects_passing_schedules() {
        let config = ExhaustiveConfig::default();
        shrink(
            &DvvMvrStore,
            &config,
            &[],
            &mut causal_check,
            &mut NullObserver,
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let config = ExhaustiveConfig::default();
        let actions = vec![
            Action::Do(ReplicaId::new(0), ObjectId::new(0), Op::Write(Value(0))),
            Action::Flush(ReplicaId::new(0)),
            Action::Deliver(0),
            Action::Do(ReplicaId::new(1), ObjectId::new(0), Op::Read),
        ];
        let s1 = replay(&DvvMvrStore, &config, &actions);
        let s2 = replay(&DvvMvrStore, &config, &actions);
        assert_eq!(s1.execution().events(), s2.execution().events());
    }

    #[test]
    fn observed_search_reports_progress() {
        use crate::obs::stats::StatsObserver;
        let config = ExhaustiveConfig {
            depth: 3,
            max_schedules: 10_000,
            ..ExhaustiveConfig::default()
        };
        let mut stats = StatsObserver::new();
        let report = explore_all_observed(&DvvMvrStore, &config, &mut |_| true, &mut stats);
        assert_eq!(stats.search_nodes() as usize, report.schedules);
        assert!(stats.max_frontier() > 0);
        // Shrinking an (always-failing) schedule reports every candidate.
        let actions = vec![
            Action::Do(ReplicaId::new(0), ObjectId::new(0), Op::Write(Value(0))),
            Action::Flush(ReplicaId::new(0)),
            Action::Deliver(0),
        ];
        let minimal = shrink(&DvvMvrStore, &config, &actions, &mut |_| false, &mut stats);
        assert!(minimal.is_empty(), "always-failing check shrinks to empty");
        assert!(stats.shrink_steps() > 0);
    }

    #[test]
    fn max_schedules_caps_exploration() {
        let config = ExhaustiveConfig {
            depth: 10,
            max_schedules: 100,
            ..ExhaustiveConfig::default()
        };
        let report = explore_all(&DvvMvrStore, &config, &mut |_| true);
        assert!(report.schedules <= 100);
    }

    #[test]
    fn config_validation_rejects_zeros() {
        assert!(ExhaustiveConfig::default().validate().is_ok());
        let zero_depth = ExhaustiveConfig {
            depth: 0,
            ..ExhaustiveConfig::default()
        };
        assert_eq!(
            zero_depth.validate().unwrap_err(),
            ExhaustiveConfigError::ZeroDepth
        );
        let zero_cap = ExhaustiveConfig {
            max_schedules: 0,
            ..ExhaustiveConfig::default()
        };
        assert_eq!(
            zero_cap.validate().unwrap_err(),
            ExhaustiveConfigError::ZeroMaxSchedules
        );
        assert!(zero_cap
            .validate()
            .unwrap_err()
            .to_string()
            .contains("max_schedules"));
    }

    #[test]
    #[should_panic(expected = "invalid ExhaustiveConfig")]
    fn explore_rejects_zero_depth() {
        let config = ExhaustiveConfig {
            depth: 0,
            ..ExhaustiveConfig::default()
        };
        explore_all(&DvvMvrStore, &config, &mut |_| true);
    }

    #[test]
    fn dedup_reports_same_counts_and_hits() {
        let config = ExhaustiveConfig {
            depth: 4,
            max_schedules: usize::MAX,
            ..ExhaustiveConfig::default()
        };
        let plain = explore_all(&DvvMvrStore, &config, &mut |_| true);
        let deduped = explore_all(
            &DvvMvrStore,
            &ExhaustiveConfig {
                dedup: true,
                ..config.clone()
            },
            &mut |_| true,
        );
        assert_eq!(plain.schedules, deduped.schedules);
        assert_eq!(plain.dedup_hits, 0);
        assert!(deduped.dedup_hits > 0, "depth-4 tree must revisit states");
        // Every probe is a hit or a miss, and every miss is a visited
        // non-root node: probes can never exceed the schedule count.
        assert!(
            deduped.dedup_misses < deduped.schedules as u64,
            "more misses ({}) than schedules ({})",
            deduped.dedup_misses,
            deduped.schedules
        );
    }

    #[test]
    fn dfs_matches_replay_reference_exactly() {
        let config = ExhaustiveConfig {
            store_config: StoreConfig::new(2, 1),
            ops: vec![Op::Write(Value(0)), Op::Read],
            depth: 4,
            max_schedules: usize::MAX,
            dedup: false,
            por: false,
            symmetry: false,
        };
        let fast = explore_all(&DvvMvrStore, &config, &mut causal_check);
        let slow = explore_all_replay(&DvvMvrStore, &config, &mut causal_check);
        assert_eq!(fast.schedules, slow.schedules);
        assert_eq!(fast.counterexample, slow.counterexample);
    }

    #[test]
    fn symmetry_requires_dedup() {
        let config = ExhaustiveConfig {
            symmetry: true,
            dedup: false,
            ..ExhaustiveConfig::default()
        };
        assert_eq!(
            config.validate().unwrap_err(),
            ExhaustiveConfigError::SymmetryWithoutDedup
        );
        assert!(config.validate().unwrap_err().to_string().contains("dedup"));
    }

    #[test]
    fn por_reduces_schedules_and_preserves_the_passing_verdict() {
        let config = ExhaustiveConfig {
            depth: 5,
            max_schedules: usize::MAX,
            ..ExhaustiveConfig::default()
        };
        let plain = explore_all(&DvvMvrStore, &config, &mut causal_check);
        let por = explore_all(
            &DvvMvrStore,
            &ExhaustiveConfig {
                por: true,
                ..config.clone()
            },
            &mut causal_check,
        );
        assert!(plain.all_passed() && por.all_passed());
        assert!(
            por.schedules < plain.schedules,
            "sleep sets pruned nothing: {} vs {}",
            por.schedules,
            plain.schedules
        );
    }

    #[test]
    fn por_schedule_count_is_invariant_under_dedup_and_symmetry() {
        // Dedup credits whole memoised subtrees and symmetry coarsens the
        // dedup key, so both change *work* (misses) but neither may change
        // the schedule count the reduced tree reports.
        let config = ExhaustiveConfig {
            store_config: StoreConfig::new(3, 1),
            ops: vec![Op::Write(Value(0)), Op::Read],
            depth: 4,
            max_schedules: usize::MAX,
            dedup: false,
            por: true,
            symmetry: false,
        };
        let por = explore_all(&DvvMvrStore, &config, &mut causal_check);
        let por_dedup = explore_all(
            &DvvMvrStore,
            &ExhaustiveConfig {
                dedup: true,
                ..config.clone()
            },
            &mut causal_check,
        );
        let por_sym = explore_all(
            &DvvMvrStore,
            &ExhaustiveConfig {
                dedup: true,
                symmetry: true,
                ..config.clone()
            },
            &mut causal_check,
        );
        assert_eq!(por.schedules, por_dedup.schedules);
        assert_eq!(por.schedules, por_sym.schedules);
        assert_eq!(por.counterexample, por_dedup.counterexample);
        assert_eq!(por.counterexample, por_sym.counterexample);
        // The symmetry quotient can only coarsen the dedup key: with three
        // interchangeable replicas it must strictly cut unique states.
        assert!(
            por_sym.dedup_misses < por_dedup.dedup_misses,
            "canonicalization collapsed nothing: {} vs {}",
            por_sym.dedup_misses,
            por_dedup.dedup_misses
        );
    }

    #[test]
    fn por_finds_a_replayable_counterexample_when_one_exists() {
        // POR's first counterexample generally differs from the unreduced
        // engine's (commuted schedules get different uniquified values),
        // but existence must agree and the cex must replay to a failure.
        let config = ExhaustiveConfig {
            store_config: StoreConfig::new(3, 2),
            ops: vec![Op::Write(Value(0)), Op::Read],
            depth: 6,
            max_schedules: 500_000,
            dedup: true,
            por: true,
            symmetry: false,
        };
        let report = explore_all(&BoundedStore, &config, &mut causal_check);
        let cex = report
            .counterexample
            .expect("POR missed the bounded store's violation");
        let sim = replay(&BoundedStore, &config, &cex);
        assert!(!causal_check(&sim), "POR counterexample does not replay");
    }

    #[test]
    fn symmetry_fallback_on_unsupported_stores_is_reported() {
        // The LWW store keeps raw replica-id tie-breaks and opts out of the
        // renaming hooks: symmetry must degrade to plain dedup, changing
        // nothing but the report's `symmetry_applied`.
        use haec_stores::LwwStore;
        let config = ExhaustiveConfig {
            depth: 4,
            max_schedules: usize::MAX,
            dedup: true,
            ..ExhaustiveConfig::default()
        };
        let symmetric = ExhaustiveConfig {
            symmetry: true,
            ..config.clone()
        };
        let plain = explore_all(&LwwStore, &config, &mut |_| true);
        let sym = explore_all(&LwwStore, &symmetric, &mut |_| true);
        assert_eq!(plain.schedules, sym.schedules);
        assert_eq!(plain.dedup_hits, sym.dedup_hits);
        assert_eq!(plain.dedup_misses, sym.dedup_misses);
        assert!(!plain.symmetry_applied, "symmetry was not asked for");
        assert!(!sym.symmetry_applied, "lww has no renaming hooks");
        assert!(explore_all(&DvvMvrStore, &symmetric, &mut |_| true).symmetry_applied);
        assert!(!explore_all(&DvvMvrStore, &config, &mut |_| true).symmetry_applied);
        // The parallel merge reports the orchestrator's probe.
        assert!(
            explore_all_parallel(&DvvMvrStore, &symmetric, 2, &|_| true, &mut NullObserver)
                .symmetry_applied
        );
        assert!(
            !explore_all_parallel(&LwwStore, &symmetric, 2, &|_| true, &mut NullObserver)
                .symmetry_applied
        );
    }

    #[test]
    fn traced_exploration_yields_every_visited_prefix() {
        let config = ExhaustiveConfig {
            depth: 3,
            max_schedules: usize::MAX,
            ..ExhaustiveConfig::default()
        };
        struct Prefixes(Vec<Vec<Action>>);
        impl Observer for Prefixes {
            fn on_search_node(&mut self, prefix: &[Action], _frontier: usize) {
                self.0.push(prefix.to_vec());
            }
        }
        let mut seen = Prefixes(Vec::new());
        let report = explore_all_observed(&DvvMvrStore, &config, &mut |_| true, &mut seen);
        let prefixes = seen.0;
        assert_eq!(prefixes.len(), report.schedules);
        assert_eq!(prefixes[0], Vec::new(), "root fires first");
        // Prefix lengths never exceed the depth and parents precede
        // children (pre-order).
        assert!(prefixes.iter().all(|p| p.len() <= 3));
    }
}
