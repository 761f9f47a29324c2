//! Workload generation: which client invokes which operation on which
//! object.

use haec_core::SpecKind;
use haec_model::{ObjectId, Op, ReplicaId, Value};
use haec_testkit::Rng;

/// Distribution of operations over objects.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum KeyDistribution {
    /// Every object equally likely.
    Uniform,
    /// Zipf-like skew with the given exponent (typical: 0.8–1.2): object
    /// ranks are weighted `1/(rank+1)^theta`.
    Zipf {
        /// The skew exponent.
        theta: f64,
    },
}

/// Fixed-point scale for key weights: weights are stored as integers so
/// object sampling is a single unbiased bounded draw over the cumulative
/// total — no floating-point cumulative sums, whose rounding skews the
/// bin boundaries, and no modulo bias (see [`Rng::bounded`]).
const WEIGHT_SCALE: f64 = (1u64 << 32) as f64;

/// A seeded generator of client operations for one object family.
#[derive(Clone, Debug)]
pub struct Workload {
    spec: SpecKind,
    n_replicas: usize,
    n_objects: usize,
    read_ratio: f64,
    /// Cumulative integer weights for key sampling: object `i` owns the
    /// half-open weight interval `[cumulative[i-1], cumulative[i])`.
    cumulative: Vec<u64>,
    next_value: u64,
    /// Small pool of values for add/remove workloads.
    element_pool: u64,
}

impl Workload {
    /// Creates a workload for `spec`-typed objects.
    ///
    /// # Panics
    ///
    /// Panics if `read_ratio` is not within `[0, 1]` or a count is zero.
    pub fn new(
        spec: SpecKind,
        n_replicas: usize,
        n_objects: usize,
        read_ratio: f64,
        keys: KeyDistribution,
    ) -> Self {
        assert!((0.0..=1.0).contains(&read_ratio), "read_ratio in [0,1]");
        assert!(n_replicas > 0 && n_objects > 0, "counts must be positive");
        let mut cumulative = Vec::with_capacity(n_objects);
        let mut acc = 0u64;
        for rank in 0..n_objects {
            let w = match keys {
                KeyDistribution::Uniform => 1,
                // Quantized to 32 fractional bits; every object keeps at
                // least weight 1 so no key becomes unreachable.
                KeyDistribution::Zipf { theta } => {
                    ((WEIGHT_SCALE / ((rank as f64) + 1.0).powf(theta)).round() as u64).max(1)
                }
            };
            acc += w;
            cumulative.push(acc);
        }
        Workload {
            spec,
            n_replicas,
            n_objects,
            read_ratio,
            cumulative,
            next_value: 0,
            element_pool: 8,
        }
    }

    /// Number of objects in the keyspace.
    pub fn n_objects(&self) -> usize {
        self.n_objects
    }

    /// Samples an object id: an unbiased bounded draw over the cumulative
    /// integer weights, then a binary search for the owning interval.
    pub fn sample_object(&self, rng: &mut Rng) -> ObjectId {
        let total = *self.cumulative.last().expect("nonempty");
        let p = rng.bounded(total);
        let ix = self.cumulative.partition_point(|&c| c <= p);
        ObjectId::new(ix as u32)
    }

    /// Samples a replica id uniformly (unbiased).
    pub fn sample_replica(&self, rng: &mut Rng) -> ReplicaId {
        ReplicaId::new(rng.bounded(self.n_replicas as u64) as u32)
    }

    /// Samples an operation body for this workload's spec.
    ///
    /// Written values are globally unique (the paper's distinct-writes
    /// assumption); ORset elements are drawn from a small pool so that adds
    /// and removes collide.
    pub fn sample_op(&mut self, rng: &mut Rng) -> Op {
        if rng.gen_bool(self.read_ratio) {
            return Op::Read;
        }
        match self.spec {
            SpecKind::Mvr | SpecKind::LwwRegister => {
                self.next_value += 1;
                Op::Write(Value::new(self.next_value))
            }
            SpecKind::OrSet => {
                let element = Value::new(rng.bounded(self.element_pool));
                if rng.gen_bool(0.5) {
                    Op::Add(element)
                } else {
                    Op::Remove(element)
                }
            }
            SpecKind::Counter => Op::Inc,
            SpecKind::EwFlag => {
                if rng.gen_bool(0.5) {
                    Op::Enable
                } else {
                    Op::Disable
                }
            }
        }
    }

    /// Samples the next client operation: `(replica, object, op)`.
    pub fn next_op(&mut self, rng: &mut Rng) -> (ReplicaId, ObjectId, Op) {
        let replica = self.sample_replica(rng);
        let obj = self.sample_object(rng);
        let op = self.sample_op(rng);
        (replica, obj, op)
    }
}

/// One operation of the open-loop client stream.
#[derive(Clone, PartialEq, Debug)]
pub struct ClientOp {
    /// The issuing (simulated) client.
    pub client: u32,
    /// The replica the client is pinned to.
    pub replica: ReplicaId,
    /// Target object (global id, pre-sharding).
    pub obj: ObjectId,
    /// The operation.
    pub op: Op,
}

/// An open-loop driver over a [`Workload`]: a population of simulated
/// clients issues operations at a fixed (virtual-time) rate, one per
/// tick, regardless of how far behind replication runs — the regime the
/// service benchmarks measure. Each client is pinned to a home replica
/// (`client mod n_replicas`), so per-client session order is per-replica
/// program order and the session checkers stay meaningful.
#[derive(Clone, Debug)]
pub struct OpenLoop {
    workload: Workload,
    n_clients: u32,
}

impl OpenLoop {
    /// Creates an open-loop stream of `n_clients` clients over `workload`.
    ///
    /// # Panics
    ///
    /// Panics if `n_clients == 0`.
    pub fn new(workload: Workload, n_clients: u32) -> Self {
        assert!(n_clients > 0, "need at least one client");
        OpenLoop {
            workload,
            n_clients,
        }
    }

    /// Number of simulated clients.
    pub fn n_clients(&self) -> u32 {
        self.n_clients
    }

    /// The underlying workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The next client operation (unbiased client choice, home-replica
    /// pinning, workload-distributed object and op).
    pub fn next_op(&mut self, rng: &mut Rng) -> ClientOp {
        let client = rng.bounded(u64::from(self.n_clients)) as u32;
        let replica = ReplicaId::new(client % self.workload.n_replicas as u32);
        let obj = self.workload.sample_object(rng);
        let op = self.workload.sample_op(rng);
        ClientOp {
            client,
            replica,
            obj,
            op,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }

    #[test]
    fn read_ratio_respected_roughly() {
        let mut w = Workload::new(SpecKind::Mvr, 3, 4, 0.5, KeyDistribution::Uniform);
        let mut r = rng(1);
        let reads = (0..1000).filter(|_| w.next_op(&mut r).2.is_read()).count();
        assert!((350..650).contains(&reads), "got {reads} reads");
    }

    #[test]
    fn write_values_unique() {
        let mut w = Workload::new(SpecKind::Mvr, 2, 2, 0.0, KeyDistribution::Uniform);
        let mut r = rng(2);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..500 {
            let (_, _, op) = w.next_op(&mut r);
            let Op::Write(v) = op else {
                panic!("writes only")
            };
            assert!(seen.insert(v), "duplicate written value {v}");
        }
    }

    #[test]
    fn zipf_skews_towards_low_ranks() {
        let w = Workload::new(
            SpecKind::Mvr,
            2,
            16,
            0.5,
            KeyDistribution::Zipf { theta: 1.0 },
        );
        let mut r = rng(3);
        let mut counts = [0usize; 16];
        for _ in 0..4000 {
            counts[w.sample_object(&mut r).index()] += 1;
        }
        assert!(
            counts[0] > counts[15] * 3,
            "rank 0 ({}) should dominate rank 15 ({})",
            counts[0],
            counts[15]
        );
    }

    #[test]
    fn uniform_covers_all_objects() {
        let w = Workload::new(SpecKind::Mvr, 2, 8, 0.5, KeyDistribution::Uniform);
        let mut r = rng(4);
        let mut counts = vec![0usize; 8];
        for _ in 0..2000 {
            counts[w.sample_object(&mut r).index()] += 1;
        }
        assert!(counts.iter().all(|&c| c > 100), "{counts:?}");
    }

    #[test]
    fn orset_ops_collide_on_elements() {
        let mut w = Workload::new(SpecKind::OrSet, 2, 2, 0.0, KeyDistribution::Uniform);
        let mut r = rng(5);
        let mut adds = 0;
        let mut removes = 0;
        for _ in 0..200 {
            match w.next_op(&mut r).2 {
                Op::Add(_) => adds += 1,
                Op::Remove(_) => removes += 1,
                other => panic!("unexpected {other}"),
            }
        }
        assert!(adds > 50 && removes > 50);
    }

    #[test]
    fn counter_generates_incs() {
        let mut w = Workload::new(SpecKind::Counter, 2, 1, 0.0, KeyDistribution::Uniform);
        let mut r = rng(6);
        assert_eq!(w.next_op(&mut r).2, Op::Inc);
    }

    #[test]
    #[should_panic(expected = "read_ratio")]
    fn invalid_read_ratio_panics() {
        Workload::new(SpecKind::Mvr, 2, 2, 1.5, KeyDistribution::Uniform);
    }

    /// Frequency-distribution pin for the unbiased samplers: with a fixed
    /// seed, uniform object and replica draws stay within a fixed
    /// tolerance of the exact expectation. This is the workload-level
    /// guard against reintroducing a biased bounded draw (e.g. a bare
    /// modulo) in either sampler.
    #[test]
    fn sampling_frequency_distribution_is_uniform() {
        let w = Workload::new(SpecKind::Mvr, 6, 12, 0.5, KeyDistribution::Uniform);
        let mut r = rng(0xFEED);
        let draws = 36_000usize;
        let mut objs = [0u64; 12];
        let mut reps = [0u64; 6];
        for _ in 0..draws {
            objs[w.sample_object(&mut r).index()] += 1;
            reps[w.sample_replica(&mut r).index()] += 1;
        }
        let obj_expect = (draws / 12) as u64;
        for (i, &c) in objs.iter().enumerate() {
            assert!(
                c.abs_diff(obj_expect) * 100 <= obj_expect * 8,
                "object {i}: {c} vs {obj_expect}"
            );
        }
        let rep_expect = (draws / 6) as u64;
        for (i, &c) in reps.iter().enumerate() {
            assert!(
                c.abs_diff(rep_expect) * 100 <= rep_expect * 8,
                "replica {i}: {c} vs {rep_expect}"
            );
        }
    }

    #[test]
    fn open_loop_pins_clients_to_home_replicas() {
        let w = Workload::new(SpecKind::Mvr, 3, 8, 0.5, KeyDistribution::Uniform);
        let mut ol = OpenLoop::new(w, 10);
        let mut r = rng(8);
        let mut seen_clients = std::collections::BTreeSet::new();
        for _ in 0..500 {
            let op = ol.next_op(&mut r);
            assert!(op.client < 10);
            assert_eq!(op.replica.index() as u32, op.client % 3);
            seen_clients.insert(op.client);
        }
        assert_eq!(seen_clients.len(), 10, "all clients issue ops");
    }

    #[test]
    fn open_loop_is_deterministic() {
        let mk = || {
            OpenLoop::new(
                Workload::new(
                    SpecKind::OrSet,
                    2,
                    4,
                    0.3,
                    KeyDistribution::Zipf { theta: 1.0 },
                ),
                100,
            )
        };
        let (mut a, mut b) = (mk(), mk());
        let (mut ra, mut rb) = (rng(42), rng(42));
        for _ in 0..200 {
            assert_eq!(a.next_op(&mut ra), b.next_op(&mut rb));
        }
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn open_loop_zero_clients_panics() {
        let w = Workload::new(SpecKind::Mvr, 2, 2, 0.5, KeyDistribution::Uniform);
        let _ = OpenLoop::new(w, 0);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut w1 = Workload::new(SpecKind::Mvr, 3, 4, 0.3, KeyDistribution::Uniform);
        let mut w2 = Workload::new(SpecKind::Mvr, 3, 4, 0.3, KeyDistribution::Uniform);
        let mut r1 = rng(7);
        let mut r2 = rng(7);
        for _ in 0..50 {
            assert_eq!(w1.next_op(&mut r1), w2.next_op(&mut r2));
        }
    }
}
