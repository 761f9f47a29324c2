//! The sharded service cluster: one store instance per shard, one
//! machine per (replica, shard).
//!
//! A [`ServiceCluster`] is the production-shaped layer in front of any
//! [`StoreFactory`]: the keyspace is split across `n_shards` independent
//! store instances by the consistent-hash [`ring`](super::ring), each
//! replica node hosts one [`ReplicaMachine`] per shard, and a node's
//! outgoing traffic can be coalesced into a single [`envelope`] per
//! destination. Shards never communicate with each other — cross-shard
//! causality is intentionally not promised (exactly the trade real
//! sharded stores make), while causality *within* a shard is whatever the
//! underlying store provides.
//!
//! Dots, witnesses and fingerprints are all **shard-local**: each shard
//! is its own store instance with its own dot space and its own dense
//! object ids. Observers accounting per-shard metrics must key by
//! `(shard, dot)`, which is what `haec_sim::service` does.

use super::envelope::{self, EnvelopeDecodeError};
use super::ring::{HashRing, ShardMap};
use super::{Reconciliation, ServiceConfig};
use haec_model::{
    DoOutcome, ObjectId, Op, Payload, ReplicaId, ReplicaMachine, StoreConfig, StoreFactory,
};

/// A sharded cluster of `n_replicas × n_shards` machines spawned from one
/// store factory.
pub struct ServiceCluster {
    config: ServiceConfig,
    map: ShardMap,
    /// `nodes[replica][shard]`.
    nodes: Vec<Vec<Box<dyn ReplicaMachine>>>,
}

impl ServiceCluster {
    /// Spawns the cluster: every replica hosts one machine per shard,
    /// each shard sized to the objects the ring assigns it.
    pub fn new(factory: &dyn StoreFactory, config: &ServiceConfig) -> Self {
        let ring = HashRing::new(config.n_shards, config.vnodes);
        let map = ShardMap::new(&ring, config.n_objects);
        let per_shard_objects = map.shard_object_counts();
        let nodes = (0..config.n_replicas)
            .map(|r| {
                per_shard_objects
                    .iter()
                    .map(|&n_objects| {
                        factory.spawn(
                            ReplicaId::new(r as u32),
                            StoreConfig::new(config.n_replicas, n_objects),
                        )
                    })
                    .collect()
            })
            .collect();
        ServiceCluster {
            config: config.clone(),
            map,
            nodes,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The keyspace map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Number of replicas.
    pub fn n_replicas(&self) -> usize {
        self.config.n_replicas
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.config.n_shards
    }

    /// The reconciliation strategy in force.
    pub fn reconciliation(&self) -> Reconciliation {
        self.config.reconciliation
    }

    /// Applies a client operation at `replica` on a *global* object:
    /// routes through the ring and executes on the owning shard's
    /// machine. Returns the shard and the (shard-local) outcome.
    pub fn do_op(&mut self, replica: ReplicaId, obj: ObjectId, op: &Op) -> (usize, DoOutcome) {
        let (shard, local) = self.map.route(obj);
        let out = self.nodes[replica.index()][shard].do_op(local, op);
        (shard, out)
    }

    /// Flushes one shard at one replica: takes its pending message (and
    /// marks it sent), or `None` when nothing is pending.
    pub fn flush_shard(&mut self, replica: ReplicaId, shard: usize) -> Option<Payload> {
        let m = &mut self.nodes[replica.index()][shard];
        let p = m.pending_message()?;
        m.on_send();
        Some(p)
    }

    /// Flushes *all* pending shards of a replica into one coalescing
    /// envelope (groups in shard order), or `None` when no shard has
    /// anything to send. This is the batched wire path: one message per
    /// destination instead of one per shard.
    pub fn flush_envelope(&mut self, replica: ReplicaId) -> Option<Payload> {
        let mut groups = Vec::new();
        for shard in 0..self.config.n_shards {
            if let Some(p) = self.flush_shard(replica, shard) {
                groups.push((shard, p));
            }
        }
        if groups.is_empty() {
            return None;
        }
        Some(envelope::encode_envelope(&groups, self.config.n_shards))
    }

    /// Delivers a single-shard message to `replica`.
    pub fn deliver_shard(&mut self, replica: ReplicaId, shard: usize, payload: &Payload) {
        self.nodes[replica.index()][shard].on_receive(payload);
    }

    /// Delivers a coalescing envelope to `replica`: decodes it (fail
    /// closed — a corrupt envelope delivers nothing) and feeds each group
    /// to its shard machine. Returns the number of groups delivered.
    ///
    /// # Errors
    ///
    /// Returns the envelope decode error; no group is delivered on error.
    pub fn deliver_envelope(
        &mut self,
        replica: ReplicaId,
        payload: &Payload,
    ) -> Result<usize, EnvelopeDecodeError> {
        let groups = envelope::decode_envelope(payload, self.config.n_shards)?;
        let n = groups.len();
        for (shard, sub) in &groups {
            self.deliver_shard(replica, *shard, sub);
        }
        Ok(n)
    }

    /// Full state fingerprint of one shard at one replica.
    pub fn shard_fingerprint(&self, replica: ReplicaId, shard: usize) -> u64 {
        self.nodes[replica.index()][shard].state_fingerprint()
    }

    /// Replicated-state fingerprint of one shard at one replica — the
    /// portion that must agree at quiescence (see
    /// [`ReplicaMachine::converged_fingerprint`]).
    pub fn shard_converged_fingerprint(&self, replica: ReplicaId, shard: usize) -> u64 {
        self.nodes[replica.index()][shard].converged_fingerprint()
    }

    /// Do all replicas agree on every shard's replicated state? (The
    /// quiescent-agreement check, per shard.) Compares converged
    /// fingerprints, not full state fingerprints: sender-local bookkeeping
    /// such as dot-issue counters legitimately differs between replicas.
    pub fn shards_agree(&self) -> bool {
        (0..self.config.n_shards).all(|shard| {
            let first = self.shard_converged_fingerprint(ReplicaId::new(0), shard);
            (1..self.config.n_replicas)
                .all(|r| self.shard_converged_fingerprint(ReplicaId::new(r as u32), shard) == first)
        })
    }

    /// Total canonical state size in bits across all machines.
    pub fn state_bits(&self) -> usize {
        self.nodes
            .iter()
            .flat_map(|shards| shards.iter())
            .map(|m| m.state_bits())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DvvMvrStore;
    use haec_model::{ReturnValue, Value};

    fn config(n_shards: usize) -> ServiceConfig {
        ServiceConfig {
            n_replicas: 3,
            n_shards,
            n_objects: 16,
            vnodes: 16,
            reconciliation: Reconciliation::WriteRepair,
        }
    }

    fn r(i: u32) -> ReplicaId {
        ReplicaId::new(i)
    }

    #[test]
    fn writes_route_and_replicate_per_shard() {
        let mut c = ServiceCluster::new(&DvvMvrStore, &config(4));
        // Write every object at replica 0, envelope-flush to 1 and 2.
        for obj in 0..16u32 {
            c.do_op(
                r(0),
                ObjectId::new(obj),
                &Op::Write(Value::new(100 + u64::from(obj))),
            );
        }
        let env = c.flush_envelope(r(0)).expect("pending");
        assert!(c.flush_envelope(r(0)).is_none(), "flush drains everything");
        c.deliver_envelope(r(1), &env).unwrap();
        c.deliver_envelope(r(2), &env).unwrap();
        assert!(c.shards_agree(), "all copies converge");
        for obj in 0..16u32 {
            for rep in 0..3 {
                let (_, out) = c.do_op(r(rep), ObjectId::new(obj), &Op::Read);
                assert_eq!(
                    out.rval,
                    ReturnValue::values([Value::new(100 + u64::from(obj))]),
                    "object {obj} at replica {rep}"
                );
            }
        }
    }

    #[test]
    fn unbatched_and_enveloped_delivery_agree() {
        let mut a = ServiceCluster::new(&DvvMvrStore, &config(4));
        let mut b = ServiceCluster::new(&DvvMvrStore, &config(4));
        for obj in 0..16u32 {
            let op = Op::Write(Value::new(1 + u64::from(obj)));
            a.do_op(r(0), ObjectId::new(obj), &op);
            b.do_op(r(0), ObjectId::new(obj), &op);
        }
        // a: per-shard messages; b: one envelope.
        for shard in 0..4 {
            if let Some(p) = a.flush_shard(r(0), shard) {
                a.deliver_shard(r(1), shard, &p);
                a.deliver_shard(r(2), shard, &p);
            }
        }
        let env = b.flush_envelope(r(0)).unwrap();
        b.deliver_envelope(r(1), &env).unwrap();
        b.deliver_envelope(r(2), &env).unwrap();
        for shard in 0..4 {
            for rep in 0..3 {
                assert_eq!(
                    a.shard_fingerprint(r(rep), shard),
                    b.shard_fingerprint(r(rep), shard),
                    "shard {shard} replica {rep}"
                );
            }
        }
    }

    #[test]
    fn corrupt_envelope_delivers_nothing() {
        let mut c = ServiceCluster::new(&DvvMvrStore, &config(2));
        c.do_op(r(0), ObjectId::new(0), &Op::Write(Value::new(9)));
        let env = c.flush_envelope(r(0)).unwrap();
        let cut = crate::wire::BitReader::new(&env)
            .read_payload(env.bits() - 1)
            .unwrap();
        let before = c.shard_fingerprint(r(1), 0);
        assert!(c.deliver_envelope(r(1), &cut).is_err());
        assert_eq!(c.shard_fingerprint(r(1), 0), before, "fail closed");
    }
}
