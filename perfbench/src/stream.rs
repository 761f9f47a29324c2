//! The streaming-checker path: `StreamChecker::{push, sweep}` and the three
//! verdict calls, fed a pre-generated synthetic feed.
//!
//! The feed is the quiescing feed of `benches/stream.rs` — three replicas
//! cycling update, update, read; a dot becomes visible [`LAG`] events after
//! it was issued; each event's witness is the delta of newly visible
//! foreign dots — with two differences. It is generated during set-up into
//! flat arrays, so the timed loop only pushes. And the seed picks, per
//! round, the order the replicas take their turns in and the object the
//! round's updates go to; the rates (who updates how often, what is lost)
//! do not depend on the seed.

use crate::rep::{fingerprint, Rep};
use crate::trace::Tracer;
use haec_core::spans;
use haec_core::stream::{StreamChecker, StreamConfig};
use haec_model::{Dot, ObjectId, ReplicaId};
use haec_testkit::Rng;
use std::time::Instant;

/// The two checker workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// Lossless feed, exact stability-driven GC.
    Exact,
    /// Every 500th update is never delivered; bounded-window GC.
    Lossy,
}

const REPLICAS: usize = 3;
const OBJECTS: u64 = 2;
/// A dot issued at event `i` is visible to events from `i + LAG` on.
const LAG: usize = 24;
/// Eventual-consistency window; exceeds the worst visibility lag of a
/// delivered update, so the lossless feed stays violation-free.
const WINDOW: usize = 96;

/// A whole feed in flat arrays: event `t` runs at `replica[t]` on
/// `obj[t]` and witnesses `dots[offsets[t]..offsets[t + 1]]`.
pub struct Feed {
    replica: Vec<ReplicaId>,
    obj: Vec<ObjectId>,
    is_update: Vec<bool>,
    offsets: Vec<u32>,
    dots: Vec<Dot>,
}

impl Feed {
    fn witness(&self, t: usize) -> &[Dot] {
        &self.dots[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }
}

/// Generates `events` events; every `lose_every`th update is never
/// delivered (0 = lossless).
pub fn generate(events: usize, lose_every: usize, seed: u64) -> Feed {
    let mut rng = Rng::seed_from_u64(seed);
    let mut feed = Feed {
        replica: Vec::with_capacity(events),
        obj: Vec::with_capacity(events),
        is_update: Vec::with_capacity(events),
        offsets: Vec::with_capacity(events + 1),
        dots: Vec::with_capacity(events * 2),
    };
    // Delivered dots in issue order with their issue event, and a cursor
    // per replica: everything before it was already witnessed there.
    let mut delivered: Vec<(usize, Dot)> = Vec::with_capacity(events);
    let mut cursor = [0usize; REPLICAS];
    let mut issued = [0u32; REPLICAS];
    let mut updates = 0usize;
    let mut order = [0usize, 1, 2];
    let mut round_obj = ObjectId::new(0);
    feed.offsets.push(0);
    for t in 0..events {
        if t % REPLICAS == 0 {
            rng.shuffle(&mut order);
            round_obj = ObjectId::new(rng.bounded(OBJECTS) as u32);
        }
        let r = order[t % REPLICAS];
        let replica = ReplicaId::new(r as u32);
        let is_update = (t / REPLICAS) % 3 != 2;
        let horizon = t.saturating_sub(LAG);
        while cursor[r] < delivered.len() && delivered[cursor[r]].0 < horizon {
            let (_, d) = delivered[cursor[r]];
            if d.replica != replica {
                feed.dots.push(d);
            }
            cursor[r] += 1;
        }
        if is_update {
            issued[r] += 1;
            updates += 1;
            let lost = lose_every != 0 && updates.is_multiple_of(lose_every);
            if !lost {
                delivered.push((t, Dot::new(replica, issued[r])));
            }
        }
        feed.replica.push(replica);
        feed.obj.push(round_obj);
        feed.is_update.push(is_update);
        feed.offsets.push(feed.dots.len() as u32);
    }
    feed
}

fn checker(shape: Shape) -> StreamChecker {
    StreamChecker::new(StreamConfig {
        n_replicas: REPLICAS,
        window: WINDOW,
        gc_window: match shape {
            Shape::Exact => None,
            Shape::Lossy => Some(512),
        },
    })
    .expect("valid stream config")
}

const PUSH: usize = 0;
const SWEEP: usize = 1;
const VERDICTS: usize = 2;

const LAYERS: &[&str] = &[
    "core.stream.push",
    "core.stream.sweep",
    "core.stream.verdicts",
];

/// What one pass over a feed produced.
struct Outcome {
    checker: StreamChecker,
    rejected: u64,
    verdicts: [bool; 3],
}

/// The timed region: push the first `events` events of `feed`, sweep, ask
/// the three verdicts.
fn feed_checker(shape: Shape, feed: &Feed, events: usize, mut tr: Option<&mut Tracer>) -> Outcome {
    let mut checker = checker(shape);
    let mut rejected = 0u64;
    for t in 0..events {
        let (replica, obj, is_update, witness) = (
            feed.replica[t],
            feed.obj[t],
            feed.is_update[t],
            feed.witness(t),
        );
        let pushed = match tr.as_deref_mut() {
            None => checker.push(replica, obj, is_update, witness),
            Some(tr) => {
                tr.start_op(t as u64);
                tr.time(PUSH, || checker.push(replica, obj, is_update, witness))
            }
        };
        rejected += u64::from(pushed.is_err());
    }
    let verdicts = |c: &StreamChecker| {
        [
            c.causal().is_ok(),
            c.eventual().is_ok(),
            c.sessions().is_ok(),
        ]
    };
    let verdicts = match tr {
        None => {
            checker.sweep();
            verdicts(&checker)
        }
        Some(tr) => {
            tr.start_op(events as u64);
            tr.time(SWEEP, || checker.sweep());
            tr.time(VERDICTS, || verdicts(&checker))
        }
    };
    Outcome {
        checker,
        rejected,
        verdicts,
    }
}

fn check_outputs(shape: Shape, events: usize, out: &Outcome, prefix: &str, rep: &mut Rep) {
    let stats = out.checker.stats();
    rep.check(
        out.rejected == 0,
        &format!("{prefix}checker rejected a push"),
    );
    rep.check(
        stats.peak_live * 20 < events,
        &format!("{prefix}checker residency is not sublinear"),
    );
    match shape {
        Shape::Exact => {
            rep.check(
                out.verdicts == [true; 3],
                &format!("{prefix}lossless feed reported a violation"),
            );
            rep.check(
                stats.forced_retired == 0,
                &format!("{prefix}exact mode forced a retirement"),
            );
        }
        Shape::Lossy => rep.check(
            stats.forced_retired > 0,
            &format!("{prefix}lossy feed never exercised the window fallback"),
        ),
    }
}

/// One repetition of a checker workload: feed generation and a pre-flight
/// over the feed's first 1/50 in set-up, then the timed pass, then the
/// output checks. Returns the tracer of a traced run.
pub fn run(
    shape: Shape,
    seed: u64,
    traced: bool,
    smoke: bool,
    started: Instant,
    rep: &mut Rep,
) -> Option<Tracer> {
    let (events, lose_every) = match shape {
        Shape::Exact => (1_000_000, 0),
        Shape::Lossy => (500_000, 500),
    };
    let smoke_events = events / 50;
    let events = if smoke { smoke_events } else { events };
    let feed = generate(events, lose_every, seed);
    if !smoke {
        let out = feed_checker(shape, &feed, smoke_events, None);
        check_outputs(shape, smoke_events, &out, "pre-flight: ", rep);
    }
    let mut tracer = traced.then(|| {
        let mut tr = Tracer::new(LAYERS, events);
        tr.keep_samples(PUSH, events);
        tr
    });
    rep.put("setup_s", started.elapsed().as_secs_f64());

    let t0 = Instant::now();
    let (out, inner) = match &mut tracer {
        None => (feed_checker(shape, &feed, events, None), Vec::new()),
        Some(tr) => spans::collect(|| feed_checker(shape, &feed, events, Some(tr))),
    };
    rep.put("wall_s", t0.elapsed().as_secs_f64());

    check_outputs(shape, events, &out, "", rep);
    let stats = out.checker.stats();
    rep.attempted = events as u64;
    rep.failed = out.rejected;
    rep.fingerprint = fingerprint(format!("{stats:?} {:?}", out.verdicts).as_bytes());
    rep.put("checker_peak_bytes", stats.peak_bytes as f64);
    rep.put("core.stream.peak_live", stats.peak_live as f64);
    rep.put("core.stream.retired", stats.retired as f64);
    rep.put("core.stream.forced_retired", stats.forced_retired as f64);

    if let Some(tr) = &tracer {
        let push = tr.layer(PUSH);
        rep.put("core.stream.push.calls", push.calls as f64);
        rep.put("core.stream.push.ns", push.ns as f64);
        rep.put("core.stream.push.witness_dots", feed.dots.len() as f64);
        let [p50, p99, max] = tr.quantiles_ns(PUSH, [0.5, 0.99, 1.0]);
        rep.put("core.stream.push.p50_ns", p50 as f64);
        rep.put("core.stream.push.p99_ns", p99 as f64);
        rep.put("core.stream.push.max_ns", max as f64);
        rep.put("core.stream.sweep.ns", tr.layer(SWEEP).ns as f64);
        rep.put("core.stream.verdicts.ns", tr.layer(VERDICTS).ns as f64);
        // The checker's own phase spans, harvested with the collector the
        // program already has.
        for phase in ["ingest", "causal", "eventual", "sessions"] {
            let ns = inner
                .iter()
                .find(|r| r.name.strip_prefix("stream.") == Some(phase))
                .map_or(0, |r| r.total_ns);
            rep.put(&format!("core.stream.{phase}.ns"), ns as f64);
        }
    }
    tracer
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whatever the seed shuffles, the feed must stay in its regime: the
    /// lossless one violation-free under exact GC, the lossy one
    /// force-retiring, both with flat residency.
    #[test]
    fn every_seed_keeps_the_feed_in_its_regime() {
        for seed in [0, 1, 7, 0xBEEF_CAFE, u64::MAX] {
            for (shape, events, lose_every) in
                [(Shape::Exact, 20_000, 0), (Shape::Lossy, 10_000, 500)]
            {
                let feed = generate(events, lose_every, seed);
                let out = feed_checker(shape, &feed, events, None);
                let mut rep = Rep::default();
                check_outputs(shape, events, &out, "", &mut rep);
                assert_eq!(rep.failures, Vec::<String>::new(), "seed {seed} {shape:?}");
            }
        }
    }

    #[test]
    fn the_seed_changes_the_feed_but_not_its_rates() {
        let a = generate(9_000, 500, 1);
        let b = generate(9_000, 500, 2);
        assert_ne!(a.replica, b.replica);
        assert_eq!(a.is_update, b.is_update);
    }
}
