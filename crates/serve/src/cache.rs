//! The content-addressed design-artifact cache with single-flight
//! deduplication.
//!
//! Design artifacts (a [`DesignedFleet`] plus its certification flag) are
//! keyed by the FNV-1a [`content_hash`](crate::protocol::content_hash) of
//! the *canonical job encoding*
//! ([`DesignJob::canonical_bytes`](crate::protocol::DesignJob::canonical_bytes),
//! encoded once per request) —
//! but the hash is only the *address*, never the identity: every entry (and
//! every in-flight computation) stores the canonical job bytes themselves,
//! and a lookup compares them on a hash hit. Two distinct jobs whose 64-bit
//! hashes collide therefore occupy separate bucket slots and can never
//! share an artifact — a collision is a miss, not a wrong answer. The cache
//! is a bounded LRU; on overflow the least-recently-used entry is evicted,
//! which bounds server memory under arbitrary request mixes.
//!
//! *Single flight*: when K requests for the same job arrive concurrently,
//! exactly one becomes the **leader** ([`CacheOutcome::Lead`]) and computes;
//! the others **join** ([`CacheOutcome::Join`]) and block on a channel the
//! leader completes. Joining too verifies the full job bytes: a request
//! whose job merely collides with an in-flight computation leads its own.
//! A leader must *always* call [`ArtifactCache::complete`] — success or
//! failure — or joiners would hang; the server wraps leader computation in
//! `catch_unwind` and completes with an error on panic, so a panicking
//! design can neither poison the cache nor strand its joiners.
//!
//! [`ArtifactCache::lookup`] is the read-only peek beside it: the same hit
//! rule, but a miss begins no flight. The server answers cached design
//! requests with it on the connection handler.
//!
//! *Degradation hygiene*: a degraded (uncertified) artifact never
//! overwrites a certified one, and a request with `require_certified`
//! treats an uncertified entry as a miss — load-induced degradation cannot
//! silently downgrade later answers.

use cps_core::DesignedFleet;
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// A cached design: the immutable fleet plus how it was obtained.
#[derive(Debug)]
pub struct DesignArtifact {
    /// The designed fleet (allocation + seeded timing table).
    pub fleet: Arc<DesignedFleet>,
    /// Whether the slot map was proven minimal (`false` after a budget or
    /// deadline cut degraded the search to the greedy incumbent).
    pub certified_optimal: bool,
}

/// What a leader reports: the artifact, or a rendered failure for joiners.
pub type CacheResult = Result<Arc<DesignArtifact>, String>;

/// The verdict of a cache lookup.
pub enum CacheOutcome {
    /// The artifact is cached (same hash *and* same job bytes); use it.
    Hit(Arc<DesignArtifact>),
    /// Another request is computing this exact job right now; receive its
    /// result from the channel.
    Join(Receiver<CacheResult>),
    /// This request leads: compute the artifact, then *always* call
    /// [`ArtifactCache::complete`] with the same key and job bytes.
    Lead,
}

struct Entry {
    /// Canonical job bytes — the full identity behind the 64-bit address.
    job: Vec<u8>,
    artifact: Arc<DesignArtifact>,
    last_used: u64,
}

struct InFlight {
    job: Vec<u8>,
    waiters: Vec<Sender<CacheResult>>,
}

struct CacheState {
    tick: u64,
    len: usize,
    /// Hash buckets: colliding jobs coexist instead of aliasing.
    entries: HashMap<u64, Vec<Entry>>,
    in_flight: HashMap<u64, Vec<InFlight>>,
}

impl CacheState {
    /// The one hit rule: same hash, same job bytes, and certified when
    /// `require_certified` is set. A hit refreshes the entry's LRU tick.
    fn hit(
        &mut self,
        key: u64,
        job: &[u8],
        require_certified: bool,
    ) -> Option<Arc<DesignArtifact>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(&key)?.iter_mut().find(|entry| entry.job == job)?;
        if require_certified && !entry.artifact.certified_optimal {
            return None;
        }
        entry.last_used = tick;
        Some(Arc::clone(&entry.artifact))
    }
}

/// Bounded LRU of design artifacts with single-flight deduplication and
/// full-key (canonical job bytes) verification on every hit.
pub struct ArtifactCache {
    capacity: usize,
    state: Mutex<CacheState>,
}

impl ArtifactCache {
    /// A cache holding at most `capacity` artifacts (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ArtifactCache {
            capacity: capacity.max(1),
            state: Mutex::new(CacheState {
                tick: 0,
                len: 0,
                entries: HashMap::new(),
                in_flight: HashMap::new(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState> {
        // A panic while holding the lock cannot corrupt the map invariants
        // (every mutation is a single insert/remove), so poisoned state is
        // safe to adopt — refusing would turn one isolated panic into a
        // permanently dead cache.
        self.state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Peeks the cache for the job (addressed by `key`, identified by its
    /// canonical bytes `job`): the artifact on a hit, which counts as a use
    /// for the LRU; `None` on a miss, which begins no computation. The hit
    /// rule is [`ArtifactCache::lookup_or_begin`]'s.
    pub fn lookup(
        &self,
        key: u64,
        job: &[u8],
        require_certified: bool,
    ) -> Option<Arc<DesignArtifact>> {
        self.lock().hit(key, job, require_certified)
    }

    /// Looks up the job (addressed by `key`, identified by its canonical
    /// bytes `job`), joining or leading the computation on a miss. A hash
    /// hit whose stored bytes differ from `job` is a *miss* — never a
    /// shared artifact.
    ///
    /// With `require_certified`, an uncertified cached artifact counts as a
    /// miss (the caller recomputes at full fidelity).
    pub fn lookup_or_begin(&self, key: u64, job: &[u8], require_certified: bool) -> CacheOutcome {
        let mut state = self.lock();
        if let Some(artifact) = state.hit(key, job, require_certified) {
            return CacheOutcome::Hit(artifact);
        }
        let bucket = state.in_flight.entry(key).or_default();
        if let Some(flight) = bucket.iter_mut().find(|flight| flight.job == job) {
            let (sender, receiver) = channel();
            flight.waiters.push(sender);
            return CacheOutcome::Join(receiver);
        }
        bucket.push(InFlight { job: job.to_vec(), waiters: Vec::new() });
        CacheOutcome::Lead
    }

    /// Publishes a leader's result: caches a success (unless it would
    /// overwrite a certified artifact with an uncertified one), evicts the
    /// LRU entry on overflow, and wakes every joiner *of this exact job*
    /// with the result.
    pub fn complete(&self, key: u64, job: &[u8], result: CacheResult) {
        let waiters = {
            let mut state = self.lock();
            if let Ok(artifact) = &result {
                state.tick += 1;
                let tick = state.tick;
                let bucket = state.entries.entry(key).or_default();
                match bucket.iter_mut().find(|entry| entry.job == job) {
                    Some(existing) => {
                        // Certified artifacts are never downgraded by an
                        // uncertified recompute.
                        if !existing.artifact.certified_optimal || artifact.certified_optimal {
                            existing.artifact = Arc::clone(artifact);
                        }
                        existing.last_used = tick;
                    }
                    None => {
                        bucket.push(Entry {
                            job: job.to_vec(),
                            artifact: Arc::clone(artifact),
                            last_used: tick,
                        });
                        state.len += 1;
                    }
                }
                while state.len > self.capacity {
                    let Some((&victim_key, victim_pos)) = state
                        .entries
                        .iter()
                        .flat_map(|(k, bucket)| {
                            bucket.iter().enumerate().map(move |(pos, entry)| {
                                ((k, pos), entry.last_used)
                            })
                        })
                        .min_by_key(|&(_, last_used)| last_used)
                        .map(|((k, pos), _)| (k, pos))
                    else {
                        break;
                    };
                    let bucket = state.entries.get_mut(&victim_key).expect("victim bucket");
                    bucket.remove(victim_pos);
                    if bucket.is_empty() {
                        state.entries.remove(&victim_key);
                    }
                    state.len -= 1;
                }
            }
            let Some(bucket) = state.in_flight.get_mut(&key) else {
                return;
            };
            let Some(pos) = bucket.iter().position(|flight| flight.job == job) else {
                return;
            };
            let flight = bucket.remove(pos);
            if bucket.is_empty() {
                state.in_flight.remove(&key);
            }
            flight.waiters
        };
        for waiter in waiters {
            // A joiner that gave up (deadline) has dropped its receiver;
            // that is its business, not an error here.
            let _ = waiter.send(result.clone());
        }
    }

    /// Cached artifact count (test/diagnostic hook).
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether the cache holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::case_study::derived_fleet_specs;
    use cps_core::DesignedFleet;
    use cps_flexray::FlexRayConfig;
    use cps_sched::AllocatorConfig;

    fn artifact(certified: bool) -> Arc<DesignArtifact> {
        let fleet = DesignedFleet::design(
            derived_fleet_specs(),
            &AllocatorConfig::default(),
            FlexRayConfig::paper_case_study(),
        )
        .unwrap();
        Arc::new(DesignArtifact { fleet: Arc::new(fleet), certified_optimal: certified })
    }

    #[test]
    fn leads_then_hits() {
        let cache = ArtifactCache::new(4);
        assert!(matches!(cache.lookup_or_begin(1, b"job-1", false), CacheOutcome::Lead));
        let built = artifact(true);
        cache.complete(1, b"job-1", Ok(Arc::clone(&built)));
        match cache.lookup_or_begin(1, b"job-1", false) {
            CacheOutcome::Hit(cached) => assert!(Arc::ptr_eq(&cached, &built)),
            _ => panic!("expected a hit after completion"),
        }
    }

    #[test]
    fn colliding_hashes_never_share_an_artifact() {
        // Two *different* jobs with a fabricated identical 64-bit key: the
        // regression the bare-hash cache failed — it served job A's fleet to
        // job B. Full-key verification must treat the collision as a miss.
        let cache = ArtifactCache::new(4);
        let key = 0xDEAD_BEEF_u64;
        assert!(matches!(cache.lookup_or_begin(key, b"job-a", false), CacheOutcome::Lead));
        let artifact_a = artifact(true);
        cache.complete(key, b"job-a", Ok(Arc::clone(&artifact_a)));

        // The colliding job is a miss (Lead), not a wrong-artifact hit.
        match cache.lookup_or_begin(key, b"job-b", false) {
            CacheOutcome::Lead => {}
            CacheOutcome::Hit(_) => panic!("hash collision served the wrong artifact"),
            CacheOutcome::Join(_) => panic!("hash collision joined the wrong computation"),
        }
        let artifact_b = artifact(true);
        cache.complete(key, b"job-b", Ok(Arc::clone(&artifact_b)));
        assert_eq!(cache.len(), 2, "colliding jobs occupy separate bucket slots");

        // Each job now hits its *own* artifact.
        match cache.lookup_or_begin(key, b"job-a", false) {
            CacheOutcome::Hit(cached) => assert!(Arc::ptr_eq(&cached, &artifact_a)),
            _ => panic!("job A lost its artifact"),
        }
        match cache.lookup_or_begin(key, b"job-b", false) {
            CacheOutcome::Hit(cached) => assert!(Arc::ptr_eq(&cached, &artifact_b)),
            _ => panic!("job B lost its artifact"),
        }
    }

    #[test]
    fn colliding_hashes_never_join_anothers_flight() {
        let cache = ArtifactCache::new(4);
        let key = 42;
        assert!(matches!(cache.lookup_or_begin(key, b"job-a", false), CacheOutcome::Lead));
        // A colliding job must lead its own computation, not join A's.
        assert!(matches!(cache.lookup_or_begin(key, b"job-b", false), CacheOutcome::Lead));
        // A genuine duplicate of A still joins A's flight.
        let CacheOutcome::Join(receiver_a) = cache.lookup_or_begin(key, b"job-a", false) else {
            panic!("duplicate of the in-flight job must join");
        };
        // Completing B wakes nobody waiting on A.
        cache.complete(key, b"job-b", Err("b failed".to_string()));
        let built = artifact(true);
        cache.complete(key, b"job-a", Ok(Arc::clone(&built)));
        let joined = receiver_a.recv().unwrap().unwrap();
        assert!(Arc::ptr_eq(&joined, &built), "joiner must receive its own job's artifact");
    }

    #[test]
    fn joiners_receive_the_leaders_result() {
        let cache = ArtifactCache::new(4);
        assert!(matches!(cache.lookup_or_begin(9, b"job", false), CacheOutcome::Lead));
        let CacheOutcome::Join(receiver) = cache.lookup_or_begin(9, b"job", false) else {
            panic!("second lookup must join the in-flight computation");
        };
        let built = artifact(true);
        cache.complete(9, b"job", Ok(Arc::clone(&built)));
        let joined = receiver.recv().unwrap().unwrap();
        assert!(Arc::ptr_eq(&joined, &built));
    }

    #[test]
    fn failed_leads_propagate_and_do_not_cache() {
        let cache = ArtifactCache::new(4);
        assert!(matches!(cache.lookup_or_begin(5, b"job", false), CacheOutcome::Lead));
        let CacheOutcome::Join(receiver) = cache.lookup_or_begin(5, b"job", false) else {
            panic!("expected join");
        };
        cache.complete(5, b"job", Err("design failed".to_string()));
        assert_eq!(receiver.recv().unwrap().unwrap_err(), "design failed");
        assert!(cache.is_empty());
        // The key is computable again — failure did not poison it.
        assert!(matches!(cache.lookup_or_begin(5, b"job", false), CacheOutcome::Lead));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = ArtifactCache::new(2);
        for key in [1, 2] {
            let job = [key as u8];
            assert!(matches!(cache.lookup_or_begin(key, &job, false), CacheOutcome::Lead));
            cache.complete(key, &job, Ok(artifact(true)));
        }
        // Touch key 1 so key 2 is the LRU victim.
        assert!(matches!(cache.lookup_or_begin(1, &[1], false), CacheOutcome::Hit(_)));
        assert!(matches!(cache.lookup_or_begin(3, &[3], false), CacheOutcome::Lead));
        cache.complete(3, &[3], Ok(artifact(true)));
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.lookup_or_begin(1, &[1], false), CacheOutcome::Hit(_)));
        assert!(matches!(cache.lookup_or_begin(2, &[2], false), CacheOutcome::Lead));
        cache.complete(2, &[2], Ok(artifact(true)));
    }

    #[test]
    fn a_peek_miss_begins_no_flight() {
        let cache = ArtifactCache::new(4);
        assert!(cache.lookup(3, b"job", false).is_none());
        // The peek left nothing in flight: the next lookup still leads
        // instead of joining a computation nobody runs.
        assert!(matches!(cache.lookup_or_begin(3, b"job", false), CacheOutcome::Lead));
        let built = artifact(true);
        cache.complete(3, b"job", Ok(Arc::clone(&built)));
        let peeked = cache.lookup(3, b"job", false).expect("a completed job is a peek hit");
        assert!(Arc::ptr_eq(&peeked, &built));
    }

    #[test]
    fn a_colliding_peek_is_a_miss() {
        let cache = ArtifactCache::new(4);
        assert!(matches!(cache.lookup_or_begin(11, b"job-a", false), CacheOutcome::Lead));
        cache.complete(11, b"job-a", Ok(artifact(true)));
        assert!(cache.lookup(11, b"job-b", false).is_none(), "same key, other bytes");
        assert!(cache.lookup(11, b"job-a", false).is_some());
    }

    #[test]
    fn a_peek_misses_an_uncertified_entry_only_when_certification_is_required() {
        let cache = ArtifactCache::new(4);
        assert!(matches!(cache.lookup_or_begin(8, b"eight", false), CacheOutcome::Lead));
        let degraded = artifact(false);
        cache.complete(8, b"eight", Ok(Arc::clone(&degraded)));
        assert!(cache.lookup(8, b"eight", true).is_none());
        let peeked = cache.lookup(8, b"eight", false).expect("uncertified is a plain hit");
        assert!(Arc::ptr_eq(&peeked, &degraded));
    }

    #[test]
    fn a_peek_hit_refreshes_the_lru() {
        let cache = ArtifactCache::new(2);
        for key in [1, 2] {
            let job = [key as u8];
            assert!(matches!(cache.lookup_or_begin(key, &job, false), CacheOutcome::Lead));
            cache.complete(key, &job, Ok(artifact(true)));
        }
        // Peeking key 1 makes key 2 the coldest entry, so it is evicted.
        assert!(cache.lookup(1, &[1], false).is_some());
        assert!(matches!(cache.lookup_or_begin(3, &[3], false), CacheOutcome::Lead));
        cache.complete(3, &[3], Ok(artifact(true)));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(1, &[1], false).is_some(), "the peeked entry survives");
        assert!(cache.lookup(2, &[2], false).is_none(), "the cold entry is evicted");
    }

    #[test]
    fn certified_entries_survive_uncertified_completions() {
        let cache = ArtifactCache::new(4);
        assert!(matches!(cache.lookup_or_begin(7, b"seven", false), CacheOutcome::Lead));
        let certified = artifact(true);
        cache.complete(7, b"seven", Ok(Arc::clone(&certified)));
        // A later degraded computation of the same key must not downgrade it.
        assert!(matches!(cache.lookup_or_begin(7, b"seven", true), CacheOutcome::Hit(_)));
        assert!(matches!(cache.lookup_or_begin(8, b"eight", false), CacheOutcome::Lead));
        cache.complete(8, b"eight", Ok(artifact(false)));
        cache.complete(7, b"seven", Ok(artifact(false)));
        match cache.lookup_or_begin(7, b"seven", false) {
            CacheOutcome::Hit(cached) => assert!(cached.certified_optimal),
            _ => panic!("certified artifact must survive"),
        }
        // require_certified treats the uncertified key 8 as a miss.
        assert!(matches!(cache.lookup_or_begin(8, b"eight", true), CacheOutcome::Lead));
        cache.complete(8, b"eight", Ok(artifact(true)));
        assert!(matches!(cache.lookup_or_begin(8, b"eight", true), CacheOutcome::Hit(_)));
    }
}
