//! The shared compiled-template cache and per-program warm machine pools.
//!
//! Tenants upload program *text*; the cache parses it, **normalizes** it
//! (canonical clause/directive printing — whitespace, comments and variable
//! spelling disappear) and keys the entry by the full normalized text. Two
//! tenants uploading the same program — however differently formatted —
//! share one [`ProgramEntry`]: one parse, one template compilation, one
//! machine pool. A modified program normalizes differently and *cannot* get
//! a stale entry, because the key is the program's entire content, not a
//! file path, an mtime, or a truncated digest (the 64-bit FNV hash exposed
//! as [`ProgramEntry::hash`] is a display id, never the lookup key).
//!
//! The cache is one map from that text to the entry and the tick of its
//! last load: a hit restamps it, and a miss into a full cache scans the
//! stamps and evicts the smallest, the least recently loaded entry.
//!
//! Machines are recycled through a bounded per-entry free-list. A machine
//! whose last query pushed its arena high-water mark past the pool's
//! retirement threshold is dropped instead of pooled, returning its arena
//! to the allocator — the pool stays warm without slowly accreting the
//! largest arena any tenant ever needed.
//!
//! # Quarantine
//!
//! A machine whose query **panicked** (or hit an injected fault) is
//! *quarantined*: dropped on the spot, never pooled, counted in the cache's
//! [`CacheStats::quarantined`] gauge. Each quarantine also bumps the
//! entry's **pool generation**; pooled machines remember the generation
//! they were parked under, and a checkout discards any machine from an
//! older generation rather than hand it out. A fresh machine replaces it —
//! correctness never depends on trusting state that shared an entry with a
//! panic.

use crate::ServeError;
use granlog_datalog::{CompiledDatalog, Database, DatalogError};
use granlog_engine::{Image, Machine, MachineConfig};
use granlog_ir::parser::parse_program;
use granlog_ir::Program;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Machine-pool policy of one cache (applied per program entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Maximum machines kept warm per program entry.
    pub max_pooled: usize,
    /// Retirement threshold: a machine whose last query's arena high-water
    /// mark exceeds this many cells is dropped instead of pooled.
    pub retire_heap_cells: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            max_pooled: 16,
            // 1M cells ≈ 16 MiB of arena: plenty for every benchmark
            // program at default sizes, small enough that one outlier query
            // cannot park hundreds of megabytes in the pool.
            retire_heap_cells: 1 << 20,
        }
    }
}

/// Machine-pool gauges shared by a cache and every entry it creates, so the
/// server's `stats` line aggregates across programs.
#[derive(Debug, Default)]
pub(crate) struct PoolCounters {
    /// Machines dropped because their query panicked or hit an injected
    /// fault. Monotonic; any growth is a fault-isolation event.
    pub(crate) quarantined: AtomicU64,
    /// Machines dropped by the arena high-water retirement policy (routine
    /// hygiene, not a fault).
    pub(crate) retired: AtomicU64,
    /// Leases checked out and not yet returned. Quiescent servers must read
    /// 0 here: a stuck positive value is a leaked lease.
    pub(crate) leases_active: AtomicU64,
}

/// A parked machine tagged with the pool generation it was parked under.
/// Checkouts discard machines from generations older than the entry's
/// current one (a quarantine happened since they were pooled).
struct PooledMachine {
    machine: Machine,
    generation: u64,
}

/// One cached program: its parsed form, compiled image and warm machine
/// pool, shared as an `Arc` across every session that loaded the same
/// (normalized) program text.
pub struct ProgramEntry {
    machines: Mutex<Vec<PooledMachine>>,
    /// Bumped on every quarantine; stale-generation pooled machines are
    /// discarded at checkout instead of handed out.
    generation: AtomicU64,
    counters: Arc<PoolCounters>,
    hash: u64,
    pool: PoolConfig,
    machine_config: MachineConfig,
    /// What every machine of the entry runs, owned by the machines that
    /// share it, so a lease outlives an eviction. Compiled on the first
    /// lease, not at `load`: an entry that is journaled, replayed at boot or
    /// evicted without ever being queried never pays for it.
    image: OnceLock<Arc<Image>>,
    /// The evaluated fact database, shared by every bottom-up session of
    /// this program, or its rejection from the Datalog subset (compilation
    /// crosses no failpoint, so a rejection is final). The join plans are
    /// dropped once evaluated. An injected fault leaves the slot empty.
    datalog: Mutex<Option<Result<Arc<Database>, DatalogError>>>,
    /// Shared with the cache's key, so the text is held once.
    normalized: Arc<str>,
    program: Program,
}

impl ProgramEntry {
    /// FNV-1a hash of the normalized program text: a stable display id for
    /// logs and the wire protocol (lookups use the full text).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The normalized program text this entry is cached under. This is the
    /// durable store's key too: journaling by the full normalized text means
    /// recovery dedups exactly like the live cache, never by hash.
    pub fn normalized_text(&self) -> &str {
        &self.normalized
    }

    /// Number of clauses in the program.
    pub fn clause_count(&self) -> usize {
        self.program.clauses().len()
    }

    /// The parsed program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The bottom-up fact database of this program: on first use compiles
    /// the join plans and runs the stratified semi-naive fixpoint once,
    /// then shares the evaluated [`Database`] across every bottom-up
    /// session of this entry.
    ///
    /// No machine lease is involved: bottom-up evaluation owns its own
    /// relations, so a failure here can never quarantine a pooled machine.
    ///
    /// # Errors
    ///
    /// [`DatalogError`] when the program is outside the Datalog subset,
    /// not stratified, or unsafe — deterministic, so the rejection is
    /// cached — or when an armed `datalog.*` failpoint fails the fixpoint
    /// (fault-injection builds only; *not* cached, the next query retries).
    pub fn datalog(&self) -> Result<Arc<Database>, DatalogError> {
        // The lock is held across the evaluation on purpose: racing
        // sessions would otherwise each run the whole fixpoint only for
        // all but one result to be dropped.
        let mut slot = self.datalog.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(cached) = slot.as_ref() {
            return cached.clone();
        }
        let result = match CompiledDatalog::compile(&self.program) {
            Ok(plans) => Ok(Arc::new(plans.evaluate()?)),
            Err(rejection) => Err(rejection),
        };
        *slot = Some(result.clone());
        result
    }

    /// The compiled image, built on first use.
    fn image(&self) -> &Arc<Image> {
        self.image.get_or_init(|| Image::new(&self.program))
    }

    /// Takes a machine for this program — warm from the pool when one is
    /// parked, freshly built over the shared image otherwise. The lease
    /// returns (or retires) the machine on drop.
    ///
    /// # Errors
    ///
    /// [`ServeError::Fault`] when the `serve.lease` failpoint is armed and
    /// fires (fault-injection builds only).
    pub(crate) fn lease(self: &Arc<Self>) -> Result<MachineLease, ServeError> {
        granlog_fault::fail_or("serve.lease", || ServeError::Fault("serve.lease"))?;
        let generation = self.generation.load(Ordering::Relaxed);
        let pooled = {
            let mut pool = lock_pool(&self.machines);
            // Discard parked machines from before the latest quarantine:
            // they shared an entry with a panic and are not trusted.
            loop {
                match pool.pop() {
                    Some(parked) if parked.generation == generation => {
                        break Some(parked.machine);
                    }
                    Some(_stale) => continue,
                    None => break None,
                }
            }
        };
        let machine = pooled
            .unwrap_or_else(|| Machine::from_image(Arc::clone(self.image()), self.machine_config));
        self.counters.leases_active.fetch_add(1, Ordering::Relaxed);
        Ok(MachineLease {
            machine: Some(machine),
            generation,
            quarantined: false,
            entry: Arc::clone(self),
        })
    }
}

/// Locks a machine pool, recovering from poison: the pool holds plain data
/// (a panic can never leave a `Vec` of machines half-updated in a way that
/// matters — a machine is either in it or not), so the conservative response
/// to a poisoned lock is to keep serving, not to propagate the panic to
/// every other tenant.
fn lock_pool(pool: &Mutex<Vec<PooledMachine>>) -> std::sync::MutexGuard<'_, Vec<PooledMachine>> {
    pool.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A leased machine: RAII over the pool. Dropping the lease parks the
/// machine back in its entry's pool — unless its last query's arena
/// high-water mark crossed the retirement threshold (the machine and its
/// grown arena are dropped), the lease was [quarantined](Self::quarantine),
/// or the thread is panic-unwinding, in which cases the machine never
/// re-enters the pool.
pub(crate) struct MachineLease {
    machine: Option<Machine>,
    /// The entry's pool generation at checkout; parking back under a newer
    /// generation retires the machine instead.
    generation: u64,
    quarantined: bool,
    entry: Arc<ProgramEntry>,
}

impl MachineLease {
    pub(crate) fn machine(&mut self) -> &mut Machine {
        self.machine.as_mut().expect("machine present until drop")
    }

    /// Marks this lease's machine as untrusted: its query panicked (caught
    /// by the session) or an injected fault left its state suspect. The
    /// machine is dropped instead of pooled, and the entry's pool
    /// generation bumps so machines pooled before this event are discarded
    /// at their next checkout.
    pub(crate) fn quarantine(&mut self) {
        self.quarantined = true;
    }
}

impl Drop for MachineLease {
    fn drop(&mut self) {
        let counters = &self.entry.counters;
        counters.leases_active.fetch_sub(1, Ordering::Relaxed);
        let machine = self.machine.take().expect("machine present until drop");
        // A panic unwinding through the session quarantines implicitly:
        // machine state at an arbitrary panic point is not pool material.
        if self.quarantined || std::thread::panicking() {
            counters.quarantined.fetch_add(1, Ordering::Relaxed);
            self.entry.generation.fetch_add(1, Ordering::Relaxed);
            return; // drop the machine, never pool it
        }
        if machine.stats().heap_high_water > self.entry.pool.retire_heap_cells {
            counters.retired.fetch_add(1, Ordering::Relaxed);
            return; // retire: free the grown arena with the machine
        }
        // A quarantine elsewhere since checkout retires this machine too —
        // its generation is stale by definition, the checkout path would
        // discard it anyway.
        let generation = self.entry.generation.load(Ordering::Relaxed);
        if generation != self.generation {
            counters.retired.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut pool = lock_pool(&self.entry.machines);
        if pool.len() < self.entry.pool.max_pooled {
            pool.push(PooledMachine {
                machine,
                generation,
            });
        }
    }
}

/// Cache hit/miss/eviction counters plus the current entry count and the
/// machine-pool health gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Loads answered by an existing entry.
    pub hits: u64,
    /// Loads that parsed and compiled a new entry.
    pub misses: u64,
    /// Entries evicted by the LRU capacity bound.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Machines quarantined after a panic or injected fault (across all
    /// entries; monotonic).
    pub quarantined: u64,
    /// Machines retired by the arena high-water policy (monotonic).
    pub retired: u64,
    /// Leases currently checked out. On a quiescent server this is 0; a
    /// stuck positive value is a leaked lease.
    pub leases_active: u64,
}

struct CacheInner {
    /// Normalized program text → entry and the tick of its last load. The
    /// *full* text is the key: correctness never rests on a hash not
    /// colliding.
    entries: HashMap<Arc<str>, (Arc<ProgramEntry>, u64)>,
    /// Hits and inserts so far: the stamp of the latest load.
    tick: u64,
}

/// The compiled-template cache: bounded, LRU-evicted, shared across every
/// session of a server. See the module docs for the keying discipline.
pub struct TemplateCache {
    capacity: usize,
    machine_config: MachineConfig,
    pool: PoolConfig,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Shared with every entry this cache creates, so pool gauges aggregate
    /// across programs.
    counters: Arc<PoolCounters>,
}

impl TemplateCache {
    /// Creates a cache holding at most `capacity` compiled programs, whose
    /// leased machines run under `machine_config` and pool under `pool`.
    pub fn new(capacity: usize, machine_config: MachineConfig, pool: PoolConfig) -> Self {
        TemplateCache {
            capacity: capacity.max(1),
            machine_config,
            pool,
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            counters: Arc::new(PoolCounters::default()),
        }
    }

    /// Loads program text: parse, normalize, and either return the shared
    /// entry for identical normalized text (a *hit* — second element
    /// `true`) or compile and cache a new entry (a *miss* — `false`),
    /// evicting the least-recently-used entry past capacity. Evicted
    /// entries stay alive for sessions still holding their `Arc`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Parse`] for malformed program text;
    /// [`ServeError::Fault`] when the `serve.cache.insert` or
    /// `serve.cache.evict` failpoint fires (fault-injection builds only).
    /// An injected cache fault is evaluated *before* any cache state
    /// mutates, so a failed load leaves the cache exactly as it was.
    pub fn load(&self, source: &str) -> Result<(Arc<ProgramEntry>, bool), ServeError> {
        let program = parse_program(source)?;
        let normalized = normalize(&program);
        let mut guard = self.lock_inner();
        let inner = &mut *guard;
        if let Some((entry, last_load)) = inner.entries.get_mut(normalized.as_str()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            inner.tick += 1;
            *last_load = inner.tick;
            return Ok((Arc::clone(entry), true));
        }
        // Both cache failpoints sit before any state update: injection can
        // fail the *operation*, never leave it half done.
        let full = inner.entries.len() >= self.capacity;
        if full {
            granlog_fault::fail_or("serve.cache.evict", || {
                ServeError::Fault("serve.cache.evict")
            })?;
        }
        granlog_fault::fail_or("serve.cache.insert", || {
            ServeError::Fault("serve.cache.insert")
        })?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        if full {
            let coldest = inner.entries.iter().min_by_key(|(_, (_, at))| *at);
            if let Some(coldest) = coldest.map(|(key, _)| Arc::clone(key)) {
                inner.entries.remove(&coldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let normalized: Arc<str> = normalized.into();
        let entry = Arc::new(ProgramEntry {
            machines: Mutex::new(Vec::new()),
            generation: AtomicU64::new(0),
            counters: Arc::clone(&self.counters),
            hash: fnv64(normalized.as_bytes()),
            pool: self.pool,
            machine_config: self.machine_config,
            image: OnceLock::new(),
            datalog: Mutex::new(None),
            normalized: Arc::clone(&normalized),
            program,
        });
        inner.tick += 1;
        inner
            .entries
            .insert(normalized, (Arc::clone(&entry), inner.tick));
        Ok((entry, false))
    }

    /// Current counters, entry count and pool gauges.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.lock_inner().entries.len(),
            quarantined: self.counters.quarantined.load(Ordering::Relaxed),
            retired: self.counters.retired.load(Ordering::Relaxed),
            leases_active: self.counters.leases_active.load(Ordering::Relaxed),
        }
    }

    /// Locks the cache map, recovering from poison: each load updates one
    /// map, and a stamp it left unwritten can at worst make an entry look
    /// colder than it is, never corrupt a lookup.
    fn lock_inner(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The canonical text of a parsed program: every directive and every clause
/// printed one per line. Clause terms print *without* their source name
/// table, so variables render as `_N` by first-occurrence id — whitespace,
/// comments and variable spelling all disappear, while any semantic change
/// (clauses, their order, directives) changes the text.
fn normalize(program: &Program) -> String {
    let mut out = String::new();
    for directive in program.directives() {
        let _ = writeln!(out, "{directive:?}");
    }
    for clause in program.clauses() {
        let _ = writeln!(out, "{} :- {}", clause.head, clause.body);
    }
    out
}

/// FNV-1a, 64-bit: the display hash of a normalized program.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const APPEND: &str = r#"
        append([], L, L).
        append([H|T], L, [H|R]) :- append(T, L, R).
    "#;

    fn cache(capacity: usize) -> TemplateCache {
        TemplateCache::new(capacity, MachineConfig::default(), PoolConfig::default())
    }

    /// Number of machines currently parked in the entry's pool.
    fn pooled_machines(entry: &ProgramEntry) -> usize {
        lock_pool(&entry.machines).len()
    }

    #[test]
    fn identical_programs_share_one_entry() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let cache = cache(8);
        let (a, hit_a) = cache.load(APPEND).unwrap();
        // Different whitespace, a comment, different variable names: the
        // normalized text is identical, so the entry must be shared.
        let reformatted = "append([],Q,Q).  % base\nappend([X|Xs],Q,[X|R]):-append(Xs,Q,R).";
        let (b, hit_b) = cache.load(reformatted).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b), "tenants must share one Arc");
        assert_eq!(a.hash(), b.hash());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn modified_programs_never_reuse_stale_templates() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let cache = cache(8);
        let (a, _) = cache.load(APPEND).unwrap();
        // One clause changed: must be a distinct entry with distinct
        // templates, not a stale hit.
        let modified = APPEND.replace("append([], L, L).", "append([], _, []).");
        let (b, hit) = cache.load(&modified).unwrap();
        assert!(!hit);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn directives_are_part_of_the_key() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let cache = cache(8);
        let (a, _) = cache.load(APPEND).unwrap();
        let with_mode = format!(":- mode append(+, +, -).\n{APPEND}");
        let (b, hit) = cache.load(&with_mode).unwrap();
        assert!(!hit);
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn lru_eviction_counts_and_evicts_the_coldest() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let cache = cache(2);
        cache.load("p(1).").unwrap();
        cache.load("q(1).").unwrap();
        // Touch p so q becomes the coldest.
        cache.load("p(1).").unwrap();
        cache.load("r(1).").unwrap();
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        // p survived (hit); q was evicted (miss again).
        let (_, p_hit) = cache.load("p(1).").unwrap();
        assert!(p_hit);
        let (_, q_hit) = cache.load("q(1).").unwrap();
        assert!(!q_hit);
    }

    /// The cache against a reference LRU list (front = coldest) over a
    /// seeded stream of loads: every hit flag and the final counters agree.
    #[test]
    fn loads_hit_and_evict_exactly_as_an_lru_list_does() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        const CAPACITY: usize = 3;
        let cache = cache(CAPACITY);
        let programs: Vec<String> = (0..8)
            .map(|i| format!("p{i}(a).\nq(X) :- p{i}(X)."))
            .collect();
        let mut lru: Vec<usize> = Vec::new();
        let (mut hits, mut misses, mut evictions) = (0, 0, 0);
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        for step in 0..2_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Half the loads come from a hot set the size of the cache.
            let pick = (state >> 1) as usize;
            let i = if state & 1 == 0 {
                pick % CAPACITY
            } else {
                pick % 8
            };
            let (_, hit) = cache.load(&programs[i]).unwrap();
            let expected = match lru.iter().position(|&k| k == i) {
                Some(at) => {
                    lru.remove(at);
                    hits += 1;
                    true
                }
                None => {
                    misses += 1;
                    if lru.len() == CAPACITY {
                        lru.remove(0);
                        evictions += 1;
                    }
                    false
                }
            };
            lru.push(i);
            assert_eq!(hit, expected, "load {step} of p{i}");
        }
        assert!(
            hits > 0 && evictions > 0,
            "{hits} hits, {evictions} evictions"
        );
        let stats = cache.stats();
        let expected = (hits, misses, evictions, lru.len());
        assert_eq!(
            (stats.hits, stats.misses, stats.evictions, stats.entries),
            expected
        );
    }

    #[test]
    fn a_lease_outlives_its_evicted_entry_and_the_image_is_freed_with_it() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let cache = cache(1);
        let (entry, _) = cache.load(APPEND).unwrap();
        // One tenant is mid-query ...
        let mut lease = entry.lease().unwrap();
        let image = Arc::downgrade(entry.image());
        drop(entry);
        // ... when another's program takes the cache's only slot.
        cache.load("p(1).").unwrap();
        assert_eq!((cache.stats().evictions, cache.stats().entries), (1, 1));
        let out = lease.machine().run_query("append(X, [3], [1, 2, 3])");
        assert_eq!(out.unwrap().binding("X").unwrap().to_string(), "[1,2]");
        // The lease is the last owner of the evicted entry, its pool and its
        // image: returning the machine frees all three.
        assert_eq!(image.strong_count(), 2, "the entry and the leased machine");
        drop(lease);
        assert_eq!(image.strong_count(), 0);
        assert_eq!(cache.stats().leases_active, 0);
    }

    #[test]
    fn leases_pool_and_retire_machines() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let cache = TemplateCache::new(
            4,
            MachineConfig::default(),
            PoolConfig {
                max_pooled: 2,
                retire_heap_cells: 200,
            },
        );
        let src = r#"
            build(0, []).
            build(N, [N|T]) :- N > 0, N1 is N - 1, build(N1, T).
        "#;
        let (entry, _) = cache.load(src).unwrap();
        {
            let mut lease = entry.lease().unwrap();
            let out = lease.machine().run_query("build(3, L)").unwrap();
            assert!(out.succeeded);
        }
        assert_eq!(pooled_machines(&entry), 1, "small query pools its machine");
        {
            let mut lease = entry.lease().unwrap();
            let out = lease.machine().run_query("build(200, L)").unwrap();
            assert!(out.succeeded);
        }
        assert_eq!(
            pooled_machines(&entry),
            0,
            "a query past the high-water threshold retires its machine"
        );
        let stats = cache.stats();
        assert_eq!(stats.retired, 1);
        assert_eq!(stats.leases_active, 0);
    }

    #[test]
    fn quarantined_machines_never_reenter_the_pool() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let cache = cache(4);
        let (entry, _) = cache.load(APPEND).unwrap();
        {
            let mut lease = entry.lease().unwrap();
            lease.machine().run_query("append([1], [2], X)").unwrap();
            lease.quarantine();
        }
        assert_eq!(pooled_machines(&entry), 0, "quarantined machine dropped");
        assert_eq!(cache.stats().quarantined, 1);
        assert_eq!(entry.generation.load(Ordering::Relaxed), 1);
        // A fresh lease works fine and pools normally under the new
        // generation.
        {
            let mut lease = entry.lease().unwrap();
            let out = lease.machine().run_query("append([1], [2], X)").unwrap();
            assert!(out.succeeded);
        }
        assert_eq!(pooled_machines(&entry), 1);
        assert_eq!(cache.stats().leases_active, 0);
    }

    #[test]
    fn quarantine_flushes_machines_pooled_under_the_old_generation() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let cache = cache(4);
        let (entry, _) = cache.load(APPEND).unwrap();
        // Park two machines under generation 0.
        {
            let _a = entry.lease().unwrap();
            let _b = entry.lease().unwrap();
        }
        assert_eq!(pooled_machines(&entry), 2);
        // Quarantine a third: generation bumps, the two parked machines are
        // now stale.
        {
            let mut lease = entry.lease().unwrap();
            lease.quarantine();
        }
        // The next checkout discards both stale machines and builds fresh.
        {
            let mut lease = entry.lease().unwrap();
            let out = lease.machine().run_query("append([], [], X)").unwrap();
            assert!(out.succeeded);
        }
        assert_eq!(
            pooled_machines(&entry),
            1,
            "only the fresh machine (new generation) is pooled"
        );
    }

    #[test]
    fn a_panicking_query_quarantines_implicitly() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let cache = cache(4);
        let (entry, _) = cache.load(APPEND).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _lease = entry.lease().unwrap();
            panic!("boom mid-query");
        }));
        assert!(result.is_err());
        assert_eq!(
            pooled_machines(&entry),
            0,
            "a machine unwound through a panic must not be pooled"
        );
        assert_eq!(cache.stats().quarantined, 1);
        assert_eq!(cache.stats().leases_active, 0);
    }

    #[test]
    fn parse_errors_surface() {
        #[cfg(feature = "failpoints")]
        let _shared = crate::faultsync::shared();
        let cache = cache(2);
        assert!(cache.load("p(1").is_err());
        assert_eq!(cache.stats().entries, 0);
    }
}
