//! The persistent compile cache: content-addressed `CompiledVProg`
//! snapshots under `--cache-dir`.
//!
//! A snapshot file holds everything needed to re-admit one kernel
//! without running the compile pipeline: the canonical `.fv` source (so
//! hash-only requests resolve after a restart), the speculation request,
//! and the serialized bytecode. Files are named
//! `{program_hash:016x}.{ff|rtmTILE}.fvc`, written atomically
//! (temp-file + rename), and validated on load against four gates, in
//! order:
//!
//! 1. **magic + format epoch** — a snapshot from a different layout is
//!    rejected before anything is parsed;
//! 2. **build git hash** — compiled bytecode is only trusted from the
//!    exact build that wrote it (the vectorizer or encoder may have
//!    changed in any other build);
//! 3. **FNV-1a checksum** over the entire prefix — truncation and bit
//!    rot are caught without trusting any length field;
//! 4. **content re-derivation** — the embedded source is re-parsed and
//!    re-vectorized, its hash must equal both the filename and the
//!    header, and the payload is decoded with full bounds validation
//!    ([`flexvec_vm::deserialize_compiled`]) against the register-file
//!    sizes the executor will actually allocate.
//!
//! A snapshot failing *any* gate is treated as absent: the kernel
//! recompiles from source and the stale file is overwritten. Corrupt
//! snapshots are never trusted and never panic the daemon. The same
//! gates guard snapshots **pulled from cluster peers**
//! ([`SnapshotStore::admit_pulled`]) — a shipped artifact is validated
//! exactly like a local file before it is executed or persisted, and
//! each gate failure is counted per reason
//! (`flexvec_snapshot_reject_total{reason=...}`).
//!
//! The store is optionally bounded (`--cache-dir-max-bytes`): every
//! write sweeps oldest-generation snapshots until the directory fits,
//! emitting a structured `snapshot_evicted` log line per removal, so
//! replication can never fill a disk.

use std::collections::HashMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use flexvec::{analyze, vectorize, SpecRequest};
use flexvec_front::{parse_str, CompiledKernel, CompiledPlan, ParsedKernel};
use flexvec_vm::{deserialize_compiled, serialize_compiled, SerialLimits, SERIAL_VERSION};

/// Magic bytes opening every snapshot file.
const MAGIC: &[u8; 8] = b"FVSNAP01";

/// Snapshot layout epoch. Bumped when the header layout changes;
/// the payload layout is versioned separately by
/// [`SERIAL_VERSION`] (mixed into the epoch gate below so either bump
/// invalidates old files).
pub const SNAPSHOT_EPOCH: u32 = 1;

/// The git hash this build stamps into (and demands from) snapshots.
fn build_git_hash() -> &'static str {
    env!("FLEXVEC_GIT_HASH")
}

/// The epoch word stamped into snapshot headers (layout epoch × 256 +
/// payload serial version). Exposed so gossip manifests can carry it.
pub fn epoch_word() -> u32 {
    SNAPSHOT_EPOCH
        .wrapping_mul(0x0100)
        .wrapping_add(SERIAL_VERSION)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why a snapshot failed validation. Each reason maps to one labeled
/// `flexvec_snapshot_reject_total{reason=...}` series so an operator
/// can tell bit rot (`checksum`) from a stale build (`git_hash`) from a
/// tampered or stale artifact caught by re-derivation (`rederive`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Wrong magic bytes: not a snapshot file at all.
    Magic,
    /// Layout epoch or payload serial version mismatch.
    Epoch,
    /// Written by a different build of this crate.
    GitHash,
    /// FNV-1a checksum mismatch: truncation or bit rot.
    Checksum,
    /// Malformed structure (short read, bad field, trailing bytes).
    Structure,
    /// Header hash disagrees with the hash the caller asked for.
    HashMismatch,
    /// Snapshot is for a different speculation request.
    SpecMismatch,
    /// Embedded source no longer parses/hashes/vectorizes to the same
    /// artifact under this build (gate 4, content re-derivation).
    Rederive,
    /// Serialized bytecode failed bounds validation.
    Payload,
}

impl RejectReason {
    /// Every reason, in metric-rendering order.
    pub const ALL: [RejectReason; 9] = [
        RejectReason::Magic,
        RejectReason::Epoch,
        RejectReason::GitHash,
        RejectReason::Checksum,
        RejectReason::Structure,
        RejectReason::HashMismatch,
        RejectReason::SpecMismatch,
        RejectReason::Rederive,
        RejectReason::Payload,
    ];

    /// The `reason` label value.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::Magic => "magic",
            RejectReason::Epoch => "epoch",
            RejectReason::GitHash => "git_hash",
            RejectReason::Checksum => "checksum",
            RejectReason::Structure => "structure",
            RejectReason::HashMismatch => "hash_mismatch",
            RejectReason::SpecMismatch => "spec_mismatch",
            RejectReason::Rederive => "rederive",
            RejectReason::Payload => "payload",
        }
    }

    /// The full labeled series name for `/metrics`.
    pub fn metric_name(self) -> &'static str {
        match self {
            RejectReason::Magic => "flexvec_snapshot_reject_total{reason=\"magic\"}",
            RejectReason::Epoch => "flexvec_snapshot_reject_total{reason=\"epoch\"}",
            RejectReason::GitHash => "flexvec_snapshot_reject_total{reason=\"git_hash\"}",
            RejectReason::Checksum => "flexvec_snapshot_reject_total{reason=\"checksum\"}",
            RejectReason::Structure => "flexvec_snapshot_reject_total{reason=\"structure\"}",
            RejectReason::HashMismatch => "flexvec_snapshot_reject_total{reason=\"hash_mismatch\"}",
            RejectReason::SpecMismatch => "flexvec_snapshot_reject_total{reason=\"spec_mismatch\"}",
            RejectReason::Rederive => "flexvec_snapshot_reject_total{reason=\"rederive\"}",
            RejectReason::Payload => "flexvec_snapshot_reject_total{reason=\"payload\"}",
        }
    }

    fn index(self) -> usize {
        RejectReason::ALL
            .iter()
            .position(|r| *r == self)
            .unwrap_or(0)
    }
}

/// Counters the daemon exports as `flexvec_snapshot_*_total`.
#[derive(Debug, Default)]
pub struct SnapshotCounters {
    /// Snapshots loaded from local disk, validated, and admitted.
    pub restored: AtomicU64,
    /// Snapshot files that existed but failed a validation gate.
    pub rejected: AtomicU64,
    /// Snapshots written (local compiles persisted).
    pub written: AtomicU64,
    /// Snapshots pulled from a cluster peer, validated, and admitted.
    pub pulled: AtomicU64,
    /// Snapshots evicted by the store size bound or distributed GC.
    pub evicted: AtomicU64,
    /// Per-reason rejection counts, indexed by [`RejectReason::ALL`].
    reasons: [AtomicU64; 9],
}

impl SnapshotCounters {
    fn note_reject(&self, reason: RejectReason) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        self.reasons[reason.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// How many rejections were attributed to `reason`.
    pub fn reject_count(&self, reason: RejectReason) -> u64 {
        self.reasons[reason.index()].load(Ordering::Relaxed)
    }
}

/// One manifest entry gossiped to ring peers: enough to decide whether
/// a pull is worthwhile (epoch/checksum must match what the puller
/// would accept) without shipping any payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// The kernel's stable AST hash (snapshot filename stem).
    pub hash: u64,
    /// The speculation request the snapshot was compiled under.
    pub spec: SpecRequest,
    /// The epoch word stamped in the file header.
    pub epoch: u32,
    /// The FNV-1a checksum from the file tail.
    pub checksum: u64,
    /// The store generation of the last write/restore touch — a
    /// monotonic per-store clock, *not* wall time.
    pub generation: u64,
    /// Whether the kernel is currently resident in this node's
    /// in-memory `ShardedCache` (drives distributed aging).
    pub in_memory: bool,
}

/// Per-file bookkeeping for the size bound and manifest generations.
#[derive(Debug, Default)]
struct StoreState {
    /// Monotonic touch clock; bumped on every write and restore.
    generation: u64,
    /// filename → (bytes on disk, last-touch generation).
    files: HashMap<String, (u64, u64)>,
}

/// A directory of validated kernel snapshots.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    /// Optional byte bound on the directory; writes sweep
    /// oldest-generation files until the store fits.
    max_bytes: Option<u64>,
    state: Mutex<StoreState>,
    /// Restore/reject/write/pull/evict counters (shared with
    /// `/metrics`).
    pub counters: SnapshotCounters,
}

impl SnapshotStore {
    /// Opens (creating if needed) the snapshot directory, unbounded.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure — an unusable cache
    /// directory is a startup error, not something to limp past.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<SnapshotStore> {
        Self::open_bounded(dir, None)
    }

    /// Opens the snapshot directory with an optional size bound.
    /// Pre-existing `.fvc` files are inventoried (oldest mtime = oldest
    /// generation) so the bound covers snapshots from earlier
    /// lifetimes too.
    ///
    /// # Errors
    ///
    /// Propagates the `create_dir_all` failure.
    pub fn open_bounded(
        dir: impl Into<PathBuf>,
        max_bytes: Option<u64>,
    ) -> std::io::Result<SnapshotStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut existing: Vec<(String, u64, std::time::SystemTime)> = Vec::new();
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if !name.ends_with(".fvc") {
                    continue;
                }
                let Ok(meta) = entry.metadata() else { continue };
                let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                existing.push((name.to_owned(), meta.len(), mtime));
            }
        }
        existing.sort_by_key(|a| a.2);
        let mut state = StoreState::default();
        for (name, size, _) in existing {
            state.generation += 1;
            let generation = state.generation;
            state.files.insert(name, (size, generation));
        }
        let store = SnapshotStore {
            dir,
            max_bytes,
            state: Mutex::new(state),
            counters: SnapshotCounters::default(),
        };
        store.sweep_to_bound();
        Ok(store)
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured size bound, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// The filename tag for one speculation request (`ff` / `rtmTILE`).
    pub fn spec_tag(spec: SpecRequest) -> String {
        match spec {
            SpecRequest::Auto => "ff".to_owned(),
            SpecRequest::Rtm { tile } => format!("rtm{tile}"),
        }
    }

    /// Parses a [`SnapshotStore::spec_tag`] back into a request — how
    /// gossip manifests round-trip specs over the wire.
    pub fn parse_spec_tag(tag: &str) -> Option<SpecRequest> {
        if tag == "ff" {
            return Some(SpecRequest::Auto);
        }
        let tile = tag.strip_prefix("rtm")?.parse().ok()?;
        Some(SpecRequest::Rtm { tile })
    }

    fn file_name(program_hash: u64, spec: SpecRequest) -> String {
        format!("{program_hash:016x}.{}.fvc", Self::spec_tag(spec))
    }

    /// The snapshot path for one (kernel, spec) pair.
    pub fn path_for(&self, program_hash: u64, spec: SpecRequest) -> PathBuf {
        self.dir.join(Self::file_name(program_hash, spec))
    }

    /// Whether a snapshot file exists for `(program_hash, spec)` — a
    /// path probe only, no validation. Anti-entropy sync uses this to
    /// skip pulling what is already on disk.
    pub fn has_snapshot(&self, program_hash: u64, spec: SpecRequest) -> bool {
        self.path_for(program_hash, spec).exists()
    }

    /// Serializes `kernel` (which must carry an `Ok` plan — rejected
    /// kernels are cheap to re-derive and are not persisted) together
    /// with its canonical source. Write failures are reported but not
    /// fatal to the caller: the daemon keeps serving from memory.
    pub fn save(&self, source: &str, spec: SpecRequest, kernel: &CompiledKernel) {
        let Ok(plan) = &kernel.plan else {
            return;
        };
        let payload = serialize_compiled(&plan.compiled);
        let mut buf = Vec::with_capacity(128 + source.len() + payload.len());
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&epoch_word().to_le_bytes());
        let git = build_git_hash().as_bytes();
        buf.extend_from_slice(&(git.len() as u32).to_le_bytes());
        buf.extend_from_slice(git);
        buf.extend_from_slice(&kernel.program_hash.to_le_bytes());
        match spec {
            SpecRequest::Auto => buf.push(0x51),
            SpecRequest::Rtm { tile } => {
                buf.push(0x52);
                buf.extend_from_slice(&tile.to_le_bytes());
            }
        }
        buf.extend_from_slice(&(source.len() as u32).to_le_bytes());
        buf.extend_from_slice(source.as_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(&payload);
        let checksum = fnv1a(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());

        let path = self.path_for(kernel.program_hash, spec);
        if let Err(e) = self.write_atomic(&path, &buf) {
            eprintln!(
                "flexvec-serve: snapshot write {} failed: {e}",
                path.display()
            );
            return;
        }
        self.note_write(Self::file_name(kernel.program_hash, spec), buf.len() as u64);
        self.counters.written.fetch_add(1, Ordering::Relaxed);
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        // Unique temp name per thread so concurrent workers saving
        // different kernels never collide; rename is atomic within the
        // directory, so readers see old-or-new, never a torn file.
        let tmp = self.dir.join(format!(
            ".tmp-{:?}-{}",
            std::thread::current().id(),
            path.file_name().and_then(|n| n.to_str()).unwrap_or("snap")
        ));
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Records a completed write, then enforces the size bound.
    fn note_write(&self, name: String, size: u64) {
        {
            let mut state = self.state.lock().expect("snapshot state");
            state.generation += 1;
            let generation = state.generation;
            state.files.insert(name, (size, generation));
        }
        self.sweep_to_bound();
    }

    /// Evicts oldest-generation snapshots until the store fits
    /// `max_bytes`. The newest file is never evicted — a single
    /// snapshot larger than the bound still gets to exist, it just
    /// evicts everything else.
    fn sweep_to_bound(&self) {
        let Some(max) = self.max_bytes else { return };
        loop {
            let victim = {
                let state = self.state.lock().expect("snapshot state");
                let total: u64 = state.files.values().map(|(s, _)| s).sum();
                if total <= max || state.files.len() <= 1 {
                    break;
                }
                state
                    .files
                    .iter()
                    .min_by_key(|(_, (_, generation))| *generation)
                    .map(|(name, (size, generation))| (name.clone(), *size, *generation))
            };
            let Some((name, size, generation)) = victim else {
                break;
            };
            let path = self.dir.join(&name);
            let _ = std::fs::remove_file(&path);
            self.state
                .lock()
                .expect("snapshot state")
                .files
                .remove(&name);
            self.counters.evicted.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "flexvec-serve: snapshot_evicted file={} bytes={size} generation={generation} reason=store_size_bound",
                path.display()
            );
        }
    }

    /// Removes one snapshot (distributed GC). Returns whether a file
    /// was actually deleted.
    pub fn remove_snapshot(&self, program_hash: u64, spec: SpecRequest) -> bool {
        let name = Self::file_name(program_hash, spec);
        let removed = std::fs::remove_file(self.dir.join(&name)).is_ok();
        self.state
            .lock()
            .expect("snapshot state")
            .files
            .remove(&name);
        if removed {
            self.counters.evicted.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Bumps the last-touch generation of a snapshot that was just
    /// restored or served, so the size-bound sweep evicts cold files
    /// first.
    fn touch(&self, name: &str) {
        let mut state = self.state.lock().expect("snapshot state");
        state.generation += 1;
        let generation = state.generation;
        if let Some(entry) = state.files.get_mut(name) {
            entry.1 = generation;
        }
    }

    /// Loads and fully validates the snapshot for `(program_hash,
    /// spec)`. `None` means "no usable snapshot" — absent, truncated,
    /// wrong epoch or build, checksum or hash mismatch, or a payload
    /// that fails bounds validation; the caller recompiles from source
    /// in every such case.
    pub fn load(&self, program_hash: u64, spec: SpecRequest) -> Option<CompiledKernel> {
        let bytes = self.read_file(program_hash, spec)?;
        match self.validate(&bytes, program_hash, spec) {
            Ok((kernel, _parsed)) => {
                self.counters.restored.fetch_add(1, Ordering::Relaxed);
                self.touch(&Self::file_name(program_hash, spec));
                Some(kernel)
            }
            Err(reason) => {
                self.counters.note_reject(reason);
                None
            }
        }
    }

    /// The raw on-disk bytes of one snapshot, unvalidated — what a
    /// gossip peer ships in a pull response. The *puller* validates;
    /// shipping raw bytes keeps the serving side cheap and means a
    /// corrupt file can never be laundered into a trusted one.
    pub fn raw_bytes(&self, program_hash: u64, spec: SpecRequest) -> Option<Vec<u8>> {
        self.read_file(program_hash, spec)
    }

    fn read_file(&self, program_hash: u64, spec: SpecRequest) -> Option<Vec<u8>> {
        let path = self.path_for(program_hash, spec);
        let mut bytes = Vec::new();
        match std::fs::File::open(&path) {
            Ok(mut f) => {
                if f.read_to_end(&mut bytes).is_err() {
                    self.counters.note_reject(RejectReason::Structure);
                    return None;
                }
                Some(bytes)
            }
            Err(_) => None, // absent is not a rejection
        }
    }

    /// Validates bytes pulled from a peer exactly like a local file
    /// (all four gates), and on success persists them locally and
    /// counts a pull. The returned kernel is safe to admit to the
    /// in-memory cache — it has been re-derived, not trusted. The
    /// parse of the embedded source rides along so callers can
    /// register it without parsing a second time.
    ///
    /// # Errors
    ///
    /// The gate that rejected the artifact; the caller compiles from
    /// source instead and the bytes are discarded, never written.
    pub fn admit_pulled(
        &self,
        bytes: &[u8],
        program_hash: u64,
        spec: SpecRequest,
    ) -> Result<(CompiledKernel, ParsedKernel), RejectReason> {
        match self.validate(bytes, program_hash, spec) {
            Ok(kernel) => {
                let path = self.path_for(program_hash, spec);
                if let Err(e) = self.write_atomic(&path, bytes) {
                    eprintln!(
                        "flexvec-serve: pulled snapshot write {} failed: {e}",
                        path.display()
                    );
                } else {
                    self.note_write(Self::file_name(program_hash, spec), bytes.len() as u64);
                }
                self.counters.pulled.fetch_add(1, Ordering::Relaxed);
                Ok(kernel)
            }
            Err(reason) => {
                self.counters.note_reject(reason);
                Err(reason)
            }
        }
    }

    /// All validation gates, in cheapest-first order.
    fn validate(
        &self,
        bytes: &[u8],
        program_hash: u64,
        spec: SpecRequest,
    ) -> Result<(CompiledKernel, ParsedKernel), RejectReason> {
        use RejectReason as R;
        // Gate 1+3: structure and integrity. Checksum first would scan
        // the file twice for obviously-foreign files, so magic/epoch go
        // first; the checksum still covers every byte before it.
        let mut r = Cursor { bytes, pos: 0 };
        if r.take(8).ok_or(R::Structure)? != MAGIC {
            return Err(R::Magic);
        }
        if r.u32().ok_or(R::Structure)? != epoch_word() {
            return Err(R::Epoch);
        }
        let git_len = r.u32().ok_or(R::Structure)? as usize;
        let git = r.take(git_len).ok_or(R::Structure)?;
        if git != build_git_hash().as_bytes() {
            return Err(R::GitHash);
        }
        if bytes.len() < 8 {
            return Err(R::Structure);
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().map_err(|_| R::Structure)?);
        if fnv1a(body) != stored {
            return Err(R::Checksum);
        }

        let header_hash = r.u64().ok_or(R::Structure)?;
        if header_hash != program_hash {
            return Err(R::HashMismatch);
        }
        let file_spec = match r.u8().ok_or(R::Structure)? {
            0x51 => SpecRequest::Auto,
            0x52 => SpecRequest::Rtm {
                tile: r.u32().ok_or(R::Structure)?,
            },
            _ => return Err(R::Structure),
        };
        if file_spec != spec {
            return Err(R::SpecMismatch);
        }
        let source_len = r.u32().ok_or(R::Structure)? as usize;
        let source = std::str::from_utf8(r.take(source_len).ok_or(R::Structure)?)
            .map_err(|_| R::Structure)?;
        let payload_len =
            usize::try_from(r.u64().ok_or(R::Structure)?).map_err(|_| R::Structure)?;
        let payload = r.take(payload_len).ok_or(R::Structure)?;
        if r.pos != body.len() {
            return Err(R::Structure); // trailing bytes before checksum
        }

        // Gate 4: re-derive everything the bytecode must be consistent
        // with. The parse and vectorize run on the *embedded* source —
        // a snapshot whose source no longer hashes to its name (or no
        // longer vectorizes under this build) is stale, not trusted.
        let parsed = parse_str("<snapshot>", source).map_err(|_| R::Rederive)?;
        if flexvec::program_hash(&parsed.program) != program_hash {
            return Err(R::Rederive);
        }
        let vectorized = vectorize(&parsed.program, spec).map_err(|_| R::Rederive)?;
        let limits = SerialLimits {
            vregs: vectorized.vprog.num_vregs as usize,
            kregs: vectorized.vprog.num_kregs as usize,
            vars: parsed.program.vars.len(),
            arrays: parsed.program.arrays.len(),
        };
        let compiled = deserialize_compiled(payload, &limits).map_err(|_| R::Payload)?;
        let kernel = CompiledKernel {
            program_hash,
            analysis: analyze(&parsed.program),
            plan: Ok(CompiledPlan::new(vectorized, compiled)),
        };
        Ok((kernel, parsed))
    }

    /// Exports the gossip manifest: one entry per tracked snapshot,
    /// with epoch and checksum read from the file (cheap header/tail
    /// reads, no payload decode). `in_memory` reports whether each
    /// kernel is currently resident in the in-memory cache.
    pub fn manifest(&self, in_memory: &dyn Fn(u64, SpecRequest) -> bool) -> Vec<ManifestEntry> {
        let tracked: Vec<(String, u64)> = {
            let state = self.state.lock().expect("snapshot state");
            state
                .files
                .iter()
                .map(|(name, (_, generation))| (name.clone(), *generation))
                .collect()
        };
        let mut entries = Vec::with_capacity(tracked.len());
        for (name, generation) in tracked {
            let Some((hash, spec)) = Self::parse_file_name(&name) else {
                continue;
            };
            let Some((epoch, checksum)) = self.read_edges(&name) else {
                continue;
            };
            entries.push(ManifestEntry {
                hash,
                spec,
                epoch,
                checksum,
                generation,
                in_memory: in_memory(hash, spec),
            });
        }
        entries.sort_by_key(|e| (e.hash, SnapshotStore::spec_tag(e.spec)));
        entries
    }

    /// Parses `{hash:016x}.{tag}.fvc` back into its components.
    fn parse_file_name(name: &str) -> Option<(u64, SpecRequest)> {
        let stem = name.strip_suffix(".fvc")?;
        let (hash_part, tag) = stem.split_once('.')?;
        if hash_part.len() != 16 {
            return None;
        }
        let hash = u64::from_str_radix(hash_part, 16).ok()?;
        Some((hash, Self::parse_spec_tag(tag)?))
    }

    /// Reads the epoch word (bytes 8..12) and trailing checksum of one
    /// snapshot file without reading the payload.
    fn read_edges(&self, name: &str) -> Option<(u32, u64)> {
        let mut f = std::fs::File::open(self.dir.join(name)).ok()?;
        let len = f.metadata().ok()?.len();
        if len < 20 {
            return None;
        }
        let mut head = [0u8; 12];
        f.read_exact(&mut head).ok()?;
        if &head[..8] != MAGIC {
            return None;
        }
        let epoch = u32::from_le_bytes(head[8..12].try_into().ok()?);
        f.seek(SeekFrom::End(-8)).ok()?;
        let mut tail = [0u8; 8];
        f.read_exact(&mut tail).ok()?;
        Some((epoch, u64::from_le_bytes(tail)))
    }

    /// Finds the embedded source of any snapshot of `program_hash`
    /// (any spec) whose header gates pass — how a restarted daemon
    /// resolves a hash-only request before the kernel's source has been
    /// resubmitted. The full payload is *not* decoded here; admission
    /// revalidates through [`SnapshotStore::load`].
    pub fn find_source(&self, program_hash: u64) -> Option<String> {
        let prefix = format!("{program_hash:016x}.");
        let entries = std::fs::read_dir(&self.dir).ok()?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.starts_with(&prefix) || !name.ends_with(".fvc") {
                continue;
            }
            let Ok(bytes) = std::fs::read(entry.path()) else {
                continue;
            };
            if let Some(source) = Self::header_source(&bytes, program_hash) {
                return Some(source);
            }
        }
        None
    }

    /// Extracts the source field when the header + checksum gates pass.
    fn header_source(bytes: &[u8], program_hash: u64) -> Option<String> {
        let mut r = Cursor { bytes, pos: 0 };
        if r.take(8)? != MAGIC || r.u32()? != epoch_word() {
            return None;
        }
        let git_len = r.u32()? as usize;
        if r.take(git_len)? != build_git_hash().as_bytes() {
            return None;
        }
        if bytes.len() < 8 {
            return None;
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        if fnv1a(body) != u64::from_le_bytes(tail.try_into().ok()?) {
            return None;
        }
        if r.u64()? != program_hash {
            return None;
        }
        match r.u8()? {
            0x51 => {}
            0x52 => {
                r.u32()?;
            }
            _ => return None,
        }
        let source_len = r.u32()? as usize;
        std::str::from_utf8(r.take(source_len)?)
            .ok()
            .map(str::to_owned)
    }
}

/// Minimal bounds-checked reader over a snapshot file.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}
