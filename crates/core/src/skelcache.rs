//! Persistent on-disk skeleton cache.
//!
//! A skeleton (the engine's recorded walk of one shared-memory set) is
//! expensive to build — one full `rewrite` + observed analysis — but is
//! a pure function of the sample trace, the GPU config, and the shared
//! set. This module persists healthy skeletons so a later process
//! (another CLI run, a serving restart) skips straight to replay.
//!
//! # File format (`skel-<kernelhash>-<sharedbits>.hsk`)
//!
//! All integers little-endian; `f64` stored as its IEEE-754 bit
//! pattern, so round-trips are bit-exact.
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 8    | magic `HMSSKEL1` |
//! | 8      | 4    | format version (`FORMAT_VERSION`) |
//! | 12     | 8    | kernel hash (trace + config fingerprint) |
//! | 20     | 8    | payload length in bytes |
//! | 28     | 8    | FNV-1a-64 checksum of the payload |
//! | 36     | —    | payload |
//!
//! Payload: the skeleton's placement-invariant `TraceAnalysis`
//! constants in fixed field order, the per-array `(base, stride)`
//! table, the flat `EventRec` stream (24 bytes per record, same field
//! order as in memory), and the staging-transaction arena.
//!
//! # Invalidation rules
//!
//! A cached file is used only if **all** of these hold; any failure is
//! a miss that silently falls back to an in-process rebuild (which
//! then rewrites the file):
//!
//! 1. magic and `FORMAT_VERSION` match this binary;
//! 2. the kernel hash matches the engine's (sample-trace dump + GPU
//!    config debug string), so a retraced kernel or retuned config
//!    invalidates every old file;
//! 3. the stored payload length matches the bytes actually present
//!    (truncation detection);
//! 4. the FNV-1a checksum over the payload matches (bit-rot
//!    detection);
//! 5. the decoded records pass the engine's structural validation
//!    (event kinds, SM indices, body ordinals and transaction ranges
//!    in bounds — see `Engine::skeleton_is_plausible`).
//!
//! Corruption therefore costs one rebuild, never a wrong result:
//! predictions after a rejected load are byte-identical to a cold run.
//!
//! Writes go to a temp file in the same directory followed by an
//! atomic rename; I/O errors are swallowed (the cache is an
//! optimization, not a source of truth). Poisoned skeletons are never
//! persisted. Shared sets wider than 64 arrays skip the disk (the
//! filename packs the set into a `u64` bitmask).
//!
//! # Temp-file hygiene
//!
//! A failed write or rename removes its own temp file, but a process
//! that dies mid-store (or a disk so sick that even the cleanup
//! `remove_file` fails) strands a `*.tmp<pid>` file. Opening the cache
//! sweeps any `skel-*.tmp*` leftovers in the directory and reports the
//! count (surfaced as `skeleton_disk_tmp_swept` in the engine stats),
//! so a crash-looping writer can never fill the disk with orphans.
//!
//! # Fault injection
//!
//! Every filesystem touch goes through the [`CacheFs`] trait; the
//! default [`RealFs`] is `std::fs`, and the chaos suite injects a
//! deterministic faulty implementation (ENOSPC, torn writes, bit-rot,
//! rename failure) to prove each failure mode degrades to a rebuild,
//! never a wrong prediction.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hms_trace::{dump, ConcreteTrace};
use hms_types::GpuConfig;

use crate::analysis::TraceAnalysis;
use crate::engine::{EventRec, Skeleton};

/// Bump on any change to the payload encoding or to the skeleton's
/// semantics (event kinds, `TraceAnalysis` field set, ...).
///
/// v2: payload checksum switched from byte-at-a-time FNV-1a to the
/// word-folded variant ([`fnv1a_words`]) — the checksum dominates warm
/// load time once decode is chunked, and folding eight bytes per
/// multiply cuts it ~8x.
pub(crate) const FORMAT_VERSION: u32 = 2;

const MAGIC: &[u8; 8] = b"HMSSKEL1";
const HEADER_LEN: usize = 36;

/// FNV-1a 64-bit over `bytes`, continuing from `h` (seed with
/// [`FNV_OFFSET`]).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a folding a little-endian `u64` per step instead of a byte —
/// not the same function as [`fnv1a`], but the checksum only has to be
/// self-consistent within a [`FORMAT_VERSION`]. One multiply per eight
/// bytes makes payload verification a rounding error in the warm load.
fn fnv1a_words(mut h: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().unwrap());
        h = h.wrapping_mul(FNV_PRIME);
    }
    fnv1a(h, chunks.remainder())
}

/// Fingerprint of everything a skeleton's contents depend on besides
/// the shared set: the sample trace (via its canonical text dump) and
/// the GPU configuration (via its `Debug` form, which covers every
/// model-relevant field).
pub(crate) fn kernel_hash(trace: &ConcreteTrace, cfg: &GpuConfig) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &FORMAT_VERSION.to_le_bytes());
    h = fnv1a(h, dump(trace).as_bytes());
    fnv1a(h, format!("{cfg:?}").as_bytes())
}

/// Little-endian byte writer/reader over the payload.
struct Enc(Vec<u8>);

impl Enc {
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Dec<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let s = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Serialize the placement-invariant constants. Field order is fixed
/// and covered by [`FORMAT_VERSION`]; the skeleton's DRAM stream is
/// empty by construction, so it is not stored.
fn enc_consts(e: &mut Enc, a: &TraceAnalysis) {
    for v in [
        a.executed,
        a.mem_instrs,
        a.replay_global_divergence,
        a.replay_const_miss,
        a.replay_const_divergence,
        a.replay_shared_conflict,
        a.replay_double_width,
        a.global_requests,
        a.global_transactions,
        a.tex_requests,
        a.tex_transactions,
        a.tex_misses,
        a.const_requests,
        a.const_transactions,
        a.const_misses,
        a.shared_requests,
        a.local_requests,
        a.l1_local_misses,
        a.replay_local,
        a.l2_transactions,
        a.l2_misses,
        a.l2_writebacks,
        a.sync_count,
        a.wait_events,
        a.total_warps,
    ] {
        e.u64(v);
    }
    e.f64(a.mlp);
    e.f64(a.warps_per_sm);
    e.u32(a.active_sms);
    e.u32(a.waves);
}

fn dec_consts(d: &mut Dec) -> Option<TraceAnalysis> {
    let mut a = TraceAnalysis::default();
    for f in [
        &mut a.executed,
        &mut a.mem_instrs,
        &mut a.replay_global_divergence,
        &mut a.replay_const_miss,
        &mut a.replay_const_divergence,
        &mut a.replay_shared_conflict,
        &mut a.replay_double_width,
        &mut a.global_requests,
        &mut a.global_transactions,
        &mut a.tex_requests,
        &mut a.tex_transactions,
        &mut a.tex_misses,
        &mut a.const_requests,
        &mut a.const_transactions,
        &mut a.const_misses,
        &mut a.shared_requests,
        &mut a.local_requests,
        &mut a.l1_local_misses,
        &mut a.replay_local,
        &mut a.l2_transactions,
        &mut a.l2_misses,
        &mut a.l2_writebacks,
        &mut a.sync_count,
        &mut a.wait_events,
        &mut a.total_warps,
    ] {
        *f = d.u64()?;
    }
    a.mlp = d.f64()?;
    a.warps_per_sm = d.f64()?;
    a.active_sms = d.u32()?;
    a.waves = d.u32()?;
    Some(a)
}

fn encode_payload(skel: &Skeleton) -> Vec<u8> {
    let mut e = Enc(Vec::with_capacity(
        64 + skel.events.len() * 24 + skel.tx_arena.len() * 8,
    ));
    enc_consts(&mut e, &skel.consts);
    e.u32(skel.bases.len() as u32);
    for &(b, s) in &skel.bases {
        e.u64(b);
        e.u64(s);
    }
    e.u32(skel.events.len() as u32);
    for ev in &skel.events {
        e.0.push(ev.kind);
        e.0.push(ev.flag);
        e.0.extend_from_slice(&ev.sm.to_le_bytes());
        e.u32(ev.arr);
        e.u64(ev.x);
        e.u32(ev.tx);
        e.u32(ev.tx_len);
    }
    e.u32(skel.tx_arena.len() as u32);
    for &t in &skel.tx_arena {
        e.u64(t);
    }
    e.0
}

fn decode_payload(payload: &[u8]) -> Option<Skeleton> {
    let mut d = Dec {
        buf: payload,
        pos: 0,
    };
    let consts = dec_consts(&mut d)?;
    // Counted sections are taken as one slice up front (so a lying
    // count can never allocate more than the bytes actually present)
    // and decoded with `chunks_exact` — no per-field cursor bookkeeping
    // on the hot warm-load path.
    let n_bases = d.u32()? as usize;
    let base_bytes = d.take(n_bases.checked_mul(16)?)?;
    let bases: Vec<(u64, u64)> = base_bytes
        .chunks_exact(16)
        .map(|c| {
            (
                u64::from_le_bytes(c[0..8].try_into().unwrap()),
                u64::from_le_bytes(c[8..16].try_into().unwrap()),
            )
        })
        .collect();
    let n_events = d.u32()? as usize;
    let event_bytes = d.take(n_events.checked_mul(24)?)?;
    let events: Vec<EventRec> = event_bytes
        .chunks_exact(24)
        .map(|c| EventRec {
            kind: c[0],
            flag: c[1],
            sm: u16::from_le_bytes(c[2..4].try_into().unwrap()),
            arr: u32::from_le_bytes(c[4..8].try_into().unwrap()),
            x: u64::from_le_bytes(c[8..16].try_into().unwrap()),
            tx: u32::from_le_bytes(c[16..20].try_into().unwrap()),
            tx_len: u32::from_le_bytes(c[20..24].try_into().unwrap()),
        })
        .collect();
    let n_tx = d.u32()? as usize;
    let tx_bytes = d.take(n_tx.checked_mul(8)?)?;
    let tx_arena: Vec<u64> = tx_bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    if !d.done() {
        return None; // trailing garbage: treat as corruption
    }
    Some(Skeleton {
        consts,
        events,
        tx_arena,
        bases,
        poisoned: false,
    })
}

/// Pack a shared set into the filename's `u64` bitmask; `None` (skip
/// the disk entirely) beyond 64 arrays.
pub(crate) fn key_bits(key: &[bool]) -> Option<u64> {
    if key.len() > 64 {
        return None;
    }
    let mut bits = 0u64;
    for (i, &b) in key.iter().enumerate() {
        if b {
            bits |= 1 << i;
        }
    }
    Some(bits)
}

/// The filesystem surface the disk cache runs on. Production code uses
/// [`RealFs`]; fault suites inject an implementation that fails or
/// corrupts specific operations on a deterministic schedule. Every
/// method mirrors its `std::fs` namesake.
pub trait CacheFs: Send + Sync + std::fmt::Debug {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// File paths directly inside `path` (no recursion, no dirs).
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
}

/// The passthrough `std::fs` implementation of [`CacheFs`].
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl CacheFs for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        fs::write(path, data)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut files = Vec::new();
        for entry in fs::read_dir(path)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                files.push(entry.path());
            }
        }
        Ok(files)
    }
}

/// Handle on one cache directory, bound to one kernel fingerprint.
#[derive(Debug, Clone)]
pub(crate) struct DiskCache {
    dir: PathBuf,
    kernel_hash: u64,
    fs: Arc<dyn CacheFs>,
    /// Stale `*.tmp*` files removed when this handle opened the
    /// directory (leftovers of writers that died mid-store).
    swept: u64,
}

impl DiskCache {
    /// Best-effort: the directory is created eagerly so a misconfigured
    /// path degrades to misses, not errors.
    #[cfg(test)]
    pub(crate) fn new(dir: &Path, kernel_hash: u64) -> Self {
        Self::with_fs(dir, kernel_hash, Arc::new(RealFs))
    }

    /// Open on an injected filesystem (see [`CacheFs`]).
    pub(crate) fn with_fs(dir: &Path, kernel_hash: u64, fs: Arc<dyn CacheFs>) -> Self {
        let _ = fs.create_dir_all(dir);
        let swept = sweep_stale_tmps(fs.as_ref(), dir);
        DiskCache {
            dir: dir.to_path_buf(),
            kernel_hash,
            fs,
            swept,
        }
    }

    /// Stale temp files removed at open time.
    pub(crate) fn swept(&self) -> u64 {
        self.swept
    }

    fn path(&self, bits: u64) -> PathBuf {
        self.dir
            .join(format!("skel-{:016x}-{:016x}.hsk", self.kernel_hash, bits))
    }

    /// Load the skeleton for `key`, or `None` on any miss/validation
    /// failure (see the module docs for the invalidation rules).
    pub(crate) fn load(&self, key: &[bool]) -> Option<Skeleton> {
        let bits = key_bits(key)?;
        let data = self.fs.read(&self.path(bits)).ok()?;
        if data.len() < HEADER_LEN || &data[0..8] != MAGIC {
            return None;
        }
        let word = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().unwrap());
        let version = u32::from_le_bytes(data[8..12].try_into().unwrap());
        if version != FORMAT_VERSION || word(12) != self.kernel_hash {
            return None;
        }
        let payload_len = word(20) as usize;
        let payload = data.get(HEADER_LEN..)?;
        if payload.len() != payload_len || fnv1a_words(FNV_OFFSET, payload) != word(28) {
            return None;
        }
        decode_payload(payload)
    }

    /// Persist `skel` under `key`; returns whether a file was written.
    /// Errors are swallowed — a read-only or full disk only loses the
    /// warm-start.
    pub(crate) fn store(&self, key: &[bool], skel: &Skeleton) -> bool {
        debug_assert!(!skel.poisoned, "poisoned skeletons are never persisted");
        let Some(bits) = key_bits(key) else {
            return false;
        };
        let payload = encode_payload(skel);
        let mut data = Vec::with_capacity(HEADER_LEN + payload.len());
        data.extend_from_slice(MAGIC);
        data.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        data.extend_from_slice(&self.kernel_hash.to_le_bytes());
        data.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        data.extend_from_slice(&fnv1a_words(FNV_OFFSET, &payload).to_le_bytes());
        data.extend_from_slice(&payload);
        let dest = self.path(bits);
        let tmp = dest.with_extension(format!("tmp{}", std::process::id()));
        if self.fs.write(&tmp, &data).is_err() {
            // ENOSPC (or any short write) must not strand the temp; if
            // even the cleanup fails, the next open's sweep collects it.
            let _ = self.fs.remove_file(&tmp);
            return false;
        }
        if self.fs.rename(&tmp, &dest).is_err() {
            let _ = self.fs.remove_file(&tmp);
            return false;
        }
        true
    }
}

/// Remove stranded `skel-*.tmp*` files in `dir`, returning how many
/// were deleted. Runs at open: a concurrent writer mid-store can lose
/// its temp here, which costs that writer one swallowed `store` (its
/// rename fails), never a corrupt file — renames of swept paths simply
/// fail.
fn sweep_stale_tmps(fs: &dyn CacheFs, dir: &Path) -> u64 {
    let Ok(files) = fs.list_dir(dir) else {
        return 0;
    };
    let mut swept = 0;
    for path in files {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let is_tmp = name.starts_with("skel-")
            && path
                .extension()
                .and_then(|e| e.to_str())
                .is_some_and(|e| e.starts_with("tmp"));
        if is_tmp && fs.remove_file(&path).is_ok() {
            swept += 1;
        }
    }
    swept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_skeleton() -> Skeleton {
        let consts = TraceAnalysis {
            executed: 123,
            mlp: 2.5,
            warps_per_sm: 13.037,
            waves: 3,
            ..TraceAnalysis::default()
        };
        Skeleton {
            consts,
            events: vec![
                EventRec {
                    kind: 0,
                    flag: 0,
                    sm: 1,
                    arr: 0,
                    x: 42,
                    tx: 0,
                    tx_len: 0,
                },
                EventRec {
                    kind: 3,
                    flag: 1,
                    sm: 7,
                    arr: 0,
                    x: 2,
                    tx: 0,
                    tx_len: 3,
                },
            ],
            tx_arena: vec![128, 256, 384],
            bases: vec![(0x1000, 0x40), (0x2000, 0)],
            poisoned: false,
        }
    }

    fn skeletons_equal(a: &Skeleton, b: &Skeleton) -> bool {
        a.consts == b.consts
            && a.bases == b.bases
            && a.tx_arena == b.tx_arena
            && a.events.len() == b.events.len()
            && a.events.iter().zip(&b.events).all(|(x, y)| {
                (x.kind, x.flag, x.sm, x.arr, x.x, x.tx, x.tx_len)
                    == (y.kind, y.flag, y.sm, y.arr, y.x, y.tx, y.tx_len)
            })
            && a.poisoned == b.poisoned
    }

    #[test]
    fn payload_round_trips_bit_exactly() {
        let skel = sample_skeleton();
        let back = decode_payload(&encode_payload(&skel)).expect("decodes");
        assert!(skeletons_equal(&skel, &back));
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let p = encode_payload(&sample_skeleton());
        for cut in [0, 1, p.len() / 2, p.len() - 1] {
            assert!(decode_payload(&p[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut p = encode_payload(&sample_skeleton());
        p.push(0);
        assert!(decode_payload(&p).is_none());
    }

    #[test]
    fn key_bits_packs_and_caps() {
        assert_eq!(key_bits(&[]), Some(0));
        assert_eq!(key_bits(&[true, false, true]), Some(0b101));
        assert_eq!(key_bits(&[false; 64]), Some(0));
        assert_eq!(key_bits(&[false; 65]), None);
    }

    #[test]
    fn store_then_load_round_trips_and_bad_headers_miss() {
        let dir = std::env::temp_dir().join(format!("hms-skelcache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cache = DiskCache::new(&dir, 0xDEAD_BEEF);
        let key = vec![true, false];
        let skel = sample_skeleton();
        assert!(cache.store(&key, &skel));
        let loaded = cache.load(&key).expect("hit");
        assert!(skeletons_equal(&skel, &loaded));

        // A different kernel hash misses the same file.
        let other = DiskCache::new(&dir, 0xBADC_0FFE);
        assert!(other.load(&key).is_none());

        // Flip one payload byte: checksum rejects.
        let path = cache.path(key_bits(&key).unwrap());
        let mut data = fs::read(&path).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0x01;
        fs::write(&path, &data).unwrap();
        assert!(cache.load(&key).is_none());

        // Restore, then bump the version header: versioning rejects.
        data[last] ^= 0x01;
        data[8] ^= 0xFF;
        fs::write(&path, &data).unwrap();
        assert!(cache.load(&key).is_none());

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_stale_tmp_files_and_counts_them() {
        let dir = std::env::temp_dir().join(format!("hms-skelsweep-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // Two stranded temps from writers that died mid-store, one
        // healthy cache file, one unrelated file.
        fs::write(dir.join("skel-aaaa-bbbb.tmp123"), b"dead").unwrap();
        fs::write(dir.join("skel-cccc-dddd.tmp9"), b"dead").unwrap();
        fs::write(dir.join("not-a-skel.tmp123"), b"keep").unwrap();

        let cache = DiskCache::new(&dir, 0x1234);
        let key = vec![true];
        assert!(cache.store(&key, &sample_skeleton()));
        assert_eq!(cache.swept(), 2, "both stranded temps swept");
        assert!(!dir.join("skel-aaaa-bbbb.tmp123").exists());
        assert!(!dir.join("skel-cccc-dddd.tmp9").exists());
        assert!(
            dir.join("not-a-skel.tmp123").exists(),
            "sweep only touches skel-* temps"
        );

        // Reopening after the sweep finds nothing to do, and real cache
        // files are never swept.
        let again = DiskCache::new(&dir, 0x1234);
        assert_eq!(again.swept(), 0);
        assert!(again.load(&key).is_some(), "healthy files survive sweeps");
        let _ = fs::remove_dir_all(&dir);
    }
}
