//! Deterministic snapshot/restore: the `SaveState` contract, the
//! [`Snapshot`] container, and its one wire format — the section-framed
//! `SMAPSTRM` stream ([`StreamSink`]/[`StreamSource`]).
//!
//! SMAPPIC experiments pay minutes of simulated boot per run (§4.1 of the
//! paper); checkpointing amortizes that across every future workload, and a
//! pair of snapshots is the unit of comparison for the first-divergence
//! bisector. The design goals, in order:
//!
//! 1. **Bit-exactness.** A restored platform must be indistinguishable from
//!    one that never stopped: same architectural state, same `stats()`,
//!    same `architectural()` metrics, under both steppers.
//! 2. **Attributability.** State is captured into *named sections*, one per
//!    component, keyed by the same stable topology-rooted dotted names the
//!    metrics layer uses (`fpga0.node0.tile1.bpc`). Two snapshots can be
//!    diffed section-by-section and the first differing component named.
//! 3. **Versioned evolution.** The container carries a format version and a
//!    config digest; a reader rejects mismatches with a typed
//!    [`SnapError`], and every section is checked for *exact* consumption
//!    on scope exit — unknown trailing fields are an error, never UB.
//!
//! # The contract
//!
//! A component implements [`SaveState`] by writing its **mutable
//! architectural state** — queue contents, cache lines, cursors, counters —
//! in a fixed order, and reading it back in the same order. Configuration
//! (capacities, latencies, topology) is *not* serialized: restore targets a
//! platform freshly built from the same `Config`, and the config digest in
//! the container enforces that. Collections with nondeterministic iteration
//! order (`HashMap`) must be serialized in sorted key order so identical
//! states produce identical bytes.
//!
//! Every `save` begins by destructuring `Self` with no `..`, binding each
//! field it does not write to `_` beside the reason (configuration,
//! derived, host-side). A field added to the struct is then a compile
//! error at that `save` until it is either saved or waived there.
//!
//! Host-side stepper diagnostics (epoch histograms, trace buffers) either
//! stay out of the snapshot or live in sections under the `host.` prefix,
//! which [`Snapshot::first_divergence`] skips — the per-cycle reference
//! and the epoch driver legitimately differ there while agreeing on every
//! architectural bit.

use std::borrow::Cow;
#[allow(clippy::disallowed_types)] // the `VecDeque` codec below
use std::collections::VecDeque;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::{Read, Write};

use crate::codec;

/// Current snapshot container format version. Version 2 changed the
/// state digest from byte-serial FNV-1a to a word-at-a-time hash; version
/// 3 dropped the LLC slice's copy of the platform clock (8 bytes per
/// `*.llc` section), so an idle slice's section stops changing between
/// snapshots. Version 4 saves each component's meters as one block in its
/// own section instead of inside every port, drops the ports' unpublished
/// pop counts, and keeps a counter's touched flag in its count. Version 5
/// moves each DRAM channel's pages into a `pages` section of their own,
/// which a delta can declare unchanged without serialising it.
pub const SNAP_VERSION: u32 = 5;

/// Section-name prefix for host-side (non-architectural) stepper state.
///
/// Sections under this prefix are restored normally but ignored by
/// [`Snapshot::first_divergence`]: the per-cycle reference and the epoch
/// driver differ here by construction (epoch widths, epoch counts) while
/// agreeing on all architectural state.
pub const HOST_SECTION_PREFIX: &str = "host.";

/// A typed snapshot format error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream does not start with the snapshot magic.
    BadMagic,
    /// The container was written by a different format version.
    VersionMismatch {
        /// Version found in the container.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The snapshot was taken from a platform with a different config.
    ConfigMismatch {
        /// Digest found in the container.
        found: u64,
        /// Digest of the restoring platform's config.
        expected: u64,
    },
    /// A component tried to read a section the snapshot does not contain.
    MissingSection(String),
    /// A section held more bytes than the restoring component consumed —
    /// the format-evolution guard: unknown trailing fields are rejected.
    TrailingBytes(String),
    /// A component tried to read past the end of its section.
    Truncated(String),
    /// The snapshot contains a section no component consumed.
    UnexpectedSection(String),
    /// The byte stream is structurally malformed.
    Corrupt(String),
    /// A delta was applied to a base snapshot other than the one it was
    /// computed against (out-of-order chain application).
    DeltaBaseMismatch {
        /// State digest of the snapshot the delta was applied to.
        found: u64,
        /// State digest of the base the delta was computed against.
        expected: u64,
    },
    /// An underlying I/O operation failed while streaming.
    Io(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::BadMagic => write!(f, "not a SMAPPIC snapshot (bad magic)"),
            SnapError::VersionMismatch { found, expected } => {
                write!(f, "snapshot format v{found}, this build reads v{expected}")
            }
            SnapError::ConfigMismatch { found, expected } => {
                write!(f, "snapshot config digest {found:#018x} != platform {expected:#018x}")
            }
            SnapError::MissingSection(s) => write!(f, "snapshot missing section '{s}'"),
            SnapError::TrailingBytes(s) => {
                write!(f, "section '{s}' has trailing bytes this build does not understand")
            }
            SnapError::Truncated(s) => write!(f, "section '{s}' is truncated"),
            SnapError::UnexpectedSection(s) => {
                write!(f, "snapshot has unexpected section '{s}'")
            }
            SnapError::Corrupt(s) => write!(f, "snapshot is corrupt: {s}"),
            SnapError::DeltaBaseMismatch { found, expected } => write!(
                f,
                "delta expects base state digest {expected:#018x}, snapshot has {found:#018x}"
            ),
            SnapError::Io(s) => write!(f, "snapshot i/o error: {s}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// The save/restore contract every stateful architectural component — and
/// every tile engine — implements.
///
/// `save` writes the component's mutable state into the writer's current
/// scope; `restore` reads it back in the same order. Both sides use the
/// same scope structure, so the section layout is self-describing and two
/// snapshots of the same config are comparable section-by-section. `save`
/// destructures `Self` exhaustively (see the module docs), so its field
/// list is checked by the compiler.
pub trait SaveState {
    /// Serializes mutable architectural state into `w`'s current scope.
    fn save(&self, w: &mut SnapWriter);
    /// Restores state from `r`'s current scope, in `save` order.
    ///
    /// On format errors the reader records the first error and keeps
    /// returning defaults, so implementations stay straight-line; callers
    /// check [`SnapReader::finish`] once at the end.
    fn restore(&mut self, r: &mut SnapReader);
}

/// Serialization for *values* (queue payloads, map entries) as opposed to
/// *components*: packs into the writer's current scope without opening one.
///
/// Containers like `Port<T>` and `TrafficShaper<T>` serialize their
/// contents generically through this trait.
pub trait Pack: Sized {
    /// Writes this value into the current scope.
    fn pack(&self, w: &mut SnapWriter);
    /// Reads a value back in `pack` order.
    fn unpack(r: &mut SnapReader) -> Self;
}

/// Cursor value for "no section open": past the end of any section list,
/// so the per-field accessors fall into their cold path on it.
const NO_SECTION: usize = usize::MAX;

/// The dotted path of the innermost open scope, extended and cut back in
/// place as scopes open and close.
#[derive(Debug, Default)]
struct ScopePath {
    dotted: String,
    /// Number of open scopes (`dotted` alone cannot tell a scope with an
    /// empty name from no scope).
    depth: usize,
}

impl ScopePath {
    /// Opens `name` under the current scope; returns what `exit` needs to
    /// close it again.
    fn enter(&mut self, name: &str) -> usize {
        let outer_len = self.dotted.len();
        if self.depth > 0 {
            self.dotted.push('.');
        }
        self.dotted.push_str(name);
        self.depth += 1;
        outer_len
    }

    fn exit(&mut self, outer_len: usize) {
        self.depth -= 1;
        self.dotted.truncate(outer_len);
    }
}

/// Builds the named-section byte buffers of a snapshot.
///
/// Scopes nest: [`SnapWriter::scoped`] pushes a path component, and
/// primitive writes land in the byte buffer of the *innermost* open scope.
/// Each distinct dotted path owns one section; sections are recorded in
/// first-open order, which is the platform's deterministic walk order.
/// Opening a scope registers its section even when nothing is written —
/// empty sections keep two snapshots structurally comparable.
///
/// Names are resolved where scopes open and nowhere else: `scoped` looks
/// the dotted path up once and leaves a cursor on that section's buffer,
/// and every primitive write is a push through the cursor. Re-entering a
/// path appends to the section it opened the first time; writes outside
/// any scope go to the section named `""`.
///
/// A writer built with [`SnapWriter::streaming`] additionally hands every
/// section to a [`SnapSink`] as soon as its *top-level* scope closes, so a
/// full-platform walk holds at most one top-level component's sections in
/// memory at a time — the bounded-memory checkpoint path. Streamed
/// sections cannot be reopened; doing so is recorded as a
/// [`SnapError::Corrupt`] surfaced by [`SnapWriter::finish`].
///
/// A writer built with [`SnapWriter::streaming_delta`] streams a delta
/// against a base image: a scope its owner opens with
/// [`SnapWriter::scoped_matching`], naming that image, is handed to the
/// sink as unchanged ([`SnapSink::unchanged`]) instead of being
/// serialised.
///
/// A scope whose owner still holds the compressed payload its section was
/// restored from can offer it ([`SnapWriter::offer_compressed`]); a
/// compressing sink then writes those bytes instead of compressing the
/// section again.
pub struct SnapWriter<'s> {
    path: ScopePath,
    /// Index into `sections` of the innermost open scope's section.
    cur: usize,
    /// `(name, bytes)` in first-open order. A streamed section keeps its
    /// slot (its buffer freed) so reopening it can be told apart.
    sections: Vec<(String, Vec<u8>)>,
    /// Name to slot in `sections`; consulted only when a scope opens.
    index: HashMap<String, usize>,
    /// Sections below this slot have been handed to the sink.
    next_flush: usize,
    sink: Option<&'s mut dyn SnapSink>,
    /// State digest of the image a delta writer streams against.
    delta_base: Option<u64>,
    /// Slots of the sections declared unchanged against `delta_base`.
    unchanged: Vec<usize>,
    /// Compressed payloads owners handed off, by slot, for the sink.
    compressed: Vec<(usize, Box<[u8]>)>,
    error: Option<SnapError>,
}

impl Default for SnapWriter<'_> {
    fn default() -> Self {
        Self {
            path: ScopePath::default(),
            cur: NO_SECTION,
            sections: Vec::new(),
            index: HashMap::new(),
            next_flush: 0,
            sink: None,
            delta_base: None,
            unchanged: Vec::new(),
            compressed: Vec::new(),
            error: None,
        }
    }
}

impl fmt::Debug for SnapWriter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapWriter")
            .field("path", &self.path.dotted)
            .field("sections", &self.sections.len())
            .field("streaming", &self.sink.is_some())
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl<'s> SnapWriter<'s> {
    /// Creates an empty (accumulating) writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer that flushes each completed top-level scope to
    /// `sink` instead of accumulating the whole snapshot. The caller must
    /// drive `sink.begin(..)` before the walk and check
    /// [`SnapWriter::finish`] after it.
    pub fn streaming(sink: &'s mut dyn SnapSink) -> Self {
        Self { sink: Some(sink), ..Self::default() }
    }

    /// Creates a streaming writer for a delta against the image whose
    /// state digest is `base_digest`: like [`SnapWriter::streaming`], but
    /// a [`SnapWriter::scoped_matching`] scope known to equal its section
    /// in that image reaches `sink` as [`SnapSink::unchanged`].
    pub fn streaming_delta(sink: &'s mut dyn SnapSink, base_digest: u64) -> Self {
        Self { sink: Some(sink), delta_base: Some(base_digest), ..Self::default() }
    }

    fn fail(&mut self, e: SnapError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// Resolves `path` to its section, registering it on first open. The
    /// one place a section name is hashed or allocated.
    fn open_section(&mut self) -> usize {
        let name = &self.path.dotted;
        if let Some(&at) = self.index.get(name) {
            if at < self.next_flush {
                // Post-error writes land in the streamed section's dead
                // buffer, which is never flushed again; the recorded
                // error surfaces at `finish`.
                let e = format!("section '{name}' reopened after it was streamed");
                self.fail(SnapError::Corrupt(e));
            }
            return at;
        }
        let at = self.sections.len();
        self.sections.push((name.clone(), Vec::new()));
        self.index.insert(name.clone(), at);
        at
    }

    /// The buffer primitive writes land in: the innermost open scope's,
    /// or the `""` section's outside any scope.
    #[inline]
    fn ensure_section(&mut self) -> &mut Vec<u8> {
        if self.cur >= self.sections.len() {
            self.cur = self.open_section();
        }
        &mut self.sections[self.cur].1
    }

    /// Hands every section opened so far (and not yet flushed) to the
    /// sink, in first-open order, freeing its buffer.
    fn flush_pending(&mut self) {
        while self.next_flush < self.sections.len() {
            let slot = self.next_flush;
            let (name, buf) = &mut self.sections[slot];
            self.next_flush += 1;
            let buf = std::mem::take(buf);
            if self.error.is_some() {
                continue;
            }
            let Some(sink) = self.sink.as_deref_mut() else { continue };
            let sent = if self.unchanged.contains(&slot) {
                // Release builds leave `buf` empty; debug builds filled it
                // to check the declaration against the base's bytes.
                sink.unchanged(name).map(|base| {
                    debug_assert!(
                        base == &buf[..],
                        "section '{name}' was declared unchanged but differs from the delta base"
                    );
                })
            } else if let Some(at) = self.compressed.iter().position(|&(at, _)| at == slot) {
                let (_, compressed) = self.compressed.swap_remove(at);
                sink.section_compressed(name, &buf, compressed)
            } else {
                sink.section(name, &buf)
            };
            if let Err(e) = sent {
                self.error = Some(e);
            }
        }
    }

    /// Runs `f` with `name` pushed onto the scope path. The section for the
    /// new path is created immediately so it exists even when empty. When
    /// streaming, closing a top-level scope flushes its sections.
    pub fn scoped(&mut self, name: &str, f: impl FnOnce(&mut Self)) {
        let (outer, outer_len) = (self.cur, self.path.enter(name));
        self.cur = self.open_section();
        f(self);
        self.path.exit(outer_len);
        self.cur = outer;
        if self.path.depth == 0 && self.sink.is_some() {
            self.flush_pending();
            // The `""` section, if open, has just been streamed with the
            // rest: the next write outside a scope must look it up again.
            self.cur = NO_SECTION;
        }
    }

    /// Runs `f` under `name` like [`SnapWriter::scoped`], for a scope whose
    /// owner knows it would write exactly its section in the image with
    /// state digest `matches`. When this writer streams a delta against
    /// that image ([`SnapWriter::streaming_delta`]), the section is
    /// declared unchanged and `f` does not run; debug builds run it anyway
    /// and assert its bytes equal the base's. Any other writer runs `f`.
    pub fn scoped_matching(&mut self, name: &str, matches: Option<u64>, f: impl FnOnce(&mut Self)) {
        if matches.is_none() || matches != self.delta_base {
            return self.scoped(name, f);
        }
        self.scoped(name, |w| {
            w.unchanged.push(w.cur);
            if cfg!(debug_assertions) {
                f(w);
            }
        });
    }

    /// Offers the sink the compressed payload the owner of the innermost
    /// open scope holds for its section: the bytes a stream stored the
    /// section as ([`SnapReader::take_compressed`]), which the owner knows
    /// still decode to exactly what the scope writes. Only a compressing
    /// sink ([`SnapSink::takes_compressed`]) spends it: then `take` runs,
    /// handing the payload over, and the sink writes it instead of
    /// compressing the section again. Any other writer leaves `take`
    /// uncalled, so the owner keeps the payload for a later save.
    pub fn offer_compressed(&mut self, take: impl FnOnce() -> Option<Box<[u8]>>) {
        if !self.sink.as_deref().is_some_and(|sink| sink.takes_compressed()) {
            return;
        }
        if let Some(compressed) = take() {
            self.ensure_section();
            self.compressed.push((self.cur, compressed));
        }
    }

    /// Finishes a streaming writer: flushes any remaining sections and
    /// surfaces the first recorded error (sink failure or a section
    /// reopened after streaming). Accumulating writers always succeed.
    pub fn finish(mut self) -> Result<(), SnapError> {
        if self.sink.is_some() {
            self.flush_pending();
        }
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.ensure_section().push(v);
    }

    /// Writes a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.ensure_section().extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.ensure_section().extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.ensure_section().extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian u128.
    pub fn u128(&mut self, v: u128) {
        self.ensure_section().extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a u64 (platform-independent width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        let len = u32::try_from(v.len()).expect("snapshot byte field exceeds u32::MAX");
        let buf = self.ensure_section();
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Finishes the writer, returning `(path, bytes)` sections in
    /// first-open order.
    pub fn into_sections(self) -> Vec<(String, Vec<u8>)> {
        self.sections
    }
}

/// One section held by a [`SnapReader`]: its bytes and how far the
/// restore walk has read into them.
struct Frame<'a> {
    data: Cow<'a, [u8]>,
    at: usize,
    /// A scope (or a read outside any scope) has opened this section.
    visited: bool,
    /// The compressed payload a stream stored the section as, until
    /// [`SnapReader::take_compressed`] takes it or the scope closes.
    compressed: Option<Box<[u8]>>,
}

/// Reads named sections back in [`SnapWriter`] order.
///
/// The reader records the **first** format error it hits and returns
/// defaults (zero/empty) for every read after that, so `restore`
/// implementations stay straight-line; the caller checks
/// [`SnapReader::finish`] once after the full restore walk. On every scope
/// exit the section must be *exactly* consumed — trailing bytes are a
/// [`SnapError::TrailingBytes`], which is how unknown future fields are
/// rejected instead of silently misread.
///
/// Like the writer, the reader resolves a name only where a scope opens:
/// `scoped` leaves a cursor on the section's `(bytes, offset)` frame and
/// every primitive read is a bounds-checked slice through it. The offset
/// lives with the section, so re-entering a path resumes where the last
/// visit stopped; reads outside any scope use the section named `""`.
///
/// A reader built with [`SnapReader::from_source`] pulls sections on
/// demand from a [`SectionSource`] (e.g. a [`StreamSource`] over a
/// checkpoint file) and drops each one as its scope closes — the
/// bounded-memory restore path. Because the restore walk visits sections
/// in the same order the platform wrote them, at most a handful of
/// sections are resident at once.
pub struct SnapReader<'a> {
    path: ScopePath,
    /// Index into `frames` of the innermost open scope's section, or
    /// [`NO_SECTION`] when the snapshot has none for it.
    cur: usize,
    frames: Vec<Frame<'a>>,
    /// Name to slot in `frames` for every resident section; consulted
    /// only when a scope opens.
    index: HashMap<Cow<'a, str>, usize>,
    source: Option<SectionSource<'a>>,
    error: Option<SnapError>,
}

/// A pull source of [`StreamSection`]s for a streaming restore.
///
/// Returns `Ok(None)` once the stream is exhausted — *after* validating
/// any trailer it carries, so truncation surfaces as an error here rather
/// than as a silent short restore.
pub type SectionSource<'a> = Box<dyn FnMut() -> Result<Option<StreamSection>, SnapError> + 'a>;

/// One section as a [`StreamSource`] reads it.
#[derive(Debug)]
pub struct StreamSection {
    /// The section's dotted name.
    pub name: String,
    /// The raw section bytes.
    pub data: Vec<u8>,
    /// The compressed payload the stream stored the section as; [`None`]
    /// when it was stored raw.
    pub compressed: Option<Box<[u8]>>,
}

impl fmt::Debug for SnapReader<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapReader")
            .field("path", &self.path.dotted)
            .field("resident_sections", &self.index.len())
            .field("streaming", &self.source.is_some())
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl<'a> SnapReader<'a> {
    fn with_source(source: Option<SectionSource<'a>>) -> Self {
        Self {
            path: ScopePath::default(),
            cur: NO_SECTION,
            frames: Vec::new(),
            index: HashMap::new(),
            source,
            error: None,
        }
    }

    /// Creates a reader over a snapshot's sections.
    pub fn new(snapshot: &'a Snapshot) -> Self {
        let mut r = Self::with_source(None);
        for (name, bytes) in &snapshot.sections {
            r.admit(Cow::Borrowed(name.as_str()), Cow::Borrowed(bytes.as_slice()), None);
        }
        r
    }

    /// Creates a streaming reader that pulls sections on demand from
    /// `source` and frees each one when its scope closes.
    pub fn from_source(source: SectionSource<'a>) -> Self {
        Self::with_source(Some(source))
    }

    /// Makes a section resident. A repeated name replaces the earlier
    /// bytes and rewinds their cursor.
    fn admit(&mut self, name: Cow<'a, str>, data: Cow<'a, [u8]>, compressed: Option<Box<[u8]>>) {
        match self.index.get(name.as_ref()) {
            Some(&at) => {
                let frame = &mut self.frames[at];
                frame.data = data;
                frame.at = 0;
                frame.compressed = compressed;
            }
            None => {
                self.index.insert(name, self.frames.len());
                self.frames.push(Frame { data, at: 0, visited: false, compressed });
            }
        }
    }

    /// Makes a section pulled from the source resident.
    fn admit_pulled(&mut self, s: StreamSection) {
        self.admit(Cow::Owned(s.name), Cow::Owned(s.data), s.compressed);
    }

    /// The resident section named by the current path, pulling from the
    /// source until it arrives or the source ends.
    fn pull_until_open(&mut self) -> Option<usize> {
        loop {
            if let Some(&at) = self.index.get(self.path.dotted.as_str()) {
                return Some(at);
            }
            match self.source.as_mut()?() {
                Ok(Some(s)) => self.admit_pulled(s),
                Ok(None) => return None,
                Err(e) => {
                    self.fail(e);
                    return None;
                }
            }
        }
    }

    fn fail(&mut self, e: SnapError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    /// True while no format error has been recorded. Restore loops driven
    /// by a deserialized count should bail when this goes false, so a
    /// corrupt length cannot spin them.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }

    /// Records a [`SnapError::Corrupt`] from a component's own validation
    /// (e.g. a restored queue exceeding its configured capacity).
    pub fn corrupt(&mut self, msg: &str) {
        let e = format!("{msg} in '{}'", self.path.dotted);
        self.fail(SnapError::Corrupt(e));
    }

    /// Runs `f` with `name` pushed onto the scope path, then verifies the
    /// section was consumed exactly. In streaming mode the section is
    /// freed on scope exit.
    pub fn scoped(&mut self, name: &str, f: impl FnOnce(&mut Self)) {
        let (outer, outer_len) = (self.cur, self.path.enter(name));
        self.cur = match self.pull_until_open() {
            Some(at) => {
                self.frames[at].visited = true;
                at
            }
            None => {
                self.fail(SnapError::MissingSection(self.path.dotted.clone()));
                NO_SECTION
            }
        };
        f(self);
        if let Some(frame) = self.frames.get_mut(self.cur) {
            if self.error.is_none() && frame.at != frame.data.len() {
                self.error = Some(SnapError::TrailingBytes(self.path.dotted.clone()));
            }
            if self.source.is_some() {
                frame.data = Cow::Borrowed(&[]);
                frame.compressed = None;
                self.index.remove(self.path.dotted.as_str());
            }
        }
        self.path.exit(outer_len);
        self.cur = outer;
    }

    /// The next `n` bytes of the innermost open section.
    #[inline]
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        if self.error.is_some() {
            return None;
        }
        if self.cur >= self.frames.len() {
            // Only a read outside any scope gets here without an error
            // recorded: it uses the `""` section, if one is resident.
            match self.index.get(self.path.dotted.as_str()) {
                Some(&at) => {
                    self.frames[at].visited = true;
                    self.cur = at;
                }
                None => {
                    self.error = Some(SnapError::MissingSection(self.path.dotted.clone()));
                    return None;
                }
            }
        }
        let frame = &mut self.frames[self.cur];
        if n > frame.data.len() - frame.at {
            self.error = Some(SnapError::Truncated(self.path.dotted.clone()));
            return None;
        }
        let at = frame.at;
        frame.at += n;
        Some(&frame.data[at..at + n])
    }

    /// Reads one byte (0 after an error).
    pub fn u8(&mut self) -> u8 {
        self.take(1).map_or(0, |b| b[0])
    }

    /// Reads a little-endian u16 (0 after an error).
    pub fn u16(&mut self) -> u16 {
        self.take(2).map_or(0, |b| u16::from_le_bytes(b.try_into().expect("2 bytes")))
    }

    /// Reads a little-endian u32 (0 after an error).
    pub fn u32(&mut self) -> u32 {
        self.take(4).map_or(0, |b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian u64 (0 after an error).
    pub fn u64(&mut self) -> u64 {
        self.take(8).map_or(0, |b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a little-endian u128 (0 after an error).
    pub fn u128(&mut self) -> u128 {
        self.take(16).map_or(0, |b| u128::from_le_bytes(b.try_into().expect("16 bytes")))
    }

    /// Reads a `usize` written by [`SnapWriter::usize`].
    pub fn usize(&mut self) -> usize {
        usize::try_from(self.u64()).unwrap_or_else(|_| {
            self.corrupt("usize overflow");
            0
        })
    }

    /// Reads a bool; any byte other than 0/1 is a corruption error.
    pub fn bool(&mut self) -> bool {
        match self.u8() {
            0 => false,
            1 => true,
            b => {
                self.corrupt(&format!("bool byte {b:#04x}"));
                false
            }
        }
    }

    /// Reads a length-prefixed byte string as a borrowed slice of the
    /// section buffer — no allocation. This is the restore hot path for
    /// DRAM pages and cache lines (empty after an error).
    pub fn byte_slice(&mut self) -> &[u8] {
        let len = self.u32() as usize;
        self.take(len).unwrap_or(&[])
    }

    /// Reads a length-prefixed byte string into an owned vector (empty
    /// after an error). Prefer [`SnapReader::byte_slice`] when the caller
    /// copies the bytes anyway.
    pub fn bytes(&mut self) -> Vec<u8> {
        self.byte_slice().to_vec()
    }

    /// Reads a length-prefixed UTF-8 string (empty after an error).
    pub fn str(&mut self) -> String {
        let raw = self.bytes();
        String::from_utf8(raw).unwrap_or_else(|_| {
            self.corrupt("non-UTF-8 string");
            String::new()
        })
    }

    /// Reads a count-prefixed sequence: the count [`SnapWriter::usize`]
    /// wrote, then that many items, each read by `item` as the returned
    /// iterator reaches it. Every collection decoder is this iterator,
    /// collected (`Vec`, `VecDeque`, `BTreeMap`) or extended into in place
    /// (`Ring::restore`); see [`Seq`] for why a corrupt count can neither
    /// spin it nor make it allocate without bound.
    pub fn seq<T, F: FnMut(&mut Self) -> T>(&mut self, item: F) -> Seq<'_, 'a, F> {
        let left = self.usize();
        Seq { r: self, left, item }
    }

    /// Takes the compressed payload the stream stored the innermost open
    /// section as, for its owner to hand to a later save (see
    /// [`SnapWriter::offer_compressed`]). It is returned only once the
    /// section has been read to its end with no error recorded, so it
    /// decodes to exactly the bytes the scope consumed; [`None`] for a
    /// section stored raw or read from an in-memory [`Snapshot`], and on
    /// every call after the first.
    pub fn take_compressed(&mut self) -> Option<Box<[u8]>> {
        if self.error.is_some() {
            return None;
        }
        let frame = self.frames.get_mut(self.cur)?;
        if frame.at != frame.data.len() {
            return None;
        }
        frame.compressed.take()
    }

    /// Finishes the restore: the first recorded error, or an
    /// [`SnapError::UnexpectedSection`] if the snapshot held a section no
    /// component visited (a structural mismatch the per-scope checks
    /// cannot see).
    pub fn finish(mut self) -> Result<(), SnapError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        // Drain a streaming source so its trailer (count/digest) is
        // verified even when the walk consumed every section early; any
        // section it still yields was never visited by a component.
        if let Some(mut source) = self.source.take() {
            while let Some(s) = source()? {
                self.admit_pulled(s);
            }
        }
        let unvisited =
            self.index.iter().filter(|(_, &at)| !self.frames[at].visited).map(|(name, _)| name);
        match unvisited.min() {
            Some(first) => Err(SnapError::UnexpectedSection(first.to_string())),
            None => Ok(()),
        }
    }
}

/// Most items a collection decoder preallocates room for, whatever count
/// the section declares.
const PREALLOC_ITEMS: usize = 4096;

/// The items of a count-prefixed sequence, from [`SnapReader::seq`].
///
/// This is the one loop every collection in a snapshot is read by. It ends
/// at the first recorded error, so a corrupt count cannot spin it, and its
/// `size_hint` lower bound — what `collect` and `extend` preallocate — is
/// the declared count capped at 4096 items, so a corrupt count cannot make
/// them allocate without bound either. On a corrupt section it yields
/// fewer items than that bound, which a hint permits.
#[derive(Debug)]
pub struct Seq<'r, 'a, F> {
    r: &'r mut SnapReader<'a>,
    /// Items the count declared that have not been read yet.
    left: usize,
    item: F,
}

impl<'a, T, F: FnMut(&mut SnapReader<'a>) -> T> Iterator for Seq<'_, 'a, F> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let r = &mut *self.r;
        if !r.ok() || self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some((self.item)(r))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left.min(PREALLOC_ITEMS), Some(self.left))
    }
}

/// A point-in-time capture of a platform's architectural state.
///
/// The container is `(version, config digest, cycle, ordered named
/// sections)`. Its one wire form is the `SMAPSTRM` stream:
/// [`Snapshot::write_to`] a [`StreamSink`] to serialize it, [`read_stream`]
/// to parse it back.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Snapshot format version ([`SNAP_VERSION`] when written by this build).
    pub version: u32,
    /// FNV-1a digest of the originating platform's configuration.
    pub config_digest: u64,
    /// Platform cycle at which the snapshot was taken.
    pub cycle: u64,
    sections: Vec<(String, Vec<u8>)>,
    /// The state digest a stream's trailer carried, once [`StreamSource`]
    /// has verified it against these sections.
    verified: Option<VerifiedDigest>,
}

/// A state digest together with the header fields it covers. Those are
/// public on [`Snapshot`], so the digest is trusted only while they still
/// read what was hashed.
#[derive(Debug, Clone, Copy)]
struct VerifiedDigest {
    config_digest: u64,
    cycle: u64,
    digest: u64,
}

/// Snapshots are equal when they hold the same state; where the state
/// digest came from is not part of it.
impl PartialEq for Snapshot {
    fn eq(&self, other: &Self) -> bool {
        (self.version, self.config_digest, self.cycle)
            == (other.version, other.config_digest, other.cycle)
            && self.sections == other.sections
    }
}

impl Eq for Snapshot {}

impl Snapshot {
    /// Assembles a snapshot from a finished writer.
    pub fn new(config_digest: u64, cycle: u64, w: SnapWriter) -> Self {
        Self {
            version: SNAP_VERSION,
            config_digest,
            cycle,
            sections: w.into_sections(),
            verified: None,
        }
    }

    /// The named sections in walk order.
    pub fn sections(&self) -> &[(String, Vec<u8>)] {
        &self.sections
    }

    /// The bytes of one section, if present.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections.iter().find(|(n, _)| n == name).map(|(_, b)| b.as_slice())
    }

    /// Total payload bytes across all sections.
    pub fn payload_bytes(&self) -> usize {
        self.sections.iter().map(|(_, b)| b.len()).sum()
    }

    /// The name of the first architectural section on which `self` and
    /// `other` disagree, walking both section lists in order — or [`None`]
    /// when every architectural section matches bit-for-bit.
    ///
    /// Sections under [`HOST_SECTION_PREFIX`] are skipped: host stepper
    /// diagnostics legitimately differ between the per-cycle reference and
    /// the epoch driver. A section present on one side only is itself a
    /// divergence (reported by name).
    pub fn first_divergence(&self, other: &Snapshot) -> Option<String> {
        fn arch(s: &Snapshot) -> impl Iterator<Item = &(String, Vec<u8>)> {
            s.sections.iter().filter(|(n, _)| !n.starts_with(HOST_SECTION_PREFIX) && n != "host")
        }
        let (mut a, mut b) = (arch(self), arch(other));
        loop {
            match (a.next(), b.next()) {
                (Some((an, ab)), Some((bn, bb))) => {
                    if an != bn {
                        return Some(an.min(bn).clone());
                    }
                    if ab != bb {
                        return Some(an.clone());
                    }
                }
                (Some((n, _)), None) | (None, Some((n, _))) => return Some(n.clone()),
                (None, None) => return None,
            }
        }
    }

    /// A digest over the full captured state: config digest, cycle, and
    /// every named section (name and payload, in order). The format
    /// version is excluded, so the digest is comparable across the
    /// in-memory container and the streamed wire forms. A delta records
    /// its base's state digest, which is how out-of-order chain
    /// application is rejected.
    ///
    /// A snapshot read from a stream returns the digest its trailer
    /// carried, which [`StreamSource`] has already checked against the
    /// sections; one built from a live walk or produced by
    /// [`Snapshot::apply_delta`] hashes them here.
    pub fn state_digest(&self) -> u64 {
        self.carried_digest().unwrap_or_else(|| self.compute_state_digest())
    }

    /// The state digest this snapshot's stream trailer carried, which
    /// [`read_stream`] verified against its sections; [`None`] for a
    /// snapshot built any other way, or whose header no longer reads what
    /// was hashed. Never hashes in release builds.
    pub fn carried_digest(&self) -> Option<u64> {
        let v = self.verified?;
        if (v.config_digest, v.cycle) != (self.config_digest, self.cycle) {
            return None;
        }
        debug_assert_eq!(v.digest, self.compute_state_digest(), "carried digest is stale");
        Some(v.digest)
    }

    fn compute_state_digest(&self) -> u64 {
        let mut h = StateHash::new();
        digest_header(&mut h, self.config_digest, self.cycle);
        for (n, b) in &self.sections {
            digest_section(&mut h, n, b);
        }
        h.finish()
    }

    /// Applies a delta, producing the successor snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapError::VersionMismatch`]/[`SnapError::ConfigMismatch`] when
    /// the delta is from a different build or platform config,
    /// [`SnapError::DeltaBaseMismatch`] when `self` is not the exact base
    /// the delta was computed against (chains must apply in order), and
    /// [`SnapError::Corrupt`] when the delta names a section the base does
    /// not have, or names its sections out of the base's walk order.
    pub fn apply_delta(&self, d: &SnapDelta) -> Result<Snapshot, SnapError> {
        if d.version != self.version {
            return Err(SnapError::VersionMismatch { found: d.version, expected: self.version });
        }
        if d.config_digest != self.config_digest {
            return Err(SnapError::ConfigMismatch {
                found: d.config_digest,
                expected: self.config_digest,
            });
        }
        let base_digest = self.state_digest();
        if d.base_digest != base_digest {
            return Err(SnapError::DeltaBaseMismatch {
                found: base_digest,
                expected: d.base_digest,
            });
        }
        // A delta lists its sections in the base's walk order, so one
        // pass over the base merges it.
        let mut dirty = d.sections.iter().peekable();
        let sections = self
            .sections
            .iter()
            .map(|(name, data)| {
                let data = dirty.next_if(|(n, _)| n == name).map_or(data, |(_, fresh)| fresh);
                (name.clone(), data.clone())
            })
            .collect();
        if let Some((name, _)) = dirty.next() {
            return Err(SnapError::Corrupt(format!(
                "delta section '{name}' not present in base, or out of its walk order"
            )));
        }
        // The sections changed: whatever digest the base carried is not
        // this snapshot's.
        Ok(Snapshot { cycle: d.cycle, sections, verified: None, ..*self })
    }

    /// Replays this snapshot into a sink: `begin`, every section in walk
    /// order, `finish`.
    ///
    /// # Errors
    ///
    /// Propagates the first sink error.
    pub fn write_to(&self, sink: &mut dyn SnapSink) -> Result<(), SnapError> {
        sink.begin(self.version, self.config_digest, self.cycle)?;
        for (name, data) in &self.sections {
            sink.section(name, data)?;
        }
        sink.finish()
    }

    /// Serializes to the `SMAPSTRM` wire form ([`StreamSink`]) in memory;
    /// [`read_stream`] parses it back.
    pub fn to_stream_bytes(&self, compress: bool) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut sink = StreamSink::new(&mut buf, compress);
        self.write_to(&mut sink).expect("in-memory stream sink cannot fail");
        buf
    }
}

/// The dirty sections between two snapshots of the same platform: a
/// compact increment that [`Snapshot::apply_delta`] replays onto the base
/// to reproduce the successor byte-for-byte.
///
/// A delta pins its base by **state digest**, so a chain applies in order
/// or not at all; the config digest and format version travel along
/// exactly as in the full container. A delta is an in-memory value with
/// no wire form of its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapDelta {
    /// Snapshot format version ([`SNAP_VERSION`] when written by this build).
    pub version: u32,
    /// Config digest shared by the base and successor snapshots.
    pub config_digest: u64,
    /// State digest of the base snapshot this delta applies to.
    pub base_digest: u64,
    /// Cycle of the successor snapshot.
    pub cycle: u64,
    sections: Vec<(String, Vec<u8>)>,
}

impl SnapDelta {
    /// Computes the delta that turns `base` into `next`.
    ///
    /// # Errors
    ///
    /// [`SnapError::VersionMismatch`]/[`SnapError::ConfigMismatch`] when
    /// the two snapshots are not from the same platform build and config,
    /// and [`SnapError::Corrupt`] when their section structure differs —
    /// deltas cover content changes between checkpoints of one platform,
    /// never topology changes.
    pub fn between(base: &Snapshot, next: &Snapshot) -> Result<Self, SnapError> {
        Self::streamed(base, |sink, _| next.write_to(sink))
    }

    /// The delta [`SnapDelta::between`] `base` and the snapshot `save`
    /// streams into the sink it is given, computed as the sections arrive:
    /// a clean section is compared and dropped, so the successor is never
    /// held in memory — only its dirty sections are copied. `save` also
    /// gets `base`'s state digest, so a [`SnapWriter::streaming_delta`]
    /// walk can declare sections unchanged instead of sending them.
    ///
    /// # Errors
    ///
    /// As for [`SnapDelta::between`], plus whatever `save` returns.
    pub fn streamed(
        base: &Snapshot,
        save: impl FnOnce(&mut dyn SnapSink, u64) -> Result<(), SnapError>,
    ) -> Result<Self, SnapError> {
        let base_digest = base.state_digest();
        let mut sink = DeltaSink { base, seen: 0, delta: None };
        save(&mut sink, base_digest)?;
        let mut delta = sink.delta.ok_or_else(|| SnapError::Corrupt("no snapshot began".into()))?;
        delta.base_digest = base_digest;
        Ok(delta)
    }

    /// The dirty sections, in walk order.
    pub fn sections(&self) -> &[(String, Vec<u8>)] {
        &self.sections
    }

    /// Total payload bytes across the dirty sections.
    pub fn payload_bytes(&self) -> usize {
        self.sections.iter().map(|(_, b)| b.len()).sum()
    }
}

/// The sink behind [`SnapDelta::streamed`]: checks each arriving section
/// against the base's section in the same position and keeps it only if
/// its bytes differ. The only sink that accepts a section declared
/// unchanged.
struct DeltaSink<'b> {
    base: &'b Snapshot,
    /// Sections received so far.
    seen: usize,
    /// Set by `begin`; `base_digest` is filled in once the walk is done.
    delta: Option<SnapDelta>,
}

fn structurally_different() -> SnapError {
    SnapError::Corrupt("delta between structurally different snapshots".into())
}

impl<'b> DeltaSink<'b> {
    /// Advances past the base's section in the arriving one's position,
    /// which must be named `name`, and returns its bytes.
    fn next_base_section(&mut self, name: &str) -> Result<&'b [u8], SnapError> {
        let base = self.base;
        match base.sections.get(self.seen) {
            Some((base_name, data)) if base_name == name && self.delta.is_some() => {
                self.seen += 1;
                Ok(data)
            }
            _ => Err(structurally_different()),
        }
    }
}

impl SnapSink for DeltaSink<'_> {
    fn begin(&mut self, version: u32, config_digest: u64, cycle: u64) -> Result<(), SnapError> {
        let base = self.base;
        if version != base.version {
            return Err(SnapError::VersionMismatch { found: version, expected: base.version });
        }
        if config_digest != base.config_digest {
            return Err(SnapError::ConfigMismatch {
                found: config_digest,
                expected: base.config_digest,
            });
        }
        self.seen = 0;
        let sections = Vec::new();
        self.delta = Some(SnapDelta { version, config_digest, base_digest: 0, cycle, sections });
        Ok(())
    }

    fn section(&mut self, name: &str, data: &[u8]) -> Result<(), SnapError> {
        let base_data = self.next_base_section(name)?;
        if base_data != data {
            let delta = self.delta.as_mut().expect("next_base_section checked begin");
            delta.sections.push((name.to_owned(), data.to_vec()));
        }
        Ok(())
    }

    fn unchanged(&mut self, name: &str) -> Result<&[u8], SnapError> {
        self.next_base_section(name)
    }

    fn finish(&mut self) -> Result<(), SnapError> {
        if self.seen == self.base.sections.len() {
            Ok(())
        } else {
            Err(structurally_different())
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming sinks and sources.
// ---------------------------------------------------------------------------

/// Stream magic: the first eight bytes of the section-framed checkpoint
/// stream written by [`StreamSink`].
const STREAM_MAGIC: [u8; 8] = *b"SMAPSTRM";

/// Stream header flag: section payloads may be codec-compressed.
const STREAM_FLAG_COMPRESS: u8 = 1;
/// Stream record tag: a named section follows.
const REC_SECTION: u8 = 1;
/// Stream record tag: end of stream; count and digest trailer follow.
const REC_END: u8 = 0;

/// A destination for a snapshot emitted section-by-section.
///
/// This is the streaming half of the checkpoint layer: a
/// [`SnapWriter::streaming`] walk (or [`Snapshot::write_to`]) drives
/// `begin` once, `section` per named section in walk order, and `finish`
/// once — so a sink never needs the whole snapshot in memory.
pub trait SnapSink {
    /// Starts a snapshot: format version, config digest, capture cycle.
    ///
    /// # Errors
    ///
    /// Sink-specific; a [`StreamSink`] surfaces I/O failures.
    fn begin(&mut self, version: u32, config_digest: u64, cycle: u64) -> Result<(), SnapError>;
    /// Emits one named section, in walk order.
    ///
    /// # Errors
    ///
    /// Sink-specific; a [`StreamSink`] surfaces I/O failures.
    fn section(&mut self, name: &str, data: &[u8]) -> Result<(), SnapError>;
    /// Emits one named section, in walk order, that a
    /// [`SnapWriter::streaming_delta`] walk declared equal to its section
    /// in the delta's base, without its bytes; returns the base's bytes.
    ///
    /// # Errors
    ///
    /// Only the sink behind [`SnapDelta::streamed`] has a base to check
    /// the name against; every other sink returns
    /// [`SnapError::Corrupt`], so a full image can never omit a section.
    fn unchanged(&mut self, name: &str) -> Result<&[u8], SnapError> {
        Err(SnapError::Corrupt(format!("section '{name}' declared unchanged outside a delta")))
    }
    /// True for a sink that compresses what it stores and so can use a
    /// payload handed to [`SnapSink::section_compressed`]. A writer hands
    /// payloads over only to a sink that says so; every other sink leaves
    /// them with their owners.
    fn takes_compressed(&self) -> bool {
        false
    }
    /// Emits one named section, in walk order, with `compressed`: a
    /// payload that decodes to exactly `data`, handed over by the
    /// section's owner ([`SnapWriter::offer_compressed`]), which the sink
    /// may store instead of compressing `data` again. Called only when
    /// [`SnapSink::takes_compressed`] is true; by default the payload is
    /// dropped and the section emitted as by [`SnapSink::section`].
    ///
    /// # Errors
    ///
    /// As for [`SnapSink::section`].
    fn section_compressed(
        &mut self,
        name: &str,
        data: &[u8],
        compressed: Box<[u8]>,
    ) -> Result<(), SnapError> {
        drop(compressed);
        self.section(name, data)
    }
    /// Ends the snapshot: trailers are written and buffers flushed.
    ///
    /// # Errors
    ///
    /// Sink-specific; a [`StreamSink`] surfaces I/O failures.
    fn finish(&mut self) -> Result<(), SnapError>;
}

/// Collects a streamed snapshot back into an in-memory [`Snapshot`] — the
/// compatibility sink behind full captures, so the streaming walk and the
/// owned container produce identical sections.
#[derive(Debug, Default)]
pub struct MemorySink {
    version: u32,
    config_digest: u64,
    cycle: u64,
    sections: Vec<(String, Vec<u8>)>,
}

impl MemorySink {
    /// Creates an empty memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The assembled snapshot.
    pub fn into_snapshot(self) -> Snapshot {
        Snapshot {
            version: self.version,
            config_digest: self.config_digest,
            cycle: self.cycle,
            sections: self.sections,
            verified: None,
        }
    }
}

impl SnapSink for MemorySink {
    fn begin(&mut self, version: u32, config_digest: u64, cycle: u64) -> Result<(), SnapError> {
        self.version = version;
        self.config_digest = config_digest;
        self.cycle = cycle;
        Ok(())
    }
    fn section(&mut self, name: &str, data: &[u8]) -> Result<(), SnapError> {
        self.sections.push((name.to_owned(), data.to_vec()));
        Ok(())
    }
    fn finish(&mut self) -> Result<(), SnapError> {
        Ok(())
    }
}

/// Measures a streamed snapshot without storing it: section count, raw
/// payload bytes, and the running state digest — everything a full
/// capture would report, at O(1) memory.
#[derive(Debug)]
pub struct CountingSink {
    sections: usize,
    raw_bytes: u64,
    digest: StateHash,
}

impl Default for CountingSink {
    fn default() -> Self {
        Self { sections: 0, raw_bytes: 0, digest: StateHash::new() }
    }
}

impl CountingSink {
    /// Creates a zeroed counting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of sections seen.
    pub fn sections(&self) -> usize {
        self.sections
    }

    /// Total raw payload bytes across all sections.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes
    }

    /// The state digest so far — equal to [`Snapshot::state_digest`] of
    /// the equivalent in-memory capture once the walk has finished.
    pub fn state_digest(&self) -> u64 {
        self.digest.finish()
    }
}

impl SnapSink for CountingSink {
    fn begin(&mut self, _version: u32, config_digest: u64, cycle: u64) -> Result<(), SnapError> {
        self.sections = 0;
        self.raw_bytes = 0;
        self.digest = StateHash::new();
        digest_header(&mut self.digest, config_digest, cycle);
        Ok(())
    }
    fn section(&mut self, name: &str, data: &[u8]) -> Result<(), SnapError> {
        self.sections += 1;
        self.raw_bytes += data.len() as u64;
        digest_section(&mut self.digest, name, data);
        Ok(())
    }
    fn finish(&mut self) -> Result<(), SnapError> {
        Ok(())
    }
}

fn io_err(e: std::io::Error) -> SnapError {
    SnapError::Io(e.to_string())
}

/// Writes the `SMAPSTRM` wire form to any [`Write`] — the file-backed,
/// bounded-memory checkpoint path.
///
/// ## Format
///
/// ```text
/// "SMAPSTRM" | version: u32 | config_digest: u64 | cycle: u64 | flags: u8
/// per section: tag=1 | nlen: u32 | name | raw_len: u32 | stored_len: u32 | payload
/// trailer:     tag=0 | count: u32 | state_digest: u64
/// ```
///
/// With the compress flag set, a section payload is the
/// [`codec`]-compressed bytes when that is strictly smaller, raw
/// otherwise — `stored_len == raw_len` marks a raw payload, so the two
/// cases are never ambiguous. The trailer carries the section count and
/// the state digest over the *raw* section contents, which is how
/// [`StreamSource`] rejects truncated or corrupted streams.
///
/// The stream is a function of the captured state, with one exception: a
/// compressing sink writes a section handed to
/// [`SnapSink::section_compressed`] as the payload it was restored from,
/// which is what the encoder wrote when this build wrote that stream, but
/// is re-emitted as read when another writer produced a different valid
/// payload. Either way it decodes to the same raw section, so the trailer
/// and every restore are unchanged; debug builds decode each such payload
/// and assert it.
pub struct StreamSink<W: Write> {
    w: W,
    /// The codec's match table, reused across sections; `None` writes
    /// every payload raw.
    encoder: Option<codec::Encoder>,
    count: u32,
    digest: StateHash,
    raw_bytes: u64,
    stored_bytes: u64,
    reused_bytes: u64,
}

impl<W: Write> fmt::Debug for StreamSink<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamSink")
            .field("compress", &self.encoder.is_some())
            .field("count", &self.count)
            .field("raw_bytes", &self.raw_bytes)
            .field("stored_bytes", &self.stored_bytes)
            .field("reused_bytes", &self.reused_bytes)
            .finish_non_exhaustive()
    }
}

impl<W: Write> StreamSink<W> {
    /// Creates a sink over `w`; with `compress`, section payloads go
    /// through the in-tree codec when that shrinks them.
    pub fn new(w: W, compress: bool) -> Self {
        Self {
            w,
            encoder: compress.then(codec::Encoder::new),
            count: 0,
            digest: StateHash::new(),
            raw_bytes: 0,
            stored_bytes: 0,
            reused_bytes: 0,
        }
    }

    /// Raw (uncompressed) payload bytes seen so far.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes
    }

    /// Payload bytes actually written (post-compression).
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// The part of [`StreamSink::stored_bytes`] written as payloads handed
    /// over by [`SnapSink::section_compressed`], which the encoder did not
    /// have to produce.
    pub fn reused_bytes(&self) -> u64 {
        self.reused_bytes
    }

    /// The state digest accumulated so far — after the final section,
    /// equal to [`Snapshot::state_digest`] of the captured state (also
    /// what the trailer carries). Checkpoint metadata records it to
    /// reject mismatched state/meta pairs.
    pub fn state_digest(&self) -> u64 {
        self.digest.finish()
    }

    /// Writes one section record with payload `stored`: `data` itself, or
    /// a strictly shorter payload that decodes to it.
    fn write_section(&mut self, name: &str, data: &[u8], stored: &[u8]) -> Result<(), SnapError> {
        let nlen = u32::try_from(name.len()).expect("section name exceeds u32");
        let raw_len = u32::try_from(data.len()).expect("section data exceeds u32");
        self.w.write_all(&[REC_SECTION]).map_err(io_err)?;
        self.w.write_all(&nlen.to_le_bytes()).map_err(io_err)?;
        self.w.write_all(name.as_bytes()).map_err(io_err)?;
        self.w.write_all(&raw_len.to_le_bytes()).map_err(io_err)?;
        let stored_len = u32::try_from(stored.len()).expect("stored payload exceeds u32");
        self.w.write_all(&stored_len.to_le_bytes()).map_err(io_err)?;
        self.w.write_all(stored).map_err(io_err)?;
        digest_section(&mut self.digest, name, data);
        self.count += 1;
        self.raw_bytes += data.len() as u64;
        self.stored_bytes += stored.len() as u64;
        Ok(())
    }
}

impl<W: Write> SnapSink for StreamSink<W> {
    fn begin(&mut self, version: u32, config_digest: u64, cycle: u64) -> Result<(), SnapError> {
        self.count = 0;
        self.digest = StateHash::new();
        self.raw_bytes = 0;
        self.stored_bytes = 0;
        self.reused_bytes = 0;
        self.w.write_all(&STREAM_MAGIC).map_err(io_err)?;
        self.w.write_all(&version.to_le_bytes()).map_err(io_err)?;
        self.w.write_all(&config_digest.to_le_bytes()).map_err(io_err)?;
        self.w.write_all(&cycle.to_le_bytes()).map_err(io_err)?;
        let flags = if self.encoder.is_some() { STREAM_FLAG_COMPRESS } else { 0 };
        self.w.write_all(&[flags]).map_err(io_err)?;
        digest_header(&mut self.digest, config_digest, cycle);
        Ok(())
    }

    fn section(&mut self, name: &str, data: &[u8]) -> Result<(), SnapError> {
        let packed;
        let stored: &[u8] = match &mut self.encoder {
            Some(encoder) => {
                packed = encoder.compress(data);
                if packed.len() < data.len() {
                    &packed
                } else {
                    data
                }
            }
            None => data,
        };
        self.write_section(name, data, stored)
    }

    fn takes_compressed(&self) -> bool {
        self.encoder.is_some()
    }

    fn section_compressed(
        &mut self,
        name: &str,
        data: &[u8],
        compressed: Box<[u8]>,
    ) -> Result<(), SnapError> {
        // A payload as long as the section would read back as raw bytes.
        if self.encoder.is_none() || compressed.len() >= data.len() {
            return self.section(name, data);
        }
        debug_assert!(
            codec::decompress(&compressed).is_ok_and(|raw| raw == data),
            "section '{name}': the handed-off payload does not decode to the section"
        );
        self.reused_bytes += compressed.len() as u64;
        self.write_section(name, data, &compressed)
    }

    fn finish(&mut self) -> Result<(), SnapError> {
        self.w.write_all(&[REC_END]).map_err(io_err)?;
        self.w.write_all(&self.count.to_le_bytes()).map_err(io_err)?;
        self.w.write_all(&self.digest.finish().to_le_bytes()).map_err(io_err)?;
        self.w.flush().map_err(io_err)
    }
}

fn read_exact_snap(r: &mut impl Read, buf: &mut [u8]) -> Result<(), SnapError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SnapError::Corrupt("stream truncated".into())
        } else {
            io_err(e)
        }
    })
}

fn read_u8_snap(r: &mut impl Read) -> Result<u8, SnapError> {
    let mut b = [0u8; 1];
    read_exact_snap(r, &mut b)?;
    Ok(b[0])
}

fn read_u32_snap(r: &mut impl Read) -> Result<u32, SnapError> {
    let mut b = [0u8; 4];
    read_exact_snap(r, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64_snap(r: &mut impl Read) -> Result<u64, SnapError> {
    let mut b = [0u8; 8];
    read_exact_snap(r, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads `len` bytes with bounded preallocation, so a corrupt length
/// cannot force a huge allocation before truncation is detected.
fn read_vec_snap(r: &mut impl Read, len: usize) -> Result<Vec<u8>, SnapError> {
    let mut buf = Vec::with_capacity(len.min(1 << 20));
    let got = (&mut *r).take(len as u64).read_to_end(&mut buf).map_err(io_err)?;
    if got != len {
        return Err(SnapError::Corrupt("stream truncated".into()));
    }
    Ok(buf)
}

/// Reads the `SMAPSTRM` wire form from any [`Read`], yielding sections
/// one at a time.
///
/// Magic, version, and flags are validated up front; each compressed
/// payload is decoded and length-checked as it arrives; and the
/// count/digest trailer is verified when the end record is reached — so
/// truncation and corruption are typed errors, never silent partial
/// restores.
pub struct StreamSource<R: Read> {
    r: R,
    version: u32,
    config_digest: u64,
    cycle: u64,
    compressed: bool,
    count: u32,
    digest: StateHash,
    done: bool,
}

impl<R: Read> fmt::Debug for StreamSource<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamSource")
            .field("version", &self.version)
            .field("config_digest", &self.config_digest)
            .field("cycle", &self.cycle)
            .field("compressed", &self.compressed)
            .field("count", &self.count)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl<R: Read> StreamSource<R> {
    /// Opens a stream, validating magic, version, and flags.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadMagic`], [`SnapError::VersionMismatch`],
    /// [`SnapError::Corrupt`] on unknown flags or truncation, or
    /// [`SnapError::Io`].
    pub fn open(mut r: R) -> Result<Self, SnapError> {
        let mut magic = [0u8; 8];
        read_exact_snap(&mut r, &mut magic)?;
        if magic != STREAM_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = read_u32_snap(&mut r)?;
        if version != SNAP_VERSION {
            return Err(SnapError::VersionMismatch { found: version, expected: SNAP_VERSION });
        }
        let config_digest = read_u64_snap(&mut r)?;
        let cycle = read_u64_snap(&mut r)?;
        let flags = read_u8_snap(&mut r)?;
        if flags & !STREAM_FLAG_COMPRESS != 0 {
            return Err(SnapError::Corrupt(format!("unknown stream flags {flags:#04x}")));
        }
        let mut digest = StateHash::new();
        digest_header(&mut digest, config_digest, cycle);
        Ok(Self {
            r,
            version,
            config_digest,
            cycle,
            compressed: flags & STREAM_FLAG_COMPRESS != 0,
            count: 0,
            digest,
            done: false,
        })
    }

    /// Stream format version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Config digest of the captured platform.
    pub fn config_digest(&self) -> u64 {
        self.config_digest
    }

    /// Cycle at which the stream was captured.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The trailer's state digest, once [`StreamSource::next_section`] has
    /// reached the end record and checked it against every section.
    pub fn verified_digest(&self) -> Option<u64> {
        self.done.then(|| self.digest.finish())
    }

    /// The next section, or `Ok(None)` once the end record has been
    /// reached and its trailer verified. A section stored compressed
    /// keeps its payload beside the raw bytes, in a buffer of exactly its
    /// length.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] on truncation, an unknown record tag, a
    /// codec failure, a decompressed-length mismatch, or a count/digest
    /// trailer mismatch; [`SnapError::Io`] on underlying read failures.
    pub fn next_section(&mut self) -> Result<Option<StreamSection>, SnapError> {
        if self.done {
            return Ok(None);
        }
        let tag = read_u8_snap(&mut self.r)?;
        match tag {
            REC_END => {
                let count = read_u32_snap(&mut self.r)?;
                let digest = read_u64_snap(&mut self.r)?;
                if count != self.count {
                    return Err(SnapError::Corrupt(format!(
                        "stream yielded {} sections, trailer says {count}",
                        self.count
                    )));
                }
                if digest != self.digest.finish() {
                    return Err(SnapError::Corrupt("stream state digest mismatch".into()));
                }
                self.done = true;
                Ok(None)
            }
            REC_SECTION => {
                let nlen = read_u32_snap(&mut self.r)? as usize;
                if nlen > 4096 {
                    return Err(SnapError::Corrupt("section name length implausible".into()));
                }
                let name = String::from_utf8(read_vec_snap(&mut self.r, nlen)?)
                    .map_err(|_| SnapError::Corrupt("non-UTF-8 section name".into()))?;
                let raw_len = read_u32_snap(&mut self.r)? as usize;
                let stored_len = read_u32_snap(&mut self.r)? as usize;
                let stored = read_vec_snap(&mut self.r, stored_len)?;
                let (data, compressed) = if stored_len == raw_len {
                    (stored, None)
                } else {
                    if !self.compressed {
                        return Err(SnapError::Corrupt(
                            "compressed section in an uncompressed stream".into(),
                        ));
                    }
                    let raw = codec::decompress(&stored)
                        .map_err(|e| SnapError::Corrupt(format!("section '{name}': {e}")))?;
                    if raw.len() != raw_len {
                        return Err(SnapError::Corrupt(format!(
                            "section '{name}' decompressed to the wrong length"
                        )));
                    }
                    (raw, Some(stored.into_boxed_slice()))
                };
                digest_section(&mut self.digest, &name, &data);
                self.count = self.count.wrapping_add(1);
                Ok(Some(StreamSection { name, data, compressed }))
            }
            t => Err(SnapError::Corrupt(format!("unknown stream record tag {t:#04x}"))),
        }
    }
}

/// Reads an entire [`StreamSink`] stream into an in-memory [`Snapshot`].
///
/// # Errors
///
/// Any [`StreamSource`] validation failure.
pub fn read_stream(r: impl Read) -> Result<Snapshot, SnapError> {
    let mut src = StreamSource::open(r)?;
    let mut sections = Vec::new();
    while let Some(s) = src.next_section()? {
        sections.push((s.name, s.data));
    }
    let (config_digest, cycle) = (src.config_digest(), src.cycle());
    // `next_section` returned `None`, so the trailer's digest has been
    // checked against exactly these sections.
    let verified =
        src.verified_digest().map(|digest| VerifiedDigest { config_digest, cycle, digest });
    Ok(Snapshot { version: src.version(), config_digest, cycle, sections, verified })
}

/// The state digest: a word-at-a-time multiply–xorshift hash.
///
/// Each `write` folds its bytes in as little-endian 8-byte words, one
/// multiply each; a last partial word is zero-padded with its length in
/// the top byte. The xor-shift after the multiply carries high input bits
/// into the low output bits, which a multiply alone never does. A digest
/// is defined by the sequence of `write` calls, so every path that feeds
/// it (`digest_header`, `digest_section`) makes the same calls.
///
/// Every step is a bijection of the running state for a fixed word, so
/// two inputs that differ in a single word — any single-bit flip — never
/// collide.
#[derive(Debug, Clone)]
struct StateHash(u64);

impl StateHash {
    const MUL: u64 = 0x9E37_79B9_7F4A_7C15;

    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    fn mix(&mut self, word: u64) {
        let h = (self.0 ^ word).wrapping_mul(Self::MUL);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            last[7] = tail.len() as u8;
            self.mix(u64::from_le_bytes(last));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Feeds the (config digest, cycle) header into a state digest.
fn digest_header(h: &mut StateHash, config_digest: u64, cycle: u64) {
    h.write(&config_digest.to_le_bytes());
    h.write(&cycle.to_le_bytes());
}

/// Feeds one named section into a state digest.
fn digest_section(h: &mut StateHash, name: &str, data: &[u8]) {
    h.write(&(name.len() as u32).to_le_bytes());
    h.write(name.as_bytes());
    h.write(&(data.len() as u32).to_le_bytes());
    h.write(data);
}

/// FNV-1a over a byte string; used for the snapshot config digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

// ---------------------------------------------------------------------------
// Pack impls for primitives and standard containers.
// ---------------------------------------------------------------------------

impl Pack for u8 {
    fn pack(&self, w: &mut SnapWriter) {
        w.u8(*self);
    }
    fn unpack(r: &mut SnapReader) -> Self {
        r.u8()
    }
}

impl Pack for u16 {
    fn pack(&self, w: &mut SnapWriter) {
        w.u16(*self);
    }
    fn unpack(r: &mut SnapReader) -> Self {
        r.u16()
    }
}

impl Pack for u32 {
    fn pack(&self, w: &mut SnapWriter) {
        w.u32(*self);
    }
    fn unpack(r: &mut SnapReader) -> Self {
        r.u32()
    }
}

impl Pack for u64 {
    fn pack(&self, w: &mut SnapWriter) {
        w.u64(*self);
    }
    fn unpack(r: &mut SnapReader) -> Self {
        r.u64()
    }
}

impl Pack for u128 {
    fn pack(&self, w: &mut SnapWriter) {
        w.u128(*self);
    }
    fn unpack(r: &mut SnapReader) -> Self {
        r.u128()
    }
}

impl Pack for usize {
    fn pack(&self, w: &mut SnapWriter) {
        w.usize(*self);
    }
    fn unpack(r: &mut SnapReader) -> Self {
        r.usize()
    }
}

impl Pack for bool {
    fn pack(&self, w: &mut SnapWriter) {
        w.bool(*self);
    }
    fn unpack(r: &mut SnapReader) -> Self {
        r.bool()
    }
}

impl Pack for String {
    fn pack(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn unpack(r: &mut SnapReader) -> Self {
        r.str()
    }
}

impl<T: Pack> Pack for Option<T> {
    fn pack(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.pack(w);
            }
        }
    }
    fn unpack(r: &mut SnapReader) -> Self {
        match r.u8() {
            0 => None,
            _ => Some(T::unpack(r)),
        }
    }
}

impl Pack for i16 {
    fn pack(&self, w: &mut SnapWriter) {
        w.u16(*self as u16);
    }
    fn unpack(r: &mut SnapReader) -> Self {
        r.u16() as i16
    }
}

// Collections are a count and then their items, in iteration order —
// sorted for `BTreeMap` — and read back through `SnapReader::seq`.

impl<T: Pack> Pack for Vec<T> {
    fn pack(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.pack(w);
        }
    }
    fn unpack(r: &mut SnapReader) -> Self {
        r.seq(T::unpack).collect()
    }
}

/// The codec `Ring` and the traffic shaper's in-flight queue ride on.
#[allow(clippy::disallowed_types)]
impl<T: Pack> Pack for VecDeque<T> {
    fn pack(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.pack(w);
        }
    }
    fn unpack(r: &mut SnapReader) -> Self {
        r.seq(T::unpack).collect()
    }
}

impl<K: Pack + Ord, V: Pack> Pack for BTreeMap<K, V> {
    fn pack(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for (k, v) in self {
            k.pack(w);
            v.pack(w);
        }
    }
    fn unpack(r: &mut SnapReader) -> Self {
        r.seq(<(K, V)>::unpack).collect()
    }
}

impl<A: Pack, B: Pack> Pack for (A, B) {
    fn pack(&self, w: &mut SnapWriter) {
        self.0.pack(w);
        self.1.pack(w);
    }
    fn unpack(r: &mut SnapReader) -> Self {
        (A::unpack(r), B::unpack(r))
    }
}

impl<A: Pack, B: Pack, C: Pack> Pack for (A, B, C) {
    fn pack(&self, w: &mut SnapWriter) {
        self.0.pack(w);
        self.1.pack(w);
        self.2.pack(w);
    }
    fn unpack(r: &mut SnapReader) -> Self {
        (A::unpack(r), B::unpack(r), C::unpack(r))
    }
}

impl<A: Pack, B: Pack, C: Pack, D: Pack> Pack for (A, B, C, D) {
    fn pack(&self, w: &mut SnapWriter) {
        self.0.pack(w);
        self.1.pack(w);
        self.2.pack(w);
        self.3.pack(w);
    }
    fn unpack(r: &mut SnapReader) -> Self {
        (A::unpack(r), B::unpack(r), C::unpack(r), D::unpack(r))
    }
}

impl<A: Pack, B: Pack, C: Pack, D: Pack, E: Pack> Pack for (A, B, C, D, E) {
    fn pack(&self, w: &mut SnapWriter) {
        self.0.pack(w);
        self.1.pack(w);
        self.2.pack(w);
        self.3.pack(w);
        self.4.pack(w);
    }
    fn unpack(r: &mut SnapReader) -> Self {
        (A::unpack(r), B::unpack(r), C::unpack(r), D::unpack(r), E::unpack(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(build: impl FnOnce(&mut SnapWriter)) -> Snapshot {
        let mut w = SnapWriter::new();
        build(&mut w);
        let snap = Snapshot::new(7, 100, w);
        read_stream(&snap.to_stream_bytes(true)[..]).expect("wire round-trip")
    }

    #[test]
    fn primitives_round_trip_through_wire_form() {
        let snap = roundtrip(|w| {
            w.scoped("a", |w| {
                w.u8(1);
                w.u16(2);
                w.u32(3);
                w.u64(4);
                w.u128(5);
                w.usize(6);
                w.bool(true);
                w.bytes(&[9, 9]);
                w.str("hi");
            });
        });
        assert_eq!(snap.version, SNAP_VERSION);
        assert_eq!(snap.config_digest, 7);
        assert_eq!(snap.cycle, 100);
        let mut r = SnapReader::new(&snap);
        r.scoped("a", |r| {
            assert_eq!(r.u8(), 1);
            assert_eq!(r.u16(), 2);
            assert_eq!(r.u32(), 3);
            assert_eq!(r.u64(), 4);
            assert_eq!(r.u128(), 5);
            assert_eq!(r.usize(), 6);
            assert!(r.bool());
            assert_eq!(r.bytes(), vec![9, 9]);
            assert_eq!(r.str(), "hi");
        });
        r.finish().expect("clean restore");
    }

    #[test]
    fn nested_scopes_get_distinct_sections() {
        let mut w = SnapWriter::new();
        w.scoped("fpga0", |w| {
            w.u8(1);
            w.scoped("node0", |w| {
                w.u8(2);
                w.scoped("tile0", |w| w.u8(3));
            });
        });
        let snap = Snapshot::new(0, 0, w);
        let names: Vec<&str> = snap.sections().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["fpga0", "fpga0.node0", "fpga0.node0.tile0"]);
        assert_eq!(snap.section("fpga0.node0"), Some(&[2u8][..]));
    }

    #[test]
    fn empty_scopes_still_emit_sections() {
        let mut w = SnapWriter::new();
        w.scoped("quiet", |_| {});
        let snap = Snapshot::new(0, 0, w);
        assert_eq!(snap.section("quiet"), Some(&[][..]));
        let mut r = SnapReader::new(&snap);
        r.scoped("quiet", |_| {});
        r.finish().expect("empty section restores cleanly");
    }

    #[test]
    fn trailing_bytes_are_a_versioned_error() {
        let mut w = SnapWriter::new();
        w.scoped("c", |w| {
            w.u64(1);
            w.u64(2); // a "future field" this build does not read
        });
        let snap = Snapshot::new(0, 0, w);
        let mut r = SnapReader::new(&snap);
        r.scoped("c", |r| {
            let _ = r.u64();
        });
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes("c".into())));
    }

    #[test]
    fn truncated_section_reports_and_returns_defaults() {
        let mut w = SnapWriter::new();
        w.scoped("c", |w| w.u8(5));
        let snap = Snapshot::new(0, 0, w);
        let mut r = SnapReader::new(&snap);
        r.scoped("c", |r| {
            assert_eq!(r.u8(), 5);
            assert_eq!(r.u64(), 0, "post-error reads return defaults");
            assert_eq!(r.str(), "", "post-error reads return defaults");
        });
        assert_eq!(r.finish(), Err(SnapError::Truncated("c".into())));
    }

    #[test]
    fn missing_and_unexpected_sections_are_errors() {
        let mut w = SnapWriter::new();
        w.scoped("present", |w| w.u8(1));
        let snap = Snapshot::new(0, 0, w);

        let mut r = SnapReader::new(&snap);
        r.scoped("absent", |_| {});
        assert_eq!(r.finish(), Err(SnapError::MissingSection("absent".into())));

        let r = SnapReader::new(&snap);
        // Never visit "present": the snapshot holds state this build has no
        // component for.
        assert_eq!(r.finish(), Err(SnapError::UnexpectedSection("present".into())));
    }

    #[test]
    fn parent_fields_around_a_child_scope_land_in_the_parent_section() {
        let mut w = SnapWriter::new();
        w.scoped("node", |w| {
            w.u8(1);
            w.scoped("tile", |w| w.u8(9));
            w.u8(2);
        });
        let snap = Snapshot::new(0, 0, w);
        assert_eq!(snap.section("node"), Some(&[1u8, 2][..]));
        assert_eq!(snap.section("node.tile"), Some(&[9u8][..]));
        let mut r = SnapReader::new(&snap);
        r.scoped("node", |r| {
            assert_eq!(r.u8(), 1);
            r.scoped("tile", |r| assert_eq!(r.u8(), 9));
            assert_eq!(r.u8(), 2);
        });
        r.finish().expect("clean restore");
    }

    #[test]
    fn reentering_a_scope_appends_and_resumes_at_the_saved_cursor() {
        let mut w = SnapWriter::new();
        w.scoped("a", |w| w.u8(1));
        w.scoped("b", |w| w.u8(7));
        w.scoped("a", |w| w.u8(2));
        let snap = Snapshot::new(0, 0, w);
        let names: Vec<&str> = snap.sections().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b"], "re-entry opens no second section");
        assert_eq!(snap.section("a"), Some(&[1u8, 2][..]));

        let mut r = SnapReader::new(&snap);
        r.scoped("a", |r| {
            assert_eq!(r.u8(), 1);
            assert_eq!(r.u8(), 2);
        });
        r.scoped("b", |r| assert_eq!(r.u8(), 7));
        // Fully consumed: a later visit resumes at the end and reads nothing.
        r.scoped("a", |_| {});
        r.finish().expect("clean restore");

        // A visit that stops short is a trailing-bytes error at that exit,
        // even though a later visit would have read the rest.
        let mut r = SnapReader::new(&snap);
        r.scoped("a", |r| assert_eq!(r.u8(), 1));
        r.scoped("a", |r| assert_eq!(r.u8(), 0, "post-error reads return defaults"));
        assert_eq!(r.finish(), Err(SnapError::TrailingBytes("a".into())));
    }

    #[test]
    fn fields_outside_any_scope_use_the_unnamed_section() {
        let mut w = SnapWriter::new();
        w.u8(1);
        w.scoped("a", |w| w.u8(5));
        w.u8(2);
        let snap = Snapshot::new(0, 0, w);
        let names: Vec<&str> = snap.sections().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["", "a"]);
        assert_eq!(snap.section(""), Some(&[1u8, 2][..]));
        let mut r = SnapReader::new(&snap);
        assert_eq!(r.u8(), 1);
        r.scoped("a", |r| assert_eq!(r.u8(), 5));
        assert_eq!(r.u8(), 2);
        r.finish().expect("clean restore");

        // Without such a section the first unscoped read is the error.
        let mut w = SnapWriter::new();
        w.scoped("a", |w| w.u8(5));
        let snap = Snapshot::new(0, 0, w);
        let mut r = SnapReader::new(&snap);
        assert_eq!(r.u8(), 0);
        assert_eq!(r.finish(), Err(SnapError::MissingSection(String::new())));

        // A streaming writer flushes the unnamed section with the first
        // top-level scope; writing to it again reopens a streamed section.
        let mut sink = CountingSink::new();
        sink.begin(SNAP_VERSION, 0, 0).expect("begin");
        let mut w = SnapWriter::streaming(&mut sink);
        w.u8(1);
        w.scoped("a", |w| w.u8(5));
        w.u8(2);
        assert!(matches!(w.finish(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn a_missing_section_is_reported_once_and_later_scopes_stay_aligned() {
        let mut w = SnapWriter::new();
        w.scoped("a", |w| w.u8(1));
        w.scoped("c", |w| w.scoped("d", |w| w.u8(3)));
        let snap = Snapshot::new(0, 0, w);
        let mut r = SnapReader::new(&snap);
        r.scoped("a", |r| assert_eq!(r.u8(), 1));
        r.scoped("b", |r| {
            assert!(!r.ok());
            assert_eq!(r.u64(), 0);
            r.scoped("also-absent", |r| assert_eq!(r.u8(), 0));
        });
        // The walk carries on with defaults; paths still nest correctly,
        // which `corrupt` shows by naming the scope it was called in.
        r.scoped("c", |r| {
            r.scoped("d", |r| {
                assert_eq!(r.u8(), 0);
                r.corrupt("ignored: not the first error");
            });
        });
        assert_eq!(r.finish(), Err(SnapError::MissingSection("b".into())));

        let mut r = SnapReader::new(&snap);
        r.scoped("a", |r| assert_eq!(r.u8(), 1));
        r.scoped("c", |r| r.scoped("d", |r| r.corrupt("bad")));
        assert_eq!(r.finish(), Err(SnapError::Corrupt("bad in 'c.d'".into())));
    }

    #[test]
    fn streaming_reader_frees_a_section_when_its_scope_closes() {
        let snap = sample(4, 50);
        let wire = snap.to_stream_bytes(false);
        let mut src = StreamSource::open(&wire[..]).expect("open");
        let mut r = SnapReader::from_source(Box::new(move || src.next_section()));
        r.scoped("alpha", |r| {
            let _ = (r.u64(), r.byte_slice());
        });
        assert!(r.index.is_empty(), "nothing resident between top-level scopes");
        assert!(r.frames.iter().all(|f| f.data.is_empty()), "section bytes are dropped");
        // A freed section is gone: asking for it again finds nothing.
        r.scoped("alpha", |_| {});
        assert_eq!(r.finish(), Err(SnapError::MissingSection("alpha".into())));
    }

    #[test]
    fn streaming_writer_frees_a_section_when_its_top_level_scope_closes() {
        let mut sink = MemorySink::new();
        sink.begin(SNAP_VERSION, 0, 0).expect("begin");
        let mut w = SnapWriter::streaming(&mut sink);
        w.scoped("fpga0", |w| {
            w.scoped("node0", |w| w.bytes(&[1; 64]));
            assert!(w.sections.iter().any(|(_, b)| !b.is_empty()), "held until the top closes");
        });
        assert!(w.sections.iter().all(|(_, b)| b.capacity() == 0), "buffers handed over");
        w.finish().expect("streamed walk");
        assert_eq!(sink.into_snapshot().section("fpga0.node0").map(<[u8]>::len), Some(68));
    }

    #[test]
    fn wire_form_rejects_bad_magic_and_version() {
        let snap = roundtrip(|w| w.scoped("a", |w| w.u8(1)));
        let mut bytes = snap.to_stream_bytes(false);
        bytes[0] = b'X';
        assert_eq!(read_stream(&bytes[..]), Err(SnapError::BadMagic));

        let mut bytes = snap.to_stream_bytes(false);
        bytes[8] = 0xFF; // version low byte
        assert!(matches!(
            read_stream(&bytes[..]),
            Err(SnapError::VersionMismatch { expected: SNAP_VERSION, .. })
        ));
    }

    #[test]
    fn first_divergence_names_the_first_differing_section() {
        let build = |x: u8| {
            let mut w = SnapWriter::new();
            w.scoped("alpha", |w| w.u8(1));
            w.scoped("beta", |w| w.u8(x));
            w.scoped("gamma", |w| w.u8(9));
            Snapshot::new(0, 0, w)
        };
        let a = build(2);
        let b = build(3);
        assert_eq!(a.first_divergence(&a.clone()), None);
        assert_eq!(a.first_divergence(&b), Some("beta".into()));
    }

    #[test]
    fn first_divergence_skips_host_sections() {
        let build = |epochs: u64| {
            let mut w = SnapWriter::new();
            w.scoped("arch", |w| w.u8(1));
            w.scoped("host", |w| w.scoped("stepper", |w| w.u64(epochs)));
            Snapshot::new(0, 0, w)
        };
        let reference = build(0);
        let driven = build(99);
        assert_eq!(reference.first_divergence(&driven), None);
    }

    #[test]
    fn first_divergence_reports_structural_mismatch() {
        let mut w = SnapWriter::new();
        w.scoped("a", |w| w.u8(1));
        let short = Snapshot::new(0, 0, w);
        let mut w = SnapWriter::new();
        w.scoped("a", |w| w.u8(1));
        w.scoped("b", |w| w.u8(2));
        let long = Snapshot::new(0, 0, w);
        assert_eq!(short.first_divergence(&long), Some("b".into()));
        assert_eq!(long.first_divergence(&short), Some("b".into()));
    }

    #[test]
    #[allow(clippy::disallowed_types)] // round-trips the `VecDeque` codec
    fn pack_round_trips_containers() {
        let map: BTreeMap<u16, (u64, bool)> = [(9, (90, true)), (2, (20, false))].into();
        let deque: VecDeque<i16> = [-3, 0, i16::MIN, i16::MAX].into();
        let ring: crate::Ring<u64> = [5, 6, 7].into_iter().collect();
        let mut w = SnapWriter::new();
        w.scoped("p", |w| {
            Some(7u64).pack(w);
            Option::<u64>::None.pack(w);
            vec![1u32, 2, 3].pack(w);
            (4u16, true).pack(w);
            (1u8, 2u64, String::from("x")).pack(w);
            (-2i16).pack(w);
            map.pack(w);
            BTreeMap::<u64, u64>::new().pack(w);
            deque.pack(w);
            ring.pack(w);
        });
        let snap = Snapshot::new(0, 0, w);
        let mut r = SnapReader::new(&snap);
        r.scoped("p", |r| {
            assert_eq!(Option::<u64>::unpack(r), Some(7));
            assert_eq!(Option::<u64>::unpack(r), None);
            assert_eq!(Vec::<u32>::unpack(r), vec![1, 2, 3]);
            assert_eq!(<(u16, bool)>::unpack(r), (4, true));
            assert_eq!(<(u8, u64, String)>::unpack(r), (1, 2, "x".into()));
            assert_eq!(i16::unpack(r), -2);
            assert_eq!(BTreeMap::unpack(r), map);
            assert!(BTreeMap::<u64, u64>::unpack(r).is_empty());
            assert_eq!(VecDeque::unpack(r), deque);
            let back = crate::Ring::<u64>::unpack(r);
            assert_eq!(back.iter().collect::<Vec<_>>(), ring.iter().collect::<Vec<_>>());
        });
        r.finish().expect("clean");
    }

    #[test]
    fn a_sequence_stops_at_its_first_error() {
        // The count promises three u64s; the section holds one and a half.
        let mut w = SnapWriter::new();
        w.scoped("s", |w| {
            w.usize(3);
            w.u64(11);
            w.u32(0);
        });
        let snap = Snapshot::new(0, 0, w);
        let mut r = SnapReader::new(&snap);
        let mut reads = 0;
        r.scoped("s", |r| {
            let got: Vec<u64> = r
                .seq(|r| {
                    reads += 1;
                    r.u64()
                })
                .collect();
            assert_eq!(got, [11, 0], "the truncated read yields a default");
        });
        assert_eq!(reads, 2, "no item is read after the error");
        assert_eq!(r.finish(), Err(SnapError::Truncated("s".into())));
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    /// A small three-section snapshot with tweakable content.
    fn sample(x: u8, cycle: u64) -> Snapshot {
        let mut w = SnapWriter::new();
        sample_walk(&mut w, x, None);
        Snapshot::new(42, cycle, w)
    }

    /// The walk behind [`sample`], its `alpha` scope declared to match the
    /// image with state digest `alpha_matches`.
    fn sample_walk(w: &mut SnapWriter, x: u8, alpha_matches: Option<u64>) {
        w.scoped_matching("alpha", alpha_matches, |w| {
            w.u64(7);
            w.bytes(&vec![x; 4096]);
        });
        w.scoped("beta", |w| w.u8(x));
        w.scoped("host", |w| w.scoped("stepper", |w| w.u64(9)));
    }

    /// The delta from `base` to `sample(x, 20)`, streamed by a delta
    /// writer with `alpha` declared to match `alpha_matches`.
    fn sample_delta(
        base: &Snapshot,
        x: u8,
        alpha_matches: Option<u64>,
    ) -> Result<SnapDelta, SnapError> {
        SnapDelta::streamed(base, |sink, base_digest| {
            sink.begin(SNAP_VERSION, 42, 20)?;
            let mut w = SnapWriter::streaming_delta(sink, base_digest);
            sample_walk(&mut w, x, alpha_matches);
            w.finish()?;
            sink.finish()
        })
    }

    #[test]
    fn byte_slice_borrows_without_allocating() {
        let snap = sample(3, 0);
        let mut r = SnapReader::new(&snap);
        r.scoped("alpha", |r| {
            assert_eq!(r.u64(), 7);
            assert_eq!(r.byte_slice(), &[3u8; 4096][..]);
        });
        r.scoped("beta", |r| {
            assert_eq!(r.u8(), 3);
        });
        r.scoped("host", |r| r.scoped("stepper", |r| assert_eq!(r.u64(), 9)));
        r.finish().expect("clean restore");
    }

    #[test]
    fn streaming_writer_matches_accumulating_writer() {
        let walk = |w: &mut SnapWriter| {
            w.scoped("fpga0", |w| {
                w.u64(1);
                w.scoped("node0", |w| w.bytes(&[1, 2, 3]));
            });
            w.scoped("fpga1", |w| w.u64(2));
        };
        let mut w = SnapWriter::new();
        walk(&mut w);
        let direct = Snapshot::new(5, 10, w);

        let mut sink = MemorySink::new();
        sink.begin(SNAP_VERSION, 5, 10).expect("begin");
        let mut w = SnapWriter::streaming(&mut sink);
        walk(&mut w);
        w.finish().expect("streamed walk");
        sink.finish().expect("finish");
        let streamed = sink.into_snapshot();
        assert_eq!(direct, streamed);
    }

    #[test]
    fn streaming_writer_rejects_reopened_sections() {
        let mut sink = CountingSink::new();
        sink.begin(SNAP_VERSION, 0, 0).expect("begin");
        let mut w = SnapWriter::streaming(&mut sink);
        w.scoped("a", |w| w.u8(1));
        w.scoped("a", |w| w.u8(2)); // already flushed to the sink
        assert!(matches!(w.finish(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn counting_sink_agrees_with_state_digest() {
        let snap = sample(9, 77);
        let mut sink = CountingSink::new();
        snap.write_to(&mut sink).expect("count");
        assert_eq!(sink.sections(), snap.sections().len());
        assert_eq!(sink.raw_bytes(), snap.payload_bytes() as u64);
        assert_eq!(sink.state_digest(), snap.state_digest());
    }

    #[test]
    fn stream_round_trips_compressed_and_raw() {
        let snap = sample(0, 123);
        for compress in [false, true] {
            let wire = snap.to_stream_bytes(compress);
            let back = read_stream(&wire[..]).expect("stream round-trip");
            assert_eq!(back, snap);
        }
        // Zero-heavy payloads must actually shrink under compression.
        assert!(snap.to_stream_bytes(true).len() * 2 < snap.to_stream_bytes(false).len());
    }

    #[test]
    fn stream_rejects_truncation_and_corruption() {
        let snap = sample(1, 5);
        let wire = snap.to_stream_bytes(true);
        for cut in [0, 7, 8, 20, wire.len() / 2, wire.len() - 1] {
            assert!(read_stream(&wire[..cut]).is_err(), "truncation at {cut} must not parse");
        }
        let mut bad = wire.clone();
        bad[0] = b'X';
        assert_eq!(read_stream(&bad[..]), Err(SnapError::BadMagic));
        let mut bad = wire.clone();
        *bad.last_mut().expect("non-empty") ^= 0xFF; // trailer digest
        assert!(matches!(read_stream(&bad[..]), Err(SnapError::Corrupt(_))));
        let mut bad = wire;
        bad[28] ^= 0x40; // flags byte: unknown flag bit
        assert!(matches!(read_stream(&bad[..]), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn streaming_reader_restores_from_a_source() {
        let snap = sample(4, 50);
        let wire = snap.to_stream_bytes(true);
        let mut src = StreamSource::open(&wire[..]).expect("open");
        let mut r = SnapReader::from_source(Box::new(move || src.next_section()));
        r.scoped("alpha", |r| {
            assert_eq!(r.u64(), 7);
            assert_eq!(r.byte_slice(), &[4u8; 4096][..]);
        });
        r.scoped("beta", |r| assert_eq!(r.u8(), 4));
        r.scoped("host", |r| r.scoped("stepper", |r| assert_eq!(r.u64(), 9)));
        r.finish().expect("streamed restore");
    }

    #[test]
    fn streaming_reader_reports_unvisited_sections() {
        let snap = sample(4, 50);
        let wire = snap.to_stream_bytes(false);
        let mut src = StreamSource::open(&wire[..]).expect("open");
        let mut r = SnapReader::from_source(Box::new(move || src.next_section()));
        r.scoped("alpha", |r| {
            assert_eq!(r.u64(), 7);
            let _ = r.bytes();
        });
        // "beta" and "host.stepper" never visited.
        assert!(matches!(r.finish(), Err(SnapError::UnexpectedSection(_))));
    }

    #[test]
    fn delta_covers_only_dirty_sections_and_applies() {
        let base = sample(1, 100);
        let next = sample(2, 200);
        let d = SnapDelta::between(&base, &next).expect("delta");
        // "host.stepper" is identical; "alpha" and "beta" changed.
        let dirty: Vec<&str> = d.sections().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(dirty, ["alpha", "beta"]);
        let rebuilt = base.apply_delta(&d).expect("apply");
        assert_eq!(rebuilt, next);
    }

    #[test]
    fn empty_delta_still_advances_the_cycle() {
        let base = sample(1, 100);
        let next = sample(1, 150);
        let d = SnapDelta::between(&base, &next).expect("delta");
        assert!(d.sections().is_empty());
        assert_eq!(base.apply_delta(&d).expect("apply"), next);
    }

    #[test]
    fn delta_chain_applies_in_order_only() {
        let s0 = sample(1, 10);
        let s1 = sample(2, 20);
        let s2 = sample(3, 30);
        let d01 = SnapDelta::between(&s0, &s1).expect("d01");
        let d12 = SnapDelta::between(&s1, &s2).expect("d12");
        // In order: s0 + d01 + d12 == s2.
        let got = s0.apply_delta(&d01).and_then(|s| s.apply_delta(&d12)).expect("chain");
        assert_eq!(got, s2);
        // Out of order: applying d12 to s0 is rejected by base digest.
        assert!(matches!(s0.apply_delta(&d12), Err(SnapError::DeltaBaseMismatch { .. })));
        // Re-applying an already-applied delta is likewise rejected.
        let s1_again = s0.apply_delta(&d01).expect("first apply");
        assert!(matches!(s1_again.apply_delta(&d01), Err(SnapError::DeltaBaseMismatch { .. })));
    }

    #[test]
    fn a_stream_read_snapshot_carries_the_digest_its_trailer_verified() {
        let walked = sample(3, 40);
        let read = read_stream(&walked.to_stream_bytes(true)[..]).expect("reads back");
        assert!(walked.verified.is_none() && read.verified.is_some());
        assert_eq!(read.state_digest(), read.compute_state_digest());
        assert_eq!(read.state_digest(), walked.state_digest());
        assert_eq!(read, walked, "where the digest came from is not part of equality");

        // The header fields are public; a carried digest that no longer
        // covers them is not returned.
        let mut moved = read.clone();
        moved.cycle += 1;
        assert_eq!(moved.state_digest(), moved.compute_state_digest());
        assert_ne!(moved.state_digest(), read.state_digest());

        // A delta is the same whichever way its base was obtained.
        let next = sample(5, 60);
        assert_eq!(SnapDelta::between(&read, &next), SnapDelta::between(&walked, &next));
    }

    #[test]
    fn apply_delta_never_carries_the_base_digest_forward() {
        let wire = |s: &Snapshot| read_stream(&s.to_stream_bytes(true)[..]);
        let s0 = wire(&sample(1, 10)).expect("s0");
        let (s1, s2, s3) = (sample(2, 20), sample(3, 30), sample(4, 40));
        let d01 = SnapDelta::between(&s0, &s1).expect("d01");
        let d12 = SnapDelta::between(&s1, &s2).expect("d12");
        let d23 = SnapDelta::between(&s2, &s3).expect("d23");
        let r1 = s0.apply_delta(&d01).expect("first link");
        assert!(r1.verified.is_none(), "the sections changed: recompute");
        assert_eq!(r1.state_digest(), s1.state_digest());
        let r3 = r1.apply_delta(&d12).and_then(|s| s.apply_delta(&d23)).expect("chain of three");
        assert_eq!(r3, s3);
        for skipped in [&d12, &d23] {
            assert!(matches!(s0.apply_delta(skipped), Err(SnapError::DeltaBaseMismatch { .. })));
        }
        assert!(matches!(r1.apply_delta(&d23), Err(SnapError::DeltaBaseMismatch { .. })));
    }

    #[test]
    fn apply_delta_rejects_unknown_and_out_of_order_sections() {
        let base = sample(1, 10);
        let good = SnapDelta::between(&base, &sample(2, 20)).expect("delta");
        assert_eq!(good.sections().len(), 2);
        let mut swapped = good.clone();
        swapped.sections.reverse();
        assert!(matches!(base.apply_delta(&swapped), Err(SnapError::Corrupt(_))));
        let mut unknown = good.clone();
        unknown.sections[1].0 = "gamma".into();
        assert!(matches!(base.apply_delta(&unknown), Err(SnapError::Corrupt(_))));
        let mut repeated = good;
        repeated.sections.push(repeated.sections[0].clone());
        assert!(matches!(base.apply_delta(&repeated), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn delta_rejects_config_skew_and_structural_drift() {
        let base = sample(1, 10);
        let mut w = SnapWriter::new();
        w.scoped("alpha", |w| w.u8(1));
        let skewed = Snapshot::new(43, 20, w); // different config digest
        assert!(matches!(
            SnapDelta::between(&base, &skewed),
            Err(SnapError::ConfigMismatch { .. })
        ));
        let mut w = SnapWriter::new();
        w.scoped("alpha", |w| w.u8(1));
        w.scoped("gamma", |w| w.u8(2));
        let reshaped = Snapshot::new(42, 20, w); // same config, new sections
        assert!(matches!(SnapDelta::between(&base, &reshaped), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn a_streamed_delta_checks_the_walk_as_it_arrives() {
        let base = sample(1, 10);
        // A streaming walk of `sample(2, 20)`'s shape, cut to its first
        // `take` sections and followed by `extra` ones.
        let walk = |version: u32, take: usize, extra: &'static [&'static str]| {
            move |sink: &mut dyn SnapSink, _| {
                sink.begin(version, 42, 20)?;
                let next = sample(2, 20);
                for (name, data) in next.sections().iter().take(take) {
                    sink.section(name, data)?;
                }
                for name in extra {
                    sink.section(name, &[])?;
                }
                sink.finish()
            }
        };
        let whole = SnapDelta::streamed(&base, walk(SNAP_VERSION, 4, &[])).expect("whole walk");
        assert_eq!(Ok(whole), SnapDelta::between(&base, &sample(2, 20)));
        let short = SnapDelta::streamed(&base, walk(SNAP_VERSION, 3, &[]));
        assert!(matches!(short, Err(SnapError::Corrupt(_))), "{short:?}");
        let long = SnapDelta::streamed(&base, walk(SNAP_VERSION, 4, &["gamma"]));
        assert!(matches!(long, Err(SnapError::Corrupt(_))), "{long:?}");
        let skewed = SnapDelta::streamed(&base, walk(SNAP_VERSION + 1, 4, &[]));
        assert!(matches!(skewed, Err(SnapError::VersionMismatch { .. })), "{skewed:?}");
        let silent = SnapDelta::streamed(&base, |_, _| Ok(()));
        assert!(matches!(silent, Err(SnapError::Corrupt(_))), "{silent:?}");
    }

    /// Records what a writer hands it; answers `unchanged` with `base`.
    #[derive(Default)]
    struct Spy {
        base: Vec<u8>,
        sent: Vec<String>,
        unchanged: Vec<String>,
    }

    impl SnapSink for Spy {
        fn begin(&mut self, _: u32, _: u64, _: u64) -> Result<(), SnapError> {
            Ok(())
        }
        fn section(&mut self, name: &str, _: &[u8]) -> Result<(), SnapError> {
            self.sent.push(name.to_owned());
            Ok(())
        }
        fn unchanged(&mut self, name: &str) -> Result<&[u8], SnapError> {
            self.unchanged.push(name.to_owned());
            Ok(&self.base)
        }
        fn finish(&mut self) -> Result<(), SnapError> {
            Ok(())
        }
    }

    #[test]
    fn only_a_delta_writer_naming_the_matched_image_declares_a_section_unchanged() {
        let mut spy = Spy { base: vec![1], ..Spy::default() };
        let mut ran = false;
        let mut w = SnapWriter::streaming_delta(&mut spy, 5);
        w.scoped_matching("a", Some(5), |w| {
            ran = true;
            w.u8(1);
        });
        w.scoped_matching("b", Some(6), |w| w.u8(1));
        w.scoped_matching("c", None, |w| w.u8(1));
        w.finish().expect("delta walk");
        assert_eq!((spy.sent, spy.unchanged), (vec!["b".into(), "c".into()], vec!["a".into()]));
        assert_eq!(ran, cfg!(debug_assertions), "only debug builds serialise it to check");

        let mut spy = Spy::default();
        let mut w = SnapWriter::streaming(&mut spy);
        w.scoped_matching("a", Some(5), |w| w.u8(1));
        w.finish().expect("full walk");
        assert_eq!((spy.sent, spy.unchanged), (vec!["a".into()], vec![]));
    }

    #[test]
    fn only_the_delta_sink_accepts_a_section_declared_unchanged() {
        let walk = |sink: &mut dyn SnapSink| {
            let mut w = SnapWriter::streaming_delta(sink, 5);
            w.scoped_matching("a", Some(5), |_| {});
            w.finish()
        };
        let mut buf = Vec::new();
        let sinks: [&mut dyn SnapSink; 3] = [
            &mut MemorySink::new(),
            &mut CountingSink::new(),
            &mut StreamSink::new(&mut buf, true),
        ];
        for sink in sinks {
            assert!(matches!(walk(sink), Err(SnapError::Corrupt(_))));
        }
    }

    #[test]
    fn a_delta_with_a_section_declared_unchanged_is_the_delta_between_the_images() {
        let base = sample(1, 10);
        let elided = sample_delta(&base, 1, Some(base.state_digest())).expect("elided walk");
        assert_eq!(Ok(&elided), SnapDelta::between(&base, &sample(1, 20)).as_ref());
        assert!(elided.sections().iter().all(|(n, _)| n != "alpha"));
        // Naming any other image sends `alpha` and compares it.
        let other = sample_delta(&base, 2, Some(base.state_digest() ^ 1)).expect("full walk");
        assert_eq!(Ok(&other), SnapDelta::between(&base, &sample(2, 20)).as_ref());
        assert!(other.sections().iter().any(|(n, _)| n == "alpha"));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "declared unchanged but differs")]
    fn declaring_a_differing_section_unchanged_panics() {
        let base = sample(1, 10);
        let _ = sample_delta(&base, 2, Some(base.state_digest()));
    }

    #[test]
    fn a_reader_hands_out_a_sections_compressed_payload_once_it_is_read_to_its_end() {
        let snap = sample(6, 30);
        let wire = snap.to_stream_bytes(true);
        let mut src = StreamSource::open(&wire[..]).expect("open");
        let mut r = SnapReader::from_source(Box::new(move || src.next_section()));
        let mut packed = None;
        r.scoped("alpha", |r| {
            assert_eq!(r.u64(), 7);
            assert!(r.take_compressed().is_none(), "the section is not read to its end yet");
            let _ = r.byte_slice();
            packed = r.take_compressed();
            assert!(r.take_compressed().is_none(), "taken once");
        });
        let packed = packed.expect("alpha was stored compressed");
        assert_eq!(codec::decompress(&packed).ok().as_deref(), snap.section("alpha"));
        r.scoped("beta", |r| {
            let _ = r.u8();
            assert!(r.take_compressed().is_none(), "one byte is stored raw");
        });
        r.scoped("host", |r| r.scoped("stepper", |r| assert_eq!(r.u64(), 9)));
        r.finish().expect("streamed restore");

        let mut r = SnapReader::new(&snap);
        r.scoped("alpha", |r| {
            let _ = (r.u64(), r.byte_slice());
            assert!(r.take_compressed().is_none(), "an in-memory snapshot has no payloads");
        });
    }

    #[test]
    fn only_a_compressing_stream_sink_takes_a_handed_off_payload() {
        let page = vec![5u8; 4096];
        let section = [&(page.len() as u32).to_le_bytes()[..], &page].concat();
        let packed: Box<[u8]> = codec::compress(&section).into();
        // Streams one section holding `page`, offering `offered`; returns
        // whether the sink took it.
        let walk = |sink: &mut dyn SnapSink, offered: &[u8]| {
            let mut taken = false;
            sink.begin(SNAP_VERSION, 0, 0).expect("begin");
            let mut w = SnapWriter::streaming(sink);
            w.scoped("a", |w| {
                w.offer_compressed(|| {
                    taken = true;
                    Some(offered.into())
                });
                w.bytes(&page);
            });
            w.finish().expect("walk");
            sink.finish().expect("finish");
            taken
        };
        let mut raw = Vec::new();
        let sinks: [&mut dyn SnapSink; 3] = [
            &mut MemorySink::new(),
            &mut CountingSink::new(),
            &mut StreamSink::new(&mut raw, false),
        ];
        for sink in sinks {
            assert!(!walk(sink, &packed), "only a compressing sink spends the payload");
        }

        let mut wire = Vec::new();
        let mut sink = StreamSink::new(&mut wire, true);
        assert!(walk(&mut sink, &packed));
        assert_eq!(sink.reused_bytes(), packed.len() as u64);
        assert_eq!(sink.stored_bytes(), packed.len() as u64);
        // A payload no shorter than the section would read back as raw
        // bytes: the encoder writes the section instead.
        let mut again = Vec::new();
        let mut long = StreamSink::new(&mut again, true);
        assert!(walk(&mut long, &section));
        assert_eq!(long.reused_bytes(), 0);
        assert_eq!(again, wire, "both streams hold the encoder's bytes");
        let back = read_stream(&wire[..]).expect("reads back");
        assert_eq!(back.section("a"), Some(&section[..]));

        // A delta writer never offers it either.
        let base = read_stream(&wire[..]).expect("base");
        let mut taken = false;
        let delta = SnapDelta::streamed(&base, |sink, digest| {
            sink.begin(SNAP_VERSION, 0, 0)?;
            let mut w = SnapWriter::streaming_delta(sink, digest);
            w.scoped("a", |w| {
                w.offer_compressed(|| {
                    taken = true;
                    Some(packed.clone())
                });
                w.bytes(&page);
            });
            w.finish()?;
            sink.finish()
        });
        assert!(delta.expect("delta").sections().is_empty());
        assert!(!taken, "a delta writer leaves the payload with its owner");
    }

    #[test]
    fn state_digest_tracks_content_cycle_and_config() {
        let a = sample(1, 10);
        assert_eq!(a.state_digest(), sample(1, 10).state_digest());
        assert_ne!(a.state_digest(), sample(2, 10).state_digest());
        assert_ne!(a.state_digest(), sample(1, 11).state_digest());
    }

    fn with_sections(sections: &[(&str, &[u8])]) -> Snapshot {
        let sections = sections.iter().map(|(n, d)| (n.to_string(), d.to_vec())).collect();
        Snapshot { version: SNAP_VERSION, config_digest: 42, cycle: 7, sections, verified: None }
    }

    #[test]
    fn flipping_any_bit_of_a_section_changes_the_state_digest() {
        // Four whole words and a five-byte tail.
        let data: Vec<u8> = (0..37u8).map(|b| b.wrapping_mul(29)).collect();
        let base = with_sections(&[("a", &[1, 2, 3]), ("beta", &data)]);
        let digest = base.state_digest();
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped.sections[1].1[byte] ^= 1 << bit;
                assert_ne!(flipped.state_digest(), digest, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn section_order_and_boundaries_are_part_of_the_state_digest() {
        let digest = with_sections(&[("alpha", &[1; 10]), ("beta", &[2; 10])]).state_digest();
        let swapped = with_sections(&[("beta", &[2; 10]), ("alpha", &[1; 10])]);
        assert_ne!(swapped.state_digest(), digest);
        let mut moved = vec![b'a'];
        moved.extend([1; 10]);
        let name_into_payload = with_sections(&[("alph", &moved), ("beta", &[2; 10])]);
        assert_ne!(name_into_payload.state_digest(), digest);
        let across_sections =
            with_sections(&[("alpha", &[1; 9]), ("beta", &[1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2])]);
        assert_ne!(across_sections.state_digest(), digest);
    }

    #[test]
    fn every_digest_path_agrees_for_every_tail_length() {
        for len in 0..=17u8 {
            let data: Vec<u8> = (0..len).collect();
            let name = "n".repeat(usize::from(len % 9) + 1);
            let snap = with_sections(&[(&name, &data), ("host.stepper", &[len; 3])]);
            let digest = snap.compute_state_digest();
            let mut count = CountingSink::new();
            snap.write_to(&mut count).expect("count");
            assert_eq!(count.state_digest(), digest, "CountingSink, tail {len}");
            for compress in [false, true] {
                let mut wire = Vec::new();
                let mut sink = StreamSink::new(&mut wire, compress);
                snap.write_to(&mut sink).expect("stream");
                assert_eq!(sink.state_digest(), digest, "StreamSink, tail {len}");
                let read = read_stream(&wire[..]).expect("reads back");
                let verified = read.verified.expect("the trailer was verified").digest;
                assert_eq!(verified, digest, "verified on read, tail {len}");
            }
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_of_a_stream_is_rejected_or_harmless() {
        let snap = with_sections(&[("a", &[0; 40]), ("b", b"payload bytes"), ("c", &[])]);
        for compress in [false, true] {
            let wire = snap.to_stream_bytes(compress);
            for cut in 0..wire.len() {
                assert!(read_stream(&wire[..cut]).is_err(), "cut at {cut}");
            }
            for bit in 0..wire.len() * 8 {
                let mut bad = wire.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                match read_stream(&bad[..]) {
                    Err(_) => {}
                    // Toggling the compress flag of a stream whose payloads
                    // all went raw changes nothing that is read.
                    Ok(read) if bit == 28 * 8 && !compress => assert_eq!(read, snap),
                    Ok(_) => panic!("bit {bit} flipped and the stream still read back"),
                }
            }
        }
    }
}
