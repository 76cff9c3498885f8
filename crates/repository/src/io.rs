//! The repository's I/O abstraction.
//!
//! All repository reads and writes go through [`RepoIo`], which offers
//! exactly the primitives the crash-safety protocol needs:
//!
//! * [`RepoIo::write_atomic`] — write-temp → fsync → atomic rename (plus a
//!   directory fsync), so a file is always either its old or its new
//!   content, never a torn mixture;
//! * [`RepoIo::append_sync`] — append one record and fsync, the op-log hot
//!   path;
//! * plain reads and existence checks.
//!
//! Three implementations:
//!
//! * [`RealIo`] — the filesystem, used by `Repository::save`/`load`;
//! * [`MemIo`] — a deterministic in-memory filesystem for tests;
//! * [`FaultIo`] — wraps the same in-memory state and injects either an
//!   I/O *error* (operation fails, state keeps its pre-step contents) or a
//!   *crash* (the process "dies" mid-primitive: partially-written,
//!   un-fsynced data may be torn or lost) at a chosen step. The
//!   crash-consistency property tests sweep every step index.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Abstract durable storage for a session directory.
///
/// `Send + Sync` is part of the contract: a `Repository` (and the designer
/// `Session` wrapping it) must be movable across threads so `swsd serve`
/// can guard one behind a mutex and drive it from any acceptor thread. All
/// three implementations are trivially thread-safe (`RealIo` is stateless;
/// `MemIo` and `FaultIo` synchronize internally).
pub trait RepoIo: fmt::Debug + Send + Sync {
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Atomically replace `path` with `data` (write temp, fsync, rename).
    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Append `data` to `path` (creating it if needed) and fsync.
    fn append_sync(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Does `path` exist?
    fn exists(&self, path: &Path) -> bool;
    /// Recursively create a directory.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Durably delete a file. Removing a file that does not exist is not
    /// an error (retries after a crash must be idempotent).
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// A shared implementation: tests keep one handle to a [`FaultIo`] (to
/// plant faults and read its journal) while a session owns another.
impl<T: RepoIo + ?Sized> RepoIo for Arc<T> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        (**self).read(path)
    }
    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        (**self).write_atomic(path, data)
    }
    fn append_sync(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        (**self).append_sync(path, data)
    }
    fn exists(&self, path: &Path) -> bool {
        (**self).exists(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        (**self).create_dir_all(path)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        (**self).remove(path)
    }
}

/// Name of the temporary file `write_atomic` stages next to `path`.
/// Loaders ignore it: a crash can leave a torn temp behind harmlessly.
pub(crate) fn temp_name(path: &Path) -> PathBuf {
    let file = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    path.with_file_name(format!(".{file}.tmp"))
}

// ---------------------------------------------------------------------
// Real filesystem
// ---------------------------------------------------------------------

/// The real filesystem, with full durability discipline.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealIo;

/// fsync the directory containing `path`, so a just-renamed entry is
/// durable. Best-effort on platforms where directories cannot be synced.
fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

impl RepoIo for RealIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let tmp = temp_name(path);
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(data)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path);
        Ok(())
    }

    fn append_sync(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(data)?;
        f.sync_all()
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match std::fs::remove_file(path) {
            Ok(()) => {
                sync_parent_dir(path);
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

// ---------------------------------------------------------------------
// In-memory filesystem
// ---------------------------------------------------------------------

/// One in-memory file: the content a reader sees now, plus the prefix of
/// it known durable (covered by an fsync). On a crash, anything beyond
/// the durable prefix may be torn or lost.
#[derive(Debug, Clone, Default)]
struct MemFile {
    content: Vec<u8>,
    durable_len: usize,
}

#[derive(Debug, Default)]
struct MemFs {
    files: BTreeMap<PathBuf, MemFile>,
    /// Set once a crash has been injected; every later op fails.
    crashed: bool,
}

/// A deterministic in-memory filesystem. Cloning shares the state;
/// [`MemIo::snapshot`] deep-copies it (to restart a crash sweep from the
/// same base image).
#[derive(Debug, Clone, Default)]
pub struct MemIo {
    state: Arc<Mutex<MemFs>>,
}

fn crash_error() -> io::Error {
    io::Error::other("injected crash: process died mid-write")
}

impl MemIo {
    /// Fresh empty filesystem.
    pub fn new() -> Self {
        MemIo::default()
    }

    /// Deep-copy the current disk image into an independent `MemIo`.
    pub fn snapshot(&self) -> MemIo {
        let st = self.state.lock().expect("MemIo lock poisoned");
        let copy = MemFs {
            files: st.files.clone(),
            crashed: st.crashed,
        };
        MemIo {
            state: Arc::new(Mutex::new(copy)),
        }
    }

    /// Simulate the reboot after a crash: for every file, content beyond
    /// the durable prefix survives only partially — a pseudo-random prefix
    /// of the un-fsynced tail, derived from `seed` (the page cache flushed
    /// some pages, lost the rest). Clears the crashed flag so the
    /// "rebooted" filesystem is usable again.
    pub fn post_crash(&self, seed: u64) {
        let mut st = self.state.lock().expect("MemIo lock poisoned");
        for (path, file) in st.files.iter_mut() {
            if file.content.len() > file.durable_len {
                let tail = file.content.len() - file.durable_len;
                let mix = crate::checksum::checksum(path.to_string_lossy().as_bytes()) ^ seed;
                let keep = (mix % (tail as u64 + 1)) as usize;
                file.content.truncate(file.durable_len + keep);
            }
            file.durable_len = file.content.len();
        }
        st.crashed = false;
    }

    /// Delete a file, for damaged-directory fixture construction.
    pub fn remove(&self, path: &Path) {
        let mut st = self.state.lock().expect("MemIo lock poisoned");
        st.files.remove(path);
    }

    /// Raw file contents, for assertions.
    pub fn contents(&self, path: &Path) -> Option<Vec<u8>> {
        let st = self.state.lock().expect("MemIo lock poisoned");
        st.files.get(path).map(|f| f.content.clone())
    }

    /// All file paths currently present.
    pub fn paths(&self) -> Vec<PathBuf> {
        let st = self.state.lock().expect("MemIo lock poisoned");
        st.files.keys().cloned().collect()
    }

    fn with<R>(&self, f: impl FnOnce(&mut MemFs) -> io::Result<R>) -> io::Result<R> {
        let mut st = self.state.lock().expect("MemIo lock poisoned");
        if st.crashed {
            return Err(crash_error());
        }
        f(&mut st)
    }
}

impl RepoIo for MemIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.with(|st| {
            st.files
                .get(path)
                .map(|f| f.content.clone())
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
        })
    }

    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.with(|st| {
            st.files.insert(
                path.to_path_buf(),
                MemFile {
                    content: data.to_vec(),
                    durable_len: data.len(),
                },
            );
            Ok(())
        })
    }

    fn append_sync(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.with(|st| {
            let file = st.files.entry(path.to_path_buf()).or_default();
            file.content.extend_from_slice(data);
            file.durable_len = file.content.len();
            Ok(())
        })
    }

    fn exists(&self, path: &Path) -> bool {
        let st = self.state.lock().expect("MemIo lock poisoned");
        !st.crashed && st.files.contains_key(path)
    }

    fn create_dir_all(&self, _path: &Path) -> io::Result<()> {
        self.with(|_| Ok(()))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.with(|st| {
            st.files.remove(path);
            Ok(())
        })
    }
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// What to inject, and at which primitive step.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Fault {
    /// Stop the world at step `n`: partial un-fsynced data may remain.
    CrashAt(u64),
    /// Fail step `n` with an I/O error; state keeps its pre-step contents
    /// and the process continues.
    ErrorAt(u64),
    /// Stop the world at the `remaining`-th upcoming micro-step whose
    /// journal description contains `needle` — a crash aimed at a protocol
    /// phase ("append", "rename") instead of an absolute step index, for
    /// workloads whose step counts are timing-dependent (a live server).
    CrashOnContains { needle: String, remaining: u64 },
}

#[derive(Debug, Default)]
struct FaultPlan {
    fault: Option<Fault>,
    step: u64,
    /// One human-readable entry per micro-step executed, in order —
    /// ordering regression tests assert on this journal (e.g. "no op-log
    /// append lands between a checkpoint's snapshot write and its
    /// manifest commit").
    journal: Vec<String>,
}

/// A [`RepoIo`] over a shared [`MemIo`] that decomposes every primitive
/// into its micro-steps (partial write, full write, fsync, rename) and
/// injects a crash or an error at a chosen step index.
#[derive(Debug)]
pub struct FaultIo {
    fs: MemIo,
    plan: Mutex<FaultPlan>,
}

/// The effect a micro-step has on the in-memory disk.
enum Step<'a> {
    /// Replace `path`'s content with a (possibly partial) un-fsynced blob.
    WriteUnsynced(&'a Path, &'a [u8]),
    /// Mark `path` fully durable.
    Sync(&'a Path),
    /// Atomically (and durably) rename `from` to `to`.
    Rename(&'a Path, &'a Path),
    /// Append a (possibly partial) un-fsynced blob to `path`.
    AppendUnsynced(&'a Path, &'a [u8]),
    /// Durably delete `path` (no-op if absent).
    Remove(&'a Path),
}

impl Step<'_> {
    /// Journal line for this micro-step.
    fn describe(&self) -> String {
        match self {
            Step::WriteUnsynced(p, _) => format!("write {}", p.display()),
            Step::Sync(p) => format!("sync {}", p.display()),
            Step::Rename(from, to) => format!("rename {} -> {}", from.display(), to.display()),
            Step::AppendUnsynced(p, _) => format!("append {}", p.display()),
            Step::Remove(p) => format!("remove {}", p.display()),
        }
    }
}

impl FaultIo {
    /// Wrap an in-memory filesystem with no fault planned.
    pub fn new(fs: MemIo) -> Self {
        FaultIo {
            fs,
            plan: Mutex::new(FaultPlan::default()),
        }
    }

    /// The fault plan, poison-tolerantly. Fault injection runs inside
    /// tests and crash sweeps that *panic on purpose*; a panic while the
    /// plan lock is held must not cascade into a second panic when the
    /// crash dumper (or the next sweep iteration) touches the plan again.
    fn plan(&self) -> std::sync::MutexGuard<'_, FaultPlan> {
        self.plan
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Inject a crash at micro-step `step` (0-based).
    pub fn crash_at(&self, step: u64) {
        self.plan().fault = Some(Fault::CrashAt(step));
    }

    /// Inject a transient I/O error at micro-step `step` (0-based).
    pub fn error_at(&self, step: u64) {
        self.plan().fault = Some(Fault::ErrorAt(step));
    }

    /// Inject a crash at the `nth` (0-based) upcoming micro-step whose
    /// journal description contains `needle`: `("append", 0)` dies during
    /// the next op-log append, `("rename", 1)` during the second atomic
    /// commit from now. Unlike [`Self::crash_at`], this does not require
    /// knowing absolute step indices, so it can aim at a phase of a
    /// concurrent workload (e.g. "the next checkpoint a live server
    /// performs") where exact counts vary run to run.
    pub fn crash_on_contains(&self, needle: &str, nth: u64) {
        self.plan().fault = Some(Fault::CrashOnContains {
            needle: needle.to_string(),
            remaining: nth,
        });
    }

    /// Clear any planned fault (the error was transient).
    pub fn clear_fault(&self) {
        self.plan().fault = None;
    }

    /// Micro-steps executed so far — run a workload once with no fault to
    /// size a crash sweep.
    pub fn steps_taken(&self) -> u64 {
        self.plan().step
    }

    /// The ordered journal of micro-steps attempted so far (one line per
    /// step, including the faulted one).
    pub fn journal(&self) -> Vec<String> {
        self.plan().journal.clone()
    }

    /// Forget the journal so the next assertion window starts clean. The
    /// step counter is left untouched (fault indices stay meaningful).
    pub fn clear_journal(&self) {
        self.plan().journal.clear();
    }

    /// The underlying shared filesystem.
    pub fn fs(&self) -> &MemIo {
        &self.fs
    }

    /// Run one micro-step: apply the fault if this is the chosen step,
    /// otherwise apply the step's effect.
    fn step(&self, step: Step<'_>) -> io::Result<()> {
        let fault = {
            let mut plan = self.plan();
            let this = plan.step;
            plan.step += 1;
            let describe = step.describe();
            let hit = match &mut plan.fault {
                Some(Fault::CrashAt(n)) | Some(Fault::ErrorAt(n)) => *n == this,
                Some(Fault::CrashOnContains { needle, remaining })
                    if describe.contains(needle.as_str()) =>
                {
                    if *remaining == 0 {
                        true
                    } else {
                        *remaining -= 1;
                        false
                    }
                }
                Some(Fault::CrashOnContains { .. }) => false,
                None => false,
            };
            plan.journal.push(describe);
            if hit {
                plan.fault.clone()
            } else {
                None
            }
        };
        match fault {
            Some(Fault::ErrorAt(_)) => {
                return Err(io::Error::other("injected I/O error (disk full)"));
            }
            Some(Fault::CrashAt(_)) | Some(Fault::CrashOnContains { .. }) => {
                // The process dies *during* this step: data-moving steps
                // leave a torn, un-fsynced half; syncs and renames simply
                // never happen. Poison the filesystem so any later call
                // from the "dead" process fails.
                let mut st = self.fs.state.lock().expect("MemIo lock poisoned");
                match step {
                    Step::WriteUnsynced(path, data) => {
                        let file = st.files.entry(path.to_path_buf()).or_default();
                        file.content = data[..data.len() / 2].to_vec();
                        file.durable_len = 0;
                    }
                    Step::AppendUnsynced(path, data) => {
                        let file = st.files.entry(path.to_path_buf()).or_default();
                        file.content.extend_from_slice(&data[..data.len() / 2]);
                    }
                    Step::Sync(_) | Step::Rename(_, _) | Step::Remove(_) => {}
                }
                st.crashed = true;
                return Err(crash_error());
            }
            None => {}
        }
        let mut st = self.fs.state.lock().expect("MemIo lock poisoned");
        if st.crashed {
            return Err(crash_error());
        }
        match step {
            Step::WriteUnsynced(path, data) => {
                let file = st.files.entry(path.to_path_buf()).or_default();
                file.content = data.to_vec();
                file.durable_len = 0;
            }
            Step::Sync(path) => {
                if let Some(file) = st.files.get_mut(path) {
                    file.durable_len = file.content.len();
                }
            }
            Step::Rename(from, to) => {
                if let Some(mut file) = st.files.remove(from) {
                    // The rename itself is atomic and (after the directory
                    // fsync the protocol performs) durable.
                    file.durable_len = file.content.len();
                    st.files.insert(to.to_path_buf(), file);
                }
            }
            Step::AppendUnsynced(path, data) => {
                let file = st.files.entry(path.to_path_buf()).or_default();
                file.content.extend_from_slice(data);
            }
            Step::Remove(path) => {
                st.files.remove(path);
            }
        }
        Ok(())
    }
}

impl RepoIo for FaultIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.fs.read(path)
    }

    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let tmp = temp_name(path);
        self.step(Step::WriteUnsynced(&tmp, data))?;
        self.step(Step::Sync(&tmp))?;
        self.step(Step::Rename(&tmp, path))
    }

    fn append_sync(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.step(Step::AppendUnsynced(path, data))?;
        self.step(Step::Sync(path))
    }

    fn exists(&self, path: &Path) -> bool {
        self.fs.exists(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.fs.create_dir_all(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.step(Step::Remove(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_io_round_trips() {
        let io = MemIo::new();
        let p = Path::new("/s/a.txt");
        assert!(!io.exists(p));
        io.write_atomic(p, b"hello").unwrap();
        assert_eq!(io.read(p).unwrap(), b"hello");
        io.append_sync(p, b" world").unwrap();
        assert_eq!(io.read(p).unwrap(), b"hello world");
        assert!(io.read(Path::new("/s/missing")).is_err());
    }

    #[test]
    fn snapshot_is_independent() {
        let io = MemIo::new();
        let p = Path::new("/s/a.txt");
        io.write_atomic(p, b"one").unwrap();
        let snap = io.snapshot();
        io.write_atomic(p, b"two").unwrap();
        assert_eq!(snap.read(p).unwrap(), b"one");
        assert_eq!(io.read(p).unwrap(), b"two");
    }

    #[test]
    fn crash_mid_atomic_write_leaves_old_content() {
        let base = MemIo::new();
        let p = Path::new("/s/a.txt");
        base.write_atomic(p, b"old").unwrap();
        // Steps of write_atomic: 0 write-temp, 1 sync-temp, 2 rename.
        for step in 0..3 {
            let disk = base.snapshot();
            let io = FaultIo::new(disk.clone());
            io.crash_at(step);
            assert!(io.write_atomic(p, b"newcontent").is_err());
            disk.post_crash(step);
            // The visible file is exactly the old content (rename never
            // completed) or exactly the new (it did).
            let content = disk.read(p).unwrap();
            assert!(
                content == b"old" || content == b"newcontent",
                "step {step}: {content:?}"
            );
            if step < 2 {
                assert_eq!(content, b"old");
            }
        }
    }

    #[test]
    fn crash_mid_append_tears_the_tail() {
        let base = MemIo::new();
        let p = Path::new("/s/log");
        base.append_sync(p, b"line1\n").unwrap();
        let disk = base.snapshot();
        let io = FaultIo::new(disk.clone());
        io.crash_at(0); // die during the append itself
        assert!(io.append_sync(p, b"line2...\n").is_err());
        disk.post_crash(7);
        let content = disk.read(p).unwrap();
        // The durable prefix survives; the torn tail is at most partial.
        assert!(content.starts_with(b"line1\n"));
        assert!(content.len() < b"line1\nline2...\n".len());
    }

    #[test]
    fn injected_error_fails_without_corruption_and_is_transient() {
        let disk = MemIo::new();
        let p = Path::new("/s/a.txt");
        disk.write_atomic(p, b"old").unwrap();
        let io = FaultIo::new(disk.clone());
        io.error_at(0);
        assert!(io.write_atomic(p, b"new").is_err());
        assert_eq!(disk.read(p).unwrap(), b"old");
        // The fault was transient: the retry succeeds.
        io.clear_fault();
        io.write_atomic(p, b"new").unwrap();
        assert_eq!(disk.read(p).unwrap(), b"new");
    }

    #[test]
    fn poisoned_after_crash_until_reboot() {
        let disk = MemIo::new();
        let io = FaultIo::new(disk.clone());
        io.crash_at(0);
        assert!(io.write_atomic(Path::new("/s/x"), b"data").is_err());
        // Every further op from the dead process fails...
        assert!(io.append_sync(Path::new("/s/y"), b"data").is_err());
        assert!(disk.read(Path::new("/s/x")).is_err());
        // ...until the machine reboots.
        disk.post_crash(0);
        assert!(disk.create_dir_all(Path::new("/s")).is_ok());
    }

    #[test]
    fn fault_plan_lock_survives_poisoning() {
        let io = FaultIo::new(MemIo::new());
        // Poison the plan lock the way a panicking sweep thread would.
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = io.plan.lock().expect("MemIo lock poisoned");
            panic!("injected panic while holding the fault plan");
        }));
        assert!(poison.is_err());
        assert!(io.plan.lock().is_err(), "lock should be poisoned");
        // Every accessor still works — no cascading panic.
        io.crash_at(3);
        io.clear_fault();
        io.error_at(1);
        io.clear_fault();
        assert_eq!(io.steps_taken(), 0);
        io.write_atomic(Path::new("/s/z"), b"ok").unwrap();
        assert_eq!(io.steps_taken(), 3);
    }

    #[test]
    fn remove_is_idempotent_and_crash_atomic() {
        let disk = MemIo::new();
        let p = Path::new("/s/a.txt");
        disk.write_atomic(p, b"data").unwrap();
        // Removing twice is fine on every backend.
        RepoIo::remove(&disk, p).unwrap();
        RepoIo::remove(&disk, p).unwrap();
        assert!(!disk.exists(p));
        // A crash during a faulted remove leaves the file untouched.
        disk.write_atomic(p, b"data").unwrap();
        let io = FaultIo::new(disk.clone());
        io.crash_at(0);
        assert!(io.remove(p).is_err());
        disk.post_crash(1);
        assert_eq!(disk.read(p).unwrap(), b"data");
        // And with no fault planned, it deletes.
        let io = FaultIo::new(disk.clone());
        io.remove(p).unwrap();
        assert!(!disk.exists(p));
    }

    #[test]
    fn crash_on_contains_aims_at_a_phase_not_an_index() {
        let disk = MemIo::new();
        let log = Path::new("/s/log");
        disk.append_sync(log, b"line1\n").unwrap();
        let io = FaultIo::new(disk.clone());
        // Die during the SECOND append from now, regardless of how many
        // unrelated steps (atomic writes, syncs) run in between.
        io.crash_on_contains("append", 1);
        io.write_atomic(Path::new("/s/a"), b"unrelated").unwrap();
        io.append_sync(log, b"line2\n").unwrap();
        io.write_atomic(Path::new("/s/b"), b"unrelated").unwrap();
        assert!(io.append_sync(log, b"line3...\n").is_err());
        disk.post_crash(3);
        let content = disk.read(log).unwrap();
        assert!(content.starts_with(b"line1\nline2\n"));
        assert!(content.len() < b"line1\nline2\nline3...\n".len());
        // The targeted crash still poisons the disk until reboot happened
        // above; the unrelated atomic writes before the crash survived.
        assert_eq!(disk.read(Path::new("/s/a")).unwrap(), b"unrelated");
        assert_eq!(disk.read(Path::new("/s/b")).unwrap(), b"unrelated");
    }

    #[test]
    fn journal_records_micro_steps_in_order() {
        let io = FaultIo::new(MemIo::new());
        io.write_atomic(Path::new("/s/a"), b"x").unwrap();
        io.append_sync(Path::new("/s/log"), b"y").unwrap();
        io.remove(Path::new("/s/a")).unwrap();
        let journal = io.journal();
        assert_eq!(
            journal,
            vec![
                "write /s/.a.tmp".to_string(),
                "sync /s/.a.tmp".to_string(),
                "rename /s/.a.tmp -> /s/a".to_string(),
                "append /s/log".to_string(),
                "sync /s/log".to_string(),
                "remove /s/a".to_string(),
            ]
        );
        io.clear_journal();
        assert!(io.journal().is_empty());
        // The step counter is unaffected by journal clearing.
        assert_eq!(io.steps_taken(), 6);
    }
}
