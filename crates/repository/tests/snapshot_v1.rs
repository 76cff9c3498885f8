//! A session directory written by the previous snapshot format
//! (`snapshot.v1`, whose `moves` section lists the checkpointed prefix's
//! move ops) must keep loading, strictly and in salvage mode, with the
//! mapping it was saved with.
//!
//! The fixture is the university schema after six ops: two moves, an
//! attribute deletion and a type addition, checkpointed into
//! `snapshot.1`; then a third move and an attribute addition in the live
//! tail, and a full save.

use std::path::Path;

use sws_core::Mapping;
use sws_repository::io::{MemIo, RepoIo};
use sws_repository::{LoadMode, LoadPath, Repository, MAPPING_FILE};

macro_rules! fixture {
    ($($name:literal),*) => {
        [$(($name, include_bytes!(concat!("fixtures/snapshot_v1/", $name)) as &[u8])),*]
    };
}

const FILES: [(&str, &[u8]); 7] = fixture!(
    "MANIFEST",
    "custom.odl",
    "mapping.txt",
    "session.ops",
    "session.ops.archive",
    "shrink_wrap.odl",
    "snapshot.1"
);

fn dir() -> &'static Path {
    Path::new("/v1")
}

/// The fixture as an in-memory disk: salvage loading heals in place.
fn disk() -> MemIo {
    let disk = MemIo::new();
    for (name, bytes) in FILES {
        disk.write_atomic(&dir().join(name), bytes)
            .expect("in-memory write");
    }
    disk
}

fn mapping(repo: &Repository) -> String {
    Mapping::derive(repo.workspace()).render()
}

fn saved_mapping() -> String {
    let (_, bytes) = FILES
        .into_iter()
        .find(|(name, _)| *name == MAPPING_FILE)
        .expect("mapping.txt in the fixture");
    String::from_utf8(bytes.to_vec()).expect("UTF-8 mapping")
}

#[test]
fn a_v1_directory_loads_strictly_with_its_mapping() {
    let disk = disk();
    let snapshot = disk.read(&dir().join("snapshot.1")).expect("snapshot");
    assert!(snapshot.starts_with(b"sws-snapshot v1\n"));
    let (repo, report) =
        Repository::load_with(&disk, dir(), LoadMode::Strict).expect("strict load");
    assert_eq!(report.load_path, LoadPath::Snapshot { generation: 1 });
    assert_eq!(repo.total_ops(), 6);
    assert_eq!(repo.workspace().log().len(), 2);
    let text = mapping(&repo);
    assert_eq!(text, saved_mapping());
    assert!(text.contains("attribute `Employee::salary`: moved to `Person`"));
    assert!(text.contains("operation `Student::gpa`: moved to `Graduate`"));
}

#[test]
fn a_v1_directory_salvages_clean_with_its_mapping() {
    let disk = disk();
    let (mut repo, report) =
        Repository::load_with(&disk, dir(), LoadMode::Salvage).expect("salvage load");
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(repo.total_ops(), 6);
    assert_eq!(mapping(&repo), saved_mapping());

    // The next checkpoint writes the current format, and the mapping
    // survives that too.
    repo.checkpoint_with(&disk, dir())
        .expect("checkpoint")
        .expect("two ops to cover");
    let snapshot = disk.read(&dir().join("snapshot.2")).expect("snapshot.2");
    assert!(snapshot.starts_with(b"sws-snapshot v2\n"));
    let (reloaded, _) =
        Repository::load_with(&disk, dir(), LoadMode::Strict).expect("strict reload");
    assert!(reloaded.workspace().log().is_empty());
    assert_eq!(mapping(&reloaded), saved_mapping());
}
