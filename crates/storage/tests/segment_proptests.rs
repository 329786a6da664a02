//! Hostile input for cube segments: a real sealed segment with one byte
//! of its footer, directory or data pages mutated, or cut short.
//!
//! Whatever the mutation, opening, mapping, scanning and verifying the
//! segment returns a typed error or the original rows — never a panic,
//! never wrong rows — and no single allocation made while doing so is
//! larger than the file. A directory that decodes re-encodes to exactly
//! its bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::sync::OnceLock;

use cure_storage::heap::page_offset;
use cure_storage::scratch::scratch_dir;
use cure_storage::segment::FOOTER_LEN;
use cure_storage::{verify_snapshot, Catalog, ColType, Column, Directory, Schema, StorageError};
use proptest::prelude::*;

/// Records the largest single allocation a thread makes while it is
/// tracking (per thread, as the tests run in parallel), so a decoder
/// that trusts a hostile count is caught.
struct Largest;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Note an allocation of `size` bytes if this thread is tracking.
fn note(size: usize) {
    if TRACKING.with(Cell::get) {
        LARGEST.with(|l| l.set(l.get().max(size)));
    }
}

unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

/// The largest allocation `f` makes on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    (out, LARGEST.with(Cell::get))
}

const PREFIX: &str = "hostile_";

fn schema(cols: usize) -> Schema {
    Schema::new((0..cols).map(|i| Column::new(format!("c{i}"), ColType::U64)).collect())
}

/// The relations of the sample segment and their rows, in directory order.
fn sample_rows() -> Vec<(String, Schema, Vec<u8>)> {
    let rows = |n: u64, cols: usize, seed: u64| -> Vec<u8> {
        (0..n * cols as u64).flat_map(|i| (seed << 32 | i).to_le_bytes()).collect()
    };
    vec![
        ("hostile_n0_nt".into(), schema(3), rows(700, 3, 1)),
        ("hostile_n1_cat".into(), schema(2), rows(5, 2, 2)),
        ("hostile_n1_tt".into(), schema(1), rows(2500, 1, 3)),
    ]
}

/// A sealed segment over [`sample_rows`], written once: its bytes.
fn sample_segment() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let catalog = Catalog::open(scratch_dir("segment_sample")).unwrap();
        let mut seg = catalog.create_segment(PREFIX).unwrap();
        // Two extents for the TT, interleaved with the others.
        let rels = sample_rows();
        let (tt_a, tt_b) = rels[2].2.split_at(8 * 1200);
        seg.append(&rels[2].0, &rels[2].1, tt_a).unwrap();
        seg.append(&rels[0].0, &rels[0].1, &rels[0].2).unwrap();
        seg.append(&rels[1].0, &rels[1].1, &rels[1].2).unwrap();
        seg.append(&rels[2].0, &rels[2].1, tt_b).unwrap();
        seg.seal().unwrap();
        std::fs::read(catalog.segment_path(PREFIX)).unwrap()
    })
}

/// Where the sample's directory starts and ends.
fn directory_span(bytes: &[u8]) -> (usize, usize) {
    let footer = &bytes[bytes.len() - FOOTER_LEN..];
    let pages = u64::from_le_bytes(footer[8..16].try_into().unwrap());
    let start = page_offset(pages) as usize;
    (start, bytes.len() - FOOTER_LEN)
}

fn typed(e: &StorageError) -> bool {
    matches!(e, StorageError::Corrupt(_) | StorageError::CorruptPage { .. })
}

/// Open, map, scan and verify the segment file in `dir`; every relation
/// read must equal the original rows or fail typed. Returns how many
/// relations failed (`usize::MAX` when the open itself failed).
fn exercise(dir: &Path, bytes: &[u8]) -> std::result::Result<usize, TestCaseError> {
    let catalog = Catalog::open(dir).unwrap();
    let want = sample_rows();
    let (failed, largest) = largest_allocation(|| -> std::result::Result<usize, TestCaseError> {
        let seg = match catalog.open_segment(PREFIX) {
            Ok(seg) => seg,
            Err(e) => {
                prop_assert!(typed(&e), "open: {e:?}");
                let m = catalog.map_segment(PREFIX).map(|_| ());
                prop_assert!(m.as_ref().is_err_and(typed), "map after a failed open: {m:?}");
                return Ok(usize::MAX);
            }
        };
        let dir_bytes = seg.directory().encode();
        let (a, b) = directory_span(bytes);
        prop_assert_eq!(&dir_bytes[..], &bytes[a..b], "the directory re-encodes identically");
        let mut failed = 0;
        for (name, _, rows) in &want {
            match seg.rows_of(name) {
                Ok(got) => prop_assert!(&got == rows, "{name}: wrong rows served"),
                Err(e) => {
                    prop_assert!(typed(&e), "{name}: {e:?}");
                    failed += 1;
                }
            }
        }
        let map = catalog.map_segment(PREFIX).unwrap();
        for entry in map.directory().entries() {
            let mut got = Vec::new();
            match map.for_each_row(
                entry,
                |_| Ok::<(), StorageError>(()),
                |r| got.extend_from_slice(r),
            ) {
                Ok(()) => {
                    let rows = &want.iter().find(|w| w.0 == entry.name).unwrap().2;
                    prop_assert!(&got == rows, "{}: wrong rows mapped", entry.name);
                }
                Err(e) => prop_assert!(typed(&e), "{}: {e:?}", entry.name),
            }
        }
        let verified = verify_snapshot(dir, PREFIX);
        prop_assert_eq!(verified.is_ok(), failed == 0, "verify_snapshot vs reads: {:?}", verified);
        Ok(failed)
    });
    let failed = failed?;
    prop_assert!(
        largest <= bytes.len() + 4096,
        "allocated {largest} for a {}-byte file",
        bytes.len()
    );
    Ok(failed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One byte of the footer, the directory or a data page, XORed with
    /// a non-zero mask: a footer or directory byte fails the open, a data
    /// byte fails exactly the reads of the relation that owns its page.
    #[test]
    fn a_mutated_byte_is_a_typed_error_never_wrong_rows(
        region in 0u8..3,
        at in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let good = sample_segment();
        let (dir_start, dir_end) = directory_span(good);
        let (lo, hi) = match region {
            0 => (dir_end, good.len()),
            1 => (dir_start, dir_end),
            _ => (page_offset(0) as usize, dir_start),
        };
        let pos = lo + (at % (hi - lo) as u64) as usize;
        let mut bad = good.to_vec();
        bad[pos] ^= mask;
        let dir = scratch_dir("segment_mutated");
        std::fs::write(dir.join(format!("{PREFIX}nodes.seg")), &bad).unwrap();
        let failed = exercise(&dir, &bad)?;
        if region < 2 {
            prop_assert_eq!(failed, usize::MAX, "a footer or directory byte at {} opened", pos);
        } else {
            prop_assert_eq!(failed, 1, "a data byte at {} failed {} relations", pos, failed);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A segment cut short anywhere (a crash before the seal, a partial
    /// copy) has no valid footer: the open fails typed.
    #[test]
    fn a_truncated_segment_fails_the_open(keep in any::<u64>()) {
        let good = sample_segment();
        let len = (keep % good.len() as u64) as usize;
        let dir = scratch_dir("segment_truncated");
        std::fs::write(dir.join(format!("{PREFIX}nodes.seg")), &good[..len]).unwrap();
        prop_assert_eq!(exercise(&dir, &good[..len])?, usize::MAX);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Directory decoding on arbitrary mutations of a real directory:
    /// a typed error, or bytes that re-encode identically, and never an
    /// allocation beyond the smallest file that could hold it.
    #[test]
    fn directory_decode_is_total(
        edits in proptest::collection::vec((any::<u64>(), any::<u8>()), 1..6),
        pages in 0u64..16,
    ) {
        let good = sample_segment();
        let (a, b) = directory_span(good);
        let mut bytes = good[a..b].to_vec();
        for (at, v) in edits {
            let i = (at % bytes.len() as u64) as usize;
            bytes[i] = v;
        }
        let (decoded, largest) = largest_allocation(|| Directory::decode(&bytes, pages));
        // The smallest file such a directory can sit in.
        let file = page_offset(pages) as usize + bytes.len() + FOOTER_LEN;
        prop_assert!(largest <= file, "allocated {} for a {}-byte file", largest, file);
        if let Ok(dir) = decoded {
            prop_assert_eq!(dir.encode(), bytes);
        }
    }
}

/// The unmutated sample reads back exactly (the baseline every mutation
/// is measured against).
#[test]
fn the_clean_sample_reads_back() {
    let good = sample_segment();
    let dir = scratch_dir("segment_clean");
    std::fs::write(dir.join(format!("{PREFIX}nodes.seg")), good).unwrap();
    assert_eq!(exercise(&dir, good).unwrap(), 0);
}
