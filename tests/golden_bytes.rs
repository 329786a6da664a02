//! Cross-commit byte identity: every file a few fixed small builds and
//! ingests leave in their catalog must hash to the SHA-256 recorded in
//! `tests/golden/<workload>.sha256` (`sha256sum` format, so a catalog can
//! also be checked by hand with `sha256sum -c`).
//!
//! `cure-check` proves that all engines of one commit write the same
//! bytes; this test proves that a commit writes the same bytes as the one
//! before it. A change that moves bytes on purpose updates the list in the
//! same commit: on a mismatch the test prints every differing file with
//! its old and new hash, and the complete new list.

use std::collections::BTreeMap;
use std::path::Path;

use cure::core::cube::{CubeBuilder, CubeConfig};
use cure::core::meta::CubeMeta;
use cure::core::sink::{fact_row_resolver, DiskSink};
use cure::core::{BuildReport, CubeSchema, DurableOptions, IngestOptions, Tuples};
use cure::data::apb::apb1_dense;
use cure::data::Dataset;
use cure::storage::scratch::scratch_dir;
use cure::storage::Catalog;

/// A budget small enough to force partitioning of the 2 000-tuple APB set.
const SMALL_BUDGET: usize = 16 << 10;

fn dataset() -> Dataset {
    apb1_dense(0.4, 2_000, 11)
}

fn write_meta(catalog: &Catalog, schema: &CubeSchema, report: &BuildReport, dr: bool, plus: bool) {
    CubeMeta {
        prefix: "cube_".into(),
        fact_rel: "facts".into(),
        n_dims: schema.num_dims(),
        n_measures: schema.num_measures(),
        dr,
        plus,
        cat_format: report.stats.cat_format,
        partition_level: report.partition.as_ref().map(|p| p.choice.level),
        min_support: 1,
    }
    .write(catalog)
    .unwrap();
}

/// Build one workload's catalog at `threads` and hash it. The ingest
/// workload also hashes the built cube, build manifest included, as
/// `built/<file>` before it ingests.
fn run_workload(name: &str, threads: usize) -> BTreeMap<String, String> {
    let dir = scratch_dir(&format!("golden_{name}"));
    let mut hashes = BTreeMap::new();
    let catalog = Catalog::open(&dir).unwrap();
    let ds = dataset();
    ds.store(&catalog, "facts").unwrap();
    let schema = &ds.schema;
    let small = CubeConfig { memory_budget_bytes: SMALL_BUDGET, ..CubeConfig::default() };
    match name {
        "apb_plain" => {
            let mut sink = DiskSink::new(&catalog, "cube_", schema, false, false, None).unwrap();
            let report = CubeBuilder::new(schema, CubeConfig::default())
                .build_in_memory(&ds.tuples, &mut sink)
                .unwrap();
            drop(sink);
            write_meta(&catalog, schema, &report, false, false);
        }
        "apb_partitioned" | "cure_plus" => {
            let plus = name == "cure_plus";
            let mut sink = DiskSink::new(&catalog, "cube_", schema, false, plus, None).unwrap();
            let report = cure::core::build_cure_cube(
                &catalog,
                "facts",
                schema,
                &small,
                &mut sink,
                "cube_tmp_",
                threads,
            )
            .unwrap();
            drop(sink);
            assert!(report.partition.is_some(), "{name}: the budget must force partitioning");
            write_meta(&catalog, schema, &report, false, plus);
        }
        "cure_dr" | "durable_ingest" => {
            let dr = name == "cure_dr";
            let resolver = dr.then(|| fact_row_resolver(&catalog, "facts").unwrap());
            let mut sink = DiskSink::new(&catalog, "cube_", schema, dr, false, resolver).unwrap();
            let built = cure::core::build_cure_cube_durable(
                &catalog,
                "facts",
                schema,
                &small,
                &mut sink,
                "cube_tmp_",
                &DurableOptions { resume: false, threads },
            )
            .unwrap();
            drop(sink);
            assert!(built.report.partition.is_some(), "{name}: the budget must force partitioning");
            write_meta(&catalog, schema, &built.report, dr, false);
            if !dr {
                hashes.extend(hash_dir(&dir).into_iter().map(|(f, h)| (format!("built/{f}"), h)));
                ingest_twice(&catalog, schema, threads);
            }
        }
        other => panic!("unknown workload {other}"),
    }
    hashes.extend(hash_dir(&dir));
    let _ = std::fs::remove_dir_all(&dir);
    hashes
}

/// Two ingests of 200 fresh tuples each, at `threads` walkers.
fn ingest_twice(catalog: &Catalog, schema: &CubeSchema, threads: usize) {
    let batch = apb1_dense(0.4, 2_000, 12).tuples;
    for round in 0..2 {
        let mut delta = Tuples::new(schema.num_dims(), schema.num_measures());
        for i in round * 200..(round + 1) * 200 {
            delta.push_fact(batch.dims_of(i), batch.aggs_of(i), i as u64);
        }
        let old = cure::core::delta::active_prefix(catalog);
        let new = if old == "cube_" { "cubeB_" } else { "cube_" };
        cure::core::ingest_cube_into(
            catalog,
            schema,
            &old,
            new,
            &delta,
            &CubeConfig::default(),
            &IngestOptions { drop_old: true },
            threads,
        )
        .unwrap();
    }
}

/// `file name → lowercase hex SHA-256` of every file in `dir`.
fn hash_dir(dir: &Path) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        out.insert(name, hex(&sha256(&std::fs::read(entry.path()).unwrap())));
    }
    out
}

fn golden_path(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.sha256"))
}

fn read_golden(name: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(golden_path(name)).unwrap_or_default();
    text.lines()
        .filter_map(|l| l.split_once("  "))
        .map(|(h, f)| (f.to_string(), h.to_string()))
        .collect()
}

fn render(hashes: &BTreeMap<String, String>) -> String {
    hashes.iter().map(|(f, h)| format!("{h}  {f}\n")).collect()
}

/// Hash the workload's catalog at every thread count and compare each
/// against the recorded list.
fn check(name: &str, thread_counts: &[usize]) {
    let want = read_golden(name);
    for &threads in thread_counts {
        let got = run_workload(name, threads);
        if got == want {
            continue;
        }
        let mut report = format!("{name} at {threads} thread(s) moved bytes:\n");
        for file in want.keys().chain(got.keys().filter(|f| !want.contains_key(*f))) {
            let (old, new) = (want.get(file), got.get(file));
            if old != new {
                let show = |h: Option<&String>| h.map_or("(absent)", |h| h.as_str()).to_string();
                report += &format!("  {file}: old {} new {}\n", show(old), show(new));
            }
        }
        report += &format!("new {}:\n{}", golden_path(name).display(), render(&got));
        panic!("{report}");
    }
}

#[test]
fn apb_plain_bytes_match_golden() {
    check("apb_plain", &[1]);
}

#[test]
fn apb_partitioned_bytes_match_golden() {
    check("apb_partitioned", &[1, 3]);
}

#[test]
fn cure_plus_bytes_match_golden() {
    check("cure_plus", &[1]);
}

#[test]
fn cure_dr_bytes_match_golden() {
    check("cure_dr", &[2]);
}

#[test]
fn durable_build_and_two_ingests_match_golden() {
    check("durable_ingest", &[1, 2]);
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// FIPS 180-4 SHA-256 (no hashing crate is available offline).
fn sha256(data: &[u8]) -> [u8; 32] {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
    for block in msg.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            (hh, g, f, e, d, c, b, a) = (g, f, e, d.wrapping_add(t1), c, b, a, t1.wrapping_add(t2));
        }
        for (s, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *s = s.wrapping_add(v);
        }
    }
    let mut out = [0u8; 32];
    for (o, v) in out.chunks_exact_mut(4).zip(h) {
        o.copy_from_slice(&v.to_be_bytes());
    }
    out
}

#[test]
fn sha256_matches_the_standard_vectors() {
    assert_eq!(
        hex(&sha256(b"")),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
    assert_eq!(
        hex(&sha256(b"abc")),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
}
