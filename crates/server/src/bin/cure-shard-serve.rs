//! `cure-shard-serve`: one shard's sub-cube behind a TCP socket.
//!
//! ```text
//! cure-shard-serve --dir <replica-dir> --shard <k> --listen <addr> [--read-path cache|mmap]
//! ```
//!
//! The directory must be a sharded catalog (primary or a
//! `replicate_shards` destination); the schema travels with it as the
//! self-describing schema blob, so nothing but the directory is needed.
//! On startup the server prints exactly one line
//!
//! ```text
//! LISTENING <addr>
//! ```
//!
//! to stdout (resolving `--listen 127.0.0.1:0` to the bound port) and
//! then serves until killed. Parents (the socket-shard kill/respawn
//! test) parse that line to learn the endpoint.

use std::io::Write as _;
use std::sync::Arc;

use cure_core::{read_schema_blob, read_shard_count, shard_cube_prefix};
use cure_query::{CacheConfig, ReadPath};
use cure_serve::{CubeService, ShardServer, ShardServerConfig};
use cure_storage::Catalog;

fn usage() -> String {
    "usage: cure-shard-serve --dir DIR --shard K --listen ADDR [--read-path cache|mmap]".to_string()
}

struct Args {
    dir: String,
    shard: usize,
    listen: String,
    read_path: ReadPath,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut dir = None;
    let mut shard = None;
    let mut listen = None;
    let mut read_path = ReadPath::Cache;
    let mut i = 0;
    while i < args.len() {
        let key = args[i].strip_prefix("--").ok_or_else(|| format!("unexpected '{}'", args[i]))?;
        let val = args.get(i + 1).ok_or_else(|| format!("--{key} needs a value"))?;
        match key {
            "dir" => dir = Some(val.clone()),
            "shard" => shard = Some(val.parse().map_err(|_| "bad --shard (want an integer ≥ 0)")?),
            "listen" => listen = Some(val.clone()),
            "read-path" => {
                read_path = ReadPath::parse(val)
                    .ok_or_else(|| "bad --read-path (want cache|mmap)".to_string())?
            }
            other => return Err(format!("unknown option '--{other}'\n{}", usage())),
        }
        i += 2;
    }
    Ok(Args {
        dir: dir.ok_or_else(|| format!("--dir is required\n{}", usage()))?,
        shard: shard.ok_or_else(|| format!("--shard is required\n{}", usage()))?,
        listen: listen.ok_or_else(|| format!("--listen is required\n{}", usage()))?,
        read_path,
    })
}

fn serve(a: &Args) -> Result<(), String> {
    let catalog = Arc::new(Catalog::open(&a.dir).map_err(|e| e.to_string())?);
    let shards = read_shard_count(&catalog)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("'{}' is not a sharded catalog (no topology blob)", a.dir))?;
    if a.shard >= shards {
        return Err(format!("--shard {} out of range (catalog has {} shard(s))", a.shard, shards));
    }
    let schema = read_schema_blob(&catalog)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("'{}' has no schema blob (rebuild the shards)", a.dir))?;
    let service = CubeService::open_with_read_path(
        Arc::clone(&catalog),
        Arc::new(schema),
        &shard_cube_prefix(a.shard),
        CacheConfig::default(),
        a.read_path,
    )
    .map_err(|e| e.to_string())?;
    let server =
        ShardServer::spawn(service, a.shard as u32, &a.listen, ShardServerConfig::default())
            .map_err(|e| format!("cannot bind {}: {e}", a.listen))?;
    println!("LISTENING {}", server.local_addr());
    let _ = std::io::stdout().flush();
    // Serve until killed (SIGKILL is the expected way down — the
    // socket-shard test proves the router survives exactly that).
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(a) => {
            if let Err(e) = serve(&a) {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}
