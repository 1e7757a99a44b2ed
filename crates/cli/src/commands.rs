//! Command implementations for the `txdb` binary.
//!
//! Everything takes a `Write` sink so the integration tests can drive the
//! full command surface without spawning processes.

use std::io::Write;
use std::path::PathBuf;

use txdb_base::{Error, Interval, Result, Timestamp, VersionId};
use txdb_client::json::Json;
use txdb_client::{Client, ClientError};
use txdb_core::{Database, DbOptions};
use txdb_query::{strip_explain_prefix, QueryExt};
use txdb_server::{DrainReason, Server, ServerConfig};
use txdb_storage::repo::VersionKind;

/// Parsed global options + subcommand tail.
struct Cli {
    db_dir: Option<PathBuf>,
    snapshot_every: Option<u32>,
    command: Vec<String>,
}

fn usage() -> String {
    "usage: txdb [--db DIR] [--snapshot-every N] <command>\n\
     commands:\n\
       put <name> <file.xml> [--at TIME]    store a new version\n\
       delete <name> [--at TIME]            delete (tombstone)\n\
       ls                                   list documents\n\
       log <name>                           version history\n\
       cat <name> [--at TIME|--version N] [--pretty]\n\
       diff <name> <t1> <t2>                edit script between snapshots\n\
       history <name> [--from T] [--to T]   reconstruct versions in a range\n\
       query [--explain] <QUERY>            run a temporal query; --explain\n\
                                            (or an EXPLAIN ANALYZE prefix)\n\
                                            prints the timed plan tree\n\
       vacuum <name> --before TIME          purge history before a horizon\n\
       fsck [--repair-tail] [--reclaim]     verify checksums, records and\n\
                                            version chains; optionally\n\
                                            truncate a torn WAL tail and\n\
                                            free leaked (salvaged) pages\n\
       stats                                space and index statistics\n\
       metrics [--json]                     engine metrics registry dump\n\
       serve [PATH] [--addr HOST:PORT]      serve the database over TCP\n\
             [--max-conns N]                (newline-delimited JSON; see\n\
             [--max-request-bytes N]        docs/protocol.md); drains on\n\
             [--no-wal-sync]                stdin EOF or wire SHUTDOWN;\n\
             [--slow-ms N] [--idle-ms N]    --slow-ms logs slow queries,\n\
                                            --idle-ms times out idle sessions\n\
       traces --connect HOST:PORT           recent request traces from a\n\
              [--limit N] [--slow]          server (--slow: slow-query log)\n\
       top --connect HOST:PORT              live dashboard: rates and\n\
           [--interval-ms N] [--ticks N]    percentiles from METRICS deltas\n\
       shell [--connect HOST:PORT]          interactive query shell, local\n\
                                            or against a running server"
        .to_string()
}

fn parse_cli(args: &[String]) -> Result<Cli> {
    let mut db_dir = None;
    let mut snapshot_every = None;
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--db" => {
                i += 1;
                db_dir = Some(PathBuf::from(
                    args.get(i)
                        .ok_or_else(|| Error::QueryInvalid("--db needs a directory".into()))?,
                ));
            }
            "--snapshot-every" => {
                i += 1;
                snapshot_every =
                    Some(args.get(i).and_then(|v| v.parse().ok()).ok_or_else(|| {
                        Error::QueryInvalid("--snapshot-every needs a number".into())
                    })?);
            }
            "--help" | "-h" => {
                return Err(Error::QueryInvalid(usage()));
            }
            _ => rest.push(args[i].clone()),
        }
        i += 1;
    }
    Ok(Cli { db_dir, snapshot_every, command: rest })
}

/// Extracts `--flag VALUE` from a command tail, returning the remainder.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    if pos + 1 >= args.len() {
        return None;
    }
    let value = args.remove(pos + 1);
    args.remove(pos);
    Some(value)
}

fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(pos) => {
            args.remove(pos);
            true
        }
        None => false,
    }
}

fn now() -> Timestamp {
    Timestamp::from_micros(
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0),
    )
}

fn parse_time_arg(v: Option<String>) -> Result<Timestamp> {
    match v {
        Some(s) => Timestamp::parse(&s),
        None => Ok(now()),
    }
}

/// Entry point shared by `main` and the tests.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<()> {
    let cli = parse_cli(args)?;
    if cli.command.is_empty() {
        return Err(Error::QueryInvalid(usage()));
    }
    // `serve` opens the database with its own options (WAL sync on, no
    // per-command checkpoints) while `shell --connect`, `traces` and
    // `top` open none at all, so all are dispatched before the common
    // open below.
    match cli.command[0].as_str() {
        "serve" => return serve(&cli, out),
        "traces" => return traces_cmd(&cli.command[1..], out),
        "top" => return top_cmd(&cli.command[1..], out),
        "shell" => {
            let mut tail = cli.command[1..].to_vec();
            if let Some(addr) = take_flag(&mut tail, "--connect") {
                if !tail.is_empty() {
                    return Err(Error::QueryInvalid(
                        "usage: txdb shell [--connect HOST:PORT]".into(),
                    ));
                }
                return connect_shell(&addr, out);
            }
        }
        _ => {}
    }
    let mut opts = DbOptions::new();
    if let Some(dir) = &cli.db_dir {
        opts = opts.path(dir.clone());
    }
    if let Some(k) = cli.snapshot_every {
        opts = opts.snapshot_every(k);
    }
    let db = opts.open()?;
    let report = db.recovery_report();
    if report.replayed > 0 {
        writeln!(out, "(recovered {} operations from the WAL)", report.replayed)?;
    }
    if let Some(reason) = &report.salvage {
        writeln!(out, "WARNING: opened read-only (salvage mode): {reason}")?;
        if report.unindexed_chains > 0 {
            writeln!(
                out,
                "WARNING: {} document chain(s) could not be indexed",
                report.unindexed_chains
            )?;
        }
    }
    let mut tail: Vec<String> = cli.command[1..].to_vec();
    match cli.command[0].as_str() {
        "put" => {
            let at = parse_time_arg(take_flag(&mut tail, "--at"))?;
            let [name, file] = two(&tail, "put <name> <file.xml>")?;
            let xml = std::fs::read_to_string(file)?;
            let r = db.put(name, &xml, at)?;
            db.checkpoint()?;
            if r.changed {
                writeln!(out, "{}: stored version {} @ {}", name, r.version.0, r.ts)?;
            } else {
                writeln!(out, "{name}: unchanged, no version stored")?;
            }
        }
        "delete" => {
            let at = parse_time_arg(take_flag(&mut tail, "--at"))?;
            let [name] = one(&tail, "delete <name>")?;
            match db.delete(name, at)? {
                Some(d) => {
                    db.checkpoint()?;
                    writeln!(out, "{name}: deleted @ {}", d.ts)?;
                }
                None => writeln!(out, "{name}: not present (nothing deleted)")?,
            }
        }
        "ls" => {
            for (doc, name) in db.store().list()? {
                let entries = db.store().versions(doc)?;
                let state = if db.store().is_deleted(doc)? { "deleted" } else { "live" };
                writeln!(
                    out,
                    "{name}  ({} version{}, {state})",
                    entries.len(),
                    if entries.len() == 1 { "" } else { "s" }
                )?;
            }
        }
        "log" => {
            let [name] = one(&tail, "log <name>")?;
            let doc =
                db.store().doc_id(name)?.ok_or_else(|| Error::NoSuchDocument(name.to_string()))?;
            for e in db.store().versions(doc)? {
                let kind = match e.kind {
                    VersionKind::Content => {
                        if e.snapshot_rid.is_some() {
                            "content+snapshot"
                        } else if e.delta_rid.is_some() {
                            "content"
                        } else {
                            "base"
                        }
                    }
                    VersionKind::Tombstone => "DELETED",
                    VersionKind::Purged => "purged",
                };
                writeln!(out, "v{:<4} {}  {kind}", e.version.0, e.ts)?;
            }
        }
        "cat" => {
            let at = take_flag(&mut tail, "--at");
            let version = take_flag(&mut tail, "--version");
            let pretty = take_switch(&mut tail, "--pretty");
            let [name] = one(&tail, "cat <name>")?;
            let doc =
                db.store().doc_id(name)?.ok_or_else(|| Error::NoSuchDocument(name.to_string()))?;
            let tree = match (at, version) {
                (_, Some(v)) => {
                    let v: u32 = v
                        .parse()
                        .map_err(|_| Error::QueryInvalid("--version needs a number".into()))?;
                    db.store().version_tree(doc, VersionId(v))?
                }
                (Some(t), None) => db.reconstruct_doc_at(doc, Timestamp::parse(&t)?)?,
                (None, None) => db.store().current_tree(doc)?,
            };
            let text = if pretty {
                txdb_xml::serialize::to_string_pretty(&tree)
            } else {
                txdb_xml::serialize::to_string(&tree) + "\n"
            };
            write!(out, "{text}")?;
        }
        "diff" => {
            let [name, t1, t2] = three(&tail, "diff <name> <t1> <t2>")?;
            let doc =
                db.store().doc_id(name)?.ok_or_else(|| Error::NoSuchDocument(name.to_string()))?;
            let (t1, t2) = (Timestamp::parse(t1)?, Timestamp::parse(t2)?);
            let old = db.reconstruct_doc_at(doc, t1)?;
            let new = db.reconstruct_doc_at(doc, t2)?;
            let script = db.diff_trees_xml(&old, new, t1, t2)?;
            writeln!(out, "{}", txdb_xml::serialize::to_string_pretty(&script))?;
        }
        "history" => {
            let from = take_flag(&mut tail, "--from")
                .map(|t| Timestamp::parse(&t))
                .transpose()?
                .unwrap_or(Timestamp::ZERO);
            let to = take_flag(&mut tail, "--to")
                .map(|t| Timestamp::parse(&t))
                .transpose()?
                .unwrap_or(Timestamp::FOREVER);
            let [name] = one(&tail, "history <name> [--from T] [--to T]")?;
            let doc =
                db.store().doc_id(name)?.ok_or_else(|| Error::NoSuchDocument(name.to_string()))?;
            let history = db.doc_history(doc, Interval::new(from, to))?;
            if history.is_empty() {
                writeln!(out, "{name}: no versions valid in [{from}, {to})")?;
            }
            for dv in history {
                writeln!(
                    out,
                    "v{} @ {}:\n{}",
                    dv.version.0,
                    dv.ts,
                    txdb_xml::serialize::to_string_pretty(&dv.tree)
                )?;
            }
        }
        "query" => {
            let explain = take_switch(&mut tail, "--explain");
            let [q] = one(&tail, "query [--explain] <QUERY>")?;
            run_query_explain(&db, q, explain, out)?;
        }
        "vacuum" => {
            let before = parse_time_arg(take_flag(&mut tail, "--before"))?;
            let [name] = one(&tail, "vacuum <name> --before TIME")?;
            match db.vacuum(name, before)? {
                Some(v) => {
                    db.checkpoint()?;
                    writeln!(
                        out,
                        "{name}: purged {} version{}, freed {} bytes",
                        v.purged_versions,
                        if v.purged_versions == 1 { "" } else { "s" },
                        v.freed_bytes
                    )?;
                }
                None => writeln!(out, "{name}: not present")?,
            }
        }
        "fsck" => {
            let repair = take_switch(&mut tail, "--repair-tail");
            let reclaim = take_switch(&mut tail, "--reclaim");
            if !tail.is_empty() {
                return Err(Error::QueryInvalid(
                    "usage: txdb fsck [--repair-tail] [--reclaim]".into(),
                ));
            }
            let r = db.store().fsck();
            writeln!(out, "{r}")?;
            if reclaim {
                let freed = db.store().reclaim_leaked_pages()?;
                if freed.is_empty() {
                    writeln!(out, "reclaimed: nothing to do (no leaked pages)")?;
                } else {
                    writeln!(
                        out,
                        "reclaimed: {} leaked page(s) returned to the free list",
                        freed.len()
                    )?;
                }
            }
            if repair {
                let mut repaired = false;
                if r.torn_bytes > 0 {
                    let removed = db.store().repair_wal_tail()?;
                    writeln!(out, "repaired: {removed} torn byte(s) truncated from the WAL tail")?;
                    repaired = true;
                }
                if db.store().retire_journal()? {
                    writeln!(out, "repaired: checkpoint journal retired")?;
                    repaired = true;
                }
                if !repaired {
                    writeln!(out, "repaired: nothing to do (no torn tail, no journal residue)")?;
                }
            }
            if !r.is_clean() {
                return Err(Error::Corrupt(format!(
                    "fsck found {} bad page(s) and {} error(s)",
                    r.bad_pages.len(),
                    r.errors.len()
                )));
            }
        }
        "stats" => {
            let s = db.store().space_stats()?;
            let fti = db.indexes().fti();
            writeln!(out, "documents:        {}", db.store().list()?.len())?;
            writeln!(out, "pages:            {}", s.pages)?;
            writeln!(out, "current bytes:    {}", s.current_bytes)?;
            writeln!(out, "delta bytes:      {}", s.delta_bytes)?;
            writeln!(out, "snapshot bytes:   {}", s.snapshot_bytes)?;
            writeln!(out, "metadata bytes:   {}", s.meta_bytes)?;
            writeln!(out, "fti postings:     {}", fti.posting_count())?;
            writeln!(out, "fti tokens:       {}", fti.token_count())?;
            match db.store().index_checkpoint_info() {
                Ok(Some(i)) => writeln!(
                    out,
                    "index checkpoint: generation {}, {} bytes in {} page(s)",
                    i.generation, i.bytes, i.pages
                )?,
                Ok(None) => writeln!(out, "index checkpoint: none")?,
                Err(e) => writeln!(out, "index checkpoint: unreadable ({e})")?,
            }
            writeln!(out, "eid index:        {} elements", db.indexes().eid_index().len()?)?;
            let (hits, misses, _, evictions, invalidations) = db.store().vcache_stats().snapshot();
            writeln!(out, "vcache entries:   {}", db.store().vcache().len())?;
            writeln!(out, "vcache resident:  {} bytes", db.store().vcache().resident_bytes())?;
            writeln!(out, "vcache hits:      {hits}")?;
            writeln!(out, "vcache misses:    {misses}")?;
            writeln!(out, "vcache evicted:   {evictions}")?;
            writeln!(out, "vcache dropped:   {invalidations}")?;
            // Recovery observability: how this (and, within the registry's
            // lifetime, any) open replayed history.
            let m = db.metrics().snapshot();
            writeln!(
                out,
                "recovery:         {} full-replay fallback(s), {} stale-cover replay(s), \
                 {} salvage open(s)",
                m.counter("recovery.index_fallback").unwrap_or(0),
                m.counter("recovery.stale_cover_replays").unwrap_or(0),
                m.counter("recovery.salvage_opens").unwrap_or(0),
            )?;
        }
        "metrics" => {
            let json = take_switch(&mut tail, "--json");
            if !tail.is_empty() {
                return Err(Error::QueryInvalid("usage: txdb metrics [--json]".into()));
            }
            db.store().update_derived_metrics();
            let snap = db.metrics().snapshot();
            if json {
                writeln!(out, "{}", snap.to_json())?;
            } else {
                write!(out, "{}", snap.to_text())?;
            }
        }
        "shell" => {
            shell(&db, out)?;
        }
        other => {
            return Err(Error::QueryInvalid(format!("unknown command `{other}`\n{}", usage())));
        }
    }
    Ok(())
}

/// `txdb serve [PATH] [--addr A] [--max-conns N] [--max-request-bytes N]
/// [--no-wal-sync] [--slow-ms N] [--idle-ms N]` — run the TCP front end
/// until a drain is requested.
///
/// The database opens with WAL sync **on** (each wire commit is durable;
/// concurrent committers share fsyncs through group commit) and no
/// per-command checkpoints — the WAL absorbs the write stream and is
/// checkpointed once, at drain. Draining is triggered by stdin reaching
/// EOF (the supervisor closed our input) or a client `SHUTDOWN`.
fn serve(cli: &Cli, out: &mut dyn Write) -> Result<()> {
    let mut tail: Vec<String> = cli.command[1..].to_vec();
    let addr = take_flag(&mut tail, "--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let max_conns = match take_flag(&mut tail, "--max-conns") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| Error::QueryInvalid("--max-conns needs a number".into()))?,
        None => ServerConfig::default().max_conns,
    };
    let max_request_bytes = match take_flag(&mut tail, "--max-request-bytes") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| Error::QueryInvalid("--max-request-bytes needs a number".into()))?,
        None => ServerConfig::default().max_request_bytes,
    };
    let wal_sync = !take_switch(&mut tail, "--no-wal-sync");
    // `--slow-ms 0` is meaningful: it logs *every* query (threshold 0µs),
    // which is how the check script exercises the slow log; omitting the
    // flag disables the log and its metering cost entirely.
    let slow_us = match take_flag(&mut tail, "--slow-ms") {
        Some(v) => Some(
            v.parse::<u64>().map_err(|_| Error::QueryInvalid("--slow-ms needs a number".into()))?
                * 1000,
        ),
        None => None,
    };
    let idle_timeout = match take_flag(&mut tail, "--idle-ms") {
        Some(v) => {
            let ms = v
                .parse::<u64>()
                .map_err(|_| Error::QueryInvalid("--idle-ms needs a number".into()))?;
            (ms > 0).then(|| std::time::Duration::from_millis(ms))
        }
        None => None,
    };
    let path = match tail.len() {
        0 => cli.db_dir.clone(),
        1 => Some(PathBuf::from(tail.remove(0))),
        _ => return Err(Error::QueryInvalid("usage: txdb serve [PATH] [--addr …]".into())),
    };
    let mut opts = DbOptions::new().wal_sync(wal_sync);
    if let Some(dir) = path {
        opts = opts.path(dir);
    }
    if let Some(k) = cli.snapshot_every {
        opts = opts.snapshot_every(k);
    }
    let db = std::sync::Arc::new(opts.open()?);
    let report = db.recovery_report();
    if report.replayed > 0 {
        writeln!(out, "(recovered {} operations from the WAL)", report.replayed)?;
    }
    if let Some(reason) = &report.salvage {
        writeln!(out, "WARNING: serving read-only (salvage mode): {reason}")?;
    }
    let cfg = ServerConfig { addr, max_conns, max_request_bytes, slow_us, idle_timeout };
    let server = Server::start(std::sync::Arc::clone(&db), cfg)?;
    writeln!(out, "listening on {}", server.addr())?;
    out.flush()?;
    // Supervisor protocol: when our stdin closes, drain. (No signal
    // handling — the standard library has none and the workspace links
    // no libc bindings; closing stdin or a wire SHUTDOWN are the two
    // drain triggers.)
    let host_drain = server.drain_requester();
    std::thread::spawn(move || {
        let mut sink = Vec::new();
        let mut stdin = std::io::stdin();
        let _ = std::io::Read::read_to_end(&mut stdin, &mut sink);
        let _ = host_drain.send(DrainReason::HostRequest);
    });
    let reason = server.wait_drain_requested();
    writeln!(
        out,
        "draining ({})",
        match reason {
            DrainReason::ClientRequest => "client SHUTDOWN",
            DrainReason::HostRequest => "stdin closed",
        }
    )?;
    out.flush()?;
    let drained = server.shutdown()?;
    writeln!(
        out,
        "drained: {} session(s) open at shutdown, {} served in total",
        drained.sessions_drained, drained.sessions_total
    )?;
    Ok(())
}

/// Maps a wire-client failure into the CLI's error type.
fn wire_err(e: ClientError) -> Error {
    match e {
        ClientError::Io(e) => Error::Io(e),
        other => Error::QueryInvalid(format!("server error: {other}")),
    }
}

/// `txdb traces --connect HOST:PORT [--limit N] [--slow]` — fetch and
/// render the server's trace ring (or, with `--slow`, its slow-query
/// log), newest first.
fn traces_cmd(tail: &[String], out: &mut dyn Write) -> Result<()> {
    const USAGE: &str = "usage: txdb traces --connect HOST:PORT [--limit N] [--slow]";
    let mut tail = tail.to_vec();
    let addr =
        take_flag(&mut tail, "--connect").ok_or_else(|| Error::QueryInvalid(USAGE.into()))?;
    let limit = match take_flag(&mut tail, "--limit") {
        Some(v) => Some(
            v.parse::<u64>().map_err(|_| Error::QueryInvalid("--limit needs a number".into()))?,
        ),
        None => None,
    };
    let slow = take_switch(&mut tail, "--slow");
    if !tail.is_empty() {
        return Err(Error::QueryInvalid(USAGE.into()));
    }
    let mut client = Client::connect(&*addr).map_err(Error::Io)?;
    if slow {
        let v = client.slowlog(limit).map_err(wire_err)?;
        render_slowlog(&v, out)
    } else {
        let v = client.traces(limit).map_err(wire_err)?;
        render_traces(&v, out)
    }
}

/// Renders a `TRACES` response as indented span trees, mirroring
/// `TraceTree::render` on the server side.
fn render_traces(v: &Json, out: &mut dyn Write) -> Result<()> {
    let traces = v.get("traces").and_then(Json::as_arr).unwrap_or(&[]);
    if traces.is_empty() {
        writeln!(out, "(no traces recorded — send requests with \"trace\":true)")?;
        return Ok(());
    }
    for entry in traces {
        let tree = match entry.get("trace") {
            Some(t) => t,
            None => continue,
        };
        let id = tree.get("trace_id").and_then(Json::as_u64).unwrap_or(0);
        write!(out, "trace {id}")?;
        if let Some(Json::Obj(fields)) = tree.get("fields") {
            for (k, val) in fields {
                write!(out, " {k}={}", render_scalar(val))?;
            }
        }
        if let Some(d) = tree.get("dropped").and_then(Json::as_u64) {
            write!(out, " dropped={d}")?;
        }
        writeln!(out)?;
        for span in tree.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
            render_trace_span(span, 1, out)?;
        }
    }
    Ok(())
}

/// One span line (`name  NNNµs [fields]`) plus its children, indented.
fn render_trace_span(span: &Json, depth: usize, out: &mut dyn Write) -> Result<()> {
    let name = span.get("name").and_then(Json::as_str).unwrap_or("?");
    let us = span.get("us").and_then(Json::as_u64).unwrap_or(0);
    write!(out, "{}{name}  {us}µs", "  ".repeat(depth))?;
    if let Some(Json::Obj(fields)) = span.get("fields") {
        for (k, val) in fields {
            write!(out, " {k}={}", render_scalar(val))?;
        }
    }
    writeln!(out)?;
    for c in span.get("children").and_then(Json::as_arr).unwrap_or(&[]) {
        render_trace_span(c, depth + 1, out)?;
    }
    Ok(())
}

fn render_scalar(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

/// Renders a `SLOWLOG` response: one header line per entry followed by
/// the query text and its indented `EXPLAIN ANALYZE` tree.
fn render_slowlog(v: &Json, out: &mut dyn Write) -> Result<()> {
    match v.get("slow_us").and_then(Json::as_u64) {
        Some(us) => writeln!(out, "slow-query log (threshold {us}µs):")?,
        None => writeln!(out, "slow-query log (disabled — start the server with --slow-ms):")?,
    }
    let entries = v.get("entries").and_then(Json::as_arr).unwrap_or(&[]);
    if entries.is_empty() {
        writeln!(out, "(empty)")?;
        return Ok(());
    }
    for e in entries {
        let us = e.get("us").and_then(Json::as_u64).unwrap_or(0);
        write!(
            out,
            "-- {us}µs  session={} rows={} scanned={} reconstructions={}",
            e.get("session").and_then(Json::as_u64).unwrap_or(0),
            e.get("rows").and_then(Json::as_u64).unwrap_or(0),
            e.get("rows_scanned").and_then(Json::as_u64).unwrap_or(0),
            e.get("reconstructions").and_then(Json::as_u64).unwrap_or(0),
        )?;
        if let Some(t) = e.get("trace_id").and_then(Json::as_u64) {
            write!(out, " trace={t}")?;
        }
        writeln!(out)?;
        writeln!(out, "   {}", e.get("q").and_then(Json::as_str).unwrap_or(""))?;
        for line in e.get("explain").and_then(Json::as_str).unwrap_or("").lines() {
            writeln!(out, "   {line}")?;
        }
    }
    Ok(())
}

/// `txdb top --connect HOST:PORT [--interval-ms N] [--ticks N]` — the
/// live dashboard: polls `METRICS` with the `since` cursor and prints,
/// per window, request rates plus per-command latency (window mean,
/// cumulative p50/p95/p99). `--ticks N` stops after N windows (0, the
/// default, polls until interrupted or the server goes away).
fn top_cmd(tail: &[String], out: &mut dyn Write) -> Result<()> {
    const USAGE: &str = "usage: txdb top --connect HOST:PORT [--interval-ms N] [--ticks N]";
    let mut tail = tail.to_vec();
    let addr =
        take_flag(&mut tail, "--connect").ok_or_else(|| Error::QueryInvalid(USAGE.into()))?;
    let interval_ms = match take_flag(&mut tail, "--interval-ms") {
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| Error::QueryInvalid("--interval-ms needs a number".into()))?
            .max(10),
        None => 1000,
    };
    let ticks = match take_flag(&mut tail, "--ticks") {
        Some(v) => {
            v.parse::<u64>().map_err(|_| Error::QueryInvalid("--ticks needs a number".into()))?
        }
        None => 0,
    };
    if !tail.is_empty() {
        return Err(Error::QueryInvalid(USAGE.into()));
    }
    let mut client = Client::connect(&*addr).map_err(Error::Io)?;
    writeln!(out, "txdb top — {addr}, {interval_ms}ms windows")?;
    out.flush()?;
    let first = client.metrics_since(None).map_err(wire_err)?;
    let mut cursor = first.get("cursor").and_then(Json::as_u64);
    let mut tick = 0u64;
    loop {
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        let v = client.metrics_since(cursor).map_err(wire_err)?;
        cursor = v.get("cursor").and_then(Json::as_u64);
        render_top_window(&v, out)?;
        out.flush()?;
        tick += 1;
        if ticks > 0 && tick >= ticks {
            break;
        }
    }
    Ok(())
}

/// One dashboard window from a `METRICS` delta response: gauges, change
/// counters, and a per-command latency table joining the window's
/// histogram deltas (rate, window mean) with the cumulative percentiles.
fn render_top_window(v: &Json, out: &mut dyn Write) -> Result<()> {
    let window_us = v.get("window_us").and_then(Json::as_u64).unwrap_or(0).max(1);
    let secs = window_us as f64 / 1e6;
    let delta = v.get("delta");
    let sessions = delta
        .and_then(|d| d.get("gauges"))
        .and_then(|g| g.get("server.active_sessions"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let requests = delta
        .and_then(|d| d.get("counters"))
        .and_then(|c| c.get("server.requests"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    writeln!(out, "── window {secs:.2}s  sessions {sessions}  requests {requests}")?;
    // Per-command table: every `server.cmd.*_us` histogram that moved
    // this window, rate and mean from the delta, percentiles cumulative.
    let hists = v.get("metrics").and_then(|m| m.get("histograms"));
    if let Some(Json::Obj(moved)) = delta.and_then(|d| d.get("histograms")) {
        let mut wrote_header = false;
        for (name, d) in moved {
            let cmd = match name.strip_prefix("server.cmd.").and_then(|s| s.strip_suffix("_us")) {
                Some(c) => c,
                None => continue,
            };
            let dc = d.get("count").and_then(Json::as_u64).unwrap_or(0);
            let ds = d.get("sum").and_then(Json::as_u64).unwrap_or(0);
            if dc == 0 {
                continue;
            }
            if !wrote_header {
                writeln!(
                    out,
                    "{:<10} {:>9} {:>10} {:>8} {:>8} {:>8}",
                    "cmd", "rate/s", "mean_us", "p50", "p95", "p99"
                )?;
                wrote_header = true;
            }
            let cum = hists.and_then(|h| h.get(name));
            let pct = |p: &str| {
                cum.and_then(|c| c.get(p)).and_then(Json::as_u64).unwrap_or(0).to_string()
            };
            writeln!(
                out,
                "{:<10} {:>9.1} {:>10.1} {:>8} {:>8} {:>8}",
                cmd,
                dc as f64 / secs,
                ds as f64 / dc as f64,
                pct("p50"),
                pct("p95"),
                pct("p99"),
            )?;
        }
        if !wrote_header {
            writeln!(out, "(idle — no commands this window)")?;
        }
    }
    // Noteworthy change counters (slow queries, rejections, timeouts).
    if let Some(Json::Obj(counters)) = delta.and_then(|d| d.get("counters")) {
        let mut noted = Vec::new();
        for key in ["server.slow_queries", "server.rejected_busy", "server.idle_timeouts"] {
            if let Some(n) = counters.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_u64()) {
                if n > 0 {
                    noted.push(format!("{} +{n}", key.trim_start_matches("server.")));
                }
            }
        }
        if !noted.is_empty() {
            writeln!(out, "{}", noted.join("  "))?;
        }
    }
    Ok(())
}

/// `txdb shell --connect HOST:PORT` — the interactive shell against a
/// running server instead of a locally opened database.
fn connect_shell(addr: &str, out: &mut dyn Write) -> Result<()> {
    let mut client = Client::connect(addr).map_err(Error::Io)?;
    writeln!(out, "txdb shell — connected to {addr}; .help for commands")?;
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        write!(out, "txdb> ")?;
        out.flush()?;
        line.clear();
        if stdin.read_line(&mut line)? == 0 {
            break; // EOF
        }
        let input = line.trim();
        if input.is_empty() {
            continue;
        }
        match connect_shell_line(&mut client, input, out) {
            Ok(true) => break,
            Ok(false) => {}
            // The transport is gone: no further command can succeed.
            Err(ClientError::Io(e)) => {
                writeln!(out, "connection lost: {e}")?;
                break;
            }
            Err(e) => writeln!(out, "error: {e}")?,
        }
    }
    Ok(())
}

/// Executes one remote-shell line; returns `true` to quit.
fn connect_shell_line(
    client: &mut Client,
    input: &str,
    out: &mut dyn Write,
) -> std::result::Result<bool, ClientError> {
    let micros = |s: &str| {
        Timestamp::parse(s)
            .map(|t| t.micros())
            .map_err(|e| ClientError::Protocol(format!("bad time: {e}")))
    };
    match input {
        ".quit" | ".exit" | ".q" => return Ok(true),
        ".help" => {
            writeln!(
                out,
                ".put NAME FILE [TIME]   store FILE as a new version of NAME\n\
                 .delete NAME [TIME]     delete (tombstone)\n\
                 .pin TIME               pin a snapshot; prints the pin id\n\
                 .unpin ID               release a pin\n\
                 .stats                  server space/index statistics\n\
                 .metrics                server metrics snapshot (JSON)\n\
                 .ping                   round-trip check\n\
                 .shutdown               ask the server to drain\n\
                 .quit                   leave\n\
                 anything else           executed as a temporal query"
            )?;
        }
        ".ping" => {
            let t = std::time::Instant::now();
            client.ping()?;
            writeln!(out, "pong ({:.1} ms)", t.elapsed().as_secs_f64() * 1e3)?;
        }
        ".stats" => writeln!(out, "{}", client.stats()?)?,
        ".metrics" => writeln!(out, "{}", client.metrics()?)?,
        ".shutdown" => {
            client.shutdown_server()?;
            writeln!(out, "server draining")?;
            return Ok(true);
        }
        _ if input.starts_with(".put ") => {
            let args: Vec<&str> = input[5..].split_whitespace().collect();
            let (name, file, at) = match args.as_slice() {
                [n, f] => (n, f, None),
                [n, f, t] => (n, f, Some(micros(t)?)),
                _ => return Err(ClientError::Protocol("usage: .put NAME FILE [TIME]".into())),
            };
            let xml = std::fs::read_to_string(file)?;
            let r = client.put(name, &xml, at)?;
            match r.version {
                Some(v) => writeln!(out, "{name}: stored version {v}")?,
                None => writeln!(out, "{name}: unchanged, no version stored")?,
            }
        }
        _ if input.starts_with(".delete ") => {
            let args: Vec<&str> = input[8..].split_whitespace().collect();
            let (name, at) = match args.as_slice() {
                [n] => (n, None),
                [n, t] => (n, Some(micros(t)?)),
                _ => return Err(ClientError::Protocol("usage: .delete NAME [TIME]".into())),
            };
            if client.delete(name, at)? {
                writeln!(out, "{name}: deleted")?;
            } else {
                writeln!(out, "{name}: not present (nothing deleted)")?;
            }
        }
        _ if input.starts_with(".pin ") => {
            let id = client.pin(micros(input[5..].trim())?)?;
            writeln!(out, "pin {id}")?;
        }
        _ if input.starts_with(".unpin ") => {
            let id: u64 = input[7..]
                .trim()
                .parse()
                .map_err(|_| ClientError::Protocol("usage: .unpin ID".into()))?;
            client.unpin(id)?;
            writeln!(out, "released")?;
        }
        _ if input.starts_with('.') => {
            writeln!(out, "unknown dot-command; .help lists them")?;
        }
        query => {
            let start = std::time::Instant::now();
            let mut rows = 0usize;
            write!(out, "<results>")?;
            let (explain, done) = client.query_stream(query, None, |row| {
                let _ = write!(out, "<result>");
                for v in row {
                    let _ = write!(out, "{v}");
                }
                let _ = write!(out, "</result>");
                rows += 1;
            })?;
            writeln!(out, "</results>")?;
            if let Some(tree) = explain {
                write!(out, "{tree}")?;
            }
            writeln!(
                out,
                "-- {} row{} in {:.1} ms ({} reconstruction{}, {} cache hit{})",
                rows,
                if rows == 1 { "" } else { "s" },
                start.elapsed().as_secs_f64() * 1e3,
                done.reconstructions,
                if done.reconstructions == 1 { "" } else { "s" },
                done.cache_hits,
                if done.cache_hits == 1 { "" } else { "s" },
            )?;
        }
    }
    Ok(false)
}

fn run_query(db: &Database, q: &str, out: &mut dyn Write) -> Result<()> {
    run_query_explain(db, q, false, out)
}

fn run_query_explain(db: &Database, q: &str, explain: bool, out: &mut dyn Write) -> Result<()> {
    let (q, explain) = match strip_explain_prefix(q) {
        Some(rest) => (rest, true),
        None => (q, explain),
    };
    let start = std::time::Instant::now();
    let req = db.query(q).at(now());
    let (rows, stats) = if explain {
        // EXPLAIN ANALYZE drains the tree anyway (the plan annotations
        // cover the whole run), so materialise and print the tree first.
        let r = req.explain().run()?;
        if let Some(tree) = &r.explain {
            write!(out, "{}", tree.render())?;
        }
        writeln!(out, "{}", r.to_xml())?;
        (r.len(), r.stats)
    } else {
        // The plain path streams: each row is rendered as soon as the
        // operator tree produces it, never materialising the result.
        let mut stream = req.stream()?;
        write!(out, "<results>")?;
        let mut rows = 0usize;
        for row in &mut stream {
            write!(out, "<result>")?;
            for v in row? {
                write!(out, "{}", v.as_text())?;
            }
            write!(out, "</result>")?;
            rows += 1;
        }
        writeln!(out, "</results>")?;
        (rows, stream.stats())
    };
    let elapsed = start.elapsed();
    writeln!(
        out,
        "-- {} row{} in {:.1} ms ({} reconstruction{}, {} cache hit{})",
        rows,
        if rows == 1 { "" } else { "s" },
        elapsed.as_secs_f64() * 1e3,
        stats.reconstructions,
        if stats.reconstructions == 1 { "" } else { "s" },
        stats.cache_hits,
        if stats.cache_hits == 1 { "" } else { "s" },
    )?;
    Ok(())
}

/// The interactive shell: queries, plus dot-commands for inspection.
fn shell(db: &Database, out: &mut dyn Write) -> Result<()> {
    writeln!(out, "txdb shell — enter a temporal query, or .help for commands")?;
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        write!(out, "txdb> ")?;
        out.flush()?;
        line.clear();
        if stdin.read_line(&mut line)? == 0 {
            break; // EOF
        }
        let input = line.trim();
        if input.is_empty() {
            continue;
        }
        match shell_line(db, input, out) {
            Ok(true) => break,
            Ok(false) => {}
            Err(e) => writeln!(out, "error: {e}")?,
        }
    }
    Ok(())
}

/// Executes one shell line; returns `true` to quit.
pub fn shell_line(db: &Database, input: &str, out: &mut dyn Write) -> Result<bool> {
    match input {
        ".quit" | ".exit" | ".q" => return Ok(true),
        ".help" => {
            writeln!(
                out,
                ".ls            list documents\n\
                 .log NAME      version history of NAME\n\
                 .history NAME  reconstruct every version of NAME\n\
                 .quit          leave\n\
                 anything else  executed as a temporal query"
            )?;
        }
        ".ls" => {
            for (doc, name) in db.store().list()? {
                let n = db.store().versions(doc)?.len();
                writeln!(out, "{name}  ({n} versions)")?;
            }
        }
        _ if input.starts_with(".log ") => {
            let name = input[5..].trim();
            let doc =
                db.store().doc_id(name)?.ok_or_else(|| Error::NoSuchDocument(name.to_string()))?;
            for e in db.store().versions(doc)? {
                writeln!(out, "v{:<4} {}", e.version.0, e.ts)?;
            }
        }
        _ if input.starts_with(".history ") => {
            let name = input[9..].trim();
            let doc =
                db.store().doc_id(name)?.ok_or_else(|| Error::NoSuchDocument(name.to_string()))?;
            for dv in db.doc_history(doc, Interval::ALL)? {
                writeln!(
                    out,
                    "v{} @ {}: {}",
                    dv.version.0,
                    dv.ts,
                    txdb_xml::serialize::to_string(&dv.tree)
                )?;
            }
        }
        _ if input.starts_with('.') => {
            writeln!(out, "unknown dot-command; .help lists them")?;
        }
        query => run_query(db, query, out)?,
    }
    Ok(false)
}

fn one<'a>(args: &'a [String], usage: &str) -> Result<[&'a str; 1]> {
    match args {
        [a] => Ok([a.as_str()]),
        _ => Err(Error::QueryInvalid(format!("usage: txdb {usage}"))),
    }
}

fn two<'a>(args: &'a [String], usage: &str) -> Result<[&'a str; 2]> {
    match args {
        [a, b] => Ok([a.as_str(), b.as_str()]),
        _ => Err(Error::QueryInvalid(format!("usage: txdb {usage}"))),
    }
}

fn three<'a>(args: &'a [String], usage: &str) -> Result<[&'a str; 3]> {
    match args {
        [a, b, c] => Ok([a.as_str(), b.as_str(), c.as_str()]),
        _ => Err(Error::QueryInvalid(format!("usage: txdb {usage}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("txdb-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_cmd(args: &[&str]) -> Result<String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out)?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn put_ls_log_cat_roundtrip() {
        let dir = tmpdir("roundtrip");
        let db = dir.join("db");
        let f1 = dir.join("v1.xml");
        let f2 = dir.join("v2.xml");
        std::fs::write(&f1, "<g><r><n>Napoli</n><p>15</p></r></g>").unwrap();
        std::fs::write(&f2, "<g><r><n>Napoli</n><p>18</p></r></g>").unwrap();
        let db_s = db.to_str().unwrap();

        let out =
            run_cmd(&["--db", db_s, "put", "guide", f1.to_str().unwrap(), "--at", "01/01/2001"])
                .unwrap();
        assert!(out.contains("stored version 0"), "{out}");
        let out =
            run_cmd(&["--db", db_s, "put", "guide", f2.to_str().unwrap(), "--at", "31/01/2001"])
                .unwrap();
        assert!(out.contains("stored version 1"), "{out}");
        // Unchanged put.
        let out =
            run_cmd(&["--db", db_s, "put", "guide", f2.to_str().unwrap(), "--at", "01/02/2001"])
                .unwrap();
        assert!(out.contains("unchanged"), "{out}");

        let out = run_cmd(&["--db", db_s, "ls"]).unwrap();
        assert!(out.contains("guide  (2 versions, live)"), "{out}");

        let out = run_cmd(&["--db", db_s, "log", "guide"]).unwrap();
        assert!(out.contains("v0    2001-01-01  base"), "{out}");
        assert!(out.contains("v1    2001-01-31  content"), "{out}");

        // cat current, at a time, and by version.
        let out = run_cmd(&["--db", db_s, "cat", "guide"]).unwrap();
        assert!(out.contains("<p>18</p>"), "{out}");
        let out = run_cmd(&["--db", db_s, "cat", "guide", "--at", "15/01/2001"]).unwrap();
        assert!(out.contains("<p>15</p>"), "{out}");
        let out = run_cmd(&["--db", db_s, "cat", "guide", "--version", "0"]).unwrap();
        assert!(out.contains("<p>15</p>"), "{out}");

        // diff between the snapshots.
        let out = run_cmd(&["--db", db_s, "diff", "guide", "02/01/2001", "01/02/2001"]).unwrap();
        assert!(out.contains("<old>15</old>"), "{out}");
        assert!(out.contains("<new>18</new>"), "{out}");

        // query end-to-end.
        let out =
            run_cmd(&["--db", db_s, "query", r#"SELECT R/p FROM doc("guide")[15/01/2001]//r R"#])
                .unwrap();
        assert!(out.contains("<p>15</p>"), "{out}");
        assert!(out.contains("1 row"), "{out}");

        // stats mention stored bytes.
        let out = run_cmd(&["--db", db_s, "stats"]).unwrap();
        assert!(out.contains("documents:        1"), "{out}");
        assert!(out.contains("fti postings"), "{out}");
        assert!(out.contains("index checkpoint: generation"), "{out}");
        assert!(out.contains("vcache hits"), "{out}");

        // history range.
        let out = run_cmd(&["--db", db_s, "history", "guide", "--from", "10/01/2001"]).unwrap();
        assert!(out.contains("v1 @ 2001-01-31"), "{out}");
        assert!(out.contains("v0 @ 2001-01-01"), "{out}");
        let out = run_cmd(&["--db", db_s, "history", "guide", "--to", "01/01/1999"]).unwrap();
        assert!(out.contains("no versions valid"), "{out}");

        // delete.
        let out = run_cmd(&["--db", db_s, "delete", "guide", "--at", "01/03/2001"]).unwrap();
        assert!(out.contains("deleted @ 2001-03-01"), "{out}");
        let out = run_cmd(&["--db", db_s, "ls"]).unwrap();
        assert!(out.contains("deleted"), "{out}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shell_lines() {
        let db = Database::in_memory();
        db.put("d", "<a><b>x</b></a>", Timestamp::from_date(2001, 1, 1)).unwrap();
        db.put("d", "<a><b>y</b></a>", Timestamp::from_date(2001, 1, 2)).unwrap();
        let mut out = Vec::new();
        assert!(!shell_line(&db, ".ls", &mut out).unwrap());
        assert!(!shell_line(&db, ".log d", &mut out).unwrap());
        assert!(!shell_line(&db, ".history d", &mut out).unwrap());
        assert!(!shell_line(&db, ".help", &mut out).unwrap());
        assert!(!shell_line(&db, ".bogus", &mut out).unwrap());
        assert!(!shell_line(&db, r#"SELECT R FROM doc("d")[EVERY]//b R"#, &mut out).unwrap());
        assert!(shell_line(&db, ".quit", &mut out).unwrap());
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("d  (2 versions)"), "{text}");
        assert!(text.contains("v0"), "{text}");
        assert!(text.contains("<b>x</b>"), "{text}");
        assert!(text.contains("<b>y</b>"), "{text}");
        assert!(text.contains("2 rows"), "{text}");
        assert!(text.contains("unknown dot-command"), "{text}");
    }

    #[test]
    fn explain_analyze_prefix_and_flag() {
        let dir = tmpdir("explain");
        let db = dir.join("db");
        let f = dir.join("v.xml");
        std::fs::write(&f, "<g><r><n>Napoli</n><p>15</p></r></g>").unwrap();
        let db_s = db.to_str().unwrap();
        run_cmd(&["--db", db_s, "put", "guide", f.to_str().unwrap(), "--at", "01/01/2001"])
            .unwrap();

        let q = r#"SELECT R/p FROM doc("guide")//r R WHERE R/n = "Napoli""#;
        // --explain flag.
        let out = run_cmd(&["--db", db_s, "query", "--explain", q]).unwrap();
        assert!(out.contains("project"), "{out}");
        assert!(out.contains("index scan R: PatternScan"), "{out}");
        assert!(out.contains("rows="), "{out}");
        assert!(out.contains("<p>15</p>"), "{out}");
        // EXPLAIN ANALYZE prefix, case-insensitive.
        let prefixed = format!("explain analyze {q}");
        let out2 = run_cmd(&["--db", db_s, "query", &prefixed]).unwrap();
        assert!(out2.contains("index scan R: PatternScan"), "{out2}");
        // Plain query prints no plan tree.
        let out3 = run_cmd(&["--db", db_s, "query", q]).unwrap();
        assert!(!out3.contains("index scan"), "{out3}");

        assert_eq!(strip_explain_prefix("EXPLAIN ANALYZE SELECT x"), Some("SELECT x"));
        assert_eq!(strip_explain_prefix("  Explain  Analyze  SELECT"), Some("SELECT"));
        assert_eq!(strip_explain_prefix("EXPLAINANALYZE SELECT"), None);
        assert_eq!(strip_explain_prefix("SELECT EXPLAIN ANALYZE"), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn metrics_command_text_and_json() {
        let dir = tmpdir("metrics");
        let db = dir.join("db");
        let f = dir.join("v.xml");
        std::fs::write(&f, "<g><r><n>Napoli</n><p>15</p></r></g>").unwrap();
        let db_s = db.to_str().unwrap();
        run_cmd(&["--db", db_s, "put", "guide", f.to_str().unwrap(), "--at", "01/01/2001"])
            .unwrap();

        let out = run_cmd(&["--db", db_s, "metrics"]).unwrap();
        assert!(out.contains("buffer.gets"), "{out}");
        assert!(out.contains("wal.appends"), "{out}");
        assert!(out.contains("buffer.hit_ratio_bp"), "{out}");

        let json = run_cmd(&["--db", db_s, "metrics", "--json"]).unwrap();
        assert!(json.trim_start().starts_with('{'), "{json}");
        assert!(json.contains("\"counters\""), "{json}");
        assert!(json.contains("\"histograms\""), "{json}");
        assert!(json.contains("\"wal.appends\""), "{json}");
        // Balanced braces — a cheap well-formedness check; check.sh runs a
        // real JSON parse over this output.
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count(), "{json}");

        // stats surfaces the recovery fallback counters.
        let out = run_cmd(&["--db", db_s, "stats"]).unwrap();
        assert!(out.contains("full-replay fallback(s)"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsck_command_reports_and_repairs() {
        let dir = tmpdir("fsck");
        let db = dir.join("db");
        let f = dir.join("v.xml");
        std::fs::write(&f, "<a>x</a>").unwrap();
        let db_s = db.to_str().unwrap();
        run_cmd(&["--db", db_s, "put", "doc", f.to_str().unwrap(), "--at", "01/01/2001"]).unwrap();
        let out = run_cmd(&["--db", db_s, "fsck"]).unwrap();
        assert!(out.contains("status:           clean"), "{out}");
        assert!(out.contains("documents:        1"), "{out}");
        assert!(out.contains("index checkpoint: ok (generation"), "{out}");
        // Simulate a crash mid-append: garbage at the WAL tail.
        let mut w = std::fs::OpenOptions::new().append(true).open(db.join("wal.log")).unwrap();
        w.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        drop(w);
        // A torn tail is expected crash residue, not corruption.
        let out = run_cmd(&["--db", db_s, "fsck"]).unwrap();
        assert!(out.contains("wal torn bytes:   3"), "{out}");
        assert!(out.contains("status:           clean"), "{out}");
        let out = run_cmd(&["--db", db_s, "fsck", "--reclaim"]).unwrap();
        assert!(out.contains("reclaimed: nothing to do (no leaked pages)"), "{out}");
        let out = run_cmd(&["--db", db_s, "fsck", "--repair-tail"]).unwrap();
        assert!(out.contains("truncated from the WAL tail"), "{out}");
        let out = run_cmd(&["--db", db_s, "fsck", "--repair-tail"]).unwrap();
        assert!(out.contains("nothing to do"), "{out}");
        assert!(out.contains("journal:          absent"), "{out}");
        // A half-written (never sealed) checkpoint journal is crash
        // residue: never replayed, and retired automatically by the open
        // that every command performs — fsck already sees it gone.
        std::fs::write(db.join("journal.db"), [0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
        let out = run_cmd(&["--db", db_s, "fsck"]).unwrap();
        assert!(out.contains("journal:          absent"), "{out}");
        assert!(out.contains("status:           clean"), "{out}");
        let out = run_cmd(&["--db", db_s, "fsck", "--repair-tail"]).unwrap();
        assert!(out.contains("nothing to do"), "{out}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn errors_are_reported() {
        assert!(run_cmd(&[]).is_err());
        assert!(run_cmd(&["bogus"]).is_err());
        assert!(run_cmd(&["cat"]).is_err());
        assert!(run_cmd(&["log", "missing"]).is_err());
        assert!(run_cmd(&["--db"]).is_err());
        assert!(run_cmd(&["-h"]).is_err()); // usage via error path
        assert!(run_cmd(&["traces"]).is_err()); // --connect is required
        assert!(run_cmd(&["top"]).is_err());
    }

    /// `txdb traces` and `txdb top` against an in-process server: traced
    /// requests render as span trees, the slow log renders with its plan,
    /// and the dashboard prints windowed rates from `METRICS` deltas.
    #[test]
    fn traces_and_top_render_against_a_live_server() {
        use std::sync::Arc;
        let db = Arc::new(Database::in_memory());
        db.put("d", "<a><v>1</v></a>", Timestamp::from_secs(1_000_000)).unwrap();
        let cfg = ServerConfig { slow_us: Some(0), ..Default::default() };
        let server = Server::start(Arc::clone(&db), cfg).unwrap();
        let addr = server.addr().to_string();

        let mut client = Client::connect(&*addr).unwrap();
        let (_, trace, _) = client
            .query_stream_traced(r#"SELECT R FROM doc("d")//a R"#, None, true, |_| {})
            .unwrap();
        assert!(trace.is_some());

        let out = run_cmd(&["traces", "--connect", &addr]).unwrap();
        assert!(out.contains("cmd=query"), "{out}");
        assert!(out.contains("server.cmd.query_us"), "{out}");
        assert!(out.contains("query.run_us"), "{out}");

        let out = run_cmd(&["traces", "--connect", &addr, "--slow"]).unwrap();
        assert!(out.contains("slow-query log (threshold 0µs)"), "{out}");
        assert!(out.contains("SELECT R"), "{out}");
        assert!(out.contains("scan"), "{out}");

        let out =
            run_cmd(&["top", "--connect", &addr, "--interval-ms", "20", "--ticks", "2"]).unwrap();
        assert!(out.contains("txdb top"), "{out}");
        assert!(out.contains("── window"), "{out}");

        server.shutdown().unwrap();
    }
}
