//! EXPLAIN and EXPLAIN ANALYZE across the paper's workload suite, ending
//! with a validated Chrome-trace export of the 6-cycle's worker-attributed
//! parallel bag fan-out.
//!
//! Run with: `cargo run --release --example explain_analyze`
//! (`RE_SCALE` shrinks the instance — see `rankedenum::scale`.)

use rankedenum::datagen::BipartiteConfig;
use rankedenum::exec::ExecContext;
use rankedenum::obs;
use rankedenum::scale::scaled;
use rankedenum::server::Json;
use rankedenum::sql::{explain_query, ExplainMode, OwnedSqlExecutor};
use rankedenum::workloads::membership::WeightScheme;
use rankedenum::workloads::MembershipWorkload;
use std::sync::Arc;

/// Structural validation of an exported Chrome trace: it must parse as
/// JSON (the server's strict parser — integers only, so id corruption
/// cannot hide), expose a `traceEvents` array of complete (`ph == "X"`)
/// events, and attribute at least one bag-materialisation event to a pool
/// worker track (`tid >= 1`; `tid` 0 is the request thread).
fn validate_chrome_trace(json: &str) -> Result<(), String> {
    let doc = Json::parse(json).map_err(|e| format!("chrome trace does not parse: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    if events.is_empty() {
        return Err("empty traceEvents".to_string());
    }
    let mut bags = 0usize;
    let mut worker_attributed = 0usize;
    for ev in events {
        for key in ["name", "ph", "ts", "dur", "pid", "tid"] {
            if ev.get(key).is_none() {
                return Err(format!("event missing `{key}`: {ev}"));
            }
        }
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            return Err(format!("expected complete events only: {ev}"));
        }
        let name = ev.get("name").and_then(Json::as_str).unwrap_or_default();
        let on_worker = ev.get("tid").and_then(Json::as_u64).is_some_and(|t| t >= 1);
        if name == "bag.materialize" {
            bags += 1;
        }
        if on_worker && (name == "bag.materialize" || name == "exec.task") {
            worker_attributed += 1;
        }
    }
    if bags == 0 {
        return Err("no bag.materialize event in the trace".to_string());
    }
    if worker_attributed == 0 {
        return Err("no worker-attributed fan-out event in the trace".to_string());
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = MembershipWorkload::generate(
        "DBLP",
        BipartiteConfig::dblp_like(scaled(2_000), 7),
        WeightScheme::Random,
    );

    // ------------------------------------------- EXPLAIN: the whole suite
    println!("=== EXPLAIN over the workload suite ===");
    let suite = [
        ("two_hop", w.two_hop().query),
        ("three_hop", w.three_hop().query),
        ("four_hop", w.four_hop().query),
        ("three_star", w.three_star().query),
        ("four_cycle", w.cycle(2).0.query),
        ("six_cycle", w.cycle(3).0.query),
        ("bowtie", w.bowtie().0.query),
        ("star_project_first(3)", w.star_project_first(3).query),
    ];
    for (label, query) in suite {
        println!("--- {label}");
        print!("{}", explain_query(w.db(), &query)?);
    }

    // ------------------------- EXPLAIN ANALYZE: acyclic and cyclic, as SQL
    let db = Arc::new(w.db().clone());
    // Small morsels so even the smoke-scale instance fans out onto the pool.
    let ctx = ExecContext::with_threads(4)
        .with_morsel_rows(256)
        .with_min_par_rows(64);
    let exec = OwnedSqlExecutor::new(Arc::clone(&db)).with_exec_context(ctx);

    let two_hop = "SELECT DISTINCT M1.aid, M2.aid \
                   FROM AuthorPapers AS M1, AuthorPapers AS M2 \
                   WHERE M1.pid = M2.pid \
                   ORDER BY M1.aid + M2.aid LIMIT 20";
    println!("=== EXPLAIN ANALYZE: 2-hop ===");
    let report = exec.explain(two_hop, ExplainMode::Analyze)?;
    print!("{report}");
    if !report.contains("\n  delay: timed=") {
        return Err("the 2-hop ANALYZE report lacks its `delay:` line".into());
    }

    let six_cycle = "SELECT DISTINCT M1.aid, M3.aid \
                     FROM AuthorPapers AS M1, AuthorPapers AS M2, AuthorPapers AS M3, \
                          AuthorPapers AS M4, AuthorPapers AS M5, AuthorPapers AS M6 \
                     WHERE M1.pid = M2.pid AND M2.aid = M3.aid AND M3.pid = M4.pid \
                       AND M4.aid = M5.aid AND M5.pid = M6.pid AND M6.aid = M1.aid \
                     ORDER BY M1.aid + M3.aid LIMIT 20";
    println!("=== EXPLAIN ANALYZE: 6-cycle ===");

    // --------------------------- export + validate the 6-cycle's trace
    //
    // Worker attribution is a race the request thread can win: at smoke
    // scale the 6-cycle fans out only a couple of bag tasks, and on a
    // loaded machine the caller may drain the queue before any pool worker
    // wakes. Each analyze run is independent, so retry until a trace shows
    // pool-side work rather than failing on one unlucky schedule.
    let mut json = String::new();
    let mut trace = None;
    let mut last_err = String::new();
    for attempt in 0..8 {
        let report = exec.explain(six_cycle, ExplainMode::Analyze)?;
        if attempt == 0 {
            print!("{report}");
        }
        let t = obs::global()
            .latest_trace()
            .ok_or("EXPLAIN ANALYZE should have pushed a trace")?;
        json = t.to_chrome_json();
        match validate_chrome_trace(&json) {
            Ok(()) => {
                trace = Some(t);
                break;
            }
            Err(e) => last_err = e,
        }
    }
    let trace = trace.ok_or_else(|| format!("no valid trace after 8 analyze runs: {last_err}"))?;
    let path = std::env::temp_dir().join("rankedenum_explain_analyze.trace.json");
    std::fs::write(&path, &json)?;
    println!(
        "=== chrome trace ===\ntrace {} ({} spans, {} bytes) validated -> {}",
        trace.trace_id,
        trace.spans.len(),
        json.len(),
        path.display()
    );
    Ok(())
}
