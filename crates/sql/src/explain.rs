//! `EXPLAIN` / `EXPLAIN ANALYZE`: stable text rendering of how a statement
//! would run — and, for `ANALYZE`, how it actually ran.
//!
//! `EXPLAIN` renders the planner's output without executing anything: the
//! output columns, the resolved ranking, the pushed-down selections, the
//! chosen algorithm, the rooted join tree (acyclic statements) or the
//! cost-based GHD selection (cyclic statements: shape, candidates
//! compared, per-bag AGM estimates, fallback reason, and the single bag
//! the selected decomposition races at OPEN).
//!
//! `EXPLAIN ANALYZE` additionally runs the statement to completion under
//! an always-on trace and appends the actual per-operator counters — full
//! reducer passes and row counts, frontier work, per-bag actual rows
//! versus the AGM estimate, wcoj intersection counts, the bag race's
//! winner and wasted intersections, worker-pool
//! activity — plus the wall-clock [`TimingBreakdown`](re_obs::TimingBreakdown)
//! with time-to-first-answer and the sampled delay distribution (one
//! answer in 64 is timed), and the id of the recorded trace (kept in
//! the global registry's recent-trace ring for Chrome-trace export).
//!
//! The plan section is fully deterministic and golden-tested over the
//! workload suite; the execution section's *counters* are deterministic
//! at any thread count, while its timings naturally vary run to run.

use crate::error::SqlError;
use crate::exec::open_plan_on;
use crate::planner::{OrderSpec, PlannedQuery, SqlPlan};
use rankedenum_core::{BranchPlan, ExecContext, GhdReport, DELAY_SAMPLE_EVERY};
use re_obs::trace::TraceCtx;
use re_query::{GhdPlan, JoinProjectQuery, JoinTree};
use re_ranking::{Direction, WeightAssignment};
use re_storage::Database;
use std::fmt::Write as _;

pub use crate::ast::ExplainMode;

/// Render the plan of an already-planned statement as a stable text tree,
/// without executing it.
pub fn explain_plan(db: &Database, plan: &SqlPlan) -> Result<String, SqlError> {
    let mut out = String::from("EXPLAIN\n");
    render_plan(&mut out, db, plan)?;
    Ok(out)
}

/// Render the structural EXPLAIN of a bare join-project query (no SQL
/// statement): the algorithm chosen for a non-lexicographic ranking plus
/// the rooted join tree or the GHD selection. This is the query-level core of [`explain_plan`], exposed so
/// programmatically built queries (the workload suite) can be explained
/// and golden-tested without writing them as SQL first.
pub fn explain_query(db: &Database, q: &JoinProjectQuery) -> Result<String, SqlError> {
    let mut out = String::new();
    let projection: Vec<&str> = q.projection().iter().map(|a| a.as_str()).collect();
    let _ = writeln!(
        out,
        "query: join-project ({} atoms), output ({})",
        q.atoms().len(),
        projection.join(", ")
    );
    let branch = BranchPlan::of(q, false)?;
    let _ = writeln!(out, "algorithm: {}", branch.algorithm());
    render_branch_structure(&mut out, db, q, &branch, "")?;
    Ok(out)
}

/// Run an already-planned statement to completion under an always-on trace
/// and render the plan annotated with the actual per-operator counters,
/// the timing breakdown and the recorded trace id.
///
/// The completed trace is pushed into the global registry's recent-trace
/// ring, so callers (the server, the CI example) can export it as a
/// Chrome trace afterwards via [`re_obs::MetricsRegistry::latest_trace`].
pub fn explain_analyze(
    db: &Database,
    weights: &WeightAssignment,
    plan: &SqlPlan,
    ctx: &ExecContext,
) -> Result<String, SqlError> {
    let mut out = String::from("EXPLAIN ANALYZE\n");
    render_plan(&mut out, db, plan)?;

    // Run under an explicitly minted trace: ANALYZE bypasses sampling by
    // design — the user asked for this query to be observed.
    let trace_ctx = TraceCtx::new("explain-analyze");
    let pool_before = ctx.pool_stats();
    let (rows_emitted, mut snapshot, timing, report) = {
        let _guard = re_obs::trace::install(&trace_ctx, 0);
        // A frontier of its own, which no other cursor can attach to: the
        // counters below are this run's whole work, build included.
        let mut cursor = open_plan_on(db, weights, plan, ctx)?;
        let rows = cursor.fetch_all();
        (
            rows.len(),
            cursor.stats_snapshot(),
            cursor.timing(),
            cursor.ghd_report(),
        )
    };
    // Pool counters live in the execution context, not the cursor: fold in
    // the delta this statement caused. On a shared pool a concurrent
    // statement's tasks can leak into the window; EXPLAIN ANALYZE trades
    // that imprecision for a pool line that reflects the actual fan-out.
    let pool_after = ctx.pool_stats();
    snapshot.pool_tasks += pool_after
        .tasks_executed
        .saturating_sub(pool_before.tasks_executed);
    snapshot.pool_steals += pool_after
        .tasks_stolen
        .saturating_sub(pool_before.tasks_stolen);
    snapshot.pool_busy_micros += pool_after
        .busy_micros
        .saturating_sub(pool_before.busy_micros);
    let trace = trace_ctx.finish();
    let trace_id = trace.trace_id;
    let span_count = trace.spans.len();
    re_obs::global().push_trace(std::sync::Arc::new(trace));

    out.push_str("execution:\n");
    let s = &snapshot;
    let _ = writeln!(out, "  answers: {}", s.answers);
    debug_assert_eq!(rows_emitted as u64, s.answers);
    let _ = writeln!(
        out,
        "  reducer: passes={} input_rows={} output_rows={} filtered_rows={}",
        s.reduce_passes,
        s.reduce_input_rows,
        s.reduce_output_rows,
        s.reduce_input_rows.saturating_sub(s.reduce_output_rows)
    );
    let _ = writeln!(
        out,
        "  frontier: pq_pushes={} pq_pops={} cells_created={} cells_reused={}",
        s.pq_pushes, s.pq_pops, s.cells_created, s.cells_reused
    );
    let _ = writeln!(
        out,
        "  memory: frontier_bytes={} peak_bytes={}",
        s.frontier_bytes, s.frontier_peak_bytes
    );
    let _ = writeln!(
        out,
        "  pool: tasks={} steals={} busy_micros={}",
        s.pool_tasks, s.pool_steals, s.pool_busy_micros
    );
    if let Some(report) = &report {
        render_ghd_actuals(&mut out, report);
    }
    if let Some(t) = &timing {
        let _ = writeln!(
            out,
            "  timing: open={}us first_answer={}",
            t.open_nanos / 1_000,
            match t.first_answer_nanos {
                Some(ns) => format!("{}us", ns / 1_000),
                None => "none".to_string(),
            }
        );
        let us = |ns: u64| ns as f64 / 1e3;
        let _ = writeln!(
            out,
            "  delay: timed={} of {} (1 in {DELAY_SAMPLE_EVERY}) p50={:.3}us p99={:.3}us max≈{:.3}us",
            t.delay.count(),
            t.answers,
            us(t.delay.quantile(0.5)),
            us(t.delay.quantile(0.99)),
            us(t.delay.max_estimate())
        );
        if !t.phases.is_empty() {
            out.push_str("  phases:\n");
            for (name, nanos) in &t.phases {
                let _ = writeln!(out, "    {name}: {}us", nanos / 1_000);
            }
        }
    }
    let _ = writeln!(out, "  trace: {trace_id} ({span_count} spans)");
    Ok(out)
}

/// The actual per-bag counters of a GHD execution, next to the estimates
/// the planner chose the decomposition by.
fn render_ghd_actuals(out: &mut String, report: &GhdReport) {
    if report.bag_details.is_empty() {
        return;
    }
    out.push_str("  ghd bags (actual):\n");
    for d in &report.bag_details {
        let _ = writeln!(
            out,
            "    {}: atoms={} order=({}) interface=({}) estimated_rows={} walked_rows={} actual_rows={} intersections={}",
            d.name,
            d.atoms,
            d.attr_order.join(", "),
            d.interface.join(", "),
            d.estimated_rows
                .map(|e| e.to_string())
                .unwrap_or_else(|| "none".to_string()),
            d.walked_rows,
            d.actual_rows,
            d.intersections
        );
    }
    if let Some(loser) = &report.race_loser {
        // A plan opened before serves its recorded verdict: the race, and
        // its waste, belong to the OPEN that decided.
        let what = if report.recorded {
            "ghd verdict (recorded)"
        } else {
            "ghd race"
        };
        let _ = writeln!(
            out,
            "  {what}: winner={} intersections={} loser={} wasted_intersections={}",
            report.shape,
            report.intersections(),
            loser.shape,
            loser.wasted_intersections
        );
    }
}

fn render_plan(out: &mut String, db: &Database, plan: &SqlPlan) -> Result<(), SqlError> {
    match &plan.query {
        PlannedQuery::Single(q) => {
            let _ = writeln!(out, "statement: join-project ({} atoms)", q.atoms().len());
        }
        PlannedQuery::Union(u) => {
            let _ = writeln!(out, "statement: union ({} branches)", u.len());
        }
    }
    let _ = writeln!(out, "output: ({})", plan.output_columns.join(", "));
    out.push_str("ranking: ");
    match &plan.order {
        None => out.push_str("sum over all output columns (default)\n"),
        Some(OrderSpec::Sum(attrs)) => {
            let names: Vec<&str> = attrs.iter().map(|a| a.as_str()).collect();
            let _ = writeln!(out, "sum({})", names.join(" + "));
        }
        Some(OrderSpec::Lex(items)) => {
            let names: Vec<String> = items
                .iter()
                .map(|(a, d)| {
                    let dir = match d {
                        Direction::Asc => "asc",
                        Direction::Desc => "desc",
                    };
                    format!("{a} {dir}")
                })
                .collect();
            let _ = writeln!(out, "lex({})", names.join(", "));
        }
    }
    match plan.limit {
        Some(k) => {
            let _ = writeln!(out, "limit: {k}");
        }
        None => out.push_str("limit: none\n"),
    }
    if !plan.derived.is_empty() {
        out.push_str("derived relations:\n");
        for d in &plan.derived {
            let _ = writeln!(
                out,
                "  {} := filter({}) [{} predicate{}]",
                d.name,
                d.base,
                d.filters.len(),
                if d.filters.len() == 1 { "" } else { "s" }
            );
        }
    }

    // The decisions below were made when the statement was planned; GHD
    // selection alone runs here, as it does at OPEN, because it reads the
    // sizes of the (filtered) relations.
    let working = plan.working_database(db)?;
    let db = working.as_ref().unwrap_or(db);
    let _ = writeln!(out, "algorithm: {}", plan.algorithm());
    let in_union = matches!(plan.query, PlannedQuery::Union(_));
    let branches = plan.branch_queries().iter().zip(&plan.branches);
    for (i, (q, branch)) in branches.enumerate() {
        if in_union {
            let _ = writeln!(
                out,
                "branch {}: {} atoms, algorithm {}",
                i + 1,
                q.atoms().len(),
                branch.algorithm()
            );
        }
        let indent = if in_union { "  " } else { "" };
        render_branch_structure(out, db, q, branch, indent)?;
    }
    Ok(())
}

/// The structural section of one branch: the rooted join tree for acyclic
/// strategies, the GHD selection for cyclic ones.
fn render_branch_structure(
    out: &mut String,
    db: &Database,
    q: &JoinProjectQuery,
    branch: &BranchPlan,
    indent: &str,
) -> Result<(), SqlError> {
    match branch.join_tree() {
        Some(tree) => {
            let _ = writeln!(out, "{indent}join tree (rooted, projection-pruned):");
            let pruned = tree.prune_non_projecting();
            render_tree_node(out, &pruned, pruned.root(), &format!("{indent}  "));
        }
        None => render_ghd_selection(out, db, q, indent)?,
    }
    Ok(())
}

fn render_tree_node(out: &mut String, tree: &JoinTree, node: usize, indent: &str) {
    let n = tree.node(node);
    let vars: Vec<&str> = n.vars.iter().map(|v| v.as_str()).collect();
    let _ = write!(out, "{indent}- {}({})", n.atom_name, vars.join(", "));
    if n.parent.is_none() {
        out.push_str(" [root]");
    } else {
        let anchor: Vec<&str> = n.anchor.iter().map(|v| v.as_str()).collect();
        let _ = write!(out, " anchor=({})", anchor.join(", "));
    }
    if !n.own_proj.is_empty() {
        let own: Vec<&str> = n.own_proj.iter().map(|v| v.as_str()).collect();
        let _ = write!(out, " owns=({})", own.join(", "));
    }
    out.push('\n');
    for &c in &n.children {
        render_tree_node(out, tree, c, &format!("{indent}  "));
    }
}

/// Run the cost-based GHD selection the cyclic enumerator performs at OPEN
/// and render the winner with its per-bag AGM estimates, and the single
/// bag it races when it has two or more bags. Selection is deterministic,
/// so these are exactly the contenders execution would build; which one
/// wins the race only execution tells (`EXPLAIN ANALYZE`).
fn render_ghd_selection(
    out: &mut String,
    db: &Database,
    q: &JoinProjectQuery,
    indent: &str,
) -> Result<(), SqlError> {
    let selection = GhdPlan::cost_based(q, db)?;
    let plan = &selection.plan;
    let _ = writeln!(out, "{indent}ghd plan:");
    let _ = writeln!(out, "{indent}  shape: {}", plan.shape());
    let _ = writeln!(
        out,
        "{indent}  candidates compared: {}",
        selection.considered
    );
    if let Some(est) = plan.estimated_rows() {
        let _ = writeln!(
            out,
            "{indent}  estimated rows (AGM): {}",
            est.round() as u64
        );
    }
    // A single-bag winner is the fallback the enumerator reports and
    // counts; its reason already says why the cycle template failed.
    if let Some(reason) = selection.fallback() {
        let _ = writeln!(out, "{indent}  fallback: {reason}");
    } else if let Some(err) = &selection.cycle_error {
        let _ = writeln!(out, "{indent}  figure-2 candidate rejected: {err}");
    }
    let _ = writeln!(out, "{indent}  bags:");
    render_bags(out, q, plan, indent);
    // A decomposition of two or more bags races the single bag at OPEN
    // (`CyclicEnumerator::new_auto_ctx`): both contenders are listed.
    if plan.len() > 1 {
        let single = GhdPlan::single_bag(q);
        let _ = writeln!(out, "{indent}  raced against: {}", single.shape());
        render_bags(out, q, &single, indent);
    }
    Ok(())
}

/// One line per bag of `plan`: its attributes, atoms and AGM estimate.
fn render_bags(out: &mut String, q: &JoinProjectQuery, plan: &GhdPlan, indent: &str) {
    let estimates = plan.bag_estimates();
    for (i, bag) in plan.bags().iter().enumerate() {
        let attrs: Vec<&str> = bag.attrs.iter().map(|a| a.as_str()).collect();
        let atoms: Vec<&str> = bag
            .atoms
            .iter()
            .map(|&a| q.atoms()[a].name.as_str())
            .collect();
        let _ = write!(
            out,
            "{indent}    - {}({}) atoms=({})",
            bag.name,
            attrs.join(", "),
            atoms.join(", ")
        );
        if let Some(est) = estimates.and_then(|e| e.get(i)) {
            let _ = write!(out, " estimated_rows={}", est.round() as u64);
        }
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ExplainMode;
    use crate::exec::{SqlExecutor, SqlOutput};
    use re_storage::attr::attrs;
    use re_storage::Relation;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "AP",
                attrs(["aid", "pid"]),
                vec![
                    vec![1, 10],
                    vec![2, 10],
                    vec![3, 10],
                    vec![1, 11],
                    vec![4, 11],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.add_relation(
            Relation::with_tuples(
                "Paper",
                attrs(["pid", "flag"]),
                vec![vec![10, 1], vec![11, 0]],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    const TWO_HOP: &str = "SELECT DISTINCT AP1.aid, AP2.aid FROM AP AS AP1, AP AS AP2 \
                           WHERE AP1.pid = AP2.pid ORDER BY AP1.aid + AP2.aid";

    #[test]
    fn explain_renders_a_stable_acyclic_plan() {
        let db = db();
        let text = SqlExecutor::new(&db)
            .explain(TWO_HOP, ExplainMode::Plan)
            .unwrap();
        let expected = "\
EXPLAIN
statement: join-project (2 atoms)
output: (AP1.aid, AP2.aid)
ranking: sum(AP1.aid + AP2.aid)
limit: none
algorithm: acyclic
join tree (rooted, projection-pruned):
  - AP1(AP1.aid, AP1.pid) [root] owns=(AP1.aid)
    - AP2(AP2.aid, AP1.pid) anchor=(AP1.pid) owns=(AP2.aid)
";
        assert_eq!(text, expected);
    }

    #[test]
    fn explain_prefix_in_the_text_overrides_the_mode_argument() {
        let db = db();
        let exec = SqlExecutor::new(&db);
        let bare = exec.explain(TWO_HOP, ExplainMode::Plan).unwrap();
        let prefixed = exec
            .explain(&format!("EXPLAIN {TWO_HOP}"), ExplainMode::Analyze)
            .unwrap();
        assert_eq!(bare, prefixed, "written EXPLAIN prefix wins over Analyze");
    }

    #[test]
    fn explain_renders_derived_relations_and_limits() {
        let db = db();
        let text = SqlExecutor::new(&db)
            .explain(
                "SELECT DISTINCT AP.aid FROM AP, Paper AS P \
                 WHERE AP.pid = P.pid AND P.flag = TRUE ORDER BY AP.aid LIMIT 3",
                ExplainMode::Plan,
            )
            .unwrap();
        assert!(text.contains("limit: 3"), "{text}");
        assert!(text.contains("derived relations:"), "{text}");
        assert!(text.contains("[1 predicate]"), "{text}");
        assert!(text.contains("ranking: lex(AP.aid asc)"), "{text}");
        assert!(text.contains("algorithm: lexi"), "{text}");
    }

    #[test]
    fn explain_renders_union_branches() {
        let text = SqlExecutor::new(&db())
            .explain(
                "SELECT DISTINCT AP1.aid, AP2.aid FROM AP AS AP1, AP AS AP2 \
                 WHERE AP1.pid = AP2.pid \
                 UNION \
                 SELECT DISTINCT P1.pid, P2.pid FROM Paper AS P1, Paper AS P2 \
                 WHERE P1.flag = P2.flag",
                ExplainMode::Plan,
            )
            .unwrap();
        assert!(text.contains("statement: union (2 branches)"), "{text}");
        assert!(text.contains("algorithm: union-merge"), "{text}");
        assert!(
            text.contains("branch 1: 2 atoms, algorithm acyclic"),
            "{text}"
        );
        assert!(
            text.contains("branch 2: 2 atoms, algorithm acyclic"),
            "{text}"
        );
    }

    #[test]
    fn explain_analyze_counters_match_an_independent_cursor_run() {
        let db = db();
        let exec = SqlExecutor::new(&db);
        let text = exec.explain(TWO_HOP, ExplainMode::Analyze).unwrap();
        assert!(text.starts_with("EXPLAIN ANALYZE\n"), "{text}");

        // Ground truth: the same statement through a plain cursor. Every
        // counter is deterministic, so the two runs agree exactly.
        let mut cursor = exec.open(TWO_HOP).unwrap();
        let rows = cursor.fetch_all();
        let s = cursor.stats_snapshot();
        assert!(text.contains(&format!("answers: {}", rows.len())), "{text}");
        assert!(
            text.contains(&format!(
                "reducer: passes={} input_rows={} output_rows={} filtered_rows={}",
                s.reduce_passes,
                s.reduce_input_rows,
                s.reduce_output_rows,
                s.reduce_input_rows - s.reduce_output_rows
            )),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "frontier: pq_pushes={} pq_pops={} cells_created={} cells_reused={}",
                s.pq_pushes, s.pq_pops, s.cells_created, s.cells_reused
            )),
            "{text}"
        );
        // The analyze run recorded a trace and pushed it into the ring.
        // Found by the id the report prints, not as the ring's newest
        // entry: other tests of this binary push traces concurrently.
        let id = text
            .split_once("trace: ")
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no trace line in {text}"));
        let trace = re_obs::global()
            .recent_traces()
            .into_iter()
            .find(|t| t.trace_id.to_string() == id)
            .expect("the report's trace is in the ring");
        // The acyclic open runs the reducer under the installed trace.
        assert!(trace.spans_named("preprocess.reduce").count() > 0);
    }

    #[test]
    fn execute_dispatches_rows_and_explanations() {
        let db = db();
        let exec = SqlExecutor::new(&db);
        match exec.execute(TWO_HOP).unwrap() {
            SqlOutput::Rows(r) => assert!(!r.rows.is_empty()),
            other => panic!("expected rows, got {other:?}"),
        }
        match exec.execute(&format!("EXPLAIN {TWO_HOP}")).unwrap() {
            SqlOutput::Explained(text) => assert!(text.starts_with("EXPLAIN\n")),
            other => panic!("expected explanation, got {other:?}"),
        }
        match exec
            .execute(&format!("EXPLAIN ANALYZE {TWO_HOP};"))
            .unwrap()
        {
            SqlOutput::Explained(text) => {
                assert!(text.starts_with("EXPLAIN ANALYZE\n"));
                assert!(text.contains("execution:"));
            }
            other => panic!("expected explanation, got {other:?}"),
        }
    }

    #[test]
    fn explain_query_renders_bare_queries() {
        let db = db();
        let q = re_query::QueryBuilder::new()
            .atom("E1", "AP", ["x", "y"])
            .atom("E2", "AP", ["y", "z"])
            .project(["x", "z"])
            .build()
            .unwrap();
        let text = explain_query(&db, &q).unwrap();
        assert!(
            text.contains("query: join-project (2 atoms), output (x, z)"),
            "{text}"
        );
        assert!(text.contains("algorithm: acyclic"), "{text}");
        assert!(text.contains("join tree"), "{text}");
    }
}
